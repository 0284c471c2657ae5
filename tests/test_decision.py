import functools
import operator
import random
from itertools import product
from pathlib import Path

import pytest

from onlyknow import decision, k45
from onlyknow.corpus import generate_random
from onlyknow.decision import BudgetExceededError, Decider, Verdict, _Groups, _Trail, to_clauses
from onlyknow.finite_semantics import oracle_valid, reduce_n_to_l
from onlyknow.formula import (
    And,
    Atom,
    FALSE,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    TRUE,
    Val,
    assign,
    atoms,
    conj,
    conjuncts,
    disj,
    fold,
    is_i_objective,
    join,
    leaves,
    modal_depth,
    only_knows,
    parse,
    simplify,
    substitute_atom,
    to_text,
    walk,
)
from onlyknow.normal_form import reassemble, to_normal_form

p, q = Atom("p"), Atom("q")


# -- V elimination -----------------------------------------------------


def test_verdict_compares_by_status_and_reads_as_its_truth():
    assert Verdict("valid") == Verdict("valid")
    assert Verdict("valid") != Verdict("invalid")
    assert Verdict("valid") != "valid"
    assert repr(Verdict("valid")) == "Verdict(status='valid')"
    with pytest.raises(TypeError):
        hash(Verdict("valid"))
    truth = {s: bool(Verdict(s)) for s in ("satisfiable", "unsatisfiable", "valid", "invalid")}
    assert truth == {"satisfiable": True, "unsatisfiable": False, "valid": True, "invalid": False}
    match Verdict("valid"):
        case Verdict("valid"):
            matched = True
        case _:
            matched = False
    assert matched


def test_eliminate_val_examples():
    assert Decider().eliminate_val(parse("V (p | ~p)")) is TRUE
    assert Decider().eliminate_val(parse("V p")) is FALSE
    assert Decider().eliminate_val(parse("C p")) is TRUE


def test_eliminate_val_nested_and_under_modalities():
    assert Decider().eliminate_val(parse("L1 (V (p -> p) & q)", 1)) == L(1, q)
    # inner V resolves first, then the outer sees a constant
    assert Decider().eliminate_val(parse("V (V p | ~V p)")) is TRUE


def test_eliminate_val_returns_a_val_free_input_unchanged():
    # A simplified V-free input comes back as the same object; any other
    # V-free input comes back simplified.
    f = parse("(p & true | L1 (q & q)) -> ~~N2 p", 2)
    g = simplify(f)
    assert g != f
    assert Decider().eliminate_val(f) == g
    assert Decider().eliminate_val(g) is g


def test_eliminate_val_keeps_a_simplified_input_simplified():
    # Every node is folded, so the output is simplified whatever the input.
    for seed in range(80):
        f = generate_random(seed, "full", max_modal_depth=2, n_atoms=2, n_agents=2)
        for h in (f, simplify(f)):
            g = Decider().eliminate_val(h)
            assert simplify(g) is g, to_text(h)
    assert Decider().eliminate_val(parse("L1 (q | true) & V (p | ~p)", 1)) is TRUE


def test_eliminate_val_is_val_free():
    for seed in range(80):
        f = generate_random(seed, "full", max_modal_depth=2, n_atoms=2, n_agents=2)
        g = Decider().eliminate_val(f)
        assert not any(isinstance(x, Val) for x in walk(g))


# -- satisfiability ----------------------------------------------------


@pytest.mark.parametrize(
    "text,agents,expected",
    [
        ("O1 ~O2 p", 2, "satisfiable"),
        ("N1 ~O2 p & L1 ~O2 p", 2, "unsatisfiable"),
        ("O1 p & L1 q", 2, "unsatisfiable"),
        ("L1 false & N1 false", 1, "unsatisfiable"),
        ("L1 p & ~L1 q", 2, "satisfiable"),
        ("O1 false", 1, "satisfiable"),
        ("p & ~p", 1, "unsatisfiable"),
    ],
)
def test_consistency_facts(text, agents, expected):
    assert Decider().consistent(parse(text, agents)).status == expected


@pytest.mark.parametrize(
    "text",
    [
        "O1 (~L1 L2 p -> ~L2 p) -> L1 ~L2 p",
        "O1 (L2 p & (~L1 L2 p -> ~L2 p)) -> L1 L2 p",
        "L2 O1 (~L1 ~p -> p) -> L2 L1 p",
        "N1 L2 p -> ~L1 L2 p",
    ],
)
def test_validity_facts(text):
    assert Decider().valid(parse(text, 2)).status == "valid"


def test_propositional_examples():
    assert Decider().consistent(parse("p & ~p")).status == "unsatisfiable"
    assert Decider().consistent(parse("p & ~q")).status == "satisfiable"
    assert Decider().consistent(parse("(p -> q) & p & ~q")).status == "unsatisfiable"
    assert Decider().valid(parse("(p -> q) & p -> q")).status == "valid"


def _by_truth_table(f):
    names = sorted(atoms(f))
    return any(
        simplify(assign(f, {Atom(a): bit for a, bit in zip(names, bits)})) is TRUE
        for bits in product((False, True), repeat=len(names))
    )


def test_propositional_fragment_matches_truth_table():
    for seed in range(120):
        f = generate_random(seed, "basic", max_modal_depth=0, n_atoms=3, n_agents=1)
        assert bool(Decider().consistent(f)) == _by_truth_table(f), to_text(f)


def test_duality_end_to_end():
    for seed in range(120):
        f = generate_random(seed + 100, "full", max_modal_depth=2, n_atoms=3, n_agents=2)
        assert bool(Decider().valid(f)) == (not bool(Decider().consistent(Not(f)))), to_text(f)


def test_necessitation_closure_on_sampled_valid_formulas():
    d = Decider()
    found = 0
    for seed in range(400):
        f = generate_random(seed, "full", max_modal_depth=1, n_atoms=2, n_agents=2, size=5)
        if not bool(d.valid(f)):
            continue
        found += 1
        for agent in (1, 2):
            assert bool(d.valid(L(agent, f)))
            assert bool(d.valid(N(agent, f)))
        if found >= 15:
            break
    assert found >= 5


def test_search_matches_the_normal_form_reference():
    # a V-free formula is satisfiable iff some normal-form disjunct
    # passes every group test; the search must agree, on each random
    # formula and on its negation.  The O-pairs O1 a & L1 b & ~L1 c and
    # O1 a & O2 b & ~L2 c, a with dependencies, take the pair rule in
    # the search, while the reference's block_consistent keeps the union.
    inputs = []
    for seed in range(320):
        profile = ("basic", "full")[seed % 2]
        inputs.append(
            generate_random(
                seed + 3000, profile, max_modal_depth=2, n_atoms=3, n_agents=2, size=4 + seed % 9, allow_val=False
            )
        )
    for seed in range(200):
        a, b, c = (
            generate_random(seed + k, "full", max_modal_depth=2, n_atoms=2, n_agents=2, size=6, allow_val=False)
            for k in (3500, 3800, 4100)
        )
        rest = L(1, b) & Not(L(1, c)) if seed % 2 else only_knows(2, b) & Not(L(2, c))
        inputs.append(only_knows(1, L(1, a) | a) & rest)
    verdicts, fired = [], 0
    for f in inputs:
        for g in (f, Not(f)):
            d = Decider()
            reference = any(all(d.block_consistent(b) for b in nf.blocks) for nf in to_normal_form(g))
            rules = []
            assert bool(Decider(trace=lambda level, rule, h: rules.append(rule)).consistent(g)) == reference, to_text(g)
            verdicts.append(reference)
            fired += any("only-knowing base" in rule for rule in rules)
    assert verdicts.count(False) >= 30  # unsatisfiable cases are in the sample too
    assert fired >= 120, fired  # 145 of the 800 searches test a pair


@pytest.mark.parametrize(
    "text, expected",
    [
        ("L1 p & N1 q", False),  # one agent: the union p | q must be valid
        ("L1 p & N2 q", True),
        ("p & L1 ~p", True),  # no truth axiom: the world need not be believed
        ("(p | q) & ~p & ~q", False),  # joined through shared atoms
        ("s & L1 p & N1 q", False),  # an unsatisfiable component beside another
    ],
)
def test_group_components_join_on_shared_atoms_and_agents(text, expected):
    # Each conjunct is satisfiable on its own, and the memo of d then
    # says so.  Under L3 with a negated conjunct over a fresh atom, the
    # positive argument is split into components that the memo answers,
    # so a split that separated conjuncts sharing an atom or an agent
    # would call the unsatisfiable ones satisfiable.
    f = parse(text, 3)
    d = Decider()
    assert all(d.consistent(g) for g in _conjuncts(f))
    assert bool(d.consistent(f)) is expected
    assert bool(d.consistent(parse(f"L3 ({text}) & ~L3 z", 3))) is expected


def _conjuncts(f):
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _renamed_apart(f, names, suffix):
    for name in names:
        f = substitute_atom(f, name, Atom(name + suffix))
    return f


def test_conjunctions_of_independent_parts_agree_with_the_oracles():
    # f = a & b, with b's atoms renamed apart from a's, and L1 f & ~L1 c:
    # there the positive argument a & b splits into components, and ~c,
    # over a's atoms, is searched against a's side only.  One Decider
    # per family, so components come back from the memo too.
    d = Decider()
    for seed in range(100):
        a, b, c = (
            generate_random(seed + k, "basic", max_modal_depth=2, n_atoms=3, n_agents=2, size=8)
            for k in (7000, 8000, 8500)
        )
        f = a & _renamed_apart(b, ("p", "p1", "p2"), "b")
        for g in (f, L(1, f) & Not(L(1, c))):
            assert bool(d.consistent(g)) == k45.sat(g), to_text(g)
            assert bool(d.valid(g)) == (not k45.sat(Not(g))), to_text(g)
    d = Decider()
    for seed in range(100):
        a, b, c = (
            generate_random(seed + k, "full", max_modal_depth=2, n_atoms=1, n_agents=1, size=6, allow_val=False)
            for k in (9000, 9500, 9700)
        )
        f = a & _renamed_apart(b, ("p",), "b")
        for g in (f, L(1, f) & Not(L(1, c))):
            assert bool(d.valid(g)) == oracle_valid(g, ("p", "pb"), semantics="extended").valid, to_text(g)
            consistent = not oracle_valid(Not(g), ("p", "pb"), semantics="extended").valid
            assert bool(d.consistent(g)) == consistent, to_text(g)


# -- clause form and cofactors -------------------------------------------

_LEAVES = (p, q, Atom("r"), L(1, p), N(1, q), L(1, Atom("r")), L(2, p), N(2, q))


def _random_skeleton(rng, depth):
    """A random Boolean combination of _LEAVES, with <->, ->, nested ~."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_LEAVES)
    kind = rng.choice((And, Or, Implies, Iff, Iff, Not))
    if kind is Not:
        return Not(_random_skeleton(rng, depth - 1))
    return kind(_random_skeleton(rng, depth - 1), _random_skeleton(rng, depth - 1))


def _column(j, n):
    """The truth column of bit j over the 2^n assignments to n bits."""
    block = ((1 << (1 << j)) - 1) << (1 << j)
    return block * (((1 << (1 << n)) - 1) // ((1 << (1 << (j + 1))) - 1))


def _table(f, columns, full):
    """The truth column of f, given a column for each Boolean-level leaf."""
    if f is TRUE or f is FALSE:
        return full if f is TRUE else 0
    if isinstance(f, Not):
        return full & ~_table(f.sub, columns, full)
    if isinstance(f, (And, Or, Implies, Iff)):
        a, b = _table(f.left, columns, full), _table(f.right, columns, full)
        if isinstance(f, And):
            return a & b
        if isinstance(f, Or):
            return a | b
        return (full & ~a) | b if isinstance(f, Implies) else full & ~(a ^ b)
    return columns[f]


def test_polarity_clause_form_is_equisatisfiable_on_every_leaf_assignment():
    # Truth tables over every leaf and definition value: the leaf
    # assignments that extend to a model of the clauses are exactly the
    # models of the formula.
    rng = random.Random(17)
    checked = 0
    for _ in range(400):
        f = _random_skeleton(rng, 4)
        variables, clauses = to_clauses(f)
        names = list(dict.fromkeys(leaves(f)))
        k, n = len(names), len(names) + variables.count(None)
        if n > 14:
            continue
        bit = {g: j for j, g in enumerate(names)}
        defs = iter(range(k, n))
        full = (1 << (1 << n)) - 1
        columns = [_column(bit[g] if g is not None else next(defs), n) for g in variables]
        models = full
        for c in clauses:
            literals = (columns[x - 1] if x > 0 else full & ~columns[-x - 1] for x in c)
            models &= functools.reduce(operator.or_, literals, 0)
        width = 1 << k
        extendable = functools.reduce(operator.or_, (models >> (d * width) for d in range(1 << (n - k))), 0)
        leaf_columns = {g: _column(j, k) for j, g in enumerate(names)}
        assert extendable & ((1 << width) - 1) == _table(f, leaf_columns, (1 << width) - 1), to_text(f)
        checked += 1
    assert checked > 250


def _nnf(f, neg, leaf):
    """Reference: the negation normal form of f, negated when neg, with
    each Boolean-level leaf g read as leaf(g, negated), each node folded
    as it is built."""
    if isinstance(f, Not):
        return _nnf(f.sub, not neg, leaf)
    if isinstance(f, (And, Or)):
        op = (Or if isinstance(f, And) else And) if neg else type(f)
        return fold(op(_nnf(f.left, neg, leaf), _nnf(f.right, neg, leaf)))
    if isinstance(f, Implies):
        return fold((And if neg else Or)(_nnf(f.left, not neg, leaf), _nnf(f.right, neg, leaf)))
    if isinstance(f, Iff):
        x, nx, y, ny = (_nnf(g, s, leaf) for g in (f.left, f.right) for s in (False, True))
        if neg:
            return fold(Or(fold(And(x, ny)), fold(And(nx, y))))
        return fold(And(fold(Or(nx, y)), fold(Or(ny, x))))
    return leaf(f, neg)


def _settled_leaf(var, value, weak):
    """A dependency becomes its value by polarity, or weak while it is
    unassigned; any other leaf is kept."""

    def leaf(g, neg):
        if g not in var:
            return fold(Not(g)) if neg else g
        x = value[var[g]]
        return weak if x is None else TRUE if x != neg else FALSE

    return leaf


def test_one_pass_cofactor_matches_the_weakened_negation_normal_form():
    # The agent-1 modal leaves are the dependencies, some assigned and
    # some pending.  The reference reads each leaf as it builds the
    # negation normal form: an assigned dependency becomes its constant
    # by polarity, a pending one the weak value.  Under TRUE the result
    # must be implied by every completion of the pending leaves, and
    # under FALSE it must imply every one.  Literals of one pending atom
    # do not cancel first: with L1 q pending and L1 r false, L1 q and
    # ~L1 q each become the weak value.
    f, var = parse("L1 q & (L1 r | ~L1 q)"), {parse("L1 q"): 0, parse("L1 r"): 1}
    d = Decider()
    settle = _Groups({}, {}, [None, False], d._own, d._tick).settle
    assert settle(f, False, var, TRUE) is TRUE
    assert settle(f, True, var, FALSE) is FALSE
    rng = random.Random(23)
    deps = [g for g in _LEAVES if isinstance(g, (L, N)) and g.agent == 1]
    var = {g: w for w, g in enumerate(deps)}
    pending_seen = 0
    for _ in range(1500):
        f = simplify(_random_skeleton(rng, 4))
        value = [rng.choice((True, False, None)) for _ in deps]
        pending = [w for w in range(len(deps)) if value[w] is None]
        pending_seen += bool(pending)
        completions = [
            [dict(zip(pending, bits)).get(w, x) for w, x in enumerate(value)]
            for bits in product((True, False), repeat=len(pending))
        ]
        for neg in (False, True):
            each = [_nnf(f, neg, _settled_leaf(var, c, None)) for c in completions]
            for weak in (TRUE, FALSE):
                got = _Groups({}, {}, value, d._own, d._tick).settle(f, neg, var, weak)
                want = _nnf(f, neg, _settled_leaf(var, value, weak))
                names = list(dict.fromkeys([*leaves(got), *leaves(want), *(g for c in each for g in leaves(c))]))
                columns = {g: _column(j, len(names)) for j, g in enumerate(names)}
                full = (1 << (1 << len(names))) - 1
                table = _table(got, columns, full)
                assert table == _table(want, columns, full), (to_text(f), neg, weak)
                for c in each:
                    completion = _table(c, columns, full)
                    assert (completion & ~table if weak is TRUE else table & ~completion) == 0, (to_text(f), neg, weak)
    assert pending_seen > 800


def _cofactor_reference(c, leaf, var, value, positive):
    """Reference: every part of leaf's argument settled afresh, then joined."""
    negated = isinstance(leaf.sub, Not) and isinstance(leaf.sub.sub, And)
    parts = []
    for part in conjuncts(leaf.sub.sub if negated else leaf.sub):
        if any(g in var for g in leaves(part)):
            parts.append(c.settle(part, negated, var, TRUE if positive else FALSE))
        else:
            parts.append(fold(Not(part)) if negated else part)
    return join(Or if negated else And, parts)


def test_per_part_cofactor_is_the_joined_reference_at_every_step(monkeypatch):
    # L1 kb and N1 ~kb of a default theory with blocked defaults, their
    # dependencies the L1 ~b atoms of kb, driven through seeded
    # assign/undo steps in which values also revert; each call must
    # give the very argument a from-scratch settle-and-join gives, and
    # conjuncts whose conjunction is equivalent to it.  kb's last
    # default settles to a conjunction, so L1 kb reads a part that is an
    # And, and N1 ~kb's parts are joined by Or.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import default_theory

    kb = parse(default_theory(6, {2}, {1, 2, 4}).kb + " & (~L1 ~b3 -> f3 & f5)", 2)
    own = list(dict.fromkeys(g for g in leaves(kb) if isinstance(g, (L, N)) and g.agent == 1))
    modal = {1: L(1, kb), 2: N(1, Not(kb)), **{w: g for w, g in enumerate(own, 3)}}
    ws = tuple(range(3, 3 + len(own)))
    var = {g: w for w, g in enumerate(own, 3)}
    value = [None] * (3 + len(own))
    names = list(dict.fromkeys(leaves(kb)))
    columns = {g: _column(j, len(names)) for j, g in enumerate(names)}
    full = (1 << (1 << len(names))) - 1
    d = Decider()
    c = _Groups(modal, {1: ws, 2: ws}, value, d._own, d._tick)
    rng = random.Random(20)
    history, reverted, and_parts, equivalent = [], 0, 0, set()
    for _ in range(500):
        w = rng.choice(ws)
        value[w] = rng.choice((True, False, None))
        state = tuple(value)
        reverted += state in history
        history.append(state)
        for v in (1, 2):
            for positive in (True, False):
                got = c.argument(v, positive)
                assert got is _cofactor_reference(c, modal[v], var, value, positive), (state, v, positive)
                read = c.conjuncts(v, positive)
                assert not any(isinstance(g, And) or g is TRUE for g in read), (state, v, positive)
                joined = join(And, read)
                if (got, joined) not in equivalent:
                    assert _table(joined, columns, full) == _table(got, columns, full), (state, v, positive)
                    equivalent.add((got, joined))
            and_parts += any(isinstance(g, And) for g in c._parts(1, True)[1])
    assert c._parts(2, True)[0] is Or and c._parts(1, True)[0] is And
    assert len(own) >= 5 and reverted > 100 and and_parts > 200 and len(equivalent) > 80, (and_parts, len(equivalent))


class _SearchOnly(Decider):
    """The search with no literal-set shortcut: every formula is clausified."""

    def _literal_set_ok(self, variables, clauses, level):
        return None


class _Searches(Decider):
    """A decider that records the level of each search it runs."""

    def __init__(self):
        super().__init__()
        self.levels = []

    def _search(self, variables, clauses, level):
        self.levels.append(level)
        return super()._search(variables, clauses, level)


def _random_literal_set(rng):
    """A conjunction of literals over p, q (and r, with two agents) and L/N
    atoms with no own modal atom, written with &, ~(x | y) and ~(x -> y),
    with repeats and complementary pairs.  A set of one agent keeps to p
    and q, the finite oracle's alphabet."""
    agents = (1,) if rng.random() < 0.3 else (1, 2)
    names = ("p", "q") if agents == (1,) else ("p", "q", "r")

    def argument(agent):
        other = [j for j in agents if j != agent]
        x = Atom(rng.choice(names))
        if other and rng.random() < 0.4:
            x = rng.choice((L, N))(other[0], x)
        if rng.random() < 0.4:
            x = Not(x)
        if rng.random() < 0.3:
            x = rng.choice((And, Or))(x, Atom(rng.choice(names)))
        return x

    def literal():
        if rng.random() < 0.3:
            leaf = Atom(rng.choice(names))
        else:
            agent = rng.choice(agents)
            leaf = rng.choice((L, N))(agent, argument(agent))
        return leaf if rng.random() < 0.5 else Not(leaf)

    lits = [literal() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        lits.append(rng.choice(lits))
    if rng.random() < 0.25:
        x = rng.choice(lits)
        lits.append(x.sub if isinstance(x, Not) else Not(x))
    rng.shuffle(lits)

    def write(xs):
        if len(xs) == 1:
            return xs[0]
        k = rng.randrange(1, len(xs))
        x, y = write(xs[:k]), write(xs[k:])
        form = rng.randrange(3)
        if form == 0:
            return And(x, y)
        return Not(Or(Not(x), Not(y))) if form == 1 else Not(Implies(x, Not(y)))

    return write(lits), agents


def test_literal_sets_skip_the_search_and_agree_with_the_oracles():
    # The search without the shortcut checks every set; the K45 prover the
    # basic ones, and the finite oracle, once per simplified set, those of
    # one agent.
    rng = random.Random(2020)
    counts = {"literal path": 0, "k45": 0, "oracle": 0, "unsatisfiable": 0}
    by_oracle = {}
    for _ in range(2000):
        f, agents = _random_literal_set(rng)
        g = Decider().eliminate_val(f)
        if g is not TRUE and g is not FALSE:
            assert Decider()._literal_set_ok(*to_clauses(g), 0) is not None, to_text(f)
            counts["literal path"] += 1
        verdict = bool(Decider().consistent(f))
        assert verdict == bool(_SearchOnly().consistent(f)), to_text(f)
        counts["unsatisfiable"] += not verdict
        if not any(isinstance(h, N) for h in walk(f)):
            assert verdict == k45.sat(f), to_text(f)
            counts["k45"] += 1
        if agents == (1,):
            if g not in by_oracle:
                by_oracle[g] = not oracle_valid(fold(Not(g)), ("p", "q"), semantics="extended").valid
            assert verdict == by_oracle[g], to_text(f)
            counts["oracle"] += 1
    assert counts["literal path"] > 1600 and min(counts.values()) > 300, counts


@pytest.mark.parametrize(
    "text, oracle",
    [
        ("L1 (p | L1 q) & ~L1 r", lambda f: k45.sat(f)),
        ("N1 (p & ~L1 q) & ~L1 ~q", lambda f: not oracle_valid(Not(f), ("p", "q"), semantics="extended").valid),
    ],
)
def test_a_literal_over_a_dependent_modal_atom_is_searched(text, oracle):
    # The leaf's argument holds its own agent's modal atom, which the
    # search must guess, so the query itself, at level 0, is searched.
    f = parse(text, 1)
    decider = _Searches()
    assert bool(decider.consistent(f)) == oracle(f)
    assert 0 in decider.levels


def test_only_knowing_pairs_agree_with_the_extended_oracle():
    # O1 kb -> M over bases of up to two conjuncts, most with their own
    # modal atoms: refuting a query L1 x or ~L1 x leaves O1 kb's pair the
    # group's only N literal, so the group is tested as the pair; ~N1 x
    # adds a second N literal, and the union rule tests it.
    bases = [parse(a) for a in ("~L1 ~p -> q", "~L1 q -> ~p", "L1 p | q", "N1 ~p -> q", "~L1 p -> ~L1 q", "p -> q")]
    bases += [a & b for i, a in enumerate(bases) for b in bases[i + 1 :]]
    xs = [parse(x) for x in ("p", "~q", "p | q", "p & ~q", "q -> p")]
    queries = [m for x in xs for m in (L(1, x), Not(L(1, x)), Not(N(1, x)))]
    cases = fired = 0
    for kb in bases:
        for query in queries:
            f = Implies(only_knows(1, kb), query)
            rules = []
            verdict = Decider(trace=lambda level, rule, g: rules.append(rule)).valid(f)
            assert bool(verdict) == oracle_valid(f, ("p", "q"), semantics="extended").valid, to_text(f)
            cases += 1
            fired += any("only-knowing base" in rule or "the base's" in rule for rule in rules)
    # The pair rule or the pair's propagation traces for every L1 x and
    # ~L1 x query: the pair propagates before its group is tested, so 41
    # of them fail through a forced literal before the pair rule's line.
    assert (cases, fired) == (315, 210)


@pytest.mark.parametrize(
    "text, pair",
    [
        ("L1 p & N1 ~p", True),
        ("L1 p & N1 ~p & ~L1 q", True),
        ("L1 p & N1 ~p & ~L1 (p | q)", False),  # the pair's negated L fails before its entailment line
        ("L1 p & N1 ~p & L1 q", True),  # p does not entail q
        ("L1 p & N1 ~p & N1 q", False),  # a second positive N literal
        ("L1 p & N1 ~p & ~N1 q", False),  # a negated N literal
        ("~L1 p & N1 ~p", False),  # L1 p negated
        ("L2 p & N2 ~p & L1 q & ~L1 r", True),  # agent 2's pair beside agent 1's union
        ("L1 p & N1 ~p & L1 q & N1 ~q", False),  # O1 p & O1 q: two N literals
    ],
)
def test_the_literal_set_and_the_search_pick_the_same_group_rule(text, pair):
    # Both paths test a group through one routine, so a literal set and
    # its clause form give the same verdict and the same group lines.
    f = parse(text, 2)
    assert Decider()._literal_set_ok(*to_clauses(f), 0) is not None
    runs = []
    for decider in (Decider, _SearchOnly):
        lines = []
        verdict = decider(trace=lambda level, rule, g: lines.append((rule, g))).consistent(f)
        runs.append((bool(verdict), [line for line in lines if line[0].startswith("agent ")]))
    assert runs[0] == runs[1], text
    assert any("only-knowing base" in rule for rule, _ in runs[0][1]) == pair, runs[0]


class _NoSearch(Decider):
    """A decider whose search must not run."""

    def _search(self, *args):
        raise AssertionError("searched")


@pytest.mark.parametrize(
    "text, literals",
    [
        ("p2 -> p2 | L1 ~L1 (p1 <-> ~p2)", "true"),
        ("L1 N1 p -> p -> ~p1 -> p", "true"),
        ("L1 q & ~L1 r & (p -> p | L1 ~L1 s)", "L1 q & ~L1 r"),
    ],
)
def test_units_left_once_tautologies_drop_are_decided_with_no_search(text, literals):
    # to_clauses drops the clause that holds an atom and its negation,
    # and with it the modal atom with a dependency, so what is left is a
    # set of units: the literal-set test decides it, and no search, at
    # any level, guesses the dependency.
    f = parse(text)
    lines = []
    assert _NoSearch(trace=lambda level, rule, g: lines.append((level, rule, to_text(g)))).consistent(f)
    assert lines[0] == (0, "satisfiable?", text) and lines[-1] == (1, "satisfying literals", literals)
    assert bool(_SearchOnly().consistent(f))


def test_a_long_iff_chain_decides_at_the_default_recursion_limit():
    import sys
    import time

    f = functools.reduce(Iff, [Atom(f"p{i}") for i in range(200)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        assert Decider().valid(f).status == "invalid"
        assert time.perf_counter() - start < 0.1
    finally:
        sys.setrecursionlimit(limit)


# -- axiom instances ---------------------------------------------------


def test_axiom_instances_are_valid_small_sample():
    from onlyknow.corpus import axiom_instances

    rng = random.Random(424242)
    d = Decider()
    for inst in axiom_instances(rng, 60):
        assert bool(d.valid(inst)), to_text(inst)


def test_basic_exclusion_axiom_with_tableau_side_condition():
    # N a -> ~L a for basic objective a whose negation the K45 prover
    # certifies satisfiable: the side condition makes the schema
    # recursive, and the certified instances must all decide valid
    from onlyknow.corpus import generate_random
    from onlyknow.formula import is_basic, is_i_objective

    d = Decider()
    found = 0
    for seed in range(300):
        i = 1 + seed % 2
        a = generate_random(seed + 880, "basic", max_modal_depth=2, n_atoms=2, n_agents=2, size=5)
        if not (is_basic(a) and is_i_objective(a, i) and k45.sat(Not(a))):
            continue
        assert bool(d.valid(N(i, a) >> Not(L(i, a)))), to_text(a)
        found += 1
    assert found >= 60


# -- trace, memo, budget ------------------------------------------------


def test_trace_present_and_depth_decreases_into_blocks():
    events = []
    Decider(trace=lambda *event: events.append(event)).consistent(parse("L1 (p | L2 q) & ~L1 p & N1 ~q", 2))
    assert events, "trace requested but empty"
    # each nested satisfiability query works on strictly smaller modal depth
    by_level = [(level, modal_depth(g)) for level, rule, g in events if rule == "satisfiable?"]
    assert by_level, by_level
    stack = []
    for level, depth in by_level:
        while stack and stack[-1][0] >= level:
            stack.pop()
        if stack:
            assert depth < stack[-1][1], (stack, level, depth)
        stack.append((level, depth))


def test_memo_does_not_change_verdicts():
    # one Decider carries its memo from formula to formula
    shared = Decider()
    for seed in range(80):
        f = generate_random(seed + 900, "full", max_modal_depth=2, n_atoms=2, n_agents=2)
        assert shared.consistent(f).status == Decider().consistent(f).status, to_text(f)


def test_the_group_memo_stays_exact_when_every_hash_collides(monkeypatch):
    # The search keeps a group verdict under the block's literal set.
    # With every set's hash 0 all sets share one bucket, so a hit must
    # rest on the sets being equal, not on their hashes.  In the first
    # formula a passing set is memoized before the search reaches two
    # failing ones, which a hit on the hash alone would let pass.
    class Colliding(frozenset):
        def __hash__(self):
            return 0

    formulas = [parse("(N1 p | N1 q) & ~N1 (p | s) & L1 r", 2)]
    formulas += [parse(t, 2) for t in ("(L1 p | L1 q) & ~L1 p & N1 ~q", "O1 p & (L1 q | ~L1 q)")]
    formulas += [generate_random(seed + 7000, "full", max_modal_depth=2, n_atoms=2, n_agents=2) for seed in range(60)]
    expected = [Decider().consistent(f).status for f in formulas]
    assert expected[0] == "unsatisfiable"
    monkeypatch.setattr(decision, "frozenset", Colliding, raising=False)
    assert [Decider().consistent(f).status for f in formulas] == expected


def test_trace_logs_memo_hits_and_keeps_the_verdict():
    # both agents' groups ask whether ~(p & q) is satisfiable; the
    # second ask is answered from the memo
    f = parse("~L1 (p & q) & ~L2 (p & q)", 2)
    events = []
    traced = Decider(trace=lambda *event: events.append(event)).consistent(f)
    assert (2, "memo hit", Not(And(p, q))) in events
    assert traced.status == Decider().consistent(f).status == "satisfiable"


def test_every_group_subquery_is_objective_and_simplified():
    # The search cofactors a modal argument over the agent's own modal
    # atoms before the group test, so each group subquery is objective
    # for its agent; it is folded as built, so it needs no second pass.
    searched = 0
    for profile, agents, size in (("basic", 2, 20), ("full", 2, 14), ("onl_minus", 2, 14), ("full", 1, 14)):
        for seed in range(300):
            f = generate_random(
                seed + 4000, profile, max_modal_depth=3, n_atoms=3, n_agents=agents, size=size, allow_val=False
            )
            events = []
            decider = Decider(trace=lambda *event: events.append(event))
            decider.consistent(f)
            decider.valid(f)
            agent_at = {}
            for level, rule, g in events:
                if rule.startswith("agent "):
                    agent_at[level] = int(rule.split()[1].rstrip(":"))
                elif rule == "satisfiable?" and level > 0:
                    searched += 1
                    assert is_i_objective(g, agent_at[level - 1]), (to_text(f), level, to_text(g))
                    assert simplify(g) is g, (to_text(f), level, to_text(g))
    assert searched > 500


def test_an_own_modal_atom_under_iff_is_decided_before_sat():
    # The argument holds N2 ~L1 p2 on both sides of the <->; the search
    # may not stop with it unassigned, or the cofactor is never taken.
    g = parse("L2 (p2 <-> N2 ~L1 p2)", 2)
    assert Decider().consistent(g).status == "satisfiable"
    assert Decider().valid(g).status == "invalid"
    for h in (g, Not(g)):
        reference = any(all(Decider().block_consistent(b) for b in nf.blocks) for nf in to_normal_form(h))
        assert bool(Decider().consistent(h)) == reference
    assert Decider().valid(Iff(g, reassemble(list(to_normal_form(g))))).status == "valid"


def test_deep_basic_formulas_agree_with_the_k45_prover():
    for seed in range(200):
        f = generate_random(seed, "basic", max_modal_depth=4, n_atoms=4, size=40)
        assert bool(Decider().consistent(f)) == k45.sat(f), to_text(f)


def test_deep_basic_formula_decides_at_the_default_recursion_limit():
    # Its outer L1 argument has two own-agent modal atoms.  Distributing
    # the objective parts too gave 36,864 clauses, and hashing their
    # left-deep conjunction overflowed the stack.
    import sys

    f = generate_random(7183, "basic", max_modal_depth=4, n_atoms=4, size=40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert bool(Decider().consistent(f)) == k45.sat(f)
    finally:
        sys.setrecursionlimit(limit)


def test_trail_cursor_picks_what_a_scan_from_the_first_clause_picks():
    # A seeded 3-CNF near the threshold: assign, propagate, undo to a
    # random decision (flipping it or not) and choose again, and check
    # each pick against a scan of every clause from the first.
    rng = random.Random(15)
    n = 40
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)] for _ in range(170)]
    s = _Trail(n, [list(c) for c in clauses], lambda: None)

    def scan():
        for c in clauses:
            if not any(s.value[x] for x in c):
                return next(x for x in c if s.value[x] is None)
        return None

    decisions = []
    picks = undos = 0
    for _ in range(3000):
        if s.propagate():
            lit = s.choose()
            assert lit == scan()
            assert all(any(s.value[x] for x in c) for c in clauses[: s.first])
            picks += 1
            if lit is not None and (not decisions or rng.random() < 0.8):
                decisions.append((len(s.trail), s.first, lit))
                s.assign(lit)
                continue
        if not decisions:
            break
        r = rng.randrange(len(decisions))
        at, first, lit = decisions[r]
        del decisions[r:]
        s.undo(at, first)
        undos += 1
        if rng.random() < 0.5:
            decisions.append((at, first, -lit))
            s.assign(-lit)
    assert picks > 1000 and undos > 200


@pytest.mark.parametrize("head", [(), (Val(p | ~p),)], ids=["atoms", "valid-head"])
def test_pre_search_work_is_linear_on_a_wide_conjunction(head):
    # p0 & ... & p1999, left-deep, optionally over a V at the bottom.
    # Rehashing or re-simplifying the chain below each node is quadratic.
    import sys
    import time

    f = conj([*head, *(Atom(f"p{i}") for i in range(2000))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        assert Decider().consistent(f).status == "satisfiable"
        assert time.perf_counter() - start < 1
    finally:
        sys.setrecursionlimit(limit)


def test_group_work_grows_linearly_on_a_chain_of_nested_beliefs(monkeypatch):
    # consistent of n nested L1 over p guesses the agent's own nested
    # modal atoms one by one, with a group test after each.  Rebuilding
    # the group from the whole trail at each test makes that work
    # quadratic in n; a group that follows the trail re-cofactors only
    # the literals whose dependencies changed.
    calls = [0]
    parts = _Groups._parts

    def counted(*args):
        calls[0] += 1
        return parts(*args)

    monkeypatch.setattr(_Groups, "_parts", counted)
    counts = []
    for n in (100, 200):
        f = functools.reduce(lambda g, _: L(1, g), range(n), p)
        calls[0] = 0
        assert Decider().consistent(f).status == "satisfiable"
        counts.append(calls[0])
    assert counts[0] > 100 and counts[1] <= 2.3 * counts[0], counts


@pytest.mark.parametrize(
    "text, status",
    [
        # O1 p's pair, searched: p entails neither q nor r
        ("O1 p & (~L1 q | ~L1 r)", "satisfiable"),
        ("O1 p & (L1 q | L1 r)", "unsatisfiable"),
        # a group that is no pair, searched: its union must be valid
        ("L1 (p | q) & N1 ~p & (r | ~L1 s)", "satisfiable"),
        ("L1 p & N1 q & (r | ~L1 s)", "unsatisfiable"),
        # literal sets
        ("L1 p & ~L1 q & N1 ~p", "satisfiable"),
        ("L1 (p & q) & ~L1 p", "unsatisfiable"),
        # cofactored dependencies, and only knowing forcing one
        ("L1 (L1 p -> q) & L1 p & ~L1 q", "unsatisfiable"),
        ("~(O1 (~L1 ~b -> f) -> L1 f)", "unsatisfiable"),
    ],
)
def test_the_search_decides_groups_without_the_stream_record(text, status, monkeypatch):
    # The search keeps its own group record, parts and not joins, so it
    # never folds a literal into an AgentBlock.
    from onlyknow.normal_form import AgentBlock

    def refuse(*args):
        raise AssertionError("the search built an AgentBlock")

    monkeypatch.setattr(AgentBlock, "add", refuse)
    assert Decider().consistent(parse(text)).status == status


def test_only_knowing_forces_the_dependencies_of_a_default_theory(monkeypatch):
    # believes refutes O1 kb & ~L1 q.  The pair's two bounds on kb decide
    # each default's L1 ~b (or L1 L2 p): the search assigns them instead
    # of guessing them one by one, each guess with its own group tests.
    # Guessing ran 61 and 81 group tests on the 60-default questions and
    # 781 on the 14-default one with secrets.
    from onlyknow.autoepistemic import believes

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import default_theory

    calls = [0]
    group_ok = Decider._group_ok

    def counted(*args):
        calls[0] += 1
        return group_ok(*args)

    monkeypatch.setattr(Decider, "_group_ok", counted)
    plain = default_theory(60, set(), set())
    blocked = default_theory(60, set(), set(range(0, 60, 3)))
    secret = default_theory(14, set(range(0, 14, 2)), set(range(0, 14, 3)))
    for theory, question, answer, most in (
        (plain, plain.no, False, 4),
        (blocked, blocked.no, False, 4),
        (secret, secret.yes, True, 20),
    ):
        calls[0] = 0
        assert believes(1, parse(theory.kb, 2), parse(question, 2)) is answer
        assert calls[0] <= most, (question, calls[0])


def _chain(op, n):
    """p0 op p1 op ... op p(n-1), grouped to the left."""
    return functools.reduce(op, [Atom(f"p{i}") for i in range(n)])


def _right(op, n):
    """The same, grouped to the right."""
    return functools.reduce(lambda right, i: op(Atom(f"p{i}"), right), range(n - 2, -1, -1), Atom(f"p{n - 1}"))


def _alternating(n):
    """q_n & ~L_a ~(q_(n-1) & ~L_b ~(... q_0)), agents 1 and 2 alternating:
    each level is a literal set whose group subquery is the next one."""
    f = Atom("q0")
    for k in range(1, n + 1):
        f = And(Atom(f"q{k}"), Not(L(1 + k % 2, Not(f))))
    return f


def _wide_body():
    """L1 p & q0 & ... & q9999: a modal argument with one dependent
    conjunct among 10,000 that hold none.  The cofactor splits it into
    parts, or, negated, into each part's negation under Or, so settling
    the dependent part never walks the others."""
    return conj([L(1, p)] + [Atom(f"q{j}") for j in range(10_000)])


# (name, what to run, the answer it must give, seconds allowed).  The
# formulas are built inside the runs, so none outlives its test.
_DEEP = [
    ("consistent-and", lambda: Decider().consistent(_chain(And, 10_000)).status, "satisfiable", 2),
    ("valid-and", lambda: Decider().valid(_chain(And, 10_000)).status, "invalid", 2),
    ("consistent-or", lambda: Decider().consistent(_chain(Or, 10_000)).status, "satisfiable", 2),
    ("valid-or", lambda: Decider().valid(_chain(Or, 10_000)).status, "invalid", 2),
    (
        "nf-clauses",
        lambda: next(to_normal_form(conj(Or(Atom(f"p{i}"), Atom(f"q{i}")) for i in range(10_000))))
        == (_chain(And, 10_000), ()),
        True,
        3,
    ),
    ("simplify", lambda: simplify(_chain(And, 10_000)) is _chain(And, 10_000), True, 1),
    ("substitute", lambda: simplify(substitute_atom(_chain(And, 10_000), "p5", FALSE)), FALSE, 1),
    ("assign", lambda: assign(_chain(Or, 10_000), {Atom("p0"): True}), TRUE, 1),
    (
        "cofactor-negated-conjunction",
        lambda: Decider().consistent(conj([N(1, Not(_wide_body())), Not(N(1, Atom("r"))), L(1, Atom("s"))])).status,
        "satisfiable",
        2,
    ),
    (
        "cofactor-conjunction",
        lambda: Decider().consistent(And(L(1, _wide_body()), Not(L(1, Atom("r"))))).status,
        "satisfiable",
        2,
    ),
    ("alternating-nesting", lambda: Decider().consistent(_alternating(160)).status, "satisfiable", 1),
    ("parse-parens", lambda: parse("(" * 5000 + "p" + ")" * 5000), p, 1),
    ("parse-nested", lambda: parse(" & (".join(f"p{i}" for i in range(5000)) + ")" * 4999) is _right(And, 5000), True, 1),
    ("parse-implies", lambda: parse(" -> ".join(f"p{i}" for i in range(10_000))) is _right(Implies, 10_000), True, 1),
    (
        "reduce-n-to-l",
        lambda: reduce_n_to_l(conj([N(1, p), q] * 750), ("p", "q"))
        is join(And, [reduce_n_to_l(N(1, p), ("p", "q")), q] * 750),
        True,
        1,
    ),
]


@pytest.mark.parametrize("run, answer, seconds", [case[1:] for case in _DEEP], ids=[case[0] for case in _DEEP])
def test_deep_and_wide_formulas_at_the_default_recursion_limit(run, answer, seconds):
    import sys
    import time

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        assert run() == answer
        assert time.perf_counter() - start < seconds
    finally:
        sys.setrecursionlimit(limit)


def test_memory_stays_bounded_across_a_batch():
    # Nothing outlives a query's Decider, so a warm batch stops growing.
    import gc
    import tracemalloc

    def decide(seeds):
        for seed in seeds:
            f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, size=20)
            Decider().consistent(f)
            Decider().valid(f)

    decide(range(100))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decide(range(100, 300))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_queries_leave_no_reference_cycles():
    # A cycle outlives its query until the collector runs, and it holds
    # whatever its objects refer to, such as a search's clause tables.
    import gc

    fs = [generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, size=20) for seed in range(40)]
    gc.collect()
    gc.disable()
    try:
        for f in fs:
            Decider().consistent(f)
            Decider().valid(f)
            list(to_normal_form(Decider().eliminate_val(f)))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_budget_exceeded_raises():
    import time

    d = Decider(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceededError):
        d.consistent(parse("L1 p & ~L1 q", 2))


@pytest.mark.parametrize("mode", ["consistent", "valid"])
def test_budget_stops_a_normal_form_blow_up(mode):
    # f(k+1) = (f(k) & p_k) | (f(k) & q_k) shares each f(k), so its node
    # graph is linear while its tree doubles per level.  V elimination
    # rewrites each node once, and the clause form walks the tree, so
    # the clause setup outlasts the deadline; it is checked per conjunct
    # and per definition in to_clauses and per clause in the search's
    # setup.
    import time

    f = p
    for k in range(30):
        f = (f & Atom(f"p{k}")) | (f & Atom(f"q{k}"))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        getattr(Decider(deadline=start + 0.5), mode)(f)
    assert time.monotonic() - start < 1.0


def test_budget_stops_a_cofactor_blow_up():
    # L1 p <-> q0 <-> ... <-> q19 under L1: the cofactor settles both
    # operands of each <->, L1 p being a dependency in both polarities,
    # so it costs 2^20 nodes; it checks the budget at each <->.
    import time

    chain = L(1, p)
    for k in range(20):
        chain = Iff(chain, Atom(f"q{k}"))
    f = L(1, chain) & Not(L(1, Atom("r")))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        Decider(deadline=start + 0.1).consistent(f)
    assert time.monotonic() - start < 0.35


def test_budget_stops_on_a_shared_subformula():
    # f = f & (f | q_i), i < 20: 61 distinct nodes, 2^20 occurrences.
    # formula.leaves enters each distinct node once, so the component
    # keys and own modal atoms of f cost 61 steps, not 2^20, and the
    # budget check stops the rest in time.
    import time

    f = p
    for k in range(20):
        f = And(f, Or(f, Atom(f"q{k}")))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        Decider(deadline=start + 0.1).consistent(L(1, f) & Not(L(1, Atom("s"))))
    assert time.monotonic() - start < 0.35


def test_budget_stops_on_a_shared_disjunction():
    # f = f | (f | q_i), i < 20: one clause of 2^20 occurrences, which
    # to_clauses takes apart with a budget check at every node, in a
    # clause as in a conjunction.
    import time

    f = p
    for k in range(20):
        f = Or(f, Or(f, Atom(f"q{k}")))
    for g in (f, L(1, f) & Not(L(1, Atom("s")))):
        start = time.monotonic()
        with pytest.raises(BudgetExceededError):
            Decider(deadline=start + 0.1).consistent(g)
        assert time.monotonic() - start < 0.35, to_text(g)[:40]


@pytest.mark.parametrize("mode", ["consistent", "valid"])
def test_modal_arguments_stay_whole_within_the_budget(mode):
    # Pushing the outer L1 over its argument made about 80,000 clauses;
    # searched with its modal arguments whole, it decides at once.
    import time

    f = generate_random(50798, "basic", max_modal_depth=4, n_atoms=4, size=40)
    verdict = getattr(Decider(deadline=time.monotonic() + 2.0), mode)(f)
    assert bool(verdict) == (k45.sat(f) if mode == "consistent" else not k45.sat(Not(f)))


def test_only_knowing_block_recursion_example():
    # merged positives: O1 p & L1 q collapses to the single block
    # L1 (p & q) & N1 ~p, whose union p & q | ~p is not valid
    f = only_knows(1, p) & L(1, q)
    assert Decider().consistent(f).status == "unsatisfiable"
    blockless = disj([FALSE])
    assert Decider().consistent(blockless).status == "unsatisfiable"


def test_block_consistent_directly():
    from onlyknow.normal_form import AgentBlock

    # the group of O1 p: positives p and ~p, tautologous union
    assert Decider().block_consistent(AgentBlock(1, pos_l=(p,), pos_n=(Not(p),))) is True
    # L1 false & N1 false: the union false | false cannot be valid
    assert Decider().block_consistent(AgentBlock(1, pos_l=(FALSE,), pos_n=(FALSE,))) is False
    # L1 p & ~L1 q: p & ~q consistent, union defaults to p | true
    assert Decider().block_consistent(AgentBlock(1, pos_l=(p,), neg_l=(q,))) is True
    # L1 p alone: nothing negated and N side true, so it passes untested
    lines = []
    traced = Decider(trace=lambda level, rule, g: lines.append(rule))
    assert traced.block_consistent(AgentBlock(1, pos_l=(p,))) is True
    assert lines == []
