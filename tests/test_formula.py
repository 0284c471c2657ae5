import copy
import gc
import pickle
import sys
import threading

import pytest

from onlyknow import formula, fragments, k45
from onlyknow.corpus import generate_random
from onlyknow.decision import Decider
from onlyknow.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    FormulaError,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    ParseError,
    TRUE,
    Val,
    ValPresentError,
    assign,
    atoms,
    build_independent,
    classify,
    conj,
    connect,
    fold,
    in_onl_minus,
    is_i_objective,
    is_i_subjective,
    leaves,
    modal_depth,
    only_knows,
    parse,
    simplify,
    to_text,
    transform,
    walk,
)

p, q = Atom("p"), Atom("q")


def test_only_knowing_expands_at_parse_time():
    assert parse("O1 p", 2) == And(L(1, p), N(1, Not(p)))


def test_double_negation_kept_verbatim():
    assert parse("~~p") == Not(Not(p))


def test_unary_binds_tighter_than_and():
    assert parse("L1 p & N2 (p | q)", 2) == And(L(1, p), N(2, Or(p, q)))


def test_constants_and_con_sugar():
    assert parse("true & false") == And(TRUE, FALSE)
    assert parse("C p") == Not(Val(Not(p)))


def test_implication_is_right_associative():
    f = parse("p -> q -> r")
    assert f.left == p and f.right == parse("q -> r")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("p & & q")
    assert err.value.position == 4


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("p & & q", "unexpected token '&'", 4),
        ("(p q)", "expected ')'", 3),
        ("(p", "expected ')'", 2),
        ("p)", "trailing input ')'", 1),
        ("p q", "trailing input 'q'", 2),
        ("", "unexpected end of input", 0),
        ("p &", "unexpected end of input", 3),
        ("p & ", "unexpected end of input", 4),
        ("L0 p", "agent index 0 out of range", 0),
        ("~L1 N3 p", "agent index 3 out of range", 4),
        ("p $ q", "unexpected character '$'", 2),
        ("L0 $", "unexpected character '$'", 3),  # a bad character comes first
        ("(p q $", "unexpected character '$'", 5),
        ("L1", "unexpected end of input", 2),
        ("((p)", "expected ')'", 4),
        ("()", "unexpected token ')'", 1),
        ("x -> (y", "expected ')'", 7),
        ("p -> -> q", "unexpected token '->'", 5),
        ("p <- q", "unexpected character '<'", 2),
    ],
)
def test_parse_errors_name_what_and_where(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_agent_index_out_of_range():
    with pytest.raises(ParseError):
        parse("L3 p", 2)
    with pytest.raises(ParseError):
        parse("L0 p", 2)
    parse("L3 p")  # unconstrained when no count is declared


@pytest.mark.parametrize(
    "text",
    ["(L1 p) & q", "N2 ~p", "V p", "O1 p", "p | q & r", "p <-> q <-> r", "~(p -> q)"],
)
def test_print_round_trip_examples(text):
    f = parse(text, 2)
    assert parse(to_text(f), 2) == f


def test_print_round_trip_random():
    for seed in range(300):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2)
        assert parse(to_text(f), 2) == f


def test_pickle_round_trips_at_the_default_recursion_limit():
    chain = conj(Atom(f"p{k}") for k in range(5000))
    randoms = [generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2) for seed in range(300)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert pickle.loads(pickle.dumps(chain)) is chain
        assert all(pickle.loads(pickle.dumps(f)) is f for f in randoms)
    finally:
        sys.setrecursionlimit(limit)


def test_printer_folds_only_knowing():
    assert to_text(only_knows(2, And(p, q))) == "O2 (p & q)"


def test_nested_only_knowing_round_trips():
    f = only_knows(1, only_knows(2, p))
    assert to_text(f) == "O1 O2 p"
    assert parse(to_text(f), 2) == f
    g = And(only_knows(1, p), Not(only_knows(2, q)))
    assert parse(to_text(g), 2) == g


def test_classify_objective_examples():
    f = parse("q & N2 L1 p", 2)
    assert classify(f, 1).i_objective is True
    assert classify(parse("L1 p", 2), 1).i_objective is False
    assert classify(parse("q & L1 p", 2), 1).i_objective is False


def test_classify_subjective_and_constants():
    assert classify(parse("L1 p & ~N1 q", 2), 1).i_subjective is True
    assert classify(parse("p", 2), 1).i_subjective is False
    both = classify(TRUE, 1)
    assert both.i_objective and both.i_subjective


def test_onl_minus_membership():
    assert in_onl_minus(parse("N1 L2 N1 p", 2)) is False
    assert in_onl_minus(parse("N1 N2 p", 2)) is False
    assert in_onl_minus(parse("N1 L1 ~N1 p", 2)) is True
    assert in_onl_minus(parse("N1 (L2 p | N1 ~p)", 2)) is True
    assert in_onl_minus(parse("V p", 2)) is False


def test_classify_stable_under_double_negation():
    for seed in range(60):
        f = generate_random(seed, "full", max_modal_depth=2, n_atoms=2, n_agents=2)
        a, b = classify(f, 1), classify(Not(Not(f)), 1)
        assert (a.propositional, a.basic, a.i_objective, a.i_subjective, a.in_onl_minus) == (
            b.propositional,
            b.basic,
            b.i_objective,
            b.i_subjective,
            b.in_onl_minus,
        )
        assert a.modal_depth == b.modal_depth


def test_objective_formulas_have_no_own_modality_at_top_level():
    for seed in range(120):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        if not is_i_objective(f, 1):
            continue

        def top_level_own(g):
            if isinstance(g, (L, N)):
                return [g] if g.agent == 1 else []
            out = []
            if isinstance(g, Not):
                out += top_level_own(g.sub)
            if hasattr(g, "left"):
                out += top_level_own(g.left) + top_level_own(g.right)
            return out

        assert top_level_own(f) == []


def test_modal_depth_examples():
    assert modal_depth(p) == 0
    assert modal_depth(parse("L2 L1 L2 L1 p", 2)) == 4
    assert modal_depth(parse("p & L1 q", 2)) == 1
    assert modal_depth(parse("N1 p", 2)) == 1
    with pytest.raises(ValPresentError):
        modal_depth(parse("V p"))


def test_classify_reports_no_depth_for_val_formulas():
    assert classify(parse("V p"), 1).modal_depth is None
    assert classify(parse("L1 p", 1), 1).modal_depth == 1


def test_build_independent_shape():
    assert build_independent(1, 2, 1, "p") == parse("L2 L1 L2 L1 p", 2)
    assert build_independent(2, 2, 0, "p") == parse("L1 L2 p", 2)
    with pytest.raises(Exception):
        build_independent(1, 1, 0, "p")


def _chain_room(i, j, bound):
    """The alternating j,i,j,... belief chain can stay nonempty down to
    depth 2(bound+1).  A formula forcing an empty set along that chain
    (say L2 false, or L2 L1 false) entails every deeper L2... statement,
    so nothing of that shape can be independent of it."""
    parts = []
    prefix = []
    for step in range(2 * (bound + 1)):
        prefix.append(j if step % 2 == 0 else i)
        g = FALSE
        for a in reversed(prefix):
            g = L(a, g)
        parts.append(Not(g))
    out = parts[0]
    for extra in parts[1:]:
        out = And(out, extra)
    return out


def test_build_independent_is_independent():
    # depth bound 0 and the side formula q: both conjunctions stay satisfiable
    psi = build_independent(1, 2, 0, "p")
    assert k45.independent(q, psi)
    # random shallow basic 1-objective formulas of depth <= bound, among
    # those that leave the alternating belief chain realizable
    checked = 0
    for seed in range(400):
        f = generate_random(seed, "basic", max_modal_depth=2, n_atoms=2, n_agents=2, size=5)
        if not is_i_objective(f, 1) or not k45.sat(f):
            continue
        bound = modal_depth(f)
        if not k45.sat(And(f, _chain_room(1, 2, bound))):
            continue
        psi = build_independent(1, 2, bound, "p")
        assert k45.independent(f, psi), to_text(f)
        checked += 1
    assert checked >= 100


def test_build_independent_degenerate_chain_counterexample():
    # An agent that believes false believes everything, including the
    # independence formula, so the proviso above is not vacuous.
    phi = L(2, FALSE)
    psi = build_independent(1, 2, modal_depth(phi), "p")
    assert not k45.independent(phi, psi)


def test_atoms_and_walk():
    f = parse("L1 (p & q) | V r", 2)
    assert atoms(f) == {"p", "q", "r"}
    assert any(isinstance(g, Val) for g in walk(f))


def test_assign_replaces_boolean_level_leaves_only():
    f = parse("~p & (L1 p -> q)", 1)
    # each rebuilt node is folded
    assert assign(f, {p: True}) is FALSE
    assert assign(f, {L(1, p): False}) == Not(p)
    # a subtree with nothing decided comes back as the same object
    assert assign(f, {q: True}) is f.left
    assert assign(f, {p: False}) is f.right
    assert assign(f, {Atom("r"): True}) is f


def test_assign_folds_a_simplified_formula_as_simplify_would():
    decided = 0
    for seed in range(200):
        g = simplify(generate_random(seed, "full", max_modal_depth=2, n_atoms=3, n_agents=2))
        for k, leaf in enumerate(dict.fromkeys(leaves(g))):
            env = {leaf: k % 2 == 0}
            h = assign(g, env)
            decided += h is not g
            assert h == simplify(h), (to_text(g), env)
    assert decided > 200


def test_connect_is_the_fold_of_the_node_it_would_build():
    # Pairs of simplified formulas that meet constants, repeats and
    # complements as well as each other.
    parts = [TRUE, FALSE, p, Not(p), q & p, Not(q & p)]
    parts += [simplify(generate_random(seed, "full", max_modal_depth=2, n_atoms=2)) for seed in range(40)]
    for a in parts:
        for b in parts:
            for op in (And, Or):
                assert connect(op, a, b) is fold(op(a, b)), (op, to_text(a), to_text(b))


def test_connect_flags_a_node_it_builds_as_the_constructor_would():
    # Fresh atoms, so that connect builds each node rather than finding
    # it; a V operand is not plain, and neither is the node over it.
    x, y = Atom("connect_x"), Atom("connect_y")
    parts = [x, Not(x), y, And(y, x), L(1, Not(y)), Val(x), Or(Val(y), x)]
    built = 0
    for a in parts:
        for b in parts:
            for op in (And, Or):
                g = connect(op, a, b)
                if g in (a, b, TRUE, FALSE):
                    continue
                built += 1
                v_free = not any(type(h) is Val for h in walk(g))
                assert g.plain == (transform(g, lambda h, rebuilt: fold(rebuilt)) is g and v_free), to_text(g)
    assert built > 50


def test_leaves_stop_at_modal_and_val_formulas():
    f = parse("~(p & L1 q) | (true -> V r) <-> N2 p", 2)
    assert list(leaves(f)) == [p, L(1, q), TRUE, Val(Atom("r")), N(2, p)]
    with pytest.raises(FormulaError):
        list(leaves(And(p, "q")))
    with pytest.raises(FormulaError):
        simplify(And(p, "q"))


def test_classifiers_of_wide_conjunctions_at_the_default_recursion_limit():
    wide_objective = conj(Atom(f"p{k}") for k in range(5000))
    wide_subjective = conj(L(1, Atom(f"p{k}")) for k in range(5000))
    chain = conj(Atom(f"p{k}") for k in range(10_000))
    nested = p
    for _ in range(5000):
        nested = L(1, nested)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        objective = is_i_objective(wide_objective, 1)
        subjective = is_i_subjective(wide_subjective, 1)
        of_chain = classify(chain, 1)
        of_nested = classify(nested, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert objective is True and subjective is True
    assert of_chain == (True, True, True, False, True, 0)
    assert of_nested == (False, True, False, True, True, 5000)


def test_classifiers_visit_each_distinct_node_once(monkeypatch):
    # f = f & (f | q_i) has 3 new nodes per step but 2^i occurrences,
    # and g nests the same sharing under alternating L1 and L2 with an
    # N1 at each level; a classifier that walks occurrences calls
    # children about 65,000 times on f alone.
    f = g = p
    for i in range(14):
        f = And(f, Or(f, Atom(f"q{i}")))
        g = L(1 + i % 2, And(g, Or(g, N(1, Atom(f"q{i}")))))
    names = {"p", *(f"q{i}" for i in range(14))}
    expected = {
        f: {"atoms": names, "agents": set(), "is_propositional": True, "is_basic": True, "in_onl_minus": True,
            "modal_depth": 0, "classify": (True, True, True, False, True, 0)},
        g: {"atoms": names, "agents": {1, 2}, "is_propositional": False, "is_basic": False, "in_onl_minus": False,
            "modal_depth": 15, "classify": (False, False, True, False, False, 15)},
    }
    children = fragments.children
    distinct = {}
    for h in expected:
        seen, stack = set(), [h]
        while stack:
            if stack[-1] in seen:
                stack.pop()
            else:
                seen.add(stack[-1])
                stack += children(stack[-1])
        distinct[h] = len(seen)
    assert (distinct[f], distinct[g]) == (43, 71)
    calls = 0

    def counted(h):
        nonlocal calls
        calls += 1
        return children(h)

    # The classifiers read children from fragments, their own module.
    # in_onl_minus and modal_depth (and so classify) call it at each node
    # they visit, so a count of 0 there means the counter is not where
    # they read it; the others visit through transform, which calls none.
    monkeypatch.setattr(fragments, "children", counted)
    for h, values in expected.items():
        for name, value in values.items():
            calls = 0
            got = fragments.classify(h, 1) if name == "classify" else getattr(fragments, name)(h)
            assert got == value, name
            assert calls <= 4 * distinct[h], (name, calls, distinct[h])
            if name in ("in_onl_minus", "modal_depth", "classify"):
                assert calls > 0, name


def test_equal_formulas_are_one_node():
    text = "L1 (p & ~q) | N2 (p -> q) <-> V true"
    f = parse(text, 2)
    assert parse(text, 2) is f
    built = Iff(Or(L(1, And(p, Not(q))), N(2, Implies(p, q))), Val(TRUE))
    assert built is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    # Equality and hashing are object identity, defined by no node class.
    for cls in (Atom, And, L, Not, type(TRUE)):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    with pytest.raises(AttributeError):
        f.left = p
    with pytest.raises(AttributeError):
        p.name = "q"
    assert repr(L(1, p)) == "L(agent=1, sub=Atom(name='p'))"


def test_deep_formulas_hash_and_compare_at_the_default_recursion_limit():
    def chain():
        return conj(Atom(f"p{k}") for k in range(5000))

    def nested():
        g = p
        for _ in range(5000):
            g = L(1, g)
        return g

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for build in (chain, nested):
            f, g = build(), build()
            assert hash(f) == hash(g)
            assert f == g
            assert {f: 1}[g] == 1
    finally:
        sys.setrecursionlimit(limit)


def test_deep_formulas_print_reparse_and_copy_at_the_default_recursion_limit():
    chain = conj(Atom(f"p{k}") for k in range(5000))
    nested = p
    for _ in range(900):
        nested = L(1, nested)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f in (chain, nested):
            text = str(f)
            assert text == to_text(f)
            assert parse(text) is f
            assert copy.copy(f) is f
            assert copy.deepcopy(f) is f
    finally:
        sys.setrecursionlimit(limit)
    assert str(chain).startswith("p0 & p1 & ") and str(nested) == "L1 " * 900 + "p"


def test_runs_of_prefix_operators_parse_at_the_default_recursion_limit():
    nested = p
    for _ in range(5000):
        nested = L(1, nested)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        negated = parse("~" * 5000 + "p")
        believed = parse("L1 " * 5000 + "p")
        reparsed = parse(to_text(nested))
    finally:
        sys.setrecursionlimit(limit)
    assert believed is nested and reparsed is nested
    for _ in range(5000):
        negated = negated.sub
    assert negated is p
    # A mixed run applies inside out, and an agent out of range is still
    # reported where it stands.
    assert parse("~L1 V N2 O1 C (p)", 2) is Not(L(1, Val(N(2, only_knows(1, Not(Val(Not(p))))))))
    with pytest.raises(ParseError) as err:
        parse("~L1 N3 p", 2)
    assert err.value.position == 4


def test_repr_is_iterative_and_evaluates_back_to_the_node():
    def recursive_repr(f):
        fields = (
            f"{name}={recursive_repr(v) if isinstance(v, Formula) else repr(v)}"
            for name in f.__match_args__
            for v in [getattr(f, name)]
        )
        return f"{type(f).__name__}({', '.join(fields)})"

    chain = conj(Atom(f"p{k}") for k in range(5000))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert text.startswith("And(left=And(left=And(") and text.endswith(", right=Atom(name='p4999'))")
    assert repr(TRUE) == "TrueConst()"
    scope = vars(formula)
    for seed in range(200):
        f = generate_random(seed, "full", n_agents=3, size=12)
        assert repr(f) == recursive_repr(f)
        assert eval(repr(f), scope) is f


def test_threads_parsing_the_same_texts_get_the_same_nodes():
    texts = [f"L1 (p{k} & q) | ~N2 (q -> p{k % 7})" for k in range(40)]
    barrier = threading.Barrier(4)
    results: list[list[Formula]] = [[] for _ in range(4)]

    def work(out):
        barrier.wait(timeout=10)
        for _ in range(20):
            out[:] = [parse(t, 2) for t in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 40 for out in results)
    for k in range(40):
        assert all(out[k] is results[0][k] for out in results)


def test_intern_table_holds_only_live_nodes():
    gc.collect()
    start = len(formula._table)
    for seed in range(100):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, size=20)
        Decider().consistent(f)
        Decider().valid(f)
    del f
    gc.collect()
    assert len(formula._table) == start


def test_a_dead_entry_gives_way_to_a_new_node():
    # A node freed by the cycle collector can leave its entry dead for a
    # moment, its callback not yet run.  A constructor replaces the entry,
    # and the late callback leaves the new one alone.
    class Gone:
        pass

    key = (Atom, "dead_entry")
    gone = Gone()
    stale = formula._Ref(gone, None)
    stale.key = key
    formula._table[key] = stale
    del gone
    fresh = Atom("dead_entry")
    assert formula._table[key]() is fresh
    formula._drop(stale)
    assert Atom("dead_entry") is fresh
