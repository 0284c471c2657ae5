from itertools import islice, permutations, product

import pytest

from onlyknow import k45
from onlyknow.corpus import generate_random
from onlyknow.decision import Decider, to_clauses
from onlyknow.formula import (
    And,
    Atom,
    FALSE,
    Iff,
    L,
    N,
    Not,
    Or,
    TRUE,
    conj,
    conjuncts,
    connect,
    is_i_objective,
    join,
    parse,
    simplify,
    to_text,
    walk,
)
from onlyknow.normal_form import (
    AgentBlock,
    normalize,
    reassemble,
    to_normal_form,
)

p, q = Atom("p"), Atom("q")
a, b, c, d, e, r, s = (Atom(x) for x in "abcders")


def nf(text, agents=2):
    return list(to_normal_form(parse(text, agents)))


def test_disjunction_under_l_splits():
    ds = nf("L1 (p | L1 q)")
    assert [to_text(d.to_formula()) for d in ds] == ["L1 p", "L1 q"]


def test_objective_part_of_a_modal_argument_stays_whole():
    # Only the agent's own modal atoms split out of an argument; the
    # objective rest goes under the modality as one formula, as written.
    assert [to_text(d.to_formula()) for d in nf("L1 ((p & q) | L1 r)")] == ["L1 (p & q)", "L1 r"]
    ds = nf("L1 (p & q) & ~N1 (p | q -> L2 r)")
    assert [to_text(d.to_formula()) for d in ds] == ["L1 (p & q) & ~N1 (p | q -> L2 r)"]


@pytest.mark.parametrize(
    "text, disjuncts",
    [
        # x -> ~x is ~x and ~x -> x is x: one disjunct, no choice point.
        ("p -> ~p", ["~p"]),
        ("~p -> p", ["p"]),
        ("L1 p -> ~L1 p", ["~L1 p"]),
        ("(p & q) -> ~(p & q)", ["~p", "~q"]),
        # <-> is (~x | y) & (~y | x), negated (x & ~y) | (~x & y).
        ("p <-> q", ["~p & ~q", "q & p"]),
        ("~(p <-> q)", ["p & ~q", "~p & q"]),
        ("~(p -> q)", ["p & ~q"]),
        ("~(p & L1 q)", ["~p", "~L1 q"]),
    ],
)
def test_stream_reads_the_skeleton_by_polarity(text, disjuncts):
    assert [to_text(d.to_formula()) for d in nf(text)] == disjuncts


def test_same_agent_l_collapses():
    ds = nf("L1 L1 p")
    assert len(ds) == 1
    assert ds[0].blocks[0].pos_l == (p,)
    assert ds[0].blocks[0].pos_n == ()


def test_l_over_own_n_keeps_empty_set_case():
    # L1 N1 p also holds when agent 1 believes false, so the stream has
    # a disjunct for that; the bare collapse to N1 p would wrongly rule
    # L1 N1 p & ~N1 p unsatisfiable.
    ds = nf("L1 N1 p")
    assert [to_text(d.to_formula()) for d in ds] == ["L1 false", "N1 p"]
    guard_case = parse("L1 N1 p & ~N1 p", 1)
    assert bool(Decider().consistent(guard_case))
    # the two-set semantics agrees: an empty L set with the full N set
    # is a covering pair satisfying it
    from onlyknow.finite_semantics import oracle_valid

    refuted = oracle_valid(Not(guard_case), ("p",), "extended")
    assert refuted.valid is False


def test_l_over_n_collapse_is_exact_under_nonempty_guard():
    d = Decider()
    assert bool(d.valid(parse("~L1 false -> (L1 N1 p <-> N1 p)", 1)))
    assert bool(d.valid(parse("N1 p -> L1 N1 p", 1)))


def test_agent_block_add_examples():
    empty = AgentBlock(1)
    assert empty.pos_l == () and empty.pos_n == ()
    assert empty.neg_l == () and empty.neg_n == ()
    # positives are kept as parts, in order; the side not added to stays empty
    b = empty.add(L(1, p), True).add(L(1, q), True)
    assert b.pos_l == (p, q)
    assert b.pos_n == ()
    b2 = empty.add(N(1, p), True).add(N(1, p >> q), True)
    assert b2.pos_n == (p, p >> q)
    assert b2.pos_l == ()
    # negated arguments are appended in order, each to its own modality
    b3 = b.add(N(1, q), False).add(L(1, p), False).add(N(1, p), False)
    assert b3.neg_l == (p,) and b3.neg_n == (q, p)
    assert b3.pos_l == (p, q) and b3.pos_n == ()
    assert b3 == AgentBlock(1, pos_l=(p, q), neg_l=(p,), neg_n=(q, p))
    # only to_formula joins a side, as the left fold join(And, ...)
    assert b3.to_formula() == conj([L(1, p & q), Not(L(1, p)), Not(N(1, q)), Not(N(1, p))])
    # a part that is the join so far is kept, and the join absorbs it
    b4 = b.add(L(1, p & q), True)
    assert b4.pos_l == (p, q, p & q) and b4.to_formula() == L(1, p & q)
    # a side whose join is false keeps its parts as they came: a false
    # part, a second part that complements the first, either way round,
    # and ~X where X is the join of the parts so far; the side joins to
    # false from then on
    false_sides = [
        (empty.add(L(1, FALSE), True).pos_l, (FALSE,)),
        (b.add(L(1, FALSE), True).pos_l, (p, q, FALSE)),
        (empty.add(L(1, p), True).add(L(1, Not(p)), True).pos_l, (p, Not(p))),
        (empty.add(N(1, Not(p)), True).add(N(1, p), True).pos_n, (Not(p), p)),
        (b.add(L(1, Not(p & q)), True).pos_l, (p, q, Not(p & q))),
        (b4.add(L(1, Not(p & q)), True).pos_l, (p, q, p & q, Not(p & q))),
        (empty.add(L(1, FALSE), True).add(L(1, p), True).pos_l, (FALSE, p)),
    ]
    for side, came in false_sides:
        assert side == came and join(And, side) is FALSE, came
    assert empty.add(L(1, FALSE), True).to_formula() == L(1, FALSE)
    assert empty.add(L(1, FALSE), True).add(L(1, p), True).to_formula() == L(1, FALSE)
    # the complement of one part among several, or of another join, is
    # no contradiction
    assert b.add(L(1, Not(p)), True).pos_l == (p, q, Not(p))
    assert b.add(L(1, Not(q & p)), True).pos_l == (p, q, Not(q & p))
    # M_i false beside a negated M_i literal is contradictory: add says
    # so with None, whichever of the two comes last
    assert AgentBlock(1, neg_l=(q,)).add(L(1, FALSE), True) is None
    assert AgentBlock(1, pos_l=(Not(p),), neg_l=(q,)).add(L(1, p), True) is None
    assert AgentBlock(1, pos_l=(p, q), neg_l=(r,)).add(L(1, Not(p & q)), True) is None
    assert AgentBlock(1, pos_n=(FALSE,)).add(N(1, q), False) is None
    assert AgentBlock(1, pos_l=(p, Not(p))).add(L(1, q), False) is None
    # the other modality's false contradicts nothing
    assert AgentBlock(1, pos_l=(FALSE,)).add(N(1, q), False) == AgentBlock(1, pos_l=(FALSE,), neg_n=(q,))


def test_agent_block_side_joins_as_the_left_fold_of_its_parts():
    # Every sequence of up to four distinct simplified arguments: the
    # side's parts, joined, are the left fold of connect, and a negated
    # L1 s makes the group contradictory exactly when that fold is false,
    # whether it comes after the positives or before them.
    pool = [p, q, r, Not(p), Not(q), p & q, Not(p & q), (p & q) & r, Not((p & q) & r), q & p, FALSE]
    for size in range(1, 5):
        for args in permutations(pool, size):
            block, after, fold = AgentBlock(1), AgentBlock(1, neg_l=(s,)), TRUE
            for x in args:
                block, fold = block.add(L(1, x), True), connect(And, fold, x)
                assert join(And, block.pos_l) is fold, args
                assert (block.add(L(1, s), False) is None) == (fold is FALSE), args
                if after is not None:
                    after = after.add(L(1, x), True)
                assert (after is None) == (fold is FALSE), args


def test_sigma_is_propositional_and_blocks_objective():
    randoms = (
        generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        for seed in range(150)
    )
    # M_i false and the negated M_i literal come from different conjuncts
    meets = [parse("L1 N1 p & ~L1 q", 1), parse("N1 false & ~N1 p | q", 1)]
    for f in (*meets, *randoms):
        for d in to_normal_form(f):
            # sigma is true or a conjunction of atom literals, no atom
            # both ways: the decider relies on it and never searches sigma
            signs = {}
            for lit in [] if d.sigma is TRUE else conjuncts(d.sigma):
                atom, positive = (lit.sub, False) if isinstance(lit, Not) else (lit, True)
                assert isinstance(atom, Atom), (to_text(f), to_text(d.sigma))
                assert signs.setdefault(atom, positive) == positive, (to_text(f), to_text(d.sigma))
            for b in d.blocks:
                for g in (*b.pos_l, *b.pos_n, *b.neg_l, *b.neg_n):
                    assert is_i_objective(g, b.agent), (to_text(f), b.agent, to_text(g))
                # L<i> false implies every L<i> x, so beside a negated
                # L<i> literal it is contradictory (likewise for N)
                assert not (join(And, b.pos_l) is FALSE and b.neg_l), (to_text(f), to_text(d.to_formula()))
                assert not (join(And, b.pos_n) is FALSE and b.neg_n), (to_text(f), to_text(d.to_formula()))


def test_basic_inputs_give_basic_blocks():
    for seed in range(150):
        f = generate_random(seed, "onl_minus", max_modal_depth=3, n_atoms=2, n_agents=2)
        for d in to_normal_form(f):
            for b in d.blocks:
                for g in (*b.pos_l, *b.pos_n, *b.neg_l, *b.neg_n):
                    assert not any(isinstance(x, N) for x in walk(g)), to_text(f)


def test_equivalence_with_reassembled_disjunction():
    d = Decider()
    for seed in range(80):
        f = generate_random(seed + 7000, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        back = reassemble(list(to_normal_form(f)))
        assert bool(d.valid(Iff(f, back))), to_text(f)


def test_reassembled_normal_form_agrees_with_the_k45_prover():
    # k45 shares no code with normal_form or decision, unlike the Decider
    # check above, whose search uses the same introspection rule.
    formulas = [generate_random(seed + 8000, "basic", max_modal_depth=3, n_atoms=3, size=20) for seed in range(200)]
    formulas.append(generate_random(50798, "basic", max_modal_depth=4, n_atoms=4, size=40))
    for f in formulas:
        back = reassemble(to_normal_form(f))
        assert not k45.sat(And(f, Not(back))), to_text(f)
        assert not k45.sat(And(Not(f), back)), to_text(f)


def test_expansion_does_not_copy_the_argument_into_both_branches():
    f = generate_random(50798, "basic", max_modal_depth=4, n_atoms=4, size=40)
    assert sum(1 for _ in walk(normalize(f))) < 1000
    # L1 over the disjunction of (p_j & L1 q_j): one disjunct per nonempty
    # set of the q_j believed
    f = parse("L1 (" + " | ".join(f"(p{j} & L1 q{j})" for j in range(6)) + ")", 1)
    assert sum(1 for _ in islice(to_normal_form(f), 65)) == 2**6 - 1
    # over the conjunction of (p_j | L1 q_j) each conjunct expands alone
    f = parse("L1 (" + " & ".join(f"(p{j} | L1 q{j})" for j in range(10)) + ")", 1)
    assert sum(1 for _ in walk(normalize(f))) <= 59
    assert sum(1 for _ in to_normal_form(f)) == 2**10


def test_stream_is_deterministic():
    f = parse("(p | L1 q) & (N2 p | ~L1 q) <-> N1 (p & q)", 2)
    first = [to_text(d.to_formula()) for d in to_normal_form(f)]
    second = [to_text(d.to_formula()) for d in to_normal_form(f)]
    assert first == second


def test_streaming_gauge_counts_one_at_a_time():
    factors = [Or(Atom(f"p{k}"), Atom(f"q{k}")) for k in range(10)]
    assert sum(1 for _ in to_normal_form(conj(factors))) == 2 ** 10
    # 2^64 disjuncts: only a stream can hand over the first ones
    ps = [Atom(f"p{k}") for k in range(64)]
    stream = to_normal_form(conj(Or(a, Atom(f"q{k}")) for k, a in enumerate(ps)))
    assert next(stream).sigma == conj(ps)
    assert next(stream).sigma == conj(ps[:-1] + [Atom("q63")])


@pytest.mark.parametrize(
    "text, expected",
    [
        # a pending conjunct an earlier literal satisfies does not split the stream
        ("(p | q) & (p | r)", ["p", "q & p", "q & r"]),
        # a contradiction found mid-stream prunes the branch
        ("(p | q) & ~p & (q | r)", ["q & ~p"]),
        (
            "(L2 p | L1 q) & (~L1 r | N2 s) & (p | ~N1 q)",
            [
                "p & ~L1 r & L2 p",
                "~L1 r & ~N1 q & L2 p",
                "p & (L2 p & N2 s)",
                "~N1 q & (L2 p & N2 s)",
                "p & (L1 q & ~L1 r)",
                "L1 q & ~L1 r & ~N1 q",
                "p & L1 q & N2 s",
                "L1 q & ~N1 q & N2 s",
            ],
        ),
    ],
)
def test_stream_order_and_absorption(text, expected):
    assert [to_text(d.to_formula()) for d in nf(text)] == expected


def test_blocks_come_in_agent_order_whatever_order_the_literals_arrive_in():
    ds = nf("(L3 p | N1 q) & (~L2 r | L1 s)", 3)
    assert [[b.agent for b in d.blocks] for d in ds] == [[2, 3], [1, 3], [1, 2], [1]]
    assert [to_text(d.to_formula()) for d in ds] == [
        "~L2 r & L3 p",
        "L1 s & L3 p",
        "N1 q & ~L2 r",
        "L1 s & N1 q",
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(L1 false | p) & (~L1 q | r)", ["r & L1 false", "p & ~L1 q", "p & r"]),
        ("(~L1 q | r) & (L1 false | p)", ["p & ~L1 q", "r & L1 false", "r & p"]),
    ],
)
def test_m_false_meeting_a_negated_literal_of_another_conjunct_prunes_the_branch(text, expected):
    # L1 false implies L1 q, so the branch that holds it beside ~L1 q is
    # dropped whichever of the two the stream meets first.
    ds = nf(text, 1)
    assert [to_text(d.to_formula()) for d in ds] == expected
    assert not any(join(And, b.pos_l) is FALSE and b.neg_l for d in ds for b in d.blocks)


@pytest.mark.parametrize(
    "text, expected",
    [
        # L1 ~(p & q) complements the join of the parts before it, so
        # agent 1's positive L side folds to false and ~L1 r prunes it
        ("L1 p & L1 q & L1 ~(p & q) & ~L1 r", []),
        # L1 (p & q) is that join, so the fold absorbs it
        ("L1 p & L1 q & L1 (p & q) & ~L1 r", ["L1 (p & q) & ~L1 r"]),
    ],
)
def test_a_side_that_folds_to_false_prunes_a_negated_literal(text, expected):
    assert [to_text(d.to_formula()) for d in nf(text, 1)] == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        # agent 2's group arrives first but comes second; a backtrack empties it
        (
            "(L2 q | L1 p) & (L1 r | s)",
            [
                (TRUE, [AgentBlock(1, pos_l=(r,)), AgentBlock(2, pos_l=(q,))]),
                (s, [AgentBlock(2, pos_l=(q,))]),
                (TRUE, [AgentBlock(1, pos_l=(p, r))]),
                (s, [AgentBlock(1, pos_l=(p,))]),
            ],
        ),
        # L1 false beside ~L1 b is pruned, last
        (
            "(N3 a | ~L1 b) & (L2 c | L1 false) & (L1 d | ~N3 e)",
            [
                (TRUE, [AgentBlock(1, pos_l=(d,)), AgentBlock(2, pos_l=(c,)), AgentBlock(3, pos_n=(a,))]),
                (TRUE, [AgentBlock(2, pos_l=(c,)), AgentBlock(3, pos_n=(a,), neg_n=(e,))]),
                (TRUE, [AgentBlock(1, pos_l=(FALSE, d)), AgentBlock(3, pos_n=(a,))]),
                (TRUE, [AgentBlock(1, pos_l=(FALSE,)), AgentBlock(3, pos_n=(a,), neg_n=(e,))]),
                (TRUE, [AgentBlock(1, pos_l=(d,), neg_l=(b,)), AgentBlock(2, pos_l=(c,))]),
                (TRUE, [AgentBlock(1, neg_l=(b,)), AgentBlock(2, pos_l=(c,)), AgentBlock(3, neg_n=(e,))]),
            ],
        ),
        # pruned first: no group of the pruned branch reaches the disjuncts after it
        (
            "(~L1 b | N3 a) & (L1 false | L2 c) & (L1 d | ~N3 e)",
            [
                (TRUE, [AgentBlock(1, pos_l=(d,), neg_l=(b,)), AgentBlock(2, pos_l=(c,))]),
                (TRUE, [AgentBlock(1, neg_l=(b,)), AgentBlock(2, pos_l=(c,)), AgentBlock(3, neg_n=(e,))]),
                (TRUE, [AgentBlock(1, pos_l=(FALSE, d)), AgentBlock(3, pos_n=(a,))]),
                (TRUE, [AgentBlock(1, pos_l=(FALSE,)), AgentBlock(3, pos_n=(a,), neg_n=(e,))]),
                (TRUE, [AgentBlock(1, pos_l=(d,)), AgentBlock(2, pos_l=(c,)), AgentBlock(3, pos_n=(a,))]),
                (TRUE, [AgentBlock(2, pos_l=(c,)), AgentBlock(3, pos_n=(a,), neg_n=(e,))]),
            ],
        ),
    ],
)
def test_stream_hands_out_exact_records_as_groups_come_and_go(text, expected):
    assert [(x.sigma, list(x.blocks)) for x in nf(text, 3)] == expected


def test_deep_trail_hands_out_each_disjunct_its_own_groups():
    # (L1 p_j | ~L2 q_j), j < 8: the digest formulas never reach 20
    # disjuncts, so this covers the trail at depth 8.
    k = 8
    ps, qs = [Atom(f"p{j}") for j in range(k)], [Atom(f"q{j}") for j in range(k)]
    ds = nf(" & ".join(f"(L1 p{j} | ~L2 q{j})" for j in range(k)))
    assert len(ds) == 2**k
    # distribution order: conjunct 0 is the outermost choice, left first
    for d, rights in zip(ds, product((False, True), repeat=k)):
        assert d.sigma is TRUE
        lefts = [ps[j] for j in range(k) if not rights[j]]
        negated = tuple(qs[j] for j in range(k) if rights[j])
        expected = ([AgentBlock(1, pos_l=tuple(lefts))] if lefts else []) + (
            [AgentBlock(2, neg_l=negated)] if negated else []
        )
        assert list(d.blocks) == expected


def test_contradictory_conjuncts_are_dropped():
    assert nf("p & ~p", 1) == []
    assert nf("L1 p & ~L1 p", 1) == []


def test_simplify_folds_constants_and_modalities():
    assert simplify(parse("L1 true", 1)) is TRUE
    assert simplify(parse("N1 true", 1)) is TRUE
    assert simplify(parse("~~p")) == p
    assert simplify(parse("p & true")) == p
    assert simplify(parse("p | ~p")) is TRUE
    assert simplify(parse("L1 false", 1)) == L(1, FALSE)


def test_reassemble_of_empty_stream_is_false():
    assert reassemble(nf("p & ~p", 1)) is FALSE


def test_simplify_returns_an_already_simple_formula_unchanged():
    a, b = Atom("simple_a"), Atom("simple_b")
    f = Or(And(a, L(1, Not(b))), N(2, Iff(a, b)))
    assert simplify(f) is f


@pytest.mark.parametrize(
    "text, variables, clauses",
    [
        ("((p & q) & r) & (s & ~~t)", ["p", "q", "r", "s", "t"], [[1], [2], [3], [4], [5]]),
        ("~(p | ~q) & ~(r -> s)", ["p", "q", "r", "s"], [[-1], [2], [3], [-4]]),
        ("p | (q & r) | ~(s | t)", ["p", "q", "r", None, "s", "t", None], [[1, 4, 7], [-4, 2], [-4, 3], [-7, -5], [-7, -6]]),
        (
            "(p <-> L1 q) & ~(r <-> (s & t))",
            ["p", "L1 q", "r", None, None, None, "s", "t"],
            [[-1, 2], [-2, 1], [5, 6], [-5, 3], [-5, -4], [-6, -3], [-6, 4], [-4, 7], [-4, 8], [4, -7, -8]],
        ),
        # r | s | ~r is a tautology, so q & (...) keeps one clause and goes
        # into the disjunction as q itself, with no definition variable
        ("p | (q & (r | s | ~r))", ["p", "q", "r", "s"], [[1, 2]]),
    ],
)
def test_clause_form_numbers_leaves_and_orders_clauses_left_to_right(text, variables, clauses):
    # The search's trail, its choices and the trace follow this order, so
    # a run of & or | walked down its spine keeps the order of the text.
    got_variables, got_clauses = to_clauses(parse(text, 1))
    assert [None if g is None else to_text(g) for g in got_variables] == variables
    assert got_clauses == clauses
