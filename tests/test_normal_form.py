from onlyknow.corpus import generate_random
from onlyknow.decision import Decider
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
    is_i_objective,
    parse,
    to_text,
    walk,
)
from onlyknow.normal_form import (
    DisjunctGauge,
    merge_positive,
    reassemble,
    simplify,
    to_normal_form,
)

p, q = Atom("p"), Atom("q")


def nf(text, agents=2):
    return list(to_normal_form(parse(text, agents)))


def test_disjunction_under_l_splits():
    ds = nf("L1 (p | L1 q)")
    assert [to_text(d.to_formula()) for d in ds] == ["L1 p", "L1 q"]


def test_same_agent_l_collapses():
    ds = nf("L1 L1 p")
    assert len(ds) == 1
    assert ds[0].blocks[0].pos_l == p
    assert ds[0].blocks[0].pos_n is TRUE


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


def test_merge_positive_examples():
    b = merge_positive(1, pos_l=(p, q))
    assert b.pos_l == p & q
    assert b.pos_n is TRUE
    empty = merge_positive(1)
    assert empty.pos_l is TRUE and empty.pos_n is TRUE
    b2 = merge_positive(1, pos_n=(p, p >> q))
    assert b2.pos_n == p & (p >> q)


def test_sigma_is_propositional_and_blocks_objective():
    for seed in range(150):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        for d in to_normal_form(f):
            # sigma is true or a conjunction of atom literals, no atom
            # both ways: the decider relies on it and never searches sigma
            signs = {}
            for lit in [] if d.sigma is TRUE else _conjuncts(d.sigma):
                atom, positive = (lit.sub, False) if isinstance(lit, Not) else (lit, True)
                assert isinstance(atom, Atom), (to_text(f), to_text(d.sigma))
                assert signs.setdefault(atom, positive) == positive, (to_text(f), to_text(d.sigma))
            for b in d.blocks:
                for g in (b.pos_l, b.pos_n, *b.neg_l, *b.neg_n):
                    assert is_i_objective(g, b.agent), (to_text(f), b.agent, to_text(g))


def _conjuncts(f):
    if isinstance(f, And):
        yield from _conjuncts(f.left)
        yield from _conjuncts(f.right)
    else:
        yield f


def test_basic_inputs_give_basic_blocks():
    for seed in range(150):
        f = generate_random(seed, "onl_minus", max_modal_depth=3, n_atoms=2, n_agents=2)
        for d in to_normal_form(f):
            for b in d.blocks:
                for g in (b.pos_l, b.pos_n, *b.neg_l, *b.neg_n):
                    assert not any(isinstance(x, N) for x in walk(g)), to_text(f)


def test_equivalence_with_reassembled_disjunction():
    d = Decider()
    for seed in range(80):
        f = generate_random(seed + 7000, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        back = reassemble(list(to_normal_form(f)))
        assert bool(d.valid(Iff(f, back))), to_text(f)


def test_stream_is_deterministic():
    f = parse("(p | L1 q) & (N2 p | ~L1 q) <-> N1 (p & q)", 2)
    first = [to_text(d.to_formula()) for d in to_normal_form(f)]
    second = [to_text(d.to_formula()) for d in to_normal_form(f)]
    assert first == second


def test_streaming_gauge_counts_one_at_a_time():
    factors = [Or(Atom(f"p{k}"), Atom(f"q{k}")) for k in range(10)]
    gauge = DisjunctGauge()
    total = sum(1 for _ in to_normal_form(conj(factors), gauge=gauge))
    assert total == 2 ** 10
    assert gauge.total == total
    assert gauge.peak == 1


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
