import random
from itertools import product

import pytest

from onlyknow.corpus import generate_random
from onlyknow.decision import Decider
from onlyknow.finite_semantics import (
    BoundExceededError,
    CoverageError,
    ExtendedSituation,
    Situation,
    evaluate,
    evaluate_x,
    oracle_valid,
    reduce_n_to_l,
    situations,
    world_formula,
    worlds_over,
)
from onlyknow.formula import (
    Atom,
    FormulaError,
    L,
    N,
    disj,
    is_propositional,
    parse,
    to_text,
    walk,
)

PHI1 = ("p",)
PHI2 = ("p", "q")
W_EMPTY = frozenset()
W_P = frozenset({"p"})


def test_worlds_over():
    assert worlds_over(PHI1) == (frozenset(), frozenset({"p"}))
    assert len(worlds_over(PHI2)) == 4


def test_only_knowing_clause():
    s = Situation(PHI1, frozenset({W_P}), W_P)
    assert evaluate(s, parse("O1 p", 1)) is True
    s2 = Situation(PHI1, frozenset({W_P, W_EMPTY}), W_P)
    assert evaluate(s2, parse("O1 p", 1)) is False


def test_empty_set_believes_false():
    s = Situation(PHI1, frozenset(), W_P)
    assert evaluate(s, parse("L1 false", 1)) is True


def test_full_set_makes_n_vacuous():
    s = Situation(PHI1, frozenset(worlds_over(PHI1)), W_EMPTY)
    assert evaluate(s, parse("N1 (p & ~p)", 1)) is True


def test_rejects_multi_agent_and_val_and_foreign_atoms():
    s = Situation(PHI1, frozenset(), W_P)
    with pytest.raises(FormulaError):
        evaluate(s, parse("L2 p", 2))
    with pytest.raises(FormulaError):
        evaluate(s, parse("V p"))
    with pytest.raises(FormulaError):
        evaluate(s, parse("q", 1))


def test_extended_symmetric_and_coverage():
    universe = frozenset(worlds_over(PHI1))
    both = ExtendedSituation(PHI1, universe, universe, W_P)
    # L and N coincide when both sets are the whole universe
    for text in ["L1 p <-> N1 p", "L1 ~p <-> N1 ~p", "L1 false <-> N1 false"]:
        assert evaluate_x(both, parse(text, 1))
    with pytest.raises(CoverageError):
        evaluate_x(ExtendedSituation(PHI1, frozenset({W_P}), frozenset({W_P}), W_P), parse("p", 1))


def test_overlap_refutes_the_complement_principle():
    sx = ExtendedSituation(PHI1, frozenset(worlds_over(PHI1)), frozenset({W_P}), W_P)
    assert evaluate_x(sx, parse("~L1 ~p -> N1 ~p", 1)) is False


def test_complementary_embedding():
    universe = frozenset(worlds_over(PHI2))
    rng = random.Random(7)
    for seed in range(120):
        f = generate_random(seed, "onl_minus", max_modal_depth=2, n_atoms=2, n_agents=1)
        f = _rename_atoms(f)
        possible = frozenset(w for w in universe if rng.random() < 0.5)
        real = rng.choice(sorted(universe, key=sorted))
        s = Situation(PHI2, possible, real)
        sx = ExtendedSituation(PHI2, possible, universe - possible, real)
        assert evaluate(s, f) == evaluate_x(sx, f), to_text(f)


def _rename_atoms(f):
    # generator uses p, p1, p2; fold the extras onto the two-atom alphabet
    from onlyknow.formula import substitute_atom

    f = substitute_atom(f, "p1", Atom("q"))
    return substitute_atom(f, "p2", Atom("q"))


def test_propositional_truth_ignores_the_world_set():
    for seed in range(60):
        f = generate_random(seed, "basic", max_modal_depth=0, n_atoms=2, n_agents=1)
        f = _rename_atoms(f)
        if not is_propositional(f):
            continue
        universe = worlds_over(PHI2)
        for real in universe:
            values = {
                evaluate(Situation(PHI2, possible, real), f)
                for possible in (frozenset(), frozenset({W_P}), frozenset(universe))
            }
            assert len(values) == 1


def test_finite_alphabet_complement_validity():
    r = oracle_valid(parse("~L1 ~p -> N1 ~p", 1), PHI1, "levesque")
    assert r.valid is True
    rx = oracle_valid(parse("~L1 ~p -> N1 ~p", 1), PHI1, "extended")
    assert rx.valid is False
    assert rx.counterexample is not None
    assert not evaluate_x(rx.counterexample, parse("~L1 ~p -> N1 ~p", 1))


def test_oracle_counterexample_is_deterministic():
    a = oracle_valid(parse("L1 p", 1), PHI1, "levesque").counterexample
    b = oracle_valid(parse("L1 p", 1), PHI1, "levesque").counterexample
    assert a == b


def test_oracle_bound():
    with pytest.raises(BoundExceededError):
        oracle_valid(parse("p", 1), ("p", "q", "r"), "levesque")
    assert oracle_valid(parse("p | ~p", 1), ("p", "q", "r"), "levesque", bound=3).valid


def test_single_agent_axioms_sound_in_both_semantics():
    from onlyknow.corpus import single_agent_axiom_instances

    rng = random.Random(99)
    for inst in single_agent_axiom_instances(rng, 60, prop_sat=Decider().prop_sat):
        assert oracle_valid(inst, PHI2, "levesque").valid, to_text(inst)
        assert oracle_valid(inst, PHI2, "extended").valid, to_text(inst)


def test_n_for_l_axiom_instances_sound_under_complement_semantics():
    # N a <-> (every world falsifying a is entertained), with the right
    # side spelled as a conjunction of ~L1 ~<world> literals
    from onlyknow.finite_semantics import _n_expansion
    from onlyknow.formula import Iff, N, Not

    for phi in (PHI1, PHI2):
        found = 0
        for seed in range(200):
            a = generate_random(seed, "basic", max_modal_depth=0, n_atoms=len(phi), n_agents=1, size=5)
            a = _rename_atoms(a)
            if not Decider().prop_sat(Not(a)):
                continue
            instance = Iff(N(1, a), _n_expansion(a, phi))
            assert oracle_valid(instance, phi, "levesque").valid, to_text(instance)
            found += 1
            if found >= 40:
                break
        assert found >= 20


def _believed_closure(possible, phi):
    """Worlds satisfying every objective formula believed at the world
    set, trying one formula per set of worlds."""
    universe = worlds_over(phi)
    out = set(universe)
    for bits in product((False, True), repeat=len(universe)):
        named = disj(world_formula(w, phi) for w, b in zip(universe, bits) if b)
        if evaluate(Situation(phi, possible, universe[0]), L(1, named)):
            out -= {w for w in universe if not evaluate(Situation(phi, possible, w), named)}
    return frozenset(out)


def test_believed_closure_is_identity():
    # over a finite alphabet every set of worlds is definable, so the
    # beliefs of a world set pin that set down exactly
    assert _believed_closure(frozenset({W_P}), PHI1) == frozenset({W_P})
    assert _believed_closure(frozenset(), PHI1) == frozenset()
    universe = frozenset(worlds_over(PHI2))
    assert _believed_closure(universe, PHI2) == universe
    for phi in (PHI1, PHI2):
        worlds = worlds_over(phi)
        for bits in product((False, True), repeat=len(worlds)):
            possible = frozenset(w for w, b in zip(worlds, bits) if b)
            assert _believed_closure(possible, phi) == possible


def test_reduce_examples():
    assert to_text(reduce_n_to_l(parse("N1 p", 1), PHI1)) == "~L1 p"
    assert to_text(reduce_n_to_l(parse("N1 true", 1), PHI1)) == "true"
    r = reduce_n_to_l(parse("N1 false", 1), PHI1)
    assert to_text(r) == "~L1 p & ~L1 ~p"


def test_reduce_output_is_n_free_and_equivalent():
    for seed in range(120):
        f = generate_random(seed, "full", max_modal_depth=2, n_atoms=1, n_agents=1, size=6, allow_val=False)
        g = reduce_n_to_l(f, PHI1)
        assert not any(isinstance(x, N) for x in walk(g)), to_text(f)
        for s in situations(PHI1):
            assert evaluate(s, f) == evaluate(s, g), (to_text(f), to_text(g), s.describe())
