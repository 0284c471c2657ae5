import pytest

from onlyknow import k45, kripke
from onlyknow.corpus import generate_random
from onlyknow.decision import Decider
from onlyknow.formula import Atom, FormulaError, NotBasicError, parse, to_text

p, q = Atom("p"), Atom("q")


def test_propositional_contradiction():
    assert k45.sat(parse("p & ~p")) is False
    assert k45.sat(parse("p & ~q")) is True


def test_positive_introspection_theorem():
    assert k45.sat(parse("L1 p & ~L1 L1 p", 1)) is False
    assert k45.sat(parse("~(L1 p -> L1 L1 p)", 1)) is False


def test_negative_introspection_theorem():
    assert k45.sat(parse("~(~L1 p -> L1 ~L1 p)", 1)) is False


def test_belief_without_seriality():
    # believing a contradiction just means an empty cluster
    assert k45.sat(parse("L1 (p & ~p)", 1)) is True
    assert k45.sat(parse("L1 false & L1 p", 1)) is True
    assert k45.sat(parse("L1 false & ~L1 p", 1)) is False


def test_witness_for_belief_with_ignorance():
    model = k45.find_model(parse("L1 p & ~L1 q", 2))
    assert model is not None
    assert kripke.validate(model).ok
    assert kripke.check_basic(model, "w0", parse("L1 p & ~L1 q", 2))
    # one 1-successor carrying p and not q
    succ = model.successors(1, "w0")
    assert len(succ) == 1
    (w,) = succ
    assert "p" in model.worlds[w] and "q" not in model.worlds[w]


def test_rejects_non_basic_input():
    with pytest.raises(NotBasicError):
        k45.sat(parse("N1 p", 1))
    with pytest.raises(NotBasicError):
        k45.sat(parse("V p"))
    with pytest.raises(FormulaError):
        k45.sat(parse("L2 p"), n_agents=1)


def test_independent_examples():
    assert k45.independent(q, parse("L2 L1 p", 2)) is True
    assert k45.independent(p, p) is False


def test_witnesses_are_k45_and_model_check():
    for seed in range(250):
        f = generate_random(seed, "basic", max_modal_depth=3, n_atoms=3, n_agents=2)
        model = k45.find_model(f)
        if model is None:
            continue
        report = kripke.validate(model)
        assert report.ok, (to_text(f), model.to_json())
        assert kripke.check_basic(model, "w0", f), (to_text(f), model.to_json())


def test_agreement_with_decision_procedure():
    d = Decider()
    for seed in range(250):
        f = generate_random(seed + 5000, "basic", max_modal_depth=3, n_atoms=3, n_agents=2)
        assert k45.sat(f) == bool(d.consistent(f)), to_text(f)


def test_multi_agent_nesting():
    assert k45.sat(parse("L1 L2 p & ~L2 p", 2)) is True
    assert k45.sat(parse("L1 (L2 p & ~p) & ~L1 false", 2)) is True
    assert k45.sat(parse("L1 p & L1 ~p & ~L1 false", 1)) is False


def test_memory_stays_bounded_across_calls():
    # The memo lives for one call, so a warm batch stops growing.
    import gc
    import tracemalloc

    def decide(seeds):
        for seed in seeds:
            k45.sat(generate_random(seed, "basic", max_modal_depth=3, n_atoms=3, n_agents=2, size=20))

    decide(range(100))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decide(range(100, 400))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
