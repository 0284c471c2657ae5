import random

import pytest

from onlyknow.corpus import generate_random
from onlyknow.decision import BudgetExceededError, Decider
from onlyknow.formula import (
    Atom,
    FALSE,
    FormulaError,
    L,
    N,
    Not,
    TRUE,
    Val,
    disj,
    modal_depth,
    only_knows,
    parse,
    to_text,
    walk,
)

p, q = Atom("p"), Atom("q")


# -- V elimination -----------------------------------------------------


def test_eliminate_val_examples():
    assert Decider().eliminate_val(parse("V (p | ~p)")) is TRUE
    assert Decider().eliminate_val(parse("V p")) is FALSE
    assert Decider().eliminate_val(parse("C p")) is TRUE


def test_eliminate_val_nested_and_under_modalities():
    assert Decider().eliminate_val(parse("L1 (V (p -> p) & q)", 1)) == L(1, q)
    # inner V resolves first, then the outer sees a constant
    assert Decider().eliminate_val(parse("V (V p | ~V p)")) is TRUE


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


def test_prop_sat_examples():
    assert Decider().prop_sat(parse("p & ~p")) is False
    assert Decider().prop_sat(parse("p & ~q")) is True
    assert Decider().prop_sat(parse("(p -> q) & p & ~q")) is False
    with pytest.raises(FormulaError):
        Decider().prop_sat(parse("L1 p", 1))


def test_propositional_fragment_matches_prop_sat():
    for seed in range(120):
        f = generate_random(seed, "basic", max_modal_depth=0, n_atoms=3, n_agents=1)
        assert bool(Decider().consistent(f)) == Decider().prop_sat(f), to_text(f)


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


# -- axiom instances ---------------------------------------------------


def test_axiom_instances_are_valid_small_sample():
    from onlyknow.corpus import axiom_instances

    rng = random.Random(424242)
    d = Decider()
    for inst in axiom_instances(rng, 60, prop_sat=Decider().prop_sat):
        assert bool(d.valid(inst)), to_text(inst)


def test_basic_exclusion_axiom_with_tableau_side_condition():
    # N a -> ~L a for basic objective a whose negation the K45 prover
    # certifies satisfiable: the side condition makes the schema
    # recursive, and the certified instances must all decide valid
    from onlyknow import k45
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
    d = Decider(trace=True)
    verdict = d.consistent(parse("L1 (p | L2 q) & ~L1 p & N1 ~q", 2))
    assert verdict.trace, "trace requested but empty"
    # each nested satisfiability query works on strictly smaller modal depth
    by_level = [(level, modal_depth(g)) for level, rule, g in d.trace_entries if rule == "satisfiable?"]
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


def test_trace_logs_memo_hits_and_keeps_the_verdict():
    # both agents' groups ask whether ~p is satisfiable; the second ask
    # is answered from the memo
    f = parse("~L1 p & ~L2 p", 2)
    d = Decider(trace=True)
    traced = d.consistent(f)
    assert (2, "memo hit", Not(p)) in d.trace_entries
    assert "    memo hit: ~p" in traced.trace
    assert traced.status == Decider().consistent(f).status == "satisfiable"


def test_budget_exceeded_raises():
    import time

    d = Decider(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceededError):
        d.consistent(parse("L1 p & ~L1 q", 2))


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
    assert Decider().block_consistent(AgentBlock(1, pos_l=p, pos_n=Not(p))) is True
    # L1 false & N1 false: the union false | false cannot be valid
    assert Decider().block_consistent(AgentBlock(1, pos_l=FALSE, pos_n=FALSE)) is False
    # L1 p & ~L1 q: p & ~q consistent, union defaults to p | true
    assert Decider().block_consistent(AgentBlock(1, pos_l=p, neg_l=(q,))) is True
