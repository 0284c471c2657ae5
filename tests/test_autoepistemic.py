import pytest

from onlyknow.autoepistemic import believes, kb_coherent, only_knowing_sets
from onlyknow.corpus import generate_random
from onlyknow.decision import Decider
from onlyknow.finite_semantics import Situation, worlds_over
from onlyknow.finite_semantics import evaluate
from onlyknow.formula import Atom, FALSE, Not, parse, substitute_atom, to_text

W_P = frozenset({"p"})
PHI1 = ("p",)


def test_secret_default():
    kb = parse("~L1 L2 p -> ~L2 p", 2)
    assert believes(1, kb, parse("~L2 p", 2)) is True


def test_belief_query_object():
    # the same query through a caller's own Decider
    assert believes(1, parse("~L1 L2 p -> ~L2 p", 2), parse("~L2 p", 2), Decider()) is True


def test_strengthened_base_entails_the_opposite():
    kb = parse("L2 p & (~L1 L2 p -> ~L2 p)", 2)
    assert believes(1, kb, parse("L2 p", 2)) is True


def test_unrelated_belief_is_not_entailed():
    # only knowing p refutes every extra belief, so L1 q is not entailed
    assert believes(1, parse("p", 2), parse("q", 2)) is False


def test_nonmonotonic_retraction():
    weak = parse("~L1 L2 p -> ~L2 p", 2)
    strong = parse("L2 p & (~L1 L2 p -> ~L2 p)", 2)
    conclusion = parse("~L2 p", 2)
    assert believes(1, weak, conclusion) is True
    assert believes(1, strong, conclusion) is False


def test_prudent_default_over_only_knowing():
    kb = parse("~L1 O2 p -> ~O2 p", 2)
    assert believes(1, kb, parse("~O2 p", 2)) is True


def test_kb_coherent_examples():
    assert kb_coherent(1, parse("p", 1)) is True
    assert kb_coherent(1, parse("~O2 p", 2)) is True
    assert kb_coherent(1, FALSE) is True  # empty belief set only knows false


def test_no_contradictory_beliefs_from_coherent_nontrivial_kb():
    from onlyknow.formula import L, only_knows

    d = Decider()
    checked = 0
    for seed in range(150):
        kb = generate_random(seed, "onl_minus", max_modal_depth=1, n_atoms=2, n_agents=2, size=5)
        if not kb_coherent(1, kb, d):
            continue
        # skip bases whose only state is the empty belief set
        if not bool(d.consistent(only_knows(1, kb) & Not(L(1, FALSE)))):
            continue
        query = generate_random(seed + 31337, "basic", max_modal_depth=1, n_atoms=2, n_agents=2, size=4)
        both = believes(1, kb, query, d) and believes(1, kb, Not(query), d)
        assert not both, (to_text(kb), to_text(query))
        checked += 1
    assert checked >= 30


def test_default_fixed_point():
    sets = only_knowing_sets(parse("~L1 ~p -> p", 1), PHI1)
    assert sets == (frozenset({W_P}),)
    assert believes(1, parse("~L1 ~p -> p", 1), Atom("p")) is True


def test_objective_base_selects_its_models():
    assert only_knowing_sets(Atom("p"), PHI1) == (frozenset({W_P}),)
    universe = frozenset(worlds_over(PHI1))
    assert only_knowing_sets(parse("true", 1), PHI1) == (universe,)


def test_objective_bases_have_exactly_one_state():
    for seed in range(80):
        kb = generate_random(seed, "basic", max_modal_depth=0, n_atoms=1, n_agents=1, size=4)
        kb = substitute_atom(kb, "p1", Atom("p"))
        sets = only_knowing_sets(kb, PHI1)
        assert len(sets) == 1, to_text(kb)
        models = frozenset(w for w in worlds_over(PHI1) if evaluate(Situation(PHI1, frozenset(), w), kb))
        assert sets[0] == models


def test_believes_matches_finite_states_single_agent():
    d = Decider()
    for seed in range(150):
        kb = generate_random(seed + 60, "full", max_modal_depth=1, n_atoms=1, n_agents=1, size=4, allow_val=False)
        query = generate_random(seed + 61, "full", max_modal_depth=1, n_atoms=1, n_agents=1, size=4, allow_val=False)
        by_proof = believes(1, kb, query, d)
        states = only_knowing_sets(kb, PHI1)
        by_enumeration = all(
            evaluate(Situation(PHI1, possible, w), query)
            for possible in states
            for w in possible
        )
        assert by_proof == by_enumeration, (to_text(kb), to_text(query), states)


@pytest.mark.parametrize(
    "text, states, forced, searched",
    [
        # Two expansions, believing p or q: low entails both, high
        # neither, so no rule fires and the search guesses ~L1 p.  The
        # base is then q, which forces L1 q.
        ("(~L1 p -> q) & (~L1 q -> p)", 2, {"L1 q"}, False),
        # Blocked: ~p is a conjunct of the base however L1 ~p is read.
        ("~p & (~L1 ~p -> q)", 1, {"L1 ~p"}, False),
        # Unblocked: q, the base with L1 ~p read as true, leaves ~p open.
        ("~L1 ~p -> q", 1, {"~L1 ~p"}, False),
        # The base's parts share ~p's atom, so low & p is searched.
        ("(q -> p) & (~L1 ~p -> q)", 1, {"~L1 ~p"}, True),
        # An unsatisfiable base entails everything, so only knowing it
        # believes everything.  Its parts over q are inconsistent, which
        # only a search finds.  That component is ~q's partner, searched
        # alone since q is one of its parts; ~p's answer must not be read
        # off the part ~p until that component is known satisfiable.
        ("(q -> ~q) & q & ~p & (~L1 p -> q) & (~L1 ~q -> q)", 1, {"L1 p", "L1 ~q"}, True),
    ],
)
def test_only_knowing_forces_agree_with_the_oracles(monkeypatch, text, states, forced, searched):
    # The pair assigns the dependencies its two bounds decide; believes
    # and kb_coherent must still agree with the enumerated states and
    # the extended oracle on every query over the base's atoms.  A rule
    # that cannot decide from the base's parts searches the partners of
    # its formulas.  The entailment routine answers lazily, so the count
    # wraps _forced, which reads every answer.
    from onlyknow.finite_semantics import oracle_valid
    from onlyknow.formula import L, Implies, only_knows

    depth, forces = [0], Decider._forced

    def rule(*args):
        depth[0] += 1
        try:
            return forces(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Decider, "_forced", rule)
    kb = parse(text, 1)
    phi = ("p", "q")
    sets = only_knowing_sets(kb, phi)
    events = []
    coherent = kb_coherent(1, kb, Decider(trace=lambda level, rule, f: events.append((rule, to_text(f), depth[0]))))
    assert len(sets) == states
    assert coherent is bool(sets) is not oracle_valid(Not(only_knows(1, kb)), phi, semantics="extended").valid
    assert {f for rule, f, _ in events if rule.endswith("only knowing forces")} == forced
    assert any(rule == "satisfiable?" and inside for rule, _, inside in events) is searched
    for q in ("p", "~p", "q", "~q", "p | q", "p & q", "p -> q", "p <-> q", "false"):
        query = parse(q, 1)
        by_states = all(evaluate(Situation(phi, w_set, w), query) for w_set in sets for w in w_set)
        by_oracle = oracle_valid(Implies(only_knows(1, kb), L(1, query)), phi, semantics="extended").valid
        assert believes(1, kb, query) is by_states is by_oracle, (text, q)


@pytest.mark.parametrize("k", [6, 9, 16, 20])
def test_default_theory_decides_within_two_seconds(monkeypatch, k):
    # k defaults of the benchmark's six variants, four questions each:
    # ordinary defaults ~L1 ~b_j -> f_j and secret ones
    # ~L1 L2 p_j -> ~L2 p_j, some blocked.  The search guesses the base's
    # own modal atoms; pushing L1 over N1 ~kb instead gives 2^k clauses.
    import random
    import sys
    import time
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import DEFAULT_VARIANTS, _question, _theory

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for variant in range(len(DEFAULT_VARIANTS)):
            theory = _theory(random.Random(variant), set(), k, variant)
            kb = parse(theory.kb, 2)
            for kind in ("yes", "no", "yes&no", "yes&other"):
                text, expected = _question(theory, kind)
                decider = Decider(deadline=time.monotonic() + 1.0)
                assert believes(1, kb, parse(text, 2), decider) is expected, (variant, text)
    finally:
        sys.setrecursionlimit(limit)


def test_a_default_theory_question_searches_few_formulas(monkeypatch):
    # Not believing one of 40 defaults' conclusions: each group test of
    # the base asks about each default's atoms apart from the others, so
    # the memo answers them from one group to the next.  Searching every
    # negated conjunct against the whole base took 901 searches here.
    # At k = 120 the last group's negated tests are lone literals against
    # a partner that is true, which need no search (122 searches when
    # each was searched).  With every second default secret, each
    # negated test against the agent-2 literals searches that part once,
    # without the test's own literal repeated (164 searches before).
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import default_theory

    for theory, bound in (
        (default_theory(40, set(), set()), 200),
        (default_theory(120, set(), set()), 2),
        (default_theory(120, set(range(0, 120, 2)), set(range(0, 120, 3))), 50),
    ):
        events = []
        decider = Decider(trace=lambda *event: events.append(event))
        assert believes(1, parse(theory.kb, 2), parse(theory.no, 2), decider) is False
        assert sum(rule == "satisfiable?" for _, rule, _ in events) <= bound, theory.kb[:40]
