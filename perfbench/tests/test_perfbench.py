"""Checks of the benchmark itself: the expected answers its generators
attach to queries, against the independent oracles where they reach,
and that tracing changes no verdict.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import signal
import sys
from itertools import islice, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from onlyknow import k45  # noqa: E402
from onlyknow.corpus import load_corpus  # noqa: E402
from onlyknow.decision import Decider  # noqa: E402
from onlyknow.finite_semantics import oracle_valid  # noqa: E402
from onlyknow.formula import Atom, L, atoms, only_knows, parse, substitute_atom  # noqa: E402


def _by_assignment(clauses, n):
    models = [
        all(any(bits[v] == pos for v, pos in c) for c in clauses)
        for bits in product((False, True), repeat=n)
    ]
    return any(models), all(models)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_truth_table_matches_enumeration_and_k45(n):
    rng = random.Random(n)
    for m in (1, 2, 4, 8, round(4.26 * n)):
        clauses = workloads.random_3cnf(rng, n, m)
        satisfiable, valid = workloads.truth_table(clauses, n)
        assert (satisfiable, valid) == _by_assignment(clauses, n)
        phi = parse(workloads.cnf_text(clauses, "y"))
        assert k45.sat(phi) == satisfiable
        # The L-cnf queries of modal-mix rest on these two facts.
        assert k45.sat(parse(f"~L1 ~({workloads.cnf_text(clauses, 'y')})")) == satisfiable
        assert k45.sat(parse(f"~L1 ({workloads.cnf_text(clauses, 'y')})")) == (not valid)


@pytest.mark.parametrize("blocked", [set(), {0}])
def test_single_default_matches_extended_oracle(blocked):
    theory = workloads.default_theory(1, secret=set(), blocked=blocked)
    kb = parse(theory.kb, 1)
    for text, expected in [(q, True) for q in theory.believed] + [(q, False) for q in theory.not_believed]:
        f = only_knows(1, kb) >> L(1, parse(text, 1))
        assert oracle_valid(f, sorted(atoms(f)), semantics="extended").valid == expected, text


def test_secret_default_matches_corpus():
    corpus = {
        parse(e.formula, e.agents): e.expected == "VALID"
        for e in load_corpus(workloads.corpus_file())
        if e.mode == "valid"
    }
    checked = 0
    for blocked in (set(), {0}):
        theory = workloads.default_theory(1, secret={0}, blocked=blocked)
        kb = parse(theory.kb, 2)
        for text, expected in [(q, True) for q in theory.believed] + [(q, False) for q in theory.not_believed]:
            f = substitute_atom(only_knows(1, kb) >> L(1, parse(text, 2)), "p0", Atom("p"))
            if f in corpus:
                assert corpus[f] == expected, text
                checked += 1
    assert checked == 3


def test_cycle_shape_does_not_depend_on_seed():
    for name in workloads.WORKLOADS:
        a = [q.rung for c in islice(workloads.cycles(name, 1), 2) for q in c]
        b = [q.rung for c in islice(workloads.cycles(name, 2), 2) for q in c]
        assert a == b, name


def test_failures_rank_above_every_limit():
    outs = [run.Outcome("r", "decided", 0.001 * i) for i in range(1, 10)]
    outs.append(run.Outcome("r", "error", 0.0005))
    assert run._percentile(outs, 0.9) == pytest.approx(0.009)
    assert run._percentile(outs, 1.0) == run.LIMIT_S


def test_scaling_takes_out_host_speed_but_not_timeouts():
    recorder = run.Recorder(10)
    recorder.speed.at = [0.0, 1.0, 2.0, 3.0]
    recorder.speed.took = [2 * hostspeed.REFERENCE_S] * 4
    outs = [
        run.Outcome("r", "decided", 0.010, at=0.5),
        run.Outcome("r", "error", 0.004, at=1.5),
        run.Outcome("r", "timeout", 2.5, at=2.5),
    ]
    assert [o.seconds for o in recorder.scaled(outs)] == pytest.approx([0.005, 0.002, 2.5])
    assert [o.seconds for o in outs] == [0.010, 0.004, 2.5]


def test_setup_sample_is_scaled_by_the_probe_of_its_own_process():
    raw, scaled = run.setup_sample()
    assert raw > 0 and scaled > 0
    assert 0.2 < scaled / raw < 5


# Rungs left out of the agreement check because they exceed the time
# limit today, so both runs would only time out.
SLOW_RUNGS = {"k=5", "k=6"}


def _first_cycle(name):
    cycle = next(workloads.cycles(name, 3))
    return iter([[q for q in cycle if q.rung not in SLOW_RUNGS]])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_verdicts_agree(name):
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        plain, _ = run.run_queries(_first_cycle(name), 1, lambda d: Decider(deadline=d))
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced, _ = run.run_queries(
                _first_cycle(name), 1, lambda d: tracing.TracedDecider(tracer, d)
            )
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert [o.answer for o in traced] == [o.answer for o in plain]
    assert not [o for o in plain if o.status == "wrong"]
    assert tracer.self_time["formula.parse"] > 0
    assert tracer.counts["decision.sat_calls"] > 0
