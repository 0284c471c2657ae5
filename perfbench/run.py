"""Benchmark of the onlyknow decide path.

    python3 perfbench/run.py --workload defaults|objective|modal-mix|all \
        --seed N --seconds S --trace 0|1

Queries run one after another in one process (a closed loop with one
client), the way ``onlyknow decide --batch`` runs them: each query is
parsed, given a fresh ``Decider`` and decided, while the engine's
module-level caches persist across the batch.  A run is a fixed number
of whole workload cycles, sized from ``--seconds`` so that it measures
about that long on the engine the benchmark was written against; a
fixed amount of work keeps the sample count and the memory the caches
reach the same when the engine gets faster.  Each query gets
``LIMIT_S`` seconds: the same deadline goes to the ``Decider``, and an
interval timer stops the query from outside if the engine overshoots it
by ``GRACE_S``.  Every answer is checked against the reference the
workload generator computed.  The end-to-end times are wall times scaled
to a reference host speed (see ``hostspeed.py``); the raw wall times are
printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
cycles with spans around every layer, replays the same cycles untraced
in a child process to compare verdicts and time, and prints the
per-layer metrics.  The last line of output is one JSON object; the
lines before it are the same numbers for people, plus one row per
ladder rung.  The exit code is 1 on a wrong verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LIMIT_S = 2.0  # per-query time limit
GRACE_S = 0.5  # how far past the limit the outside timer lets the engine run
MEMORY_CAP = 1536 << 20  # address-space cap, so a runaway query raises MemoryError
SETUP_SAMPLES = 15
TRACE_SHARE = 0.5  # share of the cycles the traced pass runs
OVERRUN_CAP = 1.4  # no new cycle starts after 1.4 x --seconds of measured time
REPLAY_TIMEOUT_S = 150

SETUP_CODE = (
    "import time\n"
    "from hostspeed import median_probe\n"
    "before = median_probe(3)\n"
    "t = time.perf_counter()\n"
    "import onlyknow\n"
    "onlyknow.Decider()\n"
    "took = time.perf_counter() - t\n"
    "print(took, (before + median_probe(3)) / 2)\n"
)


class QueryTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so no handler in
    the engine can swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Outcome:
    rung: str
    status: str  # decided | wrong | timeout | error | memory
    seconds: float
    answer: bool | int | None = None
    detail: str = ""
    overrun_ms: float | None = None
    at: float = 0.0  # measured run time at the middle of the query


def setup_sample() -> tuple[float, float]:
    """Seconds from the start of ``import onlyknow`` in a fresh
    interpreter until a query can be issued, raw and scaled by the host
    speed the child process saw around it."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    took, probe = map(float, out.stdout.split())
    return took, took * hostspeed.REFERENCE_S / probe


class Recorder:
    """Wraps each query of the untraced run.  It takes a set-up sample
    before the first query and each time another 1/SETUP_SAMPLES of
    --seconds has been measured, so the samples spread over the run like
    the queries do; ``setup_s`` tops them up to SETUP_SAMPLES when the
    run was shorter.  It times the host speed probe between queries and
    notes when in the measured time each query ran."""

    def __init__(self, seconds: float) -> None:
        self.every = seconds / SETUP_SAMPLES
        self.measured = 0.0
        self.due = 0.0
        self.setups: list[tuple[float, float]] = []
        self.speed = hostspeed.Track()

    def around(self, q, make_decider) -> Outcome:
        if self.measured >= self.due:
            self.setups.append(setup_sample())
            self.due += self.every
        self.speed.maybe_probe(self.measured)
        out = execute(q, make_decider)
        out.at = self.measured + out.seconds / 2
        self.measured += out.seconds
        return out

    def setup_s(self) -> tuple[float, float]:
        """Median set-up time, raw and scaled."""
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(setup_sample())
        return tuple(statistics.median(col) for col in zip(*self.setups))

    def scaled(self, outcomes: list[Outcome]) -> list[Outcome]:
        """The outcomes with each wall time scaled to the reference host
        speed, except for timeouts: the limit is wall-clock time."""
        return [
            o if o.status == "timeout" else replace(o, seconds=o.seconds * self.speed.scale(o.at))
            for o in outcomes
        ]


def _answer(q, decider):
    from onlyknow import autoepistemic, formula, normal_form

    f = formula.parse(q.text, q.agents)
    if q.kind == "nf":
        return sum(1 for _ in normal_form.to_normal_form(f))
    if q.kind == "believes":
        return autoepistemic.believes(1, formula.parse(q.kb, q.agents), f, decider)
    if q.kind == "sat":
        return bool(decider.consistent(f))
    return bool(decider.valid(f))


def execute(q, make_decider) -> Outcome:
    from onlyknow.decision import BudgetExceededError

    status, answer, detail, overrun = "decided", None, "", None
    start = time.perf_counter()
    deadline = time.monotonic() + LIMIT_S
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S + GRACE_S)
            answer = _answer(q, make_decider(deadline))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (BudgetExceededError, QueryTimeout) as exc:
        status, detail = "timeout", type(exc).__name__
        overrun = (time.monotonic() - deadline) * 1000
    except MemoryError:
        status = "memory"
    except Exception as exc:  # any other engine failure is a counted outcome
        status, detail = "error", type(exc).__name__
    seconds = time.perf_counter() - start
    if status == "decided":
        if answer != q.expected:
            status, detail = "wrong", f"expected {q.expected}, got {answer}: {q.text}"
        elif seconds > LIMIT_S:
            status, detail = "timeout", "late"
    return Outcome(q.rung, status, seconds, answer, detail, overrun)


def run_queries(cycle_iter, n_cycles, make_decider, cap_seconds=math.inf, around=None):
    """The first n_cycles cycles; no new cycle starts once the measured
    time has passed cap_seconds.  Returns the outcomes and the number of
    cycles run."""
    outcomes: list[Outcome] = []
    measured = 0.0
    done = 0
    for cycle in cycle_iter:
        if done == n_cycles or measured > cap_seconds:
            break
        for q in cycle:
            out = around(q, make_decider) if around else execute(q, make_decider)
            outcomes.append(out)
            measured += out.seconds
        done += 1
    return outcomes, done


def _percentile(outcomes: list[Outcome], p: float) -> float:
    """Nearest-rank percentile in seconds; failures rank above every
    decided query and read as at least the limit."""
    ranked = sorted(outcomes, key=lambda o: (o.status != "decided", o.seconds))
    o = ranked[max(0, math.ceil(p * len(ranked)) - 1)]
    return o.seconds if o.status == "decided" else max(o.seconds, LIMIT_S)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    decided = sum(o.status == "decided" for o in outcomes)
    wall = sum(o.seconds for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (_percentile(outcomes, 0.5) * 1000, "ms"),
        "p90_ms": (_percentile(outcomes, 0.9) * 1000, "ms"),
        "throughput_qps": (decided / wall, "1/s"),
        "decided_share": (decided / len(outcomes), "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _rung_key(rung: str) -> tuple[str, int]:
    """Sort "k=10" after "k=4"."""
    name, _, size = rung.rpartition("=")
    return (name, int(size)) if size.isdigit() else (rung, 0)


def print_rows(outcomes: list[Outcome]) -> None:
    """One row per rung: the growth curve along each ladder."""
    rungs: dict[str, list[Outcome]] = {}
    for o in outcomes:
        rungs.setdefault(o.rung, []).append(o)
    for rung, outs in sorted(rungs.items(), key=lambda item: _rung_key(item[0])):
        ok = sorted(o.seconds for o in outs if o.status == "decided")
        failures = Counter(o.status if o.status != "error" else o.detail for o in outs if o.status != "decided")
        median = f"{statistics.median(ok) * 1000:.2f} ms" if ok else "-"
        worst = f"{ok[-1] * 1000:.2f} ms" if ok else "-"
        fails = ", ".join(f"{n} {kind}" for kind, n in sorted(failures.items())) or "none"
        print(f"  {rung:<22} attempted {len(outs):>5}  decided {len(ok):>5}  "
              f"median {median:>12}  max {worst:>12}  failed: {fails}")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")


def result_line(correct: bool, outcomes: list[Outcome], metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.status != "decided" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


# -- traced run --------------------------------------------------------------


def traced_pass(workload: str, seed: int, n_cycles: int, cap_seconds: float):
    import tracing
    from onlyknow import normal_form
    from workloads import cycles

    tracer = tracing.Tracer()
    growth = Counter()

    def cache_sizes():
        return (
            len(getattr(normal_form, "_SIMPLIFY_CACHE", ())),
            len(getattr(normal_form, "_NORMALIZE_CACHE", ())),
        )

    def around(q, make_decider):
        tracer.deciders.clear()
        before = cache_sizes()
        out = execute(q, make_decider)
        after = cache_sizes()
        growth["normal_form.simplify_cache_entries"] += after[0] - before[0]
        growth["normal_form.normalize_cache_entries"] += after[1] - before[1]
        growth["decision.memo_entries"] += sum(len(d._memo) for d in tracer.deciders)
        tracer.query += 1
        return out

    with tracing.install(tracer):
        outcomes, done = run_queries(
            cycles(workload, seed),
            n_cycles,
            lambda deadline: tracing.TracedDecider(tracer, deadline),
            cap_seconds,
            around=around,
        )
    return tracer, growth, outcomes, done


def replay(workload: str, seed: int, n_cycles: int) -> dict:
    """The first n_cycles cycles, untraced, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--replay", str(n_cycles)],
        capture_output=True, text=True, check=True, timeout=REPLAY_TIMEOUT_S,
    )
    return json.loads(out.stdout.splitlines()[-1])


def per_layer(tracer, growth: Counter, outcomes: list[Outcome], untraced: dict) -> dict:
    n = len(outcomes)
    c = tracer.counts
    mismatches = 0
    traced_s = untraced_s = 0.0
    for o, (status, answer, seconds) in zip(outcomes, untraced["outcomes"]):
        if o.answer is not None and answer is not None and o.answer != answer:
            mismatches += 1
        if o.status == "decided" and status == "decided":
            traced_s += o.seconds
            untraced_s += seconds
    overruns = [o.overrun_ms for o in outcomes if o.overrun_ms is not None]

    def per_query(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    s = tracer.self_time
    return {
        "formula.parse_s": (per_query(s["formula.parse"]), "s/query"),
        "formula.parse_nodes": (per_query(c["formula.parse_nodes"]), "count/query"),
        "decision.eliminate_val_s": (per_query(s["decision.eliminate_val"]), "s/query"),
        "decision.val_subqueries": (per_query(c["decision.val_subqueries"]), "count/query"),
        "normal_form.normalize_s": (per_query(s["normal_form.normalize"]), "s/query"),
        "normal_form.normalized_nodes": (per_query(c["normal_form.normalized_nodes"]), "count/query"),
        "normal_form.disjunct_s": (per_query(s["normal_form.disjunct"]), "s/query"),
        "normal_form.disjuncts": (per_query(c["normal_form.disjuncts"]), "count/query"),
        "normal_form.simplify_s": (per_query(s["normal_form.simplify"]), "s/query"),
        "decision.prop_sat_s": (per_query(s["decision.prop_sat"]), "s/query"),
        "decision.prop_sat_calls": (per_query(c["decision.prop_sat_calls"]), "count/query"),
        "decision.prop_unsat_ratio": (ratio(c["decision.prop_unsat"], c["decision.disjuncts"]), "ratio"),
        "decision.sat_s": (per_query(s["decision.sat"]), "s/query"),
        "decision.sat_calls": (per_query(c["decision.sat_calls"]), "count/query"),
        "decision.group_s": (per_query(s["decision.group"]), "s/query"),
        "decision.group_tests": (per_query(c["decision.group_tests"]), "count/query"),
        "decision.group_fail_ratio": (ratio(c["decision.group_fails"], c["decision.group_tests"]), "ratio"),
        "decision.memo_hit_ratio": (ratio(c["decision.memo_hits"], c["decision.memo_lookups"]), "ratio"),
        "decision.max_level": (tracer.max_level, "level"),
        "decision.memo_entries": (per_query(growth["decision.memo_entries"]), "count/query"),
        "normal_form.simplify_cache_entries": (per_query(growth["normal_form.simplify_cache_entries"]), "count/query"),
        "normal_form.normalize_cache_entries": (per_query(growth["normal_form.normalize_cache_entries"]), "count/query"),
        "autoepistemic.believes_s": (per_query(tracer.total_time["autoepistemic.believes"]), "s/query"),
        "decision.budget_overrun_ms": (statistics.median(overruns) if overruns else 0.0, "ms"),
        "harness.timeouts": (sum(o.status == "timeout" for o in outcomes), "count"),
        "harness.external_stops": (sum(o.detail == "QueryTimeout" for o in outcomes), "count"),
        "harness.internal_errors": (sum(o.status == "error" for o in outcomes), "count"),
        "harness.memory_errors": (sum(o.status == "memory" for o in outcomes), "count"),
        "harness.wrong_verdicts": (sum(o.status == "wrong" for o in outcomes), "count"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s) - 1 if untraced_s else 0.0, "ratio"),
        "trace.verdict_mismatches": (mismatches, "count"),
        "trace.spans": (len(tracer.spans) + tracer.dropped, "count"),
    }


# -- entry point -------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = status or child.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="defaults, objective, modal-mix or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "onlyknow" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC / 'onlyknow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, cycles, cycles_for

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))
    signal.signal(signal.SIGALRM, _alarm)

    from onlyknow.decision import Decider

    def untraced_decider(deadline):
        return Decider(deadline=deadline)

    if args.replay is not None:
        outcomes, _ = run_queries(cycles(args.workload, args.seed), args.replay, untraced_decider)
        print(json.dumps({"outcomes": [[o.status, o.answer, o.seconds] for o in outcomes]}))
        return 0

    n_cycles = cycles_for(args.workload, args.seconds)
    cap_seconds = OVERRUN_CAP * args.seconds
    notes: list[str] = []
    if args.trace:
        tracer, growth, outcomes, done = traced_pass(
            args.workload, args.seed, max(1, round(n_cycles * TRACE_SHARE)), cap_seconds * TRACE_SHARE
        )
        metrics = per_layer(tracer, growth, outcomes, replay(args.workload, args.seed, done))
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv")
        correct = metrics["harness.wrong_verdicts"][0] == 0 and metrics["trace.verdict_mismatches"][0] == 0
    else:
        recorder = Recorder(args.seconds)
        outcomes, _ = run_queries(
            cycles(args.workload, args.seed), n_cycles, untraced_decider, cap_seconds, recorder.around
        )
        raw_setup_s, setup_s = recorder.setup_s()
        metrics = end_to_end(recorder.scaled(outcomes), setup_s)
        raw = end_to_end(outcomes, raw_setup_s)
        notes = [f"host speed probe: median {recorder.speed.median_ms():.4f} ms, "
                 f"reference {hostspeed.REFERENCE_S * 1000:g} ms; unscaled wall times:"]
        notes += [f"raw {name:<36} {raw[name][0]:>14.6g} {raw[name][1]}"
                  for name in ("setup_s", "p50_ms", "p90_ms", "throughput_qps")]
        correct = all(o.status != "wrong" for o in outcomes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"limit {LIMIT_S:g} s  queries {len(outcomes)}")
    print_rows(outcomes)
    for o in outcomes:
        if o.status == "wrong":
            print(f"WRONG [{o.rung}] {o.detail}")
    print_metrics(metrics)
    for line in notes:
        print(line)
    print(result_line(correct, outcomes, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
