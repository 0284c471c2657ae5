"""Opcode counts per query over the first cycles of a perfbench workload.

Usage: python tools/opcodes.py [--workload defaults] [--seed 1] [--cycles 1] [--queries N] [--rung PREFIX] [--render]
       python tools/opcodes.py --growth FAMILY:SIZE[,...]

Each query is answered by perfbench/run.py's own routine (parse the
text, a fresh Decider, decide or stream the normal form), with no
deadline, under sys.settrace with f_trace_opcodes on, and the bytecode
instructions it executes are counted, after one untraced answer that
takes first-use work out of the count.  A call into C counts as the one
instruction that makes it.  One line is printed per rung (its queries,
total, p50 and p90), then one for the whole run, and with --queries N
only the first N queries of the run are counted.  With --rung PREFIX
only the rungs whose names start with PREFIX are counted ("nf " for the
normal-form streams), and the last line totals them.  A selection that
matches no query is a usage error (exit 2).  With --render an
nf query is answered as ``onlyknow nf`` prints it, each disjunct
rendered with to_text(d.to_formula()), where perfbench only counts the
disjuncts; the count is checked either way.

With --growth the points of tools/growth.py are counted instead, each
case of each FAMILY:SIZE given (say believes-secret:240), one line per
case, by the same routine: one untraced run, then a counted one, whose
verdict must be the answer the family is built to have, where it has
one.

Opcode counts do not move with the host's speed, which swings from run
to run, and they repeat from run to run, so two versions of the engine
can be compared on one run each.  The workloads and
the routine are imported from perfbench/, which this script does not
change.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import growth  # noqa: E402
from onlyknow.decision import Decider  # noqa: E402
from onlyknow.formula import parse, to_text  # noqa: E402
from onlyknow.normal_form import to_normal_form  # noqa: E402
from run import _answer  # noqa: E402
from workloads import WORKLOADS, Query, cycles  # noqa: E402


def rendered(q: Query, decider: Decider):
    """q's answer, an nf query's as ``onlyknow nf`` prints it: the number
    of disjuncts, each rendered as text."""
    if q.kind != "nf":
        return _answer(q, decider)
    return len([to_text(d.to_formula()) for d in to_normal_form(parse(q.text, q.agents))])


def count(q: Query, answer: Callable = _answer) -> int:
    """The opcodes executed to answer q by answer, which must come out
    right."""
    n, got = opcodes(lambda: answer(q, Decider()))
    if got != q.expected:
        raise AssertionError(f"{q.rung}: expected {q.expected}, got {got}: {q.text}")
    return n


def opcodes(run: Callable[[], object]) -> tuple[int, object]:
    """The opcodes that run() executes, and what it returns.  run is
    called once untraced first, so that the count leaves out the
    first-use work of whatever runs before it, and a rung counts alike
    alone (--rung) and in the full run."""
    run()
    n = 0

    def tracer(frame, event, arg):
        nonlocal n
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            n += 1
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = run()
    finally:
        sys.settrace(before)
    return n, got


def count_growth(family: str, size: int) -> list[tuple[str, int]]:
    """(case, opcodes) of each case of the growth point; a verdict other
    than the point's answer raises."""
    out = []
    for case, thunk, answer in growth.points(family, size):
        n, got = opcodes(thunk)
        if answer is not None and got != answer:
            raise AssertionError(f"{family} {size} {case}: expected {answer}, got {got}")
        out.append((case, n))
    return out


def percentile(counts: list[int], p: float) -> int:
    """Nearest rank, as perfbench/run.py takes its percentiles."""
    ranked = sorted(counts)
    return ranked[max(0, math.ceil(p * len(ranked)) - 1)]


def rung_key(rung: str) -> tuple[str, int]:
    """Sort "k=10" after "k=4"."""
    name, _, size = rung.rpartition("=")
    return (name, int(size)) if size.isdigit() else (rung, 0)


def natural(text: str) -> int:
    """An argparse type: a whole number of zero or more."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="defaults", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=natural, default=1, help="count the first this many cycles")
    parser.add_argument("--queries", type=natural, help="count only the first this many queries")
    parser.add_argument("--rung", default="", metavar="PREFIX", help="count only the rungs whose names start so")
    parser.add_argument("--render", action="store_true", help="render each nf disjunct as text, as onlyknow nf does")
    parser.add_argument("--growth", metavar="FAMILY:SIZE[,...]", help="count these points of tools/growth.py instead")
    args = parser.parse_args()
    if args.growth:
        points = [item.rpartition(":")[::2] for item in args.growth.split(",")]
        bad = [f"{family}:{size}" for family, size in points if family not in growth.SIZES or not size.isdigit()]
        if bad:
            parser.error(f"not FAMILY:SIZE with a family of tools/growth.py: {', '.join(bad)}")
        print(f"{'family':<16} {'size':>6} {'case':<10} {'opcodes':>12}")
        for family, size in points:
            for case, n in count_growth(family, int(size)):
                print(f"{family:<16} {size:>6} {case:<10} {n:>12}")
        return
    queries = [
        q
        for cycle in islice(cycles(args.workload, args.seed), args.cycles)
        for q in cycle
        if q.rung.startswith(args.rung)
    ]
    queries = queries[: args.queries]
    if not queries:
        selection = f"--workload {args.workload} --seed {args.seed} --cycles {args.cycles}"
        if args.rung:
            selection += f" --rung {args.rung!r}"
        if args.queries is not None:
            selection += f" --queries {args.queries}"
        parser.error(f"the selection {selection} matches no query")
    rungs: dict[str, list[int]] = {}
    for q in queries:
        rungs.setdefault(q.rung, []).append(count(q, rendered if args.render else _answer))
    every = [n for ns in rungs.values() for n in ns]
    print(f"{'rung':<22} {'queries':>7} {'total':>12} {'p50':>10} {'p90':>10}")
    for rung, ns in sorted(rungs.items(), key=lambda item: rung_key(item[0])) + [("all", every)]:
        print(f"{rung:<22} {len(ns):>7} {sum(ns):>12} {percentile(ns, 0.5):>10} {percentile(ns, 0.9):>10}")


if __name__ == "__main__":
    main()
