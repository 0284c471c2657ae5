"""Growth curves of the engine on sixteen seeded families.

Usage: python tools/growth.py [--families believes,nf,...] [--out FILE]

Each point of a family is timed three times in this process and one
line is printed per point: family, size, case, the median wall time,
the verdict, and whether it matches the answer the family is built to
have (``?`` where no such answer is known).  With --out the table is
also written as JSON.  It runs at Python's default recursion limit
(the CLI raises it to 20,000).

  believes   believes(1, kb, q) on default_theory(k) of
             perfbench/workloads.py, its "yes" and "no" questions, and
             ("blocked-no") a retracted conclusion of the theory with
             every third default blocked, default_theory(k, set(),
             set(range(0, k, 3))), where group tests fail and the
             search backtracks
  believes-secret  believes(1, kb, q) on default_theory(k, even j
             secret, every third j blocked), its "yes" and "no" questions
  nf         disjuncts of the normal form of (L1 p_j | ~L2 q_j), j < k
  3cnf       consistency of random_3cnf(Random(1), n, round(4.26 n))
  modal-cnf  the same clauses under modalities: leaf i of each is x_i,
             L1 (x_i | y_(i mod 4)) or L2 (x_i | ~y_(i mod 4)), chosen
             by i mod 3
  iff-chain  validity of p0 <-> ... <-> p(n-1)
  and-chain  consistency of p0 & ... & p(n-1)
  nested-l   disjuncts of the normal form of L1 over the disjunction
             of (p_j & L1 q_j), 2^k - 1 of them, and over the conjunction
             of (p_j | L1 q_j), 2^k
  nested-l-sat  consistency of n nested L1 over p, L1 L1 ... L1 p
  parse      parse the text of an n-term chain and count the distinct
             nodes, 2n - 1: p0 & ... & p(n-1), p0 -> ... -> p(n-1), and
             p0 & (p1 & (... & p(n-1))) with n - 1 nested parentheses
  chain      believes(1, kb, p_k) on the k chained defaults
             p0 & (p_j & ~L1 ~p_(j+1) -> p_(j+1)), j < k: each
             conclusion is the next default's prerequisite ("yes")
  nixon      believes(1, kb, q) on k Nixon diamonds
             q_j & r_j & (q_j & ~L1 ~p_j -> p_j) & (r_j & ~L1 p_j -> h_j)
             & (h_j -> ~p_j), two conflicting defaults each, which give
             two stable expansions apiece: p0 | h0 ("first") and
             p_(k-1) | h_(k-1) ("last") are believed, p_(k-1) ("no") is
             not
  dag        classify(f, 1) on a DAG of k levels, its occurrences doubling at each:
             f = f & (f | q_i) ("and-or"), and f = L_a (f & (f | N1 q_i))
             with a = 1 + i mod 2 ("modal"), i < k, from f = p
  about      believes(1, kb, q) on cross-agent defaults, kb =
             O2 (&_j (~L2 ~b_j -> f_j)) & &_j (~L1 ~L2 f_j -> g_j), j < k:
             g_(k-1) ("own") and L2 f_(k-1) ("other") are believed, b0
             ("no") is not
  alternating  consistency of q_n & ~L_a ~(q_(n-1) & ~L_b ~(... q_0)),
             n levels, agents 1 and 2 alternating
  nested-l-or  consistency of f_n, where f_0 = p and
             f_(i+1) = L1 (f_i | q_i): true, since L1 of anything is
             satisfiable; the K45 prover gives the answer at the
             smallest size

The sizes are fixed below, so two versions of the engine run the same
points.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from onlyknow import k45  # noqa: E402
from onlyknow.autoepistemic import believes  # noqa: E402
from onlyknow.decision import Decider  # noqa: E402
from onlyknow.formula import And, Atom, L, N, Or, parse  # noqa: E402
from onlyknow.fragments import classify, nodes  # noqa: E402
from onlyknow.normal_form import to_normal_form  # noqa: E402
from workloads import cnf_text, default_theory, random_3cnf  # noqa: E402

SIZES = {
    "believes": (10, 20, 30, 40, 60, 120),
    "believes-secret": (10, 14, 20, 40, 60, 120, 240),
    "nf": (8, 10, 12, 14),
    "3cnf": (50, 100, 130),
    "modal-cnf": (30, 60, 90, 120),
    "iff-chain": (10, 12, 14, 15, 40, 200),
    "and-chain": (500, 1000, 2000, 10_000),
    "nested-l": (2, 3, 4, 5, 6),
    "nested-l-sat": (100, 200, 400),
    "parse": (1000, 10_000, 100_000),
    "chain": (32, 64, 128, 256, 512),
    "nixon": (2, 4, 6, 8, 10, 12),
    "dag": (18, 100, 1000),
    "about": (16, 32, 64, 128, 256),
    "alternating": (50, 100, 150),
    "nested-l-or": (125, 250, 500, 1000),
}
RUNS = 3
# Answers of the seeded 3-CNF instances at ratio 4.26.
CNF_ANSWERS = {50: False, 100: True, 130: False}

# (case, thunk returning the verdict, the answer by construction or None)
Point = tuple[str, Callable[[], object], object]


def _count(text: str) -> Callable[[], int]:
    f = parse(text)
    return lambda: sum(1 for _ in to_normal_form(f))


def _modal_leaf(i: int) -> str:
    """Leaf i of a modal-cnf clause."""
    return (f"x{i}", f"L1 (x{i} | y{i % 4})", f"L2 (x{i} | ~y{i % 4})")[i % 3]


def _believes(cases) -> list[Point]:
    """A believes point per (case, theory, question, answer)."""
    return [(case, lambda kb=parse(t.kb, 2), q=parse(text, 2): believes(1, kb, q), answer)
            for case, t, text, answer in cases]


def points(family: str, size: int) -> list[Point]:
    """The cases of one family at one size."""
    if family == "believes":
        theory = default_theory(size, set(), set())
        blocked = default_theory(size, set(), set(range(0, size, 3)))
        return _believes((
            ("yes", theory, theory.yes, True),
            ("no", theory, theory.no, False),
            ("blocked-no", blocked, blocked.no, False),
        ))
    if family == "believes-secret":
        theory = default_theory(size, set(range(0, size, 2)), set(range(0, size, 3)))
        return _believes((("yes", theory, theory.yes, True), ("no", theory, theory.no, False)))
    if family == "nf":
        return [("", _count(" & ".join(f"(L1 p{j} | ~L2 q{j})" for j in range(size))), 2**size)]
    if family == "3cnf":
        f = parse(cnf_text(random_3cnf(random.Random(1), size, round(4.26 * size)), "x"))
        return [("", lambda: bool(Decider().consistent(f)), CNF_ANSWERS.get(size))]
    if family == "modal-cnf":
        clauses = random_3cnf(random.Random(1), size, round(4.26 * size))
        f = parse(" & ".join(
            "(" + " | ".join(_modal_leaf(v) if pos else f"~{_modal_leaf(v)}" for v, pos in c) + ")" for c in clauses
        ))
        return [("", lambda: bool(Decider().consistent(f)), None)]
    if family == "iff-chain":
        f = parse(" <-> ".join(f"p{j}" for j in range(size)))
        return [("", lambda: bool(Decider().valid(f)), False)]
    if family == "and-chain":
        f = parse(" & ".join(f"p{j}" for j in range(size)))
        return [("", lambda: bool(Decider().consistent(f)), True)]
    if family == "nested-l":
        return [
            ("or-of-and", _count("L1 (" + " | ".join(f"(p{j} & L1 q{j})" for j in range(size)) + ")"), 2**size - 1),
            ("and-of-or", _count("L1 (" + " & ".join(f"(p{j} | L1 q{j})" for j in range(size)) + ")"), 2**size),
        ]
    if family == "nested-l-sat":
        f = parse("L1 " * size + "p")
        return [("", lambda: bool(Decider().consistent(f)), True)]
    if family == "parse":
        terms = [f"p{j}" for j in range(size)]
        texts = (" & ".join(terms), " -> ".join(terms), " & (".join(terms) + ")" * (size - 1))
        return [(case, lambda text=text: len(nodes(parse(text))), 2 * size - 1) for case, text in zip(("and", "implies", "parens"), texts)]
    if family == "chain":
        kb = " & ".join(["p0", *(f"(p{j} & ~L1 ~p{j + 1} -> p{j + 1})" for j in range(size))])
        return [("yes", lambda f=parse(kb), q=parse(f"p{size}"): believes(1, f, q), True)]
    if family == "nixon":
        kb = parse(" & ".join(
            f"q{j} & r{j} & (q{j} & ~L1 ~p{j} -> p{j}) & (r{j} & ~L1 p{j} -> h{j}) & (h{j} -> ~p{j})"
            for j in range(size)
        ))
        last = size - 1
        cases = (("first", "p0 | h0", True), ("last", f"p{last} | h{last}", True), ("no", f"p{last}", False))
        return [(case, lambda q=parse(text): believes(1, kb, q), answer) for case, text, answer in cases]
    if family == "dag":
        f = g = Atom("p")
        for i in range(size):
            f = And(f, Or(f, Atom(f"q{i}")))
            g = L(1 + i % 2, And(g, Or(g, N(1, Atom(f"q{i}")))))
        return [  # g is 1-objective when its outermost L is L2, at even k
            ("and-or", lambda: tuple(classify(f, 1)), (True, True, True, False, True, 0)),
            ("modal", lambda: tuple(classify(g, 1)), (False, False, size % 2 == 0, False, False, size + 1)),
        ]
    if family == "about":
        kb = parse("O2 (" + " & ".join(f"(~L2 ~b{j} -> f{j})" for j in range(size)) + ") & "
                   + " & ".join(f"(~L1 ~L2 f{j} -> g{j})" for j in range(size)), 2)
        last = size - 1
        cases = (("own", f"g{last}", True), ("other", f"L2 f{last}", True), ("no", "b0", False))
        return [(case, lambda q=parse(text, 2): believes(1, kb, q), answer) for case, text, answer in cases]
    if family == "alternating":
        text = "q0"
        for k in range(1, size + 1):
            text = f"q{k} & ~L{1 + k % 2} ~({text})"
        return [("", lambda f=parse(text): bool(Decider().consistent(f)), True)]
    if family == "nested-l-or":
        text = "p"
        for i in range(size):
            text = f"L1 ({text} | q{i})"
        f = parse(text)
        answer = k45.sat(f) if size == SIZES[family][0] else True
        return [("", lambda: bool(Decider().consistent(f)), answer)]
    raise ValueError(f"unknown family {family!r}")


def measure(family: str, size: int) -> list[dict]:
    rows = []
    for case, thunk, answer in points(family, size):
        times, verdicts = [], set()
        for _ in range(RUNS):
            start = time.perf_counter()
            verdicts.add(thunk())
            times.append(time.perf_counter() - start)
        (verdict,) = verdicts
        rows.append({"size": size, "case": case, "median_s": statistics.median(times),
                     "runs_s": times, "verdict": verdict, "answer": answer})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--families", default=",".join(SIZES), help="comma-separated, from: " + ", ".join(SIZES))
    parser.add_argument("--out", type=Path, help="write the table as JSON here")
    args = parser.parse_args()
    families = args.families.split(",")
    unknown = [f for f in families if f not in SIZES]
    if unknown:
        parser.error(f"unknown families: {', '.join(unknown)}")
    table: dict[str, list[dict]] = {}
    wrong = 0
    for family in families:
        for size in SIZES[family]:
            for row in measure(family, size):
                table.setdefault(family, []).append(row)
                check = "?" if row["answer"] is None else "ok" if row["verdict"] == row["answer"] else "WRONG"
                wrong += check == "WRONG"
                print(f"{family:10} {size:6} {row['case']:10} {row['median_s']:10.4f} s  {row['verdict']!s:8} {check}",
                      flush=True)
    if args.out:
        args.out.write_text(json.dumps({"python": platform.python_version(), "runs": RUNS, "families": table},
                                       indent=1) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
