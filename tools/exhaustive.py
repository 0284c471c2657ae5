"""Bounded-exhaustive agreement of the decider with the oracles.

Usage: python tools/exhaustive.py --fragment basic|single|only --size S

Every formula of at most S nodes over p and q is built from the
fragment's one-argument constructors and &, |, -> and <->, and each
distinct one (up to simplify) is decided both ways, consistent and
valid, and checked against an oracle that does not share the decider's
code:

  basic   ~, L1 and L2; the K45 prover (k45.sat)
  single  ~, L1 and N1; the finite extended semantics (oracle_valid
          with semantics="extended" over p and q)
  only    ~, L1, N1 and O1 (formula.only_knows, one node here); the
          same oracle

Formulas are enumerated by size, so the first disagreement printed is
a smallest one.  Each disagreement is printed as it is found, then the
distinct count, the number of disagreements and the seconds taken.
The exit status is 1 when there is a disagreement.  The tests import
formulas and disagreements from here.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from onlyknow import k45  # noqa: E402
from onlyknow.decision import Decider  # noqa: E402
from onlyknow.finite_semantics import oracle_valid  # noqa: E402
from onlyknow.formula import And, Atom, Formula, Iff, Implies, L, N, Not, Or, only_knows, simplify, to_text  # noqa: E402

BINARY = (And, Or, Implies, Iff)
UNARY: dict[str, tuple[Callable[[Formula], Formula], ...]] = {
    "basic": (Not, lambda f: L(1, f), lambda f: L(2, f)),
    "single": (Not, lambda f: L(1, f), lambda f: N(1, f)),
    "only": (Not, lambda f: L(1, f), lambda f: N(1, f), lambda f: only_knows(1, f)),
}


def formulas(size: int, unary: tuple[Callable[[Formula], Formula], ...]) -> list[Formula]:
    """Each distinct simplify of the formulas of at most size nodes over
    p and q, unary the one-argument constructors and BINARY the others,
    smallest first."""
    by_size = {1: [Atom("p"), Atom("q")]}
    for n in range(2, size + 1):
        by_size[n] = [u(f) for u in unary for f in by_size[n - 1]]
        by_size[n] += [
            op(a, b) for k in range(1, n - 1) for op in BINARY for a in by_size[k] for b in by_size[n - 1 - k]
        ]
    return list(dict.fromkeys(simplify(f) for n in by_size for f in by_size[n]))


def _oracle(fragment: str) -> Callable[[Formula], bool]:
    """Validity by the fragment's oracle."""
    if fragment == "basic":
        return lambda f: not k45.sat(Not(f))
    return lambda f: oracle_valid(f, ("p", "q"), semantics="extended").valid


def disagreements(fragment: str, fs: list[Formula]) -> Iterator[str]:
    """A line for each formula of fs on which a verdict of one Decider
    and the fragment's oracle differ, in order."""
    valid = _oracle(fragment)
    d = Decider()
    for f in fs:
        for mode, got, want in (
            ("valid", bool(d.valid(f)), valid(f)),
            ("consistent", bool(d.consistent(f)), not valid(Not(f))),
        ):
            if got != want:
                yield f"{mode} {'yes' if got else 'no'}, oracle {'yes' if want else 'no'}: {to_text(f)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fragment", choices=sorted(UNARY), required=True)
    parser.add_argument("--size", type=int, required=True, help="the largest formula size, in nodes")
    args = parser.parse_args()
    start = time.perf_counter()
    fs = formulas(args.size, UNARY[args.fragment])
    found = 0
    for line in disagreements(args.fragment, fs):
        print(line, flush=True)
        found += 1
    print(f"{args.fragment} size <= {args.size}: {len(fs)} distinct, {found} disagreements, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
