"""Nonmonotonic query layer: what an agent that only knows its base
must believe, and the finite-alphabet fixed points of only knowing.

A query is entailed when ``O<i> kb -> L<i> query`` is valid, so
strengthening the base can retract earlier conclusions even though the
underlying logic is monotonic.  Over a finite single-agent alphabet the
epistemic states realizing ``O1 kb`` can be enumerated outright: they
are the world sets whose membership coincides everywhere with the truth
of the base.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product

from .decision import Decider
from .formula import Formula, only_knows, L

TYPE_CHECKING = False  # typing costs milliseconds to import, and only annotations need World
if TYPE_CHECKING:
    from .finite_semantics import World


def believes(agent: int, kb: Formula, query: Formula, decider: Decider | None = None) -> bool:
    """Does only knowing kb commit the agent to the query?"""
    d = decider or Decider()
    return bool(d.valid(only_knows(agent, kb) >> L(agent, query)))


def kb_coherent(agent: int, kb: Formula, decider: Decider | None = None) -> bool:
    """Is the epistemic state "all the agent knows is kb" realizable?"""
    d = decider or Decider()
    return bool(d.consistent(only_knows(agent, kb)))


def only_knowing_sets(
    kb: Formula, phi: Iterable[str], bound: int = 2
) -> tuple[frozenset[World], ...]:
    """All world sets W over the alphabet where only knowing kb holds:
    a world is in W exactly when kb is true there with W entertained."""
    # Imported here, so that believes and kb_coherent load no oracle.
    from .finite_semantics import BoundExceededError, Situation, _check_formula, evaluate, worlds_over

    alphabet = tuple(sorted(set(phi)))
    if len(alphabet) > bound:
        raise BoundExceededError(f"alphabet {alphabet} exceeds the bound {bound}")
    _check_formula(kb, alphabet)
    universe = worlds_over(alphabet)
    out = []
    for bits in product((False, True), repeat=len(universe)):
        possible = frozenset(w for w, b in zip(universe, bits) if b)
        if all(
            (w in possible) == evaluate(Situation(alphabet, possible, w), kb)
            for w in universe
        ):
            out.append(possible)
    return tuple(out)
