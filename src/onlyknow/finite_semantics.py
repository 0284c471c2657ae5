"""Brute-force single-agent semantics over a finite atom alphabet.

Worlds are truth assignments over the alphabet.  A situation fixes the
set of worlds the agent entertains plus a real world; L quantifies over
the set and N over its complement within the alphabet's worlds.  The
extended reading replaces the complement by a second explicit set that
may overlap the first, constrained only to cover all worlds.  Exhaustive
enumeration of situations yields a validity oracle for either reading;
the alphabet is capped (default two atoms) because the extended
enumeration is 3^(2^|alphabet|) coverage choices times worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .formula import (
    TRUE,
    And,
    Atom,
    FalseConst,
    Formula,
    FormulaError,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    TrueConst,
    Val,
    ValPresentError,
    agents,
    atoms,
    conj,
    disj,
    is_propositional,
    walk,
)
from .normal_form import simplify, to_normal_form

World = frozenset[str]


class CoverageError(FormulaError):
    """The two world sets of an extended situation do not cover all
    truth assignments over the alphabet."""


class BoundExceededError(FormulaError):
    """The alphabet is larger than the configured enumeration bound."""


def worlds_over(phi: Iterable[str]) -> tuple[World, ...]:
    """All truth assignments over the alphabet, in a fixed order."""
    names = sorted(set(phi))
    out = []
    for bits in product((False, True), repeat=len(names)):
        out.append(frozenset(n for n, b in zip(names, bits) if b))
    return tuple(out)


def world_to_text(w: World, phi: Iterable[str]) -> str:
    return "&".join(n if n in w else f"~{n}" for n in sorted(set(phi))) or "<empty>"


def world_formula(w: World, phi: Iterable[str]) -> Formula:
    """The conjunction of literals pinning down one world."""
    return conj(Atom(n) if n in w else Not(Atom(n)) for n in sorted(set(phi)))


@dataclass(frozen=True)
class Situation:
    """World set plus real world; the real world need not be possible
    and the set may be empty."""

    phi: tuple[str, ...]
    possible: frozenset[World]
    real: World

    def describe(self) -> str:
        ws = "{" + ", ".join(world_to_text(w, self.phi) for w in sorted(self.possible, key=sorted)) + "}"
        return f"W={ws} w={world_to_text(self.real, self.phi)}"


@dataclass(frozen=True)
class ExtendedSituation:
    phi: tuple[str, ...]
    in_l: frozenset[World]
    in_n: frozenset[World]
    real: World

    def describe(self) -> str:
        def fmt(ws: frozenset[World]) -> str:
            return "{" + ", ".join(world_to_text(w, self.phi) for w in sorted(ws, key=sorted)) + "}"

        return f"W_L={fmt(self.in_l)} W_N={fmt(self.in_n)} w={world_to_text(self.real, self.phi)}"


def _check_formula(f: Formula, phi: tuple[str, ...]) -> None:
    if any(isinstance(g, Val) for g in walk(f)):
        raise ValPresentError("finite semantics is defined for V-free formulas")
    extra = agents(f) - {1}
    if extra:
        raise FormulaError(f"single-agent semantics, but agent {min(extra)} occurs")
    missing = atoms(f) - set(phi)
    if missing:
        raise FormulaError(f"atom {min(missing)!r} is outside the alphabet {sorted(phi)}")


def evaluate(s: Situation, f: Formula) -> bool:
    """Truth at a situation: L over the set, N over its complement."""
    _check_formula(f, s.phi)
    universe = worlds_over(s.phi)
    return _eval(s.possible, frozenset(universe) - s.possible, s.real, f)


def evaluate_x(s: ExtendedSituation, f: Formula) -> bool:
    """Truth at an extended situation: L over one set, N over the other."""
    _check_formula(f, s.phi)
    if s.in_l | s.in_n != frozenset(worlds_over(s.phi)):
        raise CoverageError("the two world sets must cover all assignments")
    return _eval(s.in_l, s.in_n, s.real, f)


def _eval(in_l: frozenset[World], in_n: frozenset[World], w: World, f: Formula) -> bool:
    if isinstance(f, Atom):
        return f.name in w
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Not):
        return not _eval(in_l, in_n, w, f.sub)
    if isinstance(f, And):
        return _eval(in_l, in_n, w, f.left) and _eval(in_l, in_n, w, f.right)
    if isinstance(f, Or):
        return _eval(in_l, in_n, w, f.left) or _eval(in_l, in_n, w, f.right)
    if isinstance(f, Implies):
        return (not _eval(in_l, in_n, w, f.left)) or _eval(in_l, in_n, w, f.right)
    if isinstance(f, Iff):
        return _eval(in_l, in_n, w, f.left) == _eval(in_l, in_n, w, f.right)
    if isinstance(f, L):
        return all(_eval(in_l, in_n, v, f.sub) for v in in_l)
    if isinstance(f, N):
        return all(_eval(in_l, in_n, v, f.sub) for v in in_n)
    raise FormulaError(f"unknown node {f!r}")


@dataclass
class OracleResult:
    valid: bool
    counterexample: Situation | ExtendedSituation | None = None

    def __bool__(self) -> bool:
        return self.valid


def situations(phi: tuple[str, ...]) -> Iterator[Situation]:
    universe = worlds_over(phi)
    for bits in product((False, True), repeat=len(universe)):
        possible = frozenset(w for w, b in zip(universe, bits) if b)
        for real in universe:
            yield Situation(phi, possible, real)


def extended_situations(phi: tuple[str, ...]) -> Iterator[ExtendedSituation]:
    universe = worlds_over(phi)
    for membership in product(("both", "l", "n"), repeat=len(universe)):
        in_l = frozenset(w for w, m in zip(universe, membership) if m in ("both", "l"))
        in_n = frozenset(w for w, m in zip(universe, membership) if m in ("both", "n"))
        for real in universe:
            yield ExtendedSituation(phi, in_l, in_n, real)


def oracle_valid(
    f: Formula,
    phi: Iterable[str],
    semantics: str = "levesque",
    bound: int = 2,
) -> OracleResult:
    """Exhaustive validity check; on failure the first falsifying
    situation comes back as a counterexample.

    semantics 'levesque' enumerates complementary situations, 'extended'
    enumerates covering pairs of world sets.
    """
    alphabet = tuple(sorted(set(phi)))
    if len(alphabet) > bound:
        raise BoundExceededError(f"alphabet {alphabet} exceeds the bound {bound}")
    _check_formula(f, alphabet)
    if semantics == "levesque":
        for s in situations(alphabet):
            if not evaluate(s, f):
                return OracleResult(False, s)
        return OracleResult(True)
    if semantics == "extended":
        for sx in extended_situations(alphabet):
            if not evaluate_x(sx, f):
                return OracleResult(False, sx)
        return OracleResult(True)
    raise FormulaError(f"unknown semantics {semantics!r}")


def _prop_holds(w: World, f: Formula) -> bool:
    return _eval(frozenset(), frozenset(), w, f)


def reduce_n_to_l(f: Formula, phi: Iterable[str], bound: int = 2) -> Formula:
    """Rewrite a single-agent formula into an N-free equivalent over the
    alphabet: nesting is flattened by the normal form, after which every
    N argument is propositional and ``N a`` says exactly that every
    world falsifying a is entertained, i.e. the conjunction of ``~L1 ~w``
    over the worlds of ``~a``.
    """
    alphabet = tuple(sorted(set(phi)))
    if len(alphabet) > bound:
        raise BoundExceededError(f"alphabet {alphabet} exceeds the bound {bound}")
    _check_formula(f, alphabet)
    out: list[Formula] = []
    for d in to_normal_form(f):
        parts: list[Formula] = []
        if d.sigma is not TRUE:
            parts.append(d.sigma)
        for b in d.blocks:
            if b.pos_l is not TRUE:
                parts.append(L(1, b.pos_l))
            parts.extend(Not(L(1, g)) for g in b.neg_l)
            if b.pos_n is not TRUE:
                parts.append(_n_expansion(b.pos_n, alphabet))
            parts.extend(Not(_n_expansion(g, alphabet)) for g in b.neg_n)
        out.append(simplify(conj(parts)))
    return simplify(disj(out))


def _n_expansion(arg: Formula, phi: tuple[str, ...]) -> Formula:
    if not is_propositional(arg):
        raise FormulaError(f"N argument {arg} did not flatten to a propositional formula")
    falsifying = [w for w in worlds_over(phi) if not _prop_holds(w, arg)]
    return simplify(conj(Not(L(1, Not(world_formula(w, phi)))) for w in falsifying))
