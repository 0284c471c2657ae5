"""Disjunctive normal form for V-free formulas, streamed one disjunct
at a time.

Every V-free formula is provably equivalent to a disjunction of
conjunctions

    sigma & L1 a & ~L1 b1 & ... & N1 c & ~N1 d1 & ...   (one group per agent)

where sigma is propositional and each argument inside an agent's group
is objective for that agent.  Modalities are pushed inward clause-wise:
a modality distributes over conjunctions, and over a disjunctive clause
it swallows the objective part while the clause's own-agent modal
literals hop out of the scope unchanged (introspective agents assign
them the same value at every world they entertain).  Pushing over a
clause with no objective part leaves an ``L<i> false`` disjunct, which
an empty belief set realizes; it is dropped only when a positive
literal of the same modality subsumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formula import (
    BINARY,
    FALSE,
    MODAL,
    TRUE,
    And,
    Atom,
    FalseConst,
    Formula,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    TrueConst,
    Val,
    ValPresentError,
    assign,
    conj,
    disj,
)

# Rewrite caches keyed by (immutable) formula; entries are only ever
# added, never mutated, so concurrent readers under the GIL are fine.
_SIMPLIFY_CACHE: dict[Formula, Formula] = {}
_NORMALIZE_CACHE: dict[Formula, Formula] = {}


def clear_caches() -> None:
    _SIMPLIFY_CACHE.clear()
    _NORMALIZE_CACHE.clear()


def simplify(f: Formula) -> Formula:
    """Constant folding, double negation, idempotence and complements.

    Also folds L/N/V of true to true (necessitation); L of false is kept,
    it is satisfiable but not valid.
    """
    hit = _SIMPLIFY_CACHE.get(f)
    if hit is not None:
        return hit
    out = _simplify(f)
    _SIMPLIFY_CACHE[f] = out
    return out


def _simplify(f: Formula) -> Formula:
    if isinstance(f, TrueConst):
        return TRUE
    if isinstance(f, FalseConst):
        return FALSE
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        a = simplify(f.sub)
        if a is TRUE:
            return FALSE
        if a is FALSE:
            return TRUE
        if isinstance(a, Not):
            return a.sub
        return Not(a)
    if isinstance(f, And):
        a, b = simplify(f.left), simplify(f.right)
        if a is FALSE or b is FALSE:
            return FALSE
        if a is TRUE:
            return b
        if b is TRUE:
            return a
        if a == b:
            return a
        if a == Not(b) or b == Not(a):
            return FALSE
        return And(a, b)
    if isinstance(f, Or):
        a, b = simplify(f.left), simplify(f.right)
        if a is TRUE or b is TRUE:
            return TRUE
        if a is FALSE:
            return b
        if b is FALSE:
            return a
        if a == b:
            return a
        if a == Not(b) or b == Not(a):
            return TRUE
        return Or(a, b)
    if isinstance(f, Implies):
        a, b = simplify(f.left), simplify(f.right)
        if a is FALSE or b is TRUE:
            return TRUE
        if a is TRUE:
            return b
        if b is FALSE:
            return simplify(Not(a))
        if a == b:
            return TRUE
        return Implies(a, b)
    if isinstance(f, Iff):
        a, b = simplify(f.left), simplify(f.right)
        if a is TRUE:
            return b
        if b is TRUE:
            return a
        if a is FALSE:
            return simplify(Not(b))
        if b is FALSE:
            return simplify(Not(a))
        if a == b:
            return TRUE
        if a == Not(b) or b == Not(a):
            return FALSE
        return Iff(a, b)
    if isinstance(f, MODAL):
        a = simplify(f.sub)
        if a is TRUE:
            return TRUE
        return type(f)(f.agent, a)
    if isinstance(f, Val):
        a = simplify(f.sub)
        if a is TRUE:
            return TRUE
        if a is FALSE:
            return FALSE
        return Val(a)
    raise ValueError(f"unknown node {f!r}")


def normalize(f: Formula) -> Formula:
    """Equivalent formula in which every modal subformula is a "modal
    atom": an L/N whose argument is objective for its agent (and itself
    normalized).  The Boolean skeleton above the atoms is untouched.
    """
    hit = _NORMALIZE_CACHE.get(f)
    if hit is not None:
        return hit
    out = _normalize(f)
    _NORMALIZE_CACHE[f] = out
    return out


def _normalize(f: Formula) -> Formula:
    if isinstance(f, Val):
        raise ValPresentError("normal form is defined for V-free formulas only")
    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return f
    if isinstance(f, Not):
        return Not(normalize(f.sub))
    if isinstance(f, BINARY):
        return type(f)(normalize(f.left), normalize(f.right))
    assert isinstance(f, MODAL)
    return _push(type(f), f.agent, normalize(f.sub))


def _push(op: type, agent: int, arg: Formula) -> Formula:
    """Push one modality over a normalized argument."""
    arg = simplify(arg)
    if arg is TRUE:
        return TRUE
    parts: list[Formula] = []
    for clause in _cnf(_nnf(arg)):
        subjective: list[Formula] = []
        objective: list[Formula] = []
        has_own_positive = False
        for leaf, positive in clause:
            literal = leaf if positive else Not(leaf)
            if isinstance(leaf, MODAL) and leaf.agent == agent:
                subjective.append(literal)
                if positive and isinstance(leaf, op):
                    has_own_positive = True
            else:
                objective.append(literal)
        psi = simplify(disj(objective))
        if psi is TRUE:
            continue
        literals = list(subjective)
        if not (psi is FALSE and has_own_positive):
            # L<i> false is implied by any positive L<i> literal; keep it
            # only when nothing subsumes it.
            literals.insert(0, op(agent, psi))
        parts.append(simplify(disj(literals)))
    return simplify(conj(parts))


def _nnf(f: Formula, neg: bool = False) -> Formula:
    """Negation normal form over leaves (atoms, constants, modal atoms)."""
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        cls = Or if neg else And
        return cls(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, Or):
        cls = And if neg else Or
        return cls(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, Implies):
        if neg:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if neg:
            return Or(
                And(_nnf(f.left, False), _nnf(f.right, True)),
                And(_nnf(f.left, True), _nnf(f.right, False)),
            )
        return And(
            Or(_nnf(f.left, True), _nnf(f.right, False)),
            Or(_nnf(f.right, True), _nnf(f.left, False)),
        )
    if isinstance(f, TrueConst):
        return FALSE if neg else TRUE
    if isinstance(f, FalseConst):
        return TRUE if neg else FALSE
    return Not(f) if neg else f


Clause = tuple[tuple[Formula, bool], ...]


def _cnf(f: Formula) -> list[Clause]:
    """Clauses of an NNF formula over leaves; tautologies dropped."""
    if isinstance(f, And):
        return _cnf(f.left) + _cnf(f.right)
    if isinstance(f, Or):
        out = []
        for c1 in _cnf(f.left):
            for c2 in _cnf(f.right):
                merged = _merge_clause(c1, c2)
                if merged is not None:
                    out.append(merged)
        return out
    if isinstance(f, TrueConst):
        return []
    if isinstance(f, FalseConst):
        return [()]
    if isinstance(f, Not):
        return [((f.sub, False),)]
    return [((f, True),)]


def _merge_clause(c1: Clause, c2: Clause) -> Clause | None:
    seen: dict[Formula, bool] = dict(c1)
    out = list(c1)
    for leaf, positive in c2:
        old = seen.get(leaf)
        if old is None:
            seen[leaf] = positive
            out.append((leaf, positive))
        elif old != positive:
            return None
    return tuple(out)


@dataclass(frozen=True)
class AgentBlock:
    """One agent's conjunct group inside a normal-form disjunct.

    pos_l/pos_n are the merged arguments of the positive L/N conjuncts
    (true when absent); neg_l/neg_n collect the arguments of the negated
    ones.  All stored formulas are objective for this agent.
    """

    agent: int
    pos_l: Formula = TRUE
    neg_l: tuple[Formula, ...] = ()
    pos_n: Formula = TRUE
    neg_n: tuple[Formula, ...] = ()

    def to_formula(self) -> Formula:
        parts: list[Formula] = []
        if self.pos_l is not TRUE:
            parts.append(L(self.agent, self.pos_l))
        parts.extend(Not(L(self.agent, g)) for g in self.neg_l)
        if self.pos_n is not TRUE:
            parts.append(N(self.agent, self.pos_n))
        parts.extend(Not(N(self.agent, g)) for g in self.neg_n)
        return conj(parts)


def merge_positive(
    agent: int,
    pos_l: tuple[Formula, ...] = (),
    neg_l: tuple[Formula, ...] = (),
    pos_n: tuple[Formula, ...] = (),
    neg_n: tuple[Formula, ...] = (),
) -> AgentBlock:
    """Collapse repeated positive conjuncts: L a & L b is L (a & b), and
    likewise for N; absent positives default to true.
    """
    return AgentBlock(
        agent=agent,
        pos_l=simplify(conj(pos_l)),
        neg_l=tuple(dict.fromkeys(neg_l)),
        pos_n=simplify(conj(pos_n)),
        neg_n=tuple(dict.fromkeys(neg_n)),
    )


@dataclass(frozen=True)
class NormalFormDisjunct:
    sigma: Formula
    blocks: tuple[AgentBlock, ...]

    def to_formula(self) -> Formula:
        parts: list[Formula] = []
        if self.sigma is not TRUE:
            parts.append(self.sigma)
        for b in self.blocks:
            g = b.to_formula()
            if g is not TRUE:
                parts.append(g)
        return conj(parts)


@dataclass
class DisjunctGauge:
    """Instrumentation for the streaming contract: how many disjuncts the
    stream holds materialized at once, and how many it produced."""

    current: int = 0
    peak: int = 0
    total: int = 0

    def _enter(self) -> None:
        self.current += 1
        self.total += 1
        if self.current > self.peak:
            self.peak = self.current

    def _exit(self) -> None:
        self.current -= 1


def to_normal_form(f: Formula, gauge: DisjunctGauge | None = None) -> Iterator[NormalFormDisjunct]:
    """Stream the normal-form disjuncts of a V-free formula.

    Disjuncts appear in left-to-right distribution order of the
    simplified Boolean skeleton; contradictory conjuncts are dropped.
    The full disjunction is never materialized: only the current path of
    the distribution (bookkeeping) and the yielded disjunct are alive.
    """
    skeleton = _nnf(simplify(normalize(f)))
    for literals in _dnf_stream(skeleton, {}):
        d = _assemble(literals)
        if gauge is not None:
            gauge._enter()
        try:
            yield d
        finally:
            if gauge is not None:
                gauge._exit()


def _dnf_stream(
    f: Formula, partial: dict[Formula, bool]
) -> Iterator[dict[Formula, bool]]:
    if isinstance(f, TrueConst):
        yield partial
        return
    if isinstance(f, FalseConst):
        return
    if isinstance(f, Or):
        yield from _dnf_stream(f.left, partial)
        yield from _dnf_stream(f.right, partial)
        return
    if isinstance(f, And):
        for extended in _dnf_stream(f.left, partial):
            # Feed the decided literals into the remaining conjunct:
            # satisfied parts disappear (absorption), so the stream never
            # splits on a clause an earlier choice already settled.
            yield from _dnf_stream(simplify(assign(f.right, extended)), extended)
        return
    leaf, positive = (f.sub, False) if isinstance(f, Not) else (f, True)
    old = partial.get(leaf)
    if old is None:
        extended = dict(partial)
        extended[leaf] = positive
        yield extended
    elif old == positive:
        yield partial


def _assemble(literals: dict[Formula, bool]) -> NormalFormDisjunct:
    sigma_parts: list[Formula] = []
    groups: dict[int, dict[str, list[Formula]]] = {}
    for leaf, positive in literals.items():
        if isinstance(leaf, MODAL):
            g = groups.setdefault(
                leaf.agent, {"pos_l": [], "neg_l": [], "pos_n": [], "neg_n": []}
            )
            key = ("pos_" if positive else "neg_") + ("l" if isinstance(leaf, L) else "n")
            g[key].append(leaf.sub)
        else:
            sigma_parts.append(leaf if positive else Not(leaf))
    blocks = tuple(
        merge_positive(
            agent,
            tuple(g["pos_l"]),
            tuple(g["neg_l"]),
            tuple(g["pos_n"]),
            tuple(g["neg_n"]),
        )
        for agent, g in sorted(groups.items())
    )
    return NormalFormDisjunct(sigma=simplify(conj(sigma_parts)), blocks=blocks)


def reassemble(disjuncts: Iterator[NormalFormDisjunct] | list[NormalFormDisjunct]) -> Formula:
    """Fold a disjunct stream back into a single formula."""
    return disj(d.to_formula() for d in disjuncts)
