"""Consistency and validity in the axiom system for multi-agent only
knowing (K45 belief with the validity operator).

A V-free formula is satisfiable iff one of its normal-form disjuncts
is.  A disjunct's propositional part is a consistent set of literals by
construction, so a disjunct is satisfiable iff every agent group passes
the group test:

  * for every negated L conjunct, the positive L argument stays jointly
    satisfiable with the negation's dual (and likewise on the N side);
  * the disjunction of the positive L and N arguments is valid, so the
    two world sets the group describes can cover everything.

All recursive work happens on group arguments, which sit one modal
level lower, so the recursion terminates.  Occurrences of V are removed
first, innermost out, each body replaced by its own verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .formula import (
    BINARY,
    FALSE,
    MODAL,
    TRUE,
    And,
    Atom,
    FalseConst,
    Formula,
    FormulaError,
    Not,
    Or,
    TrueConst,
    Val,
    assign,
    atoms,
    is_propositional,
    to_text,
)
from .normal_form import AgentBlock, simplify, to_normal_form


class BudgetExceededError(RuntimeError):
    """The configured wall-clock budget ran out before a verdict."""


@dataclass
class Verdict:
    """Outcome of a satisfiability or validity query.

    valid(f) and unsatisfiable(~f) are the same computation, so the two
    statuses are duals of one another.
    """

    status: str  # satisfiable | unsatisfiable | valid | invalid
    trace: list[str] | None = None

    def __bool__(self) -> bool:
        return self.status in ("satisfiable", "valid")


class Decider:
    """One decision context: memo table, optional trace, optional deadline.

    A Decider is deterministic and single-threaded.  The memo is always
    on; a traced run logs each memo hit, so it takes the same path as an
    untraced one.
    """

    def __init__(self, trace: bool = False, deadline: float | None = None) -> None:
        self.tracing = trace
        self.deadline = deadline
        self.trace_entries: list[tuple[int, str, Formula]] = []
        self._memo: dict[Formula, bool] = {}

    # -- public operations ------------------------------------------------

    def consistent(self, f: Formula) -> Verdict:
        g = self.eliminate_val(f)
        ok = self._sat(g, 0)
        return Verdict("satisfiable" if ok else "unsatisfiable", self._rendered_trace())

    def valid(self, f: Formula) -> Verdict:
        g = self.eliminate_val(f)
        ok = not self._sat(simplify(Not(g)), 0)
        return Verdict("valid" if ok else "invalid", self._rendered_trace())

    def eliminate_val(self, f: Formula) -> Formula:
        """Replace every V body, innermost out, by its own verdict."""
        if isinstance(f, Val):
            body = self.eliminate_val(f.sub)
            if self.tracing:
                self.trace_entries.append((0, "resolve validity operator", body))
            return TRUE if not self._sat(simplify(Not(body)), 1) else FALSE
        if isinstance(f, (Atom, TrueConst, FalseConst)):
            return f
        if isinstance(f, Not):
            return simplify(Not(self.eliminate_val(f.sub)))
        if isinstance(f, MODAL):
            return simplify(type(f)(f.agent, self.eliminate_val(f.sub)))
        if isinstance(f, BINARY):
            return simplify(
                type(f)(self.eliminate_val(f.left), self.eliminate_val(f.right))
            )
        raise FormulaError(f"unknown node {f!r}")

    def prop_sat(self, f: Formula) -> bool:
        """Propositional satisfiability (splitting on atoms)."""
        if not is_propositional(f):
            raise FormulaError(f"not a propositional formula: {to_text(f)}")
        return self._prop_sat(simplify(f))

    def block_consistent(self, b: AgentBlock) -> bool:
        """The group test for one agent's conjuncts, arguments assumed
        objective for that agent (the normal form guarantees it)."""
        return self._block_ok(b, 0)

    # -- recursion ----------------------------------------------------------

    def _sat(self, f: Formula, level: int) -> bool:
        self._tick()
        f = simplify(f)
        if f is TRUE:
            return True
        if f is FALSE:
            return False
        if f in self._memo:
            if self.tracing:
                self.trace_entries.append((level, "memo hit", f))
            return self._memo[f]
        if self.tracing:
            self.trace_entries.append((level, "satisfiable?", f))
        result = False
        for d in to_normal_form(f):
            self._tick()
            if all(self._block_ok(b, level + 1) for b in d.blocks):
                if self.tracing:
                    self.trace_entries.append((level + 1, "disjunct satisfiable", d.to_formula()))
                result = True
                break
        self._memo[f] = result
        return result

    def _block_ok(self, b: AgentBlock, level: int) -> bool:
        alpha, gamma = b.pos_l, b.pos_n
        for phi in b.neg_l:
            if self.tracing:
                self.trace_entries.append(
                    (level, f"agent {b.agent}: negated L against the positive part", phi)
                )
            if not self._sat(And(alpha, Not(phi)), level + 1):
                return False
        for psi in b.neg_n:
            if self.tracing:
                self.trace_entries.append(
                    (level, f"agent {b.agent}: negated N against the positive part", psi)
                )
            if not self._sat(And(gamma, Not(psi)), level + 1):
                return False
        union = Or(alpha, gamma)
        if self.tracing:
            self.trace_entries.append(
                (level, f"agent {b.agent}: union of positive parts must be valid", union)
            )
        return not self._sat(simplify(Not(union)), level + 1)

    def _prop_sat(self, f: Formula) -> bool:
        if f is TRUE:
            return True
        if f is FALSE:
            return False
        leaf = Atom(min(atoms(f)))
        return self._prop_sat(simplify(assign(f, {leaf: True}))) or self._prop_sat(
            simplify(assign(f, {leaf: False}))
        )

    # -- bookkeeping ----------------------------------------------------

    def _tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exceeded")

    def _rendered_trace(self) -> list[str] | None:
        if not self.tracing:
            return None
        return [f"{'  ' * level}{rule}: {to_text(g)}" for level, rule, g in self.trace_entries]

