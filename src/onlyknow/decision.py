"""Consistency and validity in the axiom system for multi-agent only
knowing (K45 belief with the validity operator).

A V-free formula is satisfiable iff some set of literals over the
leaves of its Boolean skeleton (atoms and L/N formulas taken whole)
makes the skeleton true and passes, agent by agent, the group test:

  * for every negated L conjunct, the positive L argument stays jointly
    satisfiable with the negation's dual (and likewise on the N side);
  * the disjunction of the positive L and N arguments is valid, so the
    two world sets the group describes can cover everything.

The group test needs arguments objective for the agent.  An argument
that holds the agent's own modal atoms at its Boolean level is
cofactored first: introspective agents give those atoms the same value
at every world they entertain, so M_i phi agrees with M_i phi[a] under
the values a the literal set gives them.  Those atoms are therefore
search variables too, and the search guesses them, as in the
stable-expansion reading of only knowing (Levesque, 1990).

Such a set is found by a DPLL search over the clause form of the
skeleton (the KSAT construction of Giunchiglia & Sebastiani, 2000).
A group that fails fails under every larger set of literals, so the
test runs after each unit propagation and prunes the search; a literal
whose own atoms are not all assigned yet is tested with a weakened
argument, implied by every cofactor it can still get.  All recursive
work happens on group arguments, which sit one modal level lower, so
the recursion terminates.  Occurrences of V are removed first,
innermost out, each body replaced by its own verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .formula import (
    FALSE,
    MODAL,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    Val,
    assign,
    conj,
    fold,
    leaves,
    rebuild,
)
from .normal_form import AgentBlock, Tick, _nnf, merge_positive, modal_arguments, to_clauses


class BudgetExceededError(RuntimeError):
    """The configured wall-clock budget ran out before a verdict."""


@dataclass
class Verdict:
    """Outcome of a satisfiability or validity query.

    valid(f) and unsatisfiable(~f) are the same computation, so the two
    statuses are duals of one another.
    """

    status: str  # satisfiable | unsatisfiable | valid | invalid

    def __bool__(self) -> bool:
        return self.status in ("satisfiable", "valid")


class Decider:
    """One decision context: memo table, optional trace, optional deadline.

    The trace is a callable on (level, rule, formula), called as each
    step happens.  A Decider is deterministic and single-threaded.  The
    memo is always on; a traced run logs each memo hit, so it takes the
    same path as an untraced one.
    """

    def __init__(
        self, trace: Callable[[int, str, Formula], None] | None = None, deadline: float | None = None
    ) -> None:
        self.trace = trace
        self.deadline = deadline
        self._memo: dict[Formula, bool] = {}

    # -- public operations ------------------------------------------------

    def consistent(self, f: Formula) -> Verdict:
        ok = self._sat(self.eliminate_val(f), 0)
        return Verdict("satisfiable" if ok else "unsatisfiable")

    def valid(self, f: Formula) -> Verdict:
        ok = not self._sat(fold(Not(self.eliminate_val(f))), 0)
        return Verdict("valid" if ok else "invalid")

    def eliminate_val(self, f: Formula) -> Formula:
        """Replace every V body, innermost out, by its own verdict, and
        fold each node: the result is simplify of the V-free formula,
        and a simplified V-free f comes back as the same object."""
        self._tick()
        if isinstance(f, Val):
            body = self.eliminate_val(f.sub)
            if self.trace:
                self.trace(0, "resolve validity operator", body)
            return FALSE if self._sat(fold(Not(body)), 1) else TRUE
        return fold(rebuild(f, self.eliminate_val))

    def block_consistent(self, b: AgentBlock) -> bool:
        """The group test for one agent's conjuncts.  The arguments need
        only be objective for that agent (the normal form guarantees it,
        and so does the search's cofactoring); they need not be
        normalized."""
        return self._block_ok(b, 0)

    # -- recursion ----------------------------------------------------------

    def _sat(self, f: Formula, level: int) -> bool:
        """Is the simplified V-free formula f satisfiable?"""
        self._tick()
        if f is TRUE:
            return True
        if f is FALSE:
            return False
        if f in self._memo:
            if self.trace:
                self.trace(level, "memo hit", f)
            return self._memo[f]
        if self.trace:
            self.trace(level, "satisfiable?", f)
        result = self._search(f, level)
        self._memo[f] = result
        return result

    def _search(self, f: Formula, level: int) -> bool:
        """DPLL over the clause form of f: unit propagation, decisions on
        the trail, the group test on the modal literals after each
        propagation, and SAT once every clause is satisfied, so the
        literals still unassigned stay don't-care.

        A modal variable M_i phi depends on the agent-i modal atoms at
        phi's Boolean level; they become variables too (their own
        dependencies with them), and each gets the clause -w | w, so the
        search cannot stop before it decides them all."""
        variables, clauses = to_clauses(f, self._tick)
        modal: dict[int, Formula] = {}
        deps: dict[int, tuple[int, ...]] = {}
        index: dict[Formula, int] = {}
        for v, leaf in enumerate(variables, 1):  # also visits the variables appended below
            if not isinstance(leaf, MODAL):
                continue
            modal[v] = leaf
            own = [g for g in leaves(leaf.sub) if isinstance(g, MODAL) and g.agent == leaf.agent]
            if not own:
                continue
            if not index:
                index = {g: w for w, g in enumerate(variables, 1) if g is not None}
            for g in own:
                if g not in index:
                    variables.append(g)
                    index[g] = len(variables)
            deps[v] = tuple(dict.fromkeys(index[g] for g in own))
        clauses += ([-w, w] for w in dict.fromkeys(w for ws in deps.values() for w in ws))
        tested: dict[frozenset[int], bool] = {}
        s = _Trail(len(variables), clauses, self._tick)
        if s.conflict:
            return False
        decisions: list[tuple[int, int, bool]] = []  # (trail length, literal, flipped)
        while True:
            self._tick()
            if s.propagate() and self._groups_ok(s, modal, deps, tested, level):
                lit = s.choose()
                if lit is None:
                    if self.trace:
                        chosen = sorted((x for x in s.trail if variables[abs(x) - 1] is not None), key=abs)
                        literals = conj(variables[x - 1] if x > 0 else Not(variables[-x - 1]) for x in chosen)
                        self.trace(level + 1, "satisfying literals", literals)
                    return True
                decisions.append((len(s.trail), lit, False))
                s.assign(lit)
                continue
            while decisions:
                at, lit, flipped = decisions.pop()
                s.undo(at)
                if not flipped:
                    decisions.append((at, -lit, True))
                    s.assign(-lit)
                    break
            else:
                return False

    def _groups_ok(
        self,
        s: _Trail,
        modal: dict[int, Formula],
        deps: dict[int, tuple[int, ...]],
        tested: dict[frozenset[int], bool],
        level: int,
    ) -> bool:
        """The group test for each agent's modal literals on the trail,
        their arguments cofactored.  A failing group fails under every
        extension, so it prunes.  An agent's literal set fixes the
        cofactors, since every dependency is one of its modal atoms."""
        if not modal:
            return True
        by_agent: dict[int, list[int]] = {}
        for lit in s.trail:
            leaf = modal.get(abs(lit))
            if leaf is not None:
                by_agent.setdefault(leaf.agent, []).append(lit)
        for agent in sorted(by_agent):
            key = frozenset(by_agent[agent])
            ok = tested.get(key)
            if ok is None:
                args = modal_arguments(
                    (_cofactor(modal[abs(x)], x > 0, deps.get(abs(x), ()), modal, s.value), x > 0)
                    for x in sorted(key, key=abs)
                )
                pos_l, neg_l, pos_n, neg_n = args
                if neg_l or neg_n or (pos_l and pos_n):
                    ok = self._block_ok(merge_positive(agent, *args), level + 1)
                else:
                    # Positives of one modality: the other argument is true,
                    # so the union is valid and nothing is negated.
                    ok = True
                tested[key] = ok
            if not ok:
                return False
        return True

    def _block_ok(self, b: AgentBlock, level: int) -> bool:
        alpha, gamma = b.pos_l, b.pos_n
        for phi in b.neg_l:
            if self.trace:
                self.trace(level, f"agent {b.agent}: negated L against the positive part", phi)
            if not self._sat(fold(And(alpha, fold(Not(phi)))), level + 1):
                return False
        for psi in b.neg_n:
            if self.trace:
                self.trace(level, f"agent {b.agent}: negated N against the positive part", psi)
            if not self._sat(fold(And(gamma, fold(Not(psi)))), level + 1):
                return False
        union = fold(Or(alpha, gamma))
        if self.trace:
            self.trace(level, f"agent {b.agent}: union of positive parts must be valid", union)
        return not self._sat(fold(Not(union)), level + 1)

    # -- bookkeeping ----------------------------------------------------

    def _tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exceeded")


def _cofactor(
    leaf: Formula, positive: bool, ws: tuple[int, ...], modal: dict[int, Formula], value: list[bool | None]
) -> Formula:
    """M_i phi with phi cofactored by the values of its dependencies ws.
    With some still unassigned, phi goes to negation normal form and each
    literal over one becomes true in a positive literal and false in a
    negated one: that argument is implied by every cofactor phi can still
    get (implies it, when negated), and L and N are monotone, so a group
    that fails with it fails under every extension."""
    if not ws:
        return leaf
    env = {modal[w]: value[w] for w in ws if value[w] is not None}
    arg = assign(leaf.sub, env)
    if len(env) < len(ws):
        pending = {modal[w] for w in ws if value[w] is None}
        arg = _weaken(_nnf(arg), pending, TRUE if positive else FALSE)
    return leaf if arg is leaf.sub else type(leaf)(leaf.agent, arg)


def _weaken(f: Formula, pending: set[Formula], value: Formula) -> Formula:
    """The NNF formula f with every literal over a pending leaf replaced
    by value, each rebuilt node folded."""
    if isinstance(f, (And, Or)):
        g = rebuild(f, lambda h: _weaken(h, pending, value))
        return f if g is f else fold(g)
    return value if (f.sub if isinstance(f, Not) else f) in pending else f


class _Trail:
    """Assignment state of one search: a value per literal (list index
    -v wraps to the upper half), the trail of assigned literals, and two
    watched literals per clause of two or more."""

    def __init__(self, n_vars: int, clauses: list[list[int]], tick: Tick) -> None:
        size = 2 * n_vars + 1
        self.value: list[bool | None] = [None] * size
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.trail: list[int] = []
        self.head = 0  # trail[:head] is propagated
        self.clauses = clauses  # original literal order, read by choose
        self.conflict = False
        for c in clauses:
            tick()
            if len(c) > 1:
                watched = list(c)
                self.watches[watched[0]].append(watched)
                self.watches[watched[1]].append(watched)
            elif not c or self.value[c[0]] is False:
                self.conflict = True
            elif self.value[c[0]] is None:
                self.assign(c[0])

    def assign(self, lit: int) -> None:
        self.value[lit] = True
        self.value[-lit] = False
        self.trail.append(lit)

    def undo(self, at: int) -> None:
        for lit in self.trail[at:]:
            self.value[lit] = self.value[-lit] = None
        del self.trail[at:]
        self.head = at

    def propagate(self) -> bool:
        """Unit propagation; False on a conflict."""
        value, watches, trail = self.value, self.watches, self.trail
        while self.head < len(trail):
            false_lit = -trail[self.head]
            self.head += 1
            watching = watches[false_lit]
            i = 0
            while i < len(watching):
                c = watching[i]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                other = c[0]
                if value[other]:
                    i += 1
                    continue
                for k in range(2, len(c)):
                    if value[c[k]] is not False:
                        c[1], c[k] = c[k], false_lit
                        watches[c[1]].append(c)
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if value[other] is False:
                        return False
                    self.assign(other)
                    i += 1
        return True

    def choose(self) -> int | None:
        """The first unassigned literal of the first unsatisfied clause,
        None when every clause is satisfied."""
        value = self.value
        for c in self.clauses:
            free = None
            for lit in c:
                if value[lit]:
                    break
                if free is None and value[lit] is None:
                    free = lit
            else:
                return free
        return None
