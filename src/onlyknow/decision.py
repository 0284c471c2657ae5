"""Consistency and validity in the axiom system for multi-agent only
knowing (K45 belief with the validity operator).

A V-free formula is satisfiable iff some set of literals over the
leaves of its Boolean skeleton (atoms and L/N formulas taken whole)
makes the skeleton true and passes, agent by agent, the group test:

  * for every negated L conjunct, the positive L argument stays jointly
    satisfiable with the negation's dual (and likewise on the N side);
  * the disjunction of the positive L and N arguments is valid, so the
    two world sets the group describes can cover everything.

Only knowing's pair O_i a = L_i a & N_i ~a is tested as one: when N_i ~a
is the group's only N literal, the union (a & X) | ~a, X the other
positive L arguments, is valid iff a entails X, so the group passes iff
a entails each conjunct of X, and ~a is neither cofactored nor searched.
While a's own modal atoms are unassigned (below), a is weakened as
under a negated L_i a, so that it implies every cofactor it can get.

The group test needs arguments objective for the agent.  An argument
that holds the agent's own modal atoms at its Boolean level is
cofactored first: introspective agents give those atoms the same value
at every world they entertain, so M_i phi agrees with M_i phi[a] under
the values a the literal set gives them.  Those atoms are therefore
search variables too, and the search guesses them, as in the
stable-expansion reading of only knowing (Levesque, 1990), unless only
knowing's pair decides them (below).

The skeleton is put in clause form once (the KSAT construction of
Giunchiglia & Sebastiani, 2000) by ``to_clauses``, here so that a
decide loads no ``normal_form``: polarity-aware Tseitin, with atoms and
L/N formulas taken whole as leaves.  When every clause is a unit over
an atom or a modal atom without such dependencies, those literals are
the only candidate and are tested as they are; any other set is found
by a DPLL search over the clauses.  One group state and one routine
test a group on either path, the pair rule included.  A group that
fails fails under every larger set of literals, so the test runs after
each unit propagation and prunes the search.  A literal whose own atoms
are not all assigned yet is tested with a weakened argument, implied by
every cofactor it can still get: each literal over such an atom becomes
true (false under a negated modality).  The clause form and the
cofactors are read off the formula as written, by polarity.  Group
arguments sit one modal level lower, so the recursion terminates.  V
goes first, innermost out, each body replaced by its own verdict, in
the walk that simplifies the query; a plain query, V-free and
simplified already, skips the walk.

The group tests of one search pay only for what changed.  The group
state follows the trail, as a DPLL(T) theory does (Nieuwenhuis,
Oliveras & Tinelli, JACM 2006): each agent's block grows by a literal
as the trail grows, keeping the agent's N literals and only knowing's
pair as they come, and a backtrack pops it.  A watch list per
dependency names the literals that read it, so an assignment or an
unassignment re-reads only those, one part at a time from the settle
cache, keyed by its dependencies' values; a literal's conjuncts and
argument are read off those parts afresh.  The tests read parts: a
block's record has AgentBlock's layout, but each positive side is one
list of conjuncts, read off the cofactors (L_i a & L_i b is L_i (a & b),
so which argument a conjunct came from does not matter), and the pair
rule reads the base's settled parts, so a side is joined only for a
subquery, or a trace line, that needs the whole.

A negated conjunct's test, the pair's own test and the pair's
propagation (below) ask one question of a positive part pos, whether it
entails psi, and one routine answers them all: yes when psi is a
conjunct of pos, else by a search of pos & ~psi in the components of
pos that psi touches (Bayardo & Pehoushek, AAAI 2000), or none, when a
lone literal or the memo is left.  The pair asks it of its base for
each conjunct of X, as its propagation asks it for each dependency.

The pair also propagates, DPLL(T)'s theory propagation: after each unit
propagation, each O_i a implies those of a's dependencies that a's two
cofactors decide (_forced), and the search assigns them at the current
decision level, so a backtrack takes them back.  Unit propagation and
the pair's take turns until neither assigns, and the groups are tested
once there, as DPLL(T) runs theory propagation to its fixpoint before
the consistency check.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from operator import itemgetter

from .formula import (
    FALSE,
    MODAL,
    TRUE,
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    Val,
    conj,
    conjuncts,
    connect,
    fold,
    join,
    leaves,
    own_modal_leaves,
    transform,
)

Tick = Callable[[], None]
_LEAVES = frozenset((Atom, L, N, Val))  # the skeleton's leaves, taken whole


class BudgetExceededError(RuntimeError):
    """The configured wall-clock budget ran out before a verdict."""


class Verdict:
    """Outcome of a satisfiability or validity query.

    valid(f) and unsatisfiable(~f) are the same computation, so the two
    statuses are duals of one another.
    """

    __slots__ = ("status",)
    __match_args__ = ("status",)
    __hash__ = None  # equal verdicts compare equal, and a verdict is mutable

    def __init__(self, status: str) -> None:
        self.status = status  # satisfiable | unsatisfiable | valid | invalid

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.status == other.status

    def __repr__(self) -> str:
        return f"Verdict(status={self.status!r})"

    def __bool__(self) -> bool:
        return self.status in ("satisfiable", "valid")


class Decider:
    """One decision context: memo table, optional trace, optional deadline.

    The trace is a callable on (level, rule, formula), called as each
    step happens.  A Decider is deterministic and single-threaded.  The
    memo is always on; a traced run logs each memo hit, so it takes the
    same path.  The conjuncts' component keys are kept as long, too,
    and the own modal atoms of each modal argument and its conjuncts.
    """

    def __init__(self, trace: Callable[[int, str, Formula], None] | None = None, deadline: float | None = None) -> None:
        self.trace = trace
        self.deadline = deadline
        self._memo: dict[Formula, bool] = {}
        self._key_sets: dict[Formula, set[str | int]] = {}  # see _keys
        self._own_sets: dict[tuple[Formula, int], tuple[Formula, ...]] = {}  # see _own

    # -- public operations ------------------------------------------------

    def consistent(self, f: Formula) -> Verdict:
        ok = self._sat(self.eliminate_val(f), 0)
        return Verdict("satisfiable" if ok else "unsatisfiable")

    def valid(self, f: Formula) -> Verdict:
        ok = not self._sat(fold(Not(self.eliminate_val(f))), 0)
        return Verdict("valid" if ok else "invalid")

    def eliminate_val(self, f: Formula) -> Formula:
        """Replace every V body, innermost out, by its own verdict, and
        fold each node, each distinct one once per call: the result is
        simplify of the V-free formula.  A plain formula, V-free and
        simplified already, is returned at once, with no walk."""
        if f.plain:
            return f

        def resolve(g: Formula, h: Formula) -> Formula:
            self._tick()
            if type(g) is not Val:
                return fold(h)
            if self.trace:
                self.trace(0, "resolve validity operator", h.sub)
            return FALSE if self._sat(fold(Not(h.sub)), 1) else TRUE

        return transform(f, resolve)

    def block_consistent(self, b: AgentBlock) -> bool:
        """The group test for one agent's conjuncts, a normal_form
        AgentBlock (named only here, not imported), whose arguments need
        only be objective for that agent, as the normal form's and the
        search's cofactors are; they need not be normalized.  b becomes
        a group record once, each positive side the list of its
        arguments' conjuncts."""
        pos_l, pos_n = ([c for g in pos for c in conjuncts(g)] for pos in (b.pos_l, b.pos_n))
        return self._block_ok((b.agent, pos_l, b.neg_l, pos_n, b.neg_n), 0)

    # -- recursion ----------------------------------------------------------

    def _sat(self, f: Formula, level: int) -> bool:
        """Is the simplified V-free formula f satisfiable?  Its clause form
        is made once: a set of units is its own only candidate and is
        tested as it is; anything else is searched."""
        self._tick()
        if f is TRUE:
            return True
        if f is FALSE:
            return False
        known = self._memo.get(f)
        if known is not None:
            if self.trace:
                self.trace(level, "memo hit", f)
            return known
        if self.trace:
            self.trace(level, "satisfiable?", f)
        variables, clauses = to_clauses(f, self._tick)
        result = self._literal_set_ok(variables, clauses, level)
        if result is None:
            result = self._search(variables, clauses, level)
        self._memo[f] = result
        return result

    def _search(self, variables: list[Formula | None], clauses: list[list[int]], level: int) -> bool:
        """DPLL(T) over the clause form that _sat made, SAT once every
        clause is satisfied, so the literals still unassigned stay
        don't-care.  A modal variable M_i phi depends on the agent-i modal
        atoms at phi's Boolean level; they become variables too (their
        own dependencies with them), each with the clause -w | w, so the
        search decides them, or only knowing's pair forces them.  One
        round: unit propagation; the blocks sync once with the trail;
        theory propagation, _forced, hands back the pair's implied
        literals, which the round assigns at the current decision level
        (a backtrack takes them back) before it goes back to propagation;
        at the fixpoint, the theory check, the group test of each agent's
        block, in agent order; then a decision.  Both rules hold for
        every completion, and a group that fails before the forcing fails
        after it.  An agent's literal set fixes its cofactors, since every
        dependency is one of its modal atoms, so each set is tested once
        (see _Groups.tested), and a failing group fails under every
        extension, so it prunes.  A search with no modal variable has no
        groups.  A backtrack pops the groups with the top level and flips
        its decision at the level below.  A literal set never gets here:
        it has nothing to search, and _literal_set_ok tests its groups by
        the same _Groups and _group_ok."""
        modal: dict[int, Formula] = {}
        deps: dict[int, tuple[int, ...]] = {}
        index: dict[Formula, int] = {}
        for v, leaf in enumerate(variables, 1):  # also visits the variables appended below
            if not isinstance(leaf, MODAL):
                continue
            modal[v] = leaf
            own = self._own(leaf.sub, leaf.agent)
            if not own:
                continue
            if not index:
                index = {g: w for w, g in enumerate(variables, 1) if g is not None}
            for g in own:
                if g not in index:
                    variables.append(g)
                    index[g] = len(variables)
            deps[v] = tuple(map(index.__getitem__, own))
        clauses += ([-w, w] for w in dict.fromkeys(w for ws in deps.values() for w in ws))
        s = _Trail(len(variables), clauses, self._tick)
        if s.conflict:
            return False
        groups = _Groups(modal, deps, s.value, self._own, self._tick) if modal else None
        pairs = any(type(modal[v]) is N for v in deps)  # N_i ~a of a pair that may force a's dependencies
        while True:
            self._tick()
            ok = s.propagate()
            if ok and groups:
                groups.sync(s.trail)
                if pairs and (forced := self._forced(groups, level)):
                    for x in forced:
                        s.assign(x)
                    continue
                tested = groups.tested
                for agent in groups.agents:
                    block = groups.blocks[agent]
                    if not block.lits:
                        continue
                    key = frozenset(block.lits)
                    ok = tested.get(key)
                    if ok is None:
                        ok = tested[key] = self._group_ok(block, groups, level)
                    if not ok:
                        break
            if ok:
                lit = s.choose()
                if lit is None:
                    if self.trace:
                        self.trace(level + 1, "satisfying literals", _literals(variables, s.trail))
                    return True
                s.decide(lit)
                continue
            if not s.levels:
                return False
            if groups:
                groups.undo(s.trail, s.levels[-1][0])
            s.assign(-s.backtrack())

    def _literal_set_ok(self, variables: list[Formula | None], clauses: list[list[int]], level: int) -> bool | None:
        """The search's verdict when every clause is a unit over an atom
        or a modal atom with no dependency, else None.  No unit is over a
        definition variable, whose clauses have two literals or more, nor
        over V, which _sat's input lacks.  Those literals are the only
        candidate: a complementary pair refutes them, as the search's
        unit conflict does, and otherwise _group_ok tests each agent's
        block, taken in by sync in clause order, as the search's trail
        takes them, each cofactor the leaf itself."""
        if not {1}.issuperset(map(len, clauses)):
            return None
        units = dict.fromkeys(map(itemgetter(0), clauses))
        if len(set(map(abs, units))) < len(units):
            return False
        modal: dict[int, Formula] = {}
        for x in units:
            g = variables[abs(x) - 1]
            kind = type(g)
            if kind is L or kind is N:
                if type(g.sub) is not Atom and self._own(g.sub, g.agent):  # an atom has none
                    return None
                modal[abs(x)] = g
        if modal:
            groups = _Groups(modal, {}, [], self._own, self._tick)
            groups.sync(list(units))
            for agent in groups.agents:
                if not self._group_ok(groups.blocks[agent], groups, level):
                    return False
        if self.trace:
            self.trace(level + 1, "satisfying literals", _literals(variables, units))
        return True

    def _forced(self, groups: _Groups, level: int) -> list[int]:
        """DPLL(T)'s theory propagation for only knowing's pairs: the
        dependencies of O_i a that the pair's bounds decide, as implied
        literals, which _search assigns, in agent order; none when no
        bound decides one.  It runs in each round after the blocks sync
        with the trail, before the group test, and reads the trail's
        values through groups.value.  Such a dependency is an L_i psi,
        psi objective for the agent.  Every completion's a lies between
        low and high, a's two cofactors (low entails a, a entails high),
        and X, the other positive L arguments, only grows.  Rule F: if
        low does not entail psi, L_i psi would fail the pair's
        entailment, so ~L_i psi holds.  Rule T: if high & X entails psi,
        ~L_i psi would fail its negated test, so L_i psi holds.  Each
        rule prunes only branches whose group fails, so the second is
        tried only where the first does not fire.  A block with no open
        dependency of the pair costs a lookup; X's parts, the only ones
        that need the block's record, are read only for rule T."""
        value, modal, deps = groups.value, groups.modal, groups.deps
        forced = []
        for agent in groups.agents:
            block = groups.blocks[agent]
            v = block.pair()
            if v is None:
                continue
            pending = [w for w in deps.get(v, ()) if value[w] is None and type(modal[w]) is L and w not in deps]
            if not pending:
                continue
            psis = [modal[w].sub for w in pending]
            what = "the base's low bound"
            by_low = list(self._entailed(agent, what, groups.conjuncts(v, False), psis, level + 1))
            rest = [psi for psi, e in zip(psis, by_low) if e]
            by_high: set[Formula] = set()
            if rest:
                block.group(groups)
                parts = chain(groups.conjuncts(v, True), block.record[1])
                what = "the base's high bound and the other positive L parts"
                by_high = {psi for psi, e in zip(rest, self._entailed(agent, what, parts, rest, level + 1)) if e}
            for w, psi, e in zip(pending, psis, by_low):
                if not e or psi in by_high:
                    forced.append(w if e else -w)
                    if self.trace:
                        self.trace(level + 1, f"agent {agent}: only knowing forces", modal[w] if e else Not(modal[w]))
        return forced

    def _entailed(
        self, agent: int, what: str, parts: Iterable[Formula], psis: Iterable[Formula], level: int
    ) -> Iterator[bool]:
        """Does pos, the conjunction of parts, which what names in the
        trace, entail each distinct psi?  Every question of a group test
        is this one: a negated M_i phi passes iff pos does not entail
        phi, and only knowing's pair passes and propagates by what its
        base entails.  The answers come one at a time, so a caller that
        stops at one runs no search for the rest; callers read them with
        in, since any() or all() would add a frame.  Yes at once when
        psi is one of the parts.  Otherwise pos & ~psi is searched
        against psi's partner, by one rule: the parts of the components
        of pos that psi touches, joined left to right, once per call, in
        a table keyed by the set of components (true for none).  Parts
        that share no atom and no agent of a Boolean-level modal leaf
        fall into components whose models combine, found at the first
        psi that is not a part, for all of them.  Each component that
        some psi leaves out must be satisfiable, so that each answer
        holds alone (yes for every psi when one is not): a lone literal
        is, the memo answers those it knows, and the rest are searched
        together, then memoized.  The partner alone is searched when ~psi
        is a part, and nothing when what is left is a lone literal."""
        given = dict.fromkeys(parts)
        psis = dict.fromkeys(psis)
        touched: dict[Formula, frozenset[int]] = {}  # psi -> the components it touches; none while pos is true
        partners = {frozenset(): TRUE}  # components -> their parts, joined left to right
        unsatisfiable = False
        for psi in psis:
            if self.trace:
                self.trace(level, f"agent {agent}: entailed by {what}?", psi)
            if psi in given:
                yield True
                continue
            if not touched and given:
                parts = list(given)
                keys = self._keys
                component, members = _components([keys(p) for p in parts])
                at = component.__getitem__
                touched = {phi: frozenset(map(at, keys(phi) & component.keys())) for phi in psis if phi not in given}
                everywhere = frozenset.intersection(*touched.values())
                fresh = []
                for c, ms in enumerate(members):
                    if c in everywhere:
                        continue
                    alone = parts[ms[0]] if len(ms) == 1 else join(And, map(parts.__getitem__, ms))
                    partners[frozenset((c,))] = alone
                    if _is_literal(alone):
                        continue
                    known = self._memo.get(alone)
                    if known is None:
                        fresh.append(alone)
                        continue
                    if self.trace:
                        self.trace(level + 1, "memo hit", alone)
                    if not known:
                        unsatisfiable = True
                        break
                if fresh and not unsatisfiable:
                    together = join(And, fresh)
                    if self.trace:
                        self.trace(level, f"agent {agent}: components of {what}", together)
                    unsatisfiable = not self._sat(together, level + 1)
                    if not unsatisfiable:
                        self._memo.update(dict.fromkeys(fresh, True))
            if unsatisfiable:
                yield True
                continue
            cs = touched.get(psi, frozenset())
            partner = partners.get(cs)
            if partner is None:
                ms = sorted(chain.from_iterable(map(members.__getitem__, cs)))
                partner = partners[cs] = join(And, map(parts.__getitem__, ms))
            neg = fold(Not(psi))
            g = partner if neg in given else connect(And, partner, neg)
            yield not (_is_literal(g) or self._sat(g, level + 1))

    def _group_ok(self, block: _Block, groups: _Groups, level: int) -> bool:
        """The group test for one agent's block, on its record of the
        literals outside the pair (see _Block).  A group whose only N
        literal is a positive N_i ~a, with L_i a positive too, is O_i a's
        pair, tested here on a's settled parts; any other, by _block_ok.
        The pair's union of positive parts, (a & X) | ~a with X the other
        positive L arguments, is valid iff a entails X, so it passes iff
        low entails each conjunct of X, low being a with its unassigned
        dependencies read as false (a itself when it has none).  Low
        implies a, whatever the completion, so a group that fails fails
        under all of them.  The negated tests split a & X into components
        over a's settled parts and X's."""
        pair = block.group(groups)
        level += 1
        if pair is None:
            return self._block_ok(block.record, level)
        agent, xs, negs, _, _ = block.record
        if negs:
            parts = chain(groups.conjuncts(pair, True), xs)
            if True in self._entailed(agent, "the positive L part", parts, negs, level):
                return False
        if self.trace:
            what = f"agent {agent}: only-knowing base must entail the other positive L parts"
            self.trace(level, what, join(And, dict.fromkeys(xs)))
        if not xs:
            return True
        low = groups.conjuncts(pair, False)
        return False not in self._entailed(agent, "the base's low bound", low, xs, level)

    def _block_ok(self, record: tuple, level: int) -> bool:
        """The group test for one agent's record (agent, pos_l, neg_l,
        pos_n, neg_n), AgentBlock's layout: per modality, the conjuncts
        of the positive arguments, as one list, and the negated
        arguments.  The negated tests read the conjuncts; a side's
        distinct conjuncts are joined, left to right, only for a
        subquery that needs the whole, as the union does."""
        agent, pos_l, neg_l, pos_n, neg_n = record
        if not (neg_l or neg_n or pos_l and pos_n):
            # Nothing negated and one positive side true: the union is valid.
            return True
        if neg_l and True in self._entailed(agent, "the positive L part", pos_l, neg_l, level):
            return False
        if neg_n and True in self._entailed(agent, "the positive N part", pos_n, neg_n, level):
            return False
        union = connect(Or, join(And, dict.fromkeys(pos_l)), join(And, dict.fromkeys(pos_n)))
        if self.trace:
            self.trace(level, f"agent {agent}: union of positive parts must be valid", union)
        return not self._sat(fold(Not(union)), level + 1)

    # -- bookkeeping ----------------------------------------------------

    def _keys(self, f: Formula) -> set[str | int]:
        """What ties f to other conjuncts: its Boolean-level atoms' names and
        modal leaves' agents, kept by node, since parts recur across tests."""
        keys = self._key_sets.get(f)
        if keys is None:
            g = f.sub if type(f) is Not else f  # a literal is its own only leaf
            if type(g) is Atom:
                keys = {g.name}
            elif isinstance(g, MODAL):
                keys = {g.agent}
            else:
                keys = {h.agent if isinstance(h, MODAL) else h.name for h in leaves(g) if isinstance(h, (Atom, L, N))}
            self._key_sets[f] = keys
        return keys

    def _own(self, f: Formula, agent: int) -> tuple[Formula, ...]:
        """The agent's own modal atoms at f's Boolean level, each once,
        left to right, kept by (node, agent).  Those of a conjunction, or
        of a negated one, are gathered from its conjuncts' entries, so
        L1 kb, N1 ~kb and the cofactors' split of kb walk kb once."""
        sets = self._own_sets
        own = sets.get((f, agent))
        if own is None:
            g = f.sub if type(f) is Not else f
            if type(g) is And:
                found: list[Formula] = []
                for c in conjuncts(g):
                    part = sets.get((c, agent))
                    if part is None:
                        part = sets[c, agent] = tuple(dict.fromkeys(own_modal_leaves(c, agent)))
                    found += part
                own = tuple(dict.fromkeys(found))
            else:
                own = tuple(dict.fromkeys(own_modal_leaves(g, agent)))
            sets[f, agent] = own
        return own

    def _tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exceeded")


def to_clauses(f: Formula, tick: Tick | None = None) -> tuple[list[Formula | None], list[list[int]]]:
    """Clause form of the Boolean skeleton of a V-free formula, whose
    leaves are atoms and L/N formulas taken whole.  tick, when given, is
    called once per node the walk takes apart, in a clause as in a
    conjunction (not per leaf), and once per <-> definition.

    Returns (variables, clauses).  Variable v stands for variables[v - 1],
    an atom or an L/N formula, or for a definition when that entry is None.
    A clause is a list of nonzero ints, negative meaning negated.  The
    form is polarity-aware Tseitin (Plaisted & Greenbaum, 1986), read off
    the formula as written by a walk over (node, negated) pairs, which
    goes down a run of the walk's own connective by its left spine and
    stacks only the right operands.  Only a
    conjunction under a disjunction gets a variable t, with one-way
    clauses ~t | c, and each <-> operand that is no literal one variable
    d per node, defined both ways, so the count is linear: p0 <-> ... <->
    p14 gives 93 clauses.  An assignment satisfying the clauses makes the
    formula true on its leaves, and every model of the formula extends to
    one satisfying them.  The skeleton's clauses come first, then the
    definitions, outer before inner.
    """
    variables: list[Formula | None] = []
    index: dict[Formula, int] = {}  # a leaf's or a <-> operand's variable
    queue: list[tuple[Formula, int]] = []  # <-> operands and variables, to define
    definitions: list[list[int]] = []
    tick = tick or (lambda: None)

    def operand(g: Formula) -> int:
        neg = False
        while type(g) is Not:
            g, neg = g.sub, not neg
        v = index.get(g)
        if v is None:
            leaf = type(g) in _LEAVES
            variables.append(g if leaf else None)
            v = index[g] = len(variables)
            if not leaf:
                queue.append((g, v))
        return -v if neg else v

    def walk(stack: list, conj: bool):
        """The clauses of the items' conjunction, or (not conj) the clause
        of their disjunction or None.  An item is a node, negated or not:
        a formula, a variable, or literals (x, y) for x -> y.  A node joins
        the items by & or |, as its kind and polarity say, last first; true
        is & and false | of none."""
        out: list = []
        while stack:
            h, neg = stack.pop()
            while True:
                kind = type(h)
                if kind is Not:
                    h, neg = h.sub, not neg
                elif (kind is And or kind is Or) and ((kind is And) != neg) == conj:  # down the left spine
                    tick()
                    stack.append((h.right, neg))
                    h = h.left
                else:
                    break
            if kind in _LEAVES:
                v = index.get(h)
                if v is None:
                    variables.append(h)
                    v = index[h] = len(variables)
                out.append([-v if neg else v] if conj else -v if neg else v)
                continue
            tick()
            if kind is And or kind is Or:
                both, items = (kind is And) != neg, ((h.right, neg), (h.left, neg))
            elif kind is Implies or kind is tuple:
                x, y = (h.left, h.right) if kind is Implies else h
                both, items = neg, ((y, neg), (x, not neg))
            elif kind is Iff:
                x, y = operand(h.left), operand(h.right)
                both, items = (False, (((-x, -y), True), ((x, y), True))) if neg else (True, (((y, x), False), ((x, y), False)))
            elif kind is int:
                out.append([-h if neg else h] if conj else -h if neg else h)
                continue
            else:  # true or false
                both, items = (h is TRUE) != neg, ()
            if both == conj:
                stack += items
            elif conj:
                if (c := walk([*items], False)) is not None:
                    out.append(c)
            else:
                at = len(definitions)
                parts = walk([*items], True)
                if not parts:
                    return None
                if len(parts) > 1:
                    variables.append(None)
                    definitions[at:at] = [[-len(variables), *c] for c in parts]
                    parts = [[len(variables)]]
                out += parts[0]
        if conj:
            return out
        lits = dict.fromkeys(out)
        return None if any(-x in lits for x in lits) else list(lits)

    clauses = walk([(f, False)], True)
    for g, d in queue:  # grows while it is read
        tick()
        at = len(definitions)
        definitions[at:at] = [[-d, *c] for c in walk([(g, False)], True)] + [[d, *c] for c in walk([(g, True)], True)]
    del walk, operand  # they call themselves or each other: break the cycles, so the tables go on return
    return variables, clauses + definitions


def _literals(variables: list[Formula | None], xs: Iterable[int]) -> Formula:
    """The conjunction of the literals xs over their leaves, by variable,
    leaving out the variables that stand for no leaf."""
    chosen = sorted((x for x in xs if variables[abs(x) - 1] is not None), key=abs)
    return conj(variables[x - 1] if x > 0 else Not(variables[-x - 1]) for x in chosen)


def _is_literal(f: Formula) -> bool:
    return type(f.sub if type(f) is Not else f) is Atom


def _components(parts: list[set[str | int]]) -> tuple[dict[str | int, int], list[list[int]]]:
    """Union-find over the parts' keys.  Returns each key's component and
    each component's parts, in order.  When no two parts share a key,
    each part is a component of its own, with no union-find.  Otherwise
    part i stays a root while its own keys are joined, since every other
    root is hung under it."""
    if len(set().union(*parts)) == sum(map(len, parts)):
        return {k: i for i, keys in enumerate(parts) for k in keys}, [[i] for i in range(len(parts))]
    parent = list(range(len(parts)))
    owner: dict[str | int, int] = {}
    for i, keys in enumerate(parts):
        for k in keys:
            j = owner.setdefault(k, i)
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            parent[j] = i
    number: dict[int, int] = {}
    members: list[list[int]] = []
    component: list[int] = []
    for i in range(len(parts)):
        j = i
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if j not in number:
            number[j] = len(members)
            members.append([])
        component.append(number[j])
        members[number[j]].append(i)
    return {k: component[i] for k, i in owner.items()}, members


class _Groups:
    """The group state of one search, which follows its trail: the
    cofactored modal atoms, a block per agent, the group tests' verdicts
    by literal set, and a watch list per dependency variable, the modal
    variables whose arguments read it.  sync takes in the trail literals
    assigned since the last call and undo pops them again, and each
    assignment or unassignment of a dependency touches only the literals
    that read it.  M_i phi is cofactored one part of phi at a time: the
    conjuncts of a conjunction, joined by And, of a negated one, each
    negated, joined by Or, or phi alone; a part with no dependency is
    taken as it is.  conjuncts and argument read a literal's cofactor
    afresh from its split, each dependent part from one memo, the settle
    cache: a settled part is kept under its dependencies' values, by
    literal while one is unset and by variable, for both signs, once
    every one is set.  tick is the Decider's budget check, which
    settling a <-> calls."""

    __slots__ = (
        *("modal", "deps", "value", "own", "tick", "split", "cache"),
        *("watch", "blocks", "agents", "tested", "head"),
    )

    def __init__(
        self,
        modal: dict[int, Formula],
        deps: dict[int, tuple[int, ...]],
        value: list[bool | None],
        own: Callable[[Formula, int], Iterable[Formula]],
        tick: Tick,
    ) -> None:
        self.modal, self.deps, self.value, self.own, self.tick = modal, deps, value, own, tick
        # v -> (op, dependencies by leaf, parts as written, (k, dependencies) of each part that has some)
        self.split: dict[int, tuple[type, dict[Formula, int], list[Formula], list[tuple[int, tuple[int, ...]]]]] = {}
        self.cache: dict[tuple[int, int, tuple], Formula] = {}  # (literal or variable, part, values) -> settled part
        self.watch: dict[int, list[int]] = {}
        for v, ws in deps.items():
            for w in ws:
                self.watch.setdefault(w, []).append(v)
        self.blocks: dict[int, _Block] = {}
        self.agents: list[int] = []  # the blocks' agents, in order
        # A block's literal set -> its verdict: the set fixes its cofactors, so
        # a later block with the same literals, in any order, reads it.
        self.tested: dict[frozenset[int], bool] = {}
        self.head = 0  # trail[:head] is in the blocks

    def argument(self, v: int, positive: bool) -> Formula:
        """The literal's cofactored argument, its parts joined."""
        op, parts = self._parts(v, positive)
        return join(op, parts)

    def conjuncts(self, v: int, positive: bool) -> list[Formula]:
        """The cofactored argument's top-level conjuncts, read off its
        parts: none when it is true."""
        op, parts = self._parts(v, positive)
        out: list[Formula] = []
        for p in parts if op is And else [join(Or, parts)]:
            if type(p) is And:
                out += conjuncts(p)
            elif p is not TRUE:
                out.append(p)
        return out

    def _parts(self, v: int, positive: bool) -> tuple[type, list[Formula]]:
        """The op that joins the literal's cofactored parts, and the
        parts: the split's, each dependent one read from the settle cache
        under its dependencies' current values and settled on a miss.  An
        argument with no dependency is one part, as written."""
        ws = self.deps.get(v)
        if ws is None:
            return And, [self.modal[v].sub]
        split = self.split.get(v)
        if split is None:
            leaf = self.modal[v]
            negated = type(leaf.sub) is Not and type(leaf.sub.sub) is And
            var = {self.modal[w]: w for w in ws}
            raw, dependent = [], []
            for k, c in enumerate(conjuncts(leaf.sub.sub if negated else leaf.sub)):
                own = tuple(map(var.__getitem__, self.own(c, leaf.agent)))
                raw.append(c if own or not negated else fold(Not(c)))
                if own:
                    dependent.append((k, own))
            split = self.split[v] = Or if negated else And, var, raw, dependent
        op, var, raw, dependent = split
        parts, value, cache, x = list(raw), self.value, self.cache, v if positive else -v
        for k, own in dependent:
            now = tuple([value[w] for w in own])
            key = (x if None in now else v, k, now)
            done = cache.get(key)
            if done is None:
                done = cache[key] = self.settle(raw[k], op is Or, var, TRUE if positive else FALSE)
            parts[k] = done
        return op, parts

    def settle(self, f: Formula, neg: bool, var: dict[Formula, int], pending: Formula) -> Formula:
        """f, negated when neg, cofactored by the dependencies var names,
        keeping each subtree with no dependency whole and folding each
        node it rebuilds.  A literal over an assigned dependency becomes
        its value, and one over a dependency still unassigned, read by
        its polarity (both, under <->), becomes pending: true in a
        positive modal literal, false in a negated one, so f is implied
        by every cofactor it can still get (implies it, negated), and a
        group that fails with it fails under every extension."""
        g = self._part(f, neg, var, pending)
        return g if g is not None else fold(Not(f)) if neg else f

    def _part(self, f: Formula, neg: bool, var: dict[Formula, int], pending: Formula) -> Formula | None:
        """The folded cofactor of f, negated when neg, or None when f
        holds no dependency."""
        while type(f) is Not:
            f, neg = f.sub, not neg
        kind = type(f)
        if kind is And or kind is Or or kind is Implies:
            op = Or if (kind is And) == neg else And
            return self._both(op, f.left, neg != (kind is Implies), f.right, neg, var, pending)
        if kind is Iff:  # both operands twice, so 2^n under n nested <->: check the budget
            self.tick()
            x, y = f.left, f.right
            if neg:
                a = self._both(And, x, False, y, True, var, pending)
                return a if a is None else connect(Or, a, self._both(And, x, True, y, False, var, pending))
            a = self._both(Or, x, True, y, False, var, pending)
            return a if a is None else connect(And, a, self._both(Or, y, True, x, False, var, pending))
        w = var.get(f)
        if w is None:
            return None
        x = self.value[w]
        return pending if x is None else TRUE if x != neg else FALSE

    def _both(
        self, op: type, x: Formula, xneg: bool, y: Formula, yneg: bool, var: dict[Formula, int], pending: Formula
    ) -> Formula | None:
        a, b = self._part(x, xneg, var, pending), self._part(y, yneg, var, pending)
        if a is None and b is None:
            return None
        if a is None:
            a = fold(Not(x)) if xneg else x
        if b is None:
            b = fold(Not(y)) if yneg else y
        return connect(op, a, b)

    def sync(self, trail: list[int]) -> None:
        modal, blocks, watch = self.modal, self.blocks, self.watch
        for x in trail[self.head :]:
            v = abs(x)
            leaf = modal.get(v)
            if leaf is None:
                continue
            block = blocks.get(leaf.agent)
            if block is None:
                block = blocks[leaf.agent] = _Block(leaf.agent)
                self.agents = sorted(blocks)
            block.push(x, leaf)
            readers = watch.get(v)
            if readers:  # of v's agent, since v is one of their own modal atoms
                block.touch(readers)
        self.head = len(trail)

    def undo(self, trail: list[int], at: int) -> None:
        """Pop the literals of trail[at:] that sync took in."""
        modal, blocks, watch = self.modal, self.blocks, self.watch
        for k in range(self.head - 1, at - 1, -1):
            v = abs(trail[k])
            leaf = modal.get(v)
            if leaf is None:
                continue
            block = blocks[leaf.agent]
            block.pop(leaf)
            readers = watch.get(v)
            if readers:
                block.touch(readers)
        if self.head > at:
            self.head = at


class _Block:
    """One agent's modal literals on the trail, in trail order, and what
    its group test reads, kept as literals come and go: the N literals,
    each positive L literal by its argument (so O_i a's pair is looked
    up, not searched for), and the record of the literals outside the
    pair's two, (agent, pos_l, neg_l, pos_n, neg_n) as in AgentBlock,
    each positive side the list of its conjuncts, all read off their
    cofactors (see _block_ok).  The record is current for lits[:dirty];
    a literal whose cofactor changed, or that joins or leaves the pair,
    moves dirty back to its position, so group cuts each of the
    record's lists back to its length when lits[dirty] came in and
    redoes the record from there."""

    __slots__ = ("agent", "lits", "at", "ns", "ls", "skip", "record", "into", "dirty")

    def __init__(self, agent: int) -> None:
        self.agent = agent
        self.lits: list[int] = []
        self.at: dict[int, int] = {}  # variable -> its position in lits
        self.ns: list[tuple[int, Formula]] = []  # (literal, leaf) of each N literal
        self.ls: dict[Formula, int] = {}  # argument -> variable of each positive L literal
        self.skip: tuple[int, ...] = ()  # the pair's variables, L first, when the record leaves them out
        self.record: tuple = (agent, [], [], [], [])
        self.into: list[tuple[int, ...]] = []  # into[k]: the lengths of the record's lists before lits[k]
        self.dirty = 0

    def push(self, x: int, leaf: Formula) -> None:
        v = abs(x)
        self.at[v] = len(self.lits)
        self.lits.append(x)
        if type(leaf) is N:
            self.ns.append((x, leaf))
        elif x > 0:
            self.ls[leaf.sub] = v

    def pop(self, leaf: Formula) -> None:
        x = self.lits.pop()
        del self.at[abs(x)]
        if type(leaf) is N:
            self.ns.pop()
        elif x > 0:
            del self.ls[leaf.sub]
        if self.dirty > len(self.lits):
            self.dirty = len(self.lits)

    def touch(self, vs: list[int]) -> None:
        """The cofactors of vs may have changed."""
        for v in vs:
            if v not in self.skip:
                k = self.at.get(v)
                if k is not None and k < self.dirty:
                    self.dirty = k

    def pair(self) -> int | None:
        """The pair's L variable, None when the group has no pair: its
        only N literal is a positive N_i ~a and L_i a is positive too."""
        ns = self.ns
        if len(ns) != 1 or ns[0][0] < 0:
            return None
        n = ns[0][1].sub  # L_i a pairs when n is fold(Not(a)); a constant never does
        return self.ls.get(n.sub) if type(n) is Not else self.ls.get(Not(n))

    def group(self, groups: _Groups) -> int | None:
        """Bring the record up to date, and return the pair's L variable,
        None when the group has no pair."""
        pair = self.pair()
        skip = (pair, self.ns[0][0]) if pair else ()
        if skip != self.skip:
            old, self.skip = self.skip, ()
            self.touch(old + skip)
            self.skip = skip
        into, dirty, lists, modal, deps = self.into, self.dirty, self.record[1:], groups.modal, groups.deps
        if dirty < len(into):
            for part, n in zip(lists, into[dirty]):
                del part[n:]
            del into[dirty:]
        for x in self.lits[dirty:]:
            into.append(tuple(map(len, lists)))
            if x in skip:
                continue
            v = abs(x)
            leaf = modal[v]
            pos, negs = lists[2:] if type(leaf) is N else lists[:2]
            if x < 0:
                negs.append(groups.argument(v, False) if v in deps else leaf.sub)
                continue
            pos += groups.conjuncts(v, True) if v in deps else conjuncts(leaf.sub)  # none when true
        self.dirty = len(into)
        return pair


class _Trail:
    """Assignment state of one search: a value per literal (list index
    -v wraps to the upper half), the trail of assigned literals, two
    watched literals per clause of two or more, the cursor of choose,
    and levels, the (trail length, cursor) at each open decision."""

    def __init__(self, n_vars: int, clauses: list[list[int]], tick: Tick) -> None:
        size = 2 * n_vars + 1
        self.value: list[bool | None] = [None] * size
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.trail: list[int] = []
        self.head = 0  # trail[:head] is propagated
        self.clauses = clauses  # original literal order, read by choose
        self.first = 0  # every clause before clauses[first] is satisfied
        self.levels: list[tuple[int, int]] = []
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

    def decide(self, lit: int) -> None:
        """Open a decision level with lit."""
        self.levels.append((len(self.trail), self.first))
        self.assign(lit)

    def backtrack(self) -> int:
        """Close the top decision level: put the trail and the cursor
        back to where it opened, and return its decision."""
        at, self.first = self.levels.pop()
        lit = self.trail[at]
        for x in self.trail[at:]:
            self.value[x] = self.value[-x] = None
        del self.trail[at:]
        self.head = at
        return lit

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
        None when every clause is satisfied.  The scan starts at the
        cursor, since the clauses before it are satisfied, and leaves it
        on the clause it picks from.  Assigning keeps those clauses
        satisfied, and backtrack puts back the cursor its level saved
        at the trail length it returns to, so each pick is the one a
        scan from the first clause would make."""
        value, clauses = self.value, self.clauses
        for k in range(self.first, len(clauses)):
            free = None
            for lit in clauses[k]:
                if value[lit]:
                    break
                if free is None and value[lit] is None:
                    free = lit
            else:
                self.first = k
                return free
        self.first = len(clauses)
        return None
