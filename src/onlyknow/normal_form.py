"""Normal form of V-free formulas: ``normalize`` (modalities expanded
until every argument is objective for its agent) and the disjunctive
normal form built on it, streamed one disjunct at a time
(``to_normal_form``).  The stream reads the formula as written, by
polarity, with L/N formulas kept whole as leaves, as the search's
clause form (``decision.to_clauses``) does: neither builds a negation
normal form.  The decision procedure neither normalizes nor imports
this module: its group test needs only arguments objective for the
agent, which the search's cofactoring gives.  ``normalize`` serves
``onlyknow nf``, ``finite_semantics.reduce_n_to_l`` and the tests'
reference for the search.  Every rewrite here folds each node as it
builds it, so its output is simplified.

One agent's group of modal literals is an ``AgentBlock``, and only it
knows the group's layout: the stream builds one literal at a time with
``AgentBlock.add``, which also reports a contradictory group, and
keeps a stack of them per agent, and one of sigmas, that its trail
pushes onto and a backtrack pops.  A block keeps each positive side as
its arguments, as they came, and joins a side only to test it beside a
negated literal of its modality, or to render a disjunct.  The
search's group record has the block's layout, but keeps each positive
side as one list of its arguments' conjuncts.

Every V-free formula is provably equivalent to a disjunction of
conjunctions

    sigma & L1 a & ~L1 b1 & ... & N1 c & ~N1 d1 & ...   (one group per agent)

where sigma is propositional and each argument inside an agent's group
is objective for that agent.  ``normalize`` gets there with the
introspection rule the search uses: an introspective agent gives its
own modal atoms the same value at every world it entertains, so for an
agent-i modal atom a at the Boolean level of phi (the stable-expansion
reading of Levesque, 1990)

    M_i phi  ==  (a & M_i phi[a]) | (~a & M_i phi[~a])

A modality whose argument has no such atom keeps the argument whole, as
written.  Otherwise each top-level conjunct of the argument is expanded
on its own, over its own first such atom, since L_i and N_i distribute
over &; a conjunct that does not mention a is not copied into both
branches.  A branch that folds to true is absorbed: M_i phi[~a] | a,
or M_i phi[a] | ~a.  On the ~a side of an atom a of M's own modality,
a leaf M_i false is dropped, since it implies a there and so is
contradictory (or, beside a, subsumed).  The stream drops a disjunct
in which ``M_i false`` meets a negated ``M_i`` literal from another
part of the formula.  Elsewhere an ``L<i> false`` disjunct stays; an
empty belief set realizes it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import itemgetter

from .formula import (
    FALSE,
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
    ValPresentError,
    conj,
    conjuncts,
    connect,
    disj,
    fold,
    join,
    leaves,
    own_modal_leaves,
    transform,
)
from .fragments import assign

_tuple = tuple.__new__  # _tuple(cls, fields) builds a namedtuple in C, past its generated __new__
_top = itemgetter(-1)


def normalize(f: Formula) -> Formula:
    """Equivalent simplified formula in which every modal subformula is a
    "modal atom": an L/N whose argument is objective for its agent (and
    itself normalized).  A modality is expanded over its agent's own
    modal atoms by the introspection rule (see the module docstring).
    Its output is its own normal form.
    """

    def step(g: Formula, h: Formula) -> Formula:
        kind = type(g)
        if kind is L or kind is N:
            return _expand(kind, g.agent, h.sub)
        if kind is Val:
            raise ValPresentError("normal form is defined for V-free formulas only")
        return fold(h)

    return transform(f, step)


def _expand(op: type, agent: int, arg: Formula, below: bool = False) -> Formula:
    """M arg, where M is op(agent, .) and arg is normalized, expanded by
    the introspection rule: each top-level conjunct of arg over its first
    own modal atom a, then each branch again.  below: M sits on the ~a
    side of an atom a of its own modality, where M false implies a, so
    it is dropped."""
    if next(own_modal_leaves(arg, agent), None) is None:
        return FALSE if below and arg is FALSE else fold(op(agent, arg))
    parts: list[Formula] = []
    for c in conjuncts(arg):
        a = next(own_modal_leaves(c, agent), None)
        if a is None:
            parts.append(fold(op(agent, c)))
            continue
        yes = _expand(op, agent, assign(c, {a: True}), below)
        no = _expand(op, agent, assign(c, {a: False}), below or isinstance(a, op))
        if yes is TRUE:
            parts.append(join(Or, (no, a)))
        elif no is TRUE:
            parts.append(join(Or, (yes, Not(a))))
        else:
            parts.append(join(Or, (join(And, (a, yes)), join(And, (Not(a), no)))))
    return join(And, parts)


class AgentBlock(namedtuple("AgentBlock", "agent pos_l neg_l pos_n neg_n", defaults=((), (), (), ()))):
    """One agent's conjunct group inside a normal-form disjunct, and the
    one place that knows its layout.

    pos_l/pos_n are tuples of the arguments of the positive L/N
    conjuncts and neg_l/neg_n of the negated ones, each in the order they
    came, () when there are none, all objective for this agent.  A side
    keeps its arguments as they came (the search's group record keeps
    their conjuncts).  ``add`` returns the group with one more literal,
    so the stream's stacks share their blocks.
    """

    __slots__ = ()

    def add(self, leaf: Formula, positive: bool) -> AgentBlock | None:
        """The group with one more literal, leaf (a simplified L or N of
        this agent) or its negation, its argument appended to its side as
        it came (L a & L b is L (a & b)).  None when the group is
        contradictory: M_i false implies every M_i x, so a positive side
        whose join is false contradicts a negated literal of its modality."""
        agent, pos_l, neg_l, pos_n, neg_n = self
        arg = leaf.sub
        # A block on the stream's stacks is never contradictory, so only a
        # positive argument, or a side's first negated literal, needs the join.
        if isinstance(leaf, N):
            if positive:
                pos_n += (arg,)
                side = neg_n and pos_n
            else:
                side = not neg_n and pos_n
                neg_n += (arg,)
        elif positive:
            pos_l += (arg,)
            side = neg_l and pos_l
        else:
            side = not neg_l and pos_l
            neg_l += (arg,)
        if side and join(And, side) is FALSE:
            return None
        return _tuple(AgentBlock, (agent, pos_l, neg_l, pos_n, neg_n))

    def to_formula(self) -> Formula:
        """The group's conjunction, each positive side joined left to right."""
        parts: list[Formula] = []
        if self.pos_l:
            parts.append(L(self.agent, join(And, self.pos_l)))
        parts.extend(Not(L(self.agent, g)) for g in self.neg_l)
        if self.pos_n:
            parts.append(N(self.agent, join(And, self.pos_n)))
        parts.extend(Not(N(self.agent, g)) for g in self.neg_n)
        return conj(parts)


class NormalFormDisjunct(namedtuple("NormalFormDisjunct", "sigma blocks")):
    """One disjunct of the normal form: its propositional part sigma and
    a tuple of blocks, one group per agent, in agent order."""

    __slots__ = ()

    def to_formula(self) -> Formula:
        parts: list[Formula] = []
        if self.sigma is not TRUE:
            parts.append(self.sigma)
        for b in self.blocks:
            g = b.to_formula()
            if g is not TRUE:
                parts.append(g)
        return conj(parts)


# The pending conjuncts: a cell [the next one, whether it is negated,
# its leaves once needed, the agenda after it].  Choice points share
# cells, so a cell's leaves are collected once and live as long as the
# cell.
_Agenda = list | None


def to_normal_form(f: Formula) -> Iterator[NormalFormDisjunct]:
    """Stream the normal-form disjuncts of a V-free formula.

    Disjuncts appear in left-to-right distribution order of the
    simplified Boolean skeleton read by polarity (the order of its
    negation normal form); contradictory conjuncts are dropped.  One
    depth-first loop walks the skeleton of ``normalize(f)`` as written,
    over (node, negated) pairs as ``decision.to_clauses`` does: ~ flips the
    polarity, a conjunction under its polarity (x & y, ~(x | y) or
    ~(x -> y)) puts its right operand on the agenda of pending
    conjuncts, a disjunction leaves a choice point for it, and a literal
    goes on the trail.  x <-> y is (x -> y) & (y -> x), negated
    ~(x -> y) | ~(x | ~y); x -> ~x is ~x and ~x -> x is x, so neither
    leaves a choice point.  A pending conjunct is cofactored by the
    literals chosen so far when it is taken up, so one that an earlier
    literal satisfies never splits the stream (absorption), and one it
    falsifies prunes the branch.  A conjunct none of whose leaves is on
    the trail is taken up as it is, without a rebuild.
    The disjunct so far is kept on stacks, as a SAT solver keeps its
    trail: one of sigmas, and one of groups per agent met, in agent
    order.  An atom literal pushes sigma with it, a modal literal its
    agent's group with it, and the trail records which stack each
    literal pushed onto, so a backtrack pops them.  A disjunct is sigma
    and the top of each non-empty group stack.  A literal that would
    make a group contradictory (M_i false beside a negated M_i literal)
    pushes nothing and prunes the branch.  The full disjunction is never
    materialized: only the trail, the stacks, the choice points with
    their agendas and the yielded disjunct are alive.
    """
    g: Formula = normalize(f)
    neg = False
    agenda: _Agenda = None
    choices: list[tuple[Formula, bool, _Agenda, int]] = []
    literals: dict[Formula, bool] = {}  # the trail, in order
    sigmas: list[Formula] = [TRUE]  # sigmas[-1]: the conjunction of the atom literals on the trail
    stacks: dict[int, list[AgentBlock]] = {}  # agent -> its group after each of its literals on the trail
    ordered: list[list[AgentBlock]] = []  # the stacks in agent order
    pushed: list[list] = []  # pushed[k]: the stack the trail's k-th literal pushed onto
    while True:
        kind = type(g)
        if kind is And or kind is Or:
            if (kind is And) != neg:
                agenda = [g.right, neg, None, agenda]
            else:
                choices.append((g.right, neg, agenda, len(pushed)))
            g = g.left
            continue
        if kind is Not:
            g, neg = g.sub, not neg
            continue
        if kind is Atom or kind is L or kind is N:
            # Never on the trail yet: a pending conjunct is cofactored by the
            # trail, and a choice point's branch comes back with the trail cut.
            if kind is Atom:
                consistent = True
                literals[g] = not neg
                sigmas.append(connect(And, sigmas[-1], Not(g) if neg else g))
                pushed.append(sigmas)
            else:
                stack = stacks.get(g.agent)
                if stack is None:
                    stack = stacks[g.agent] = []
                    ordered = [stacks[a] for a in sorted(stacks)]
                block = (stack[-1] if stack else AgentBlock(g.agent)).add(g, not neg)
                consistent = block is not None
                if consistent:
                    literals[g] = not neg
                    stack.append(block)
                    pushed.append(stack)
        elif kind is Implies:
            x, y = g.left, g.right
            if type(y) is Not and y.sub is x or type(x) is Not and x.sub is y:
                g = y  # x -> ~x is ~x, and ~x -> x is x
                continue
            if neg:
                agenda = [y, neg, None, agenda]
            else:
                choices.append((y, neg, agenda, len(pushed)))
            g, neg = x, not neg
            continue
        elif kind is Iff:
            x, y = g.left, g.right
            if neg:
                choices.append((Or(x, Not(y)), neg, agenda, len(pushed)))
            else:
                agenda = [Implies(y, x), neg, None, agenda]
            g = Implies(x, y)
            continue
        else:  # true or false
            consistent = (g is TRUE) != neg
        if consistent:
            if agenda is not None:
                head, neg, touched, rest = agenda
                if touched is None:
                    touched = agenda[2] = frozenset(leaves(head))
                # assign returns head itself when it decides none of its leaves.
                g = head if literals.keys().isdisjoint(touched) else assign(head, literals)
                agenda = rest
                continue
            yield _tuple(NormalFormDisjunct, (sigmas[-1], tuple(map(_top, filter(None, ordered)))))
        if not choices:
            return
        g, neg, agenda, depth = choices.pop()
        for stack in pushed[depth:]:
            stack.pop()
            literals.popitem()
        del pushed[depth:]


def reassemble(disjuncts: Iterator[NormalFormDisjunct] | list[NormalFormDisjunct]) -> Formula:
    """Fold a disjunct stream back into a single formula."""
    return disj(d.to_formula() for d in disjuncts)
