"""Syntax of the multi-agent only-knowing language.

Formulas are immutable trees over lowercase atoms, the Boolean
connectives, per-agent belief modalities ``L<i>`` ("believes at least")
and ``N<i>`` ("believes at most the negation of"), and a validity
operator ``V`` whose dual ``C`` reads "is satisfiable".  ``O<i> x``
("only knows x") is accepted by the parser as shorthand for
``L<i> x & N<i> ~x`` and folded back by the printer; it is never a node
of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class FormulaError(ValueError):
    """Malformed input or a violated operation contract."""


class ParseError(FormulaError):
    """Concrete-syntax error; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValPresentError(FormulaError):
    """An operation that requires a V-free formula met a V."""


class NotBasicError(FormulaError):
    """An operation restricted to basic formulas (no N, no V) met one."""


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True, slots=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class L(Formula):
    agent: int
    sub: Formula


@dataclass(frozen=True, slots=True)
class N(Formula):
    agent: int
    sub: Formula


@dataclass(frozen=True, slots=True)
class Val(Formula):
    sub: Formula


TRUE = TrueConst()
FALSE = FalseConst()

BINARY = (And, Or, Implies, Iff)
MODAL = (L, N)


def only_knows(agent: int, f: Formula) -> Formula:
    """O<agent> f, expanded to its definition L f & N ~f."""
    return And(L(agent, f), N(agent, Not(f)))


def con(f: Formula) -> Formula:
    """C f ("f is satisfiable"), expanded to ~V ~f."""
    return Not(Val(Not(f)))


def conj(parts: Iterable[Formula]) -> Formula:
    """Left fold of & over parts; true when empty."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left fold of | over parts; false when empty."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, (Not, Val)):
        return (f.sub,)
    if isinstance(f, MODAL):
        return (f.sub,)
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    """Preorder traversal of all subformula occurrences."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in walk(f) if isinstance(g, Atom))


def agents(f: Formula) -> frozenset[int]:
    return frozenset(g.agent for g in walk(f) if isinstance(g, MODAL))


def max_agent(f: Formula) -> int:
    return max(agents(f), default=0)


def is_propositional(f: Formula) -> bool:
    return not any(isinstance(g, (L, N, Val)) for g in walk(f))


def is_basic(f: Formula) -> bool:
    """No N and no V anywhere (L is fine)."""
    return not any(isinstance(g, (N, Val)) for g in walk(f))


def is_i_objective(f: Formula, i: int) -> bool:
    """Boolean combination of atoms and other-agent modal formulas."""
    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return True
    if isinstance(f, MODAL):
        return f.agent != i
    if isinstance(f, Val):
        return False
    if isinstance(f, Not):
        return is_i_objective(f.sub, i)
    if isinstance(f, BINARY):
        return is_i_objective(f.left, i) and is_i_objective(f.right, i)
    raise FormulaError(f"unknown node {f!r}")


def is_i_subjective(f: Formula, i: int) -> bool:
    """Boolean combination of the agent's own L/N formulas.

    The Boolean constants are degenerate combinations, so they are both
    objective and subjective for every agent.
    """
    if isinstance(f, (TrueConst, FalseConst)):
        return True
    if isinstance(f, Atom):
        return False
    if isinstance(f, MODAL):
        return f.agent == i
    if isinstance(f, Val):
        return False
    if isinstance(f, Not):
        return is_i_subjective(f.sub, i)
    if isinstance(f, BINARY):
        return is_i_subjective(f.left, i) and is_i_subjective(f.right, i)
    raise FormulaError(f"unknown node {f!r}")


def in_onl_minus(f: Formula) -> bool:
    """No V, and no N<j> inside the scope of an L<i>/N<i> with i != j."""

    def go(g: Formula, allowed: frozenset[int] | None) -> bool:
        if isinstance(g, Val):
            return False
        if isinstance(g, N):
            if allowed is not None and g.agent not in allowed:
                return False
            return go(g.sub, _narrow(allowed, g.agent))
        if isinstance(g, L):
            return go(g.sub, _narrow(allowed, g.agent))
        return all(go(c, allowed) for c in children(g))

    return go(f, None)


def _narrow(allowed: frozenset[int] | None, agent: int) -> frozenset[int]:
    return frozenset({agent}) if allowed is None else allowed & {agent}


def modal_depth(f: Formula) -> int:
    """Nesting depth of L/N, with N ranked like L.  V-free input only."""
    if isinstance(f, Val):
        raise ValPresentError("modal depth is defined for V-free formulas only")
    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return 0
    if isinstance(f, MODAL):
        return 1 + modal_depth(f.sub)
    return max(modal_depth(c) for c in children(f))


@dataclass(frozen=True)
class FormulaClass:
    propositional: bool
    basic: bool
    i_objective: bool
    i_subjective: bool
    in_onl_minus: bool
    modal_depth: int | None


def classify(f: Formula, i: int) -> FormulaClass:
    """All syntactic classifications of f relative to agent i."""
    has_val = any(isinstance(g, Val) for g in walk(f))
    return FormulaClass(
        propositional=is_propositional(f),
        basic=is_basic(f),
        i_objective=is_i_objective(f, i),
        i_subjective=is_i_subjective(f, i),
        in_onl_minus=in_onl_minus(f),
        modal_depth=None if has_val else modal_depth(f),
    )


def substitute_atom(f: Formula, name: str, value: Formula) -> Formula:
    """Replace every occurrence of the named atom, including under modalities."""
    if isinstance(f, Atom):
        return value if f.name == name else f
    if isinstance(f, (TrueConst, FalseConst)):
        return f
    if isinstance(f, Not):
        return Not(substitute_atom(f.sub, name, value))
    if isinstance(f, Val):
        return Val(substitute_atom(f.sub, name, value))
    if isinstance(f, MODAL):
        return type(f)(f.agent, substitute_atom(f.sub, name, value))
    return type(f)(
        substitute_atom(f.left, name, value), substitute_atom(f.right, name, value)
    )


def assign(f: Formula, env: Mapping[Formula, bool]) -> Formula:
    """Replace the Boolean-level leaves that env decides by constants.

    Only Not and the binary connectives are entered; a leaf (an atom, or
    a modal or V formula) is looked up whole, so occurrences nested
    inside it stay put.  A subtree with nothing to replace comes back as
    the same object.
    """
    if isinstance(f, Not):
        sub = assign(f.sub, env)
        if sub is f.sub:
            return f
        return FALSE if sub is TRUE else TRUE if sub is FALSE else Not(sub)
    if isinstance(f, BINARY):
        left, right = assign(f.left, env), assign(f.right, env)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    hit = env.get(f)
    if hit is None:
        return f
    return TRUE if hit else FALSE


def build_independent(i: int, n_agents: int, depth_bound: int, atom: str | Atom) -> Formula:
    """A basic i-objective formula of depth 2(depth_bound+1):
    (L<j> L<i>)^(depth_bound+1) applied to the atom, for the smallest
    j != i.  Requires at least two agents.

    The result is independent (neither entailed nor refuted) of any
    basic i-objective formula of modal depth <= depth_bound, provided
    that formula leaves the alternating j,i,j,... belief chain
    realizable with nonempty sets: a formula forcing, say, L<j> false
    entails every L<j> statement outright, this one included.
    """
    if n_agents < 2:
        raise FormulaError("independence construction needs at least two agents")
    if not 1 <= i <= n_agents:
        raise FormulaError(f"agent index {i} out of range 1..{n_agents}")
    j = 1 if i != 1 else 2
    f: Formula = Atom(atom) if isinstance(atom, str) else atom
    for _ in range(depth_bound + 1):
        f = L(j, L(i, f))
    return f


# --- concrete syntax ---------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<imp>->)"
    r"|(?P<conj>&)"
    r"|(?P<disj>\|)"
    r"|(?P<neg>~)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<modal>[LNO][0-9]+)"
    r"|(?P<val>V)"
    r"|(?P<con>C)"
    r"|(?P<ident>[a-z][a-z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], n_agents: int | None):
        self.tokens = tokens
        self.pos = 0
        self.n_agents = n_agents

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        out = self.implication()
        while self.peek()[0] == "iff":
            self.take()
            out = Iff(out, self.implication())
        return out

    def implication(self) -> Formula:
        out = self.disjunction()
        if self.peek()[0] == "imp":
            self.take()
            return Implies(out, self.implication())
        return out

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "disj":
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "conj":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, text, pos = self.take()
        if kind == "neg":
            return Not(self.unary())
        if kind == "modal":
            agent = int(text[1:])
            if agent < 1 or (self.n_agents is not None and agent > self.n_agents):
                raise ParseError(f"agent index {agent} out of range", pos)
            sub = self.unary()
            if text[0] == "L":
                return L(agent, sub)
            if text[0] == "N":
                return N(agent, sub)
            return only_knows(agent, sub)
        if kind == "val":
            return Val(self.unary())
        if kind == "con":
            return con(self.unary())
        if kind == "lpar":
            out = self.formula()
            kind, _, pos = self.take()
            if kind != "rpar":
                raise ParseError("expected ')'", pos)
            return out
        if kind == "ident":
            if text == "true":
                return TRUE
            if text == "false":
                return FALSE
            return Atom(text)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str, n_agents: int | None = None) -> Formula:
    """Parse concrete syntax.  When n_agents is given, agent indices are
    checked against it; otherwise any index >= 1 is accepted.
    """
    parser = _Parser(_tokenize(text), n_agents)
    out = parser.formula()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos)
    return out


# Binding strength: iff=1 < imp=2 < or=3 < and=4 < unary=5 < leaf=6.
def _match_only_knows(f: Formula) -> tuple[int, Formula] | None:
    if (
        isinstance(f, And)
        and isinstance(f.left, L)
        and isinstance(f.right, N)
        and f.left.agent == f.right.agent
        and f.right.sub == Not(f.left.sub)
    ):
        return f.left.agent, f.left.sub
    return None


def to_text(f: Formula) -> str:
    """Minimally parenthesized concrete syntax; parse(to_text(f)) == f."""
    return _render(f, 1)


def _render(f: Formula, need: int) -> str:
    folded = _match_only_knows(f)
    if folded is not None:
        agent, sub = folded
        return _wrap(f"O{agent} {_render(sub, 5)}", 5, need)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Not):
        return _wrap(f"~{_render(f.sub, 5)}", 5, need)
    if isinstance(f, L):
        return _wrap(f"L{f.agent} {_render(f.sub, 5)}", 5, need)
    if isinstance(f, N):
        return _wrap(f"N{f.agent} {_render(f.sub, 5)}", 5, need)
    if isinstance(f, Val):
        return _wrap(f"V {_render(f.sub, 5)}", 5, need)
    if isinstance(f, And):
        return _wrap(f"{_render(f.left, 4)} & {_render(f.right, 5)}", 4, need)
    if isinstance(f, Or):
        return _wrap(f"{_render(f.left, 3)} | {_render(f.right, 4)}", 3, need)
    if isinstance(f, Implies):
        return _wrap(f"{_render(f.left, 3)} -> {_render(f.right, 2)}", 2, need)
    if isinstance(f, Iff):
        return _wrap(f"{_render(f.left, 1)} <-> {_render(f.right, 2)}", 1, need)
    raise FormulaError(f"unknown node {f!r}")


def _wrap(text: str, level: int, need: int) -> str:
    return f"({text})" if level < need else text
