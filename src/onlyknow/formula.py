"""Syntax of the multi-agent only-knowing language.

Formulas are immutable trees over lowercase atoms, the Boolean
connectives, per-agent belief modalities ``L<i>`` ("believes at least")
and ``N<i>`` ("believes at most the negation of"), and a validity
operator ``V`` whose dual ``C`` reads "is satisfiable".  ``O<i> x``
("only knows x") is accepted by the parser as shorthand for
``L<i> x & N<i> ~x`` and folded back by the printer; it is never a node
of its own.

Nodes are hash-consed (Filliâtre & Conchon, Type-safe modular
hash-consing, ML Workshop 2006): each constructor looks its class and
fields up in one module-level table and returns the live node it finds,
so structurally equal formulas are one object, equality is identity,
and hashing takes constant time however deep the formula is.  The table
holds its nodes weakly, so an entry lasts only as long as some caller
keeps its node, and memory stays bounded per query.  Threads may build
and drop nodes concurrently: they agree on one node per key.

``transform`` is the one rewrite walk: bottom up on an explicit stack,
each distinct node once per call, so depth costs no stack and a shared
subformula is rewritten once.  ``fold`` and ``join`` fold constants,
so a rewrite folds each node as it builds it.  ``parse`` reads its tokens
in one loop over an operand and an operator stack, and ``to_text`` and
``repr`` print from a stack, so no part of the syntax recurses either.

This module holds what a decide runs.  The paper's syntactic classes
(``classify`` and its parts), ``nodes``, ``atoms``, ``substitute_atom``,
``assign`` and ``build_independent`` are in ``fragments``, which loads
on first use; they still resolve as attributes of this module.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Callable, Iterable, Iterator

TYPE_CHECKING = False  # typing costs milliseconds to import, and only annotations need NoReturn
if TYPE_CHECKING:
    from typing import NoReturn


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
    """A formula node.  Nodes are interned: a constructor returns the one
    live node of its class with the same fields, so two structurally
    equal formulas are the same object, and equality and hashing are
    those of ``object``.  Nodes are immutable: copying one returns the
    node itself, at any depth, and unpickling gives back the interned
    node.  ``__match_args__`` names the fields in constructor order.

    Each shape of fields has its own ``__new__``: look the key up, and on
    a miss build the node, set ``plain`` and ``_intern`` it.  A
    field-less class (the constants) uses this one.

    ``plain`` says that the node is V-free and simplified, so that
    ``simplify`` and V elimination return it as it is: it holds no V,
    ``fold`` leaves it as it is, and its children are plain.  It is
    worked out inline from the children's flags, at no cost to a lookup
    that hits; a field that is no formula makes the node not plain.
    ``connect`` has made fold's checks already, so a node it builds is
    plain when both operands are, and it passes that flag to ``__new__``."""

    __slots__ = ("__weakref__", "plain")
    __match_args__: tuple[str, ...] = ()
    plain: bool

    def __new__(cls) -> Formula:
        key = (cls,)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_plain(node, True)
        return _intern(key, node)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable formula")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable formula")

    def __reduce__(self) -> tuple[Callable[..., Formula], tuple[str]]:
        # Pickled as its text, which prints and parses at any depth.
        return parse, (to_text(self),)

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo: dict[int, object]) -> Formula:
        return self

    def __repr__(self) -> str:
        """Constructor syntax, ``Not(sub=Atom(name='p'))``.  Iterative,
        like ``to_text``: what follows a node's opening text waits on a
        stack of text and nodes, so depth costs no stack."""
        out: list[str] = []
        stack: list[str | Formula] = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            out.append(f"{type(item).__name__}(")
            stack.append(")")
            names = item.__match_args__
            for k in range(len(names) - 1, -1, -1):
                value = getattr(item, names[k])
                stack.append(value if isinstance(value, Formula) else repr(value))
                stack.append(f", {names[k]}=" if k else f"{names[k]}=")
        return "".join(out)

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


class _Ref(weakref.ref):
    """The intern table's reference to a node, holding the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> a weak reference to the live node with them.  An
# entry goes when its node dies, so the table holds only live formulas.
_table: dict[tuple[object, ...], _Ref] = {}


def _intern(key: tuple[object, ...], node: Formula) -> Formula:
    """Store the new node under key, or return the node another thread
    stored there first."""
    ref = _Ref(node, _drop)
    ref.key = key
    while True:
        held = _table.setdefault(key, ref)
        if held is ref:
            return node
        winner = held()
        if winner is not None:
            return winner
        # The entry of a node that died with its callback not yet run.
        _remove_dead_weakref(_table, key)


def _drop(
    ref: _Ref, table: dict[tuple[object, ...], _Ref] = _table, remove: Callable[..., None] = _remove_dead_weakref
) -> None:
    # Removes the entry only while it holds a dead reference, so a late
    # callback never removes the entry of a newer node with the same key.
    # Bound as defaults, so it still works while the interpreter clears
    # module globals at exit.
    remove(table, ref.key)


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Formula:
        key = (cls, name)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_name(node, name)
        _set_plain(node, True)
        return _intern(key, node)


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)
    sub: Formula

    def __new__(cls, sub: Formula) -> Formula:
        key = (cls, sub)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_sub(node, sub)
        try:  # a V is never plain, and fold keeps a Not unless it is over a constant or a Not
            plain = cls is Not and sub.plain and sub not in _CONSTANTS and sub.__class__ is not Not
        except AttributeError:
            plain = False
        _set_plain(node, plain)
        return _intern(key, node)


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula, plain: bool | None = None) -> Formula:
        """plain, when given, is a new node's flag, from a caller that
        has made fold's checks (connect)."""
        key = (cls, left, right)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        if plain is None:
            try:  # fold keeps a connective over two distinct non-constants, -> also over complements
                plain = (
                    left.plain
                    and right.plain
                    and left is not right
                    and left not in _CONSTANTS
                    and right not in _CONSTANTS
                )
                if plain and cls is not Implies:
                    plain = not (
                        left.__class__ is Not and left.sub is right or right.__class__ is Not and right.sub is left
                    )
            except AttributeError:
                plain = False
        _set_plain(node, plain)
        return _intern(key, node)


class _Modal(Formula):
    __slots__ = ("agent", "sub")
    __match_args__ = ("agent", "sub")
    agent: int
    sub: Formula

    def __new__(cls, agent: int, sub: Formula) -> Formula:
        key = (cls, agent, sub)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_agent(node, agent)
        _set_modal_sub(node, sub)
        try:  # fold keeps L_i and N_i of anything but true
            plain = sub.plain and sub is not TRUE
        except AttributeError:
            plain = False
        _set_plain(node, plain)
        return _intern(key, node)


# The fields are set once, through their slots, since __setattr__ refuses.
_new = object.__new__
_binary = _Binary.__new__
_set_plain = Formula.__dict__["plain"].__set__
_set_name = Atom.__dict__["name"].__set__
_set_sub = _Unary.__dict__["sub"].__set__
_set_left = _Binary.__dict__["left"].__set__
_set_right = _Binary.__dict__["right"].__set__
_set_agent = _Modal.__dict__["agent"].__set__
_set_modal_sub = _Modal.__dict__["sub"].__set__


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class L(_Modal):
    __slots__ = ()


class N(_Modal):
    __slots__ = ()


class Val(_Unary):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()
_CONSTANTS = (TRUE, FALSE)

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


# How the walks enter a node of each class: 2 by its left and right
# operands, 1 by its sub, 3 by its sub under its agent, 0 not at all.
_SHAPE = {And: 2, Or: 2, Implies: 2, Iff: 2, Not: 1, Val: 1, L: 3, N: 3, Atom: 0, TrueConst: 0, FalseConst: 0}
_BOOLEAN_SHAPE = {**_SHAPE, Val: 0, L: 0, N: 0}


def children(f: Formula) -> tuple[Formula, ...]:
    shape = _SHAPE.get(type(f))
    return (f.left, f.right) if shape == 2 else (f.sub,) if shape else ()


def transform(f: Formula, step: Callable[[Formula, Formula], Formula], boolean: bool = False) -> Formula:
    """Rewrite f bottom up: step(g, h) is called once per distinct node g,
    children first, left to right, where h is g over its children's
    results (g itself when none changed).  The walk keeps an explicit
    stack and a memo for the call, so depth costs no stack.  boolean:
    enter only Not and the binary connectives; L, N and V come whole."""
    shapes = _BOOLEAN_SHAPE if boolean else _SHAPE
    done: dict[Formula, Formula] = {}
    stack = [f]  # a path down from f, so no node is on it twice
    while stack:
        g = stack[-1]
        shape = shapes.get(type(g))
        if shape == 2:
            a, b = g.left, g.right
            x = done.get(a)
            if x is None:
                if shapes.get(type(a)) != 0:
                    stack.append(a)
                    continue
                x = done[a] = step(a, a)  # a leaf, at once
            y = done.get(b)
            if y is None:
                if shapes.get(type(b)) != 0:
                    stack.append(b)
                    continue
                y = done[b] = step(b, b)
            h = g if x is a and y is b else type(g)(x, y)
        elif shape:
            a = g.sub
            x = done.get(a)
            if x is None:
                if shapes.get(type(a)) != 0:
                    stack.append(a)
                    continue
                x = done[a] = step(a, a)
            h = g if x is a else type(g)(x) if shape == 1 else type(g)(g.agent, x)
        elif shape is None:
            raise FormulaError(f"unknown node {g!r}")
        else:
            h = g
        stack.pop()
        done[g] = step(g, h)
    return done[f]


def simplify(f: Formula) -> Formula:
    """Constant folding, double negation, idempotence and complements.

    Also folds L/N/V of true to true (necessitation); L of false is kept,
    it is satisfiable but not valid.  The rewrites fold each node as
    they build it, so their output needs no second pass.  A plain
    formula is its own simplification, and comes back at once.
    """
    if f.plain:
        return f
    return transform(f, lambda g, h: fold(h))


def fold(g: Formula) -> Formula:
    """One folding step on a node whose children are simplified; the
    result is simplified."""
    kind = type(g)
    if kind is And or kind is Or:  # the common case, tested first
        a, b = g.left, g.right
        unit, zero = (TRUE, FALSE) if kind is And else (FALSE, TRUE)
        if a is zero or b is zero:
            return zero
        if a is unit:
            return b
        if b is unit:
            return a
        if a is b:
            return a
        if type(a) is Not and a.sub is b or type(b) is Not and b.sub is a:
            return zero
        return g
    if kind is Atom or kind is TrueConst or kind is FalseConst:  # interned, so a constant is TRUE or FALSE
        return g
    if kind is Not:
        a = g.sub
        if a is TRUE:
            return FALSE
        if a is FALSE:
            return TRUE
        return a.sub if type(a) is Not else g
    if kind is L or kind is N:
        return TRUE if g.sub is TRUE else g
    if kind is Val:
        return g.sub if g.sub is TRUE or g.sub is FALSE else g
    a, b = g.left, g.right
    if kind is Implies:
        if a is FALSE or b is TRUE:
            return TRUE
        if a is TRUE:
            return b
        if b is FALSE:
            return fold(Not(a))
        return TRUE if a is b else g
    # Iff
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return fold(Not(b))
    if b is FALSE:
        return fold(Not(a))
    if a is b:
        return TRUE
    if type(a) is Not and a.sub is b or type(b) is Not and b.sub is a:
        return FALSE
    return g


def connect(op: type, a: Formula, b: Formula) -> Formula:
    """fold(op(a, b)) for op And or Or and simplified a and b, without
    building the node when it folds away.  A node it builds passes fold's
    checks, so it is plain when a and b are."""
    unit, zero = (TRUE, FALSE) if op is And else (FALSE, TRUE)
    if a is zero or b is zero:
        return zero
    if a is unit:
        return b
    if b is unit or a is b:
        return a
    if type(a) is Not and a.sub is b or type(b) is Not and b.sub is a:
        return zero
    return _binary(op, a, b, a.plain and b.plain)


def join(op: type, parts: Iterable[Formula]) -> Formula:
    """Left fold of op (And or Or) over simplified parts, each node folded
    as it is built: simplify(conj(parts)) or simplify(disj(parts))."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else connect(op, out, p)
    if out is None:
        return TRUE if op is And else FALSE
    return out


def leaves(f: Formula) -> Iterator[Formula]:
    """The Boolean-level leaves, left to right: atoms, constants, and
    L/N/V formulas taken whole.  Iterative, so width costs no stack, and
    each binary node is entered once per call, so a shared subformula
    is walked once; a leaf under two parents may still come twice."""
    stack = [f]
    seen: set[Formula] = set()
    while stack:
        g = stack.pop()
        shape = _BOOLEAN_SHAPE.get(type(g))
        if shape == 2:
            if g in seen:
                continue
            seen.add(g)
            stack += (g.right, g.left)
        elif shape:
            stack.append(g.sub)
        elif shape is None:
            raise FormulaError(f"unknown node {g!r}")
        else:
            yield g


def own_modal_leaves(f: Formula, agent: int) -> Iterator[Formula]:
    """The agent's own L/N formulas among the Boolean-level leaves of f,
    left to right."""
    return (g for g in leaves(f) if isinstance(g, MODAL) and g.agent == agent)


def conjuncts(f: Formula) -> list[Formula]:
    """The top-level conjuncts of f, left to right."""
    if type(f) is not And:
        return [f]
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        while type(g) is And:  # down the left spine
            stack.append(g.right)
            g = g.left
        out.append(g)
    return out


# The whole-formula questions and rewrites that no decide asks for live
# in fragments, which loads on first use; these names still resolve here
# (PEP 562), so imports from formula keep working.
_FRAGMENTS = frozenset({
    "walk", "nodes", "atoms", "agents",
    "is_propositional", "is_basic", "is_i_objective", "is_i_subjective", "in_onl_minus", "modal_depth",
    "FormulaClass", "classify", "substitute_atom", "assign", "build_independent",
})


def __getattr__(name: str) -> object:
    if name not in _FRAGMENTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fragments

    return getattr(fragments, name)


# --- concrete syntax ---------------------------------------------------

# A token after optional white space: an operator, an identifier, a
# modality with its agent, or any other single character.
_TOKEN = re.compile(r"\s*(<->|->|[a-z][a-z0-9_]*|[LNO][0-9]+|\S)")
# The parser's operator stack holds (binding strength, constructor, agent
# or None) for "(", a prefix operator or a modality, and a binary operator.
# A binary operator first reduces the entries above its bound, so -> groups
# to the right and the others to the left.
_PREFIX = {"(": (0, None, None), "~": (5, Not, None), "V": (5, Val, None), "C": (5, con, None)}
_MODAL = {"L": L, "N": N, "O": only_knows}
_BINARY = {"<->": ((1, Iff, None), 0), "->": ((2, Implies, None), 2), "|": ((3, Or, None), 2), "&": ((4, And, None), 3)}


def parse(text: str, n_agents: int | None = None) -> Formula:
    """Parse concrete syntax.  When n_agents is given, agent indices are
    checked against it; otherwise any index >= 1 is accepted.  One loop
    reads the tokens onto an operand and an operator stack, so nesting
    costs no stack."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of input
    args: list[Formula] = []  # the left operands of the pending binary operators
    ops: list[tuple[int, Callable[..., Formula] | None, int | None]] = []
    k = 0
    while True:
        tok = tokens[k]
        k += 1
        if "a" <= tok[:1] <= "z":
            x = TRUE if tok == "true" else FALSE if tok == "false" else Atom(tok)
        elif tok in _PREFIX:
            ops.append(_PREFIX[tok])
            continue
        elif tok[1:].isdigit() and tok[0] in _MODAL:
            agent = int(tok[1:])
            if agent < 1 or (n_agents is not None and agent > n_agents):
                _fail(text, tokens, k - 1, f"agent index {agent} out of range")
            ops.append((5, _MODAL[tok[0]], agent))
            continue
        else:
            _fail(text, tokens, k - 1, f"unexpected token {tok!r}" if tok else "unexpected end of input")
        # After an operand: reduce, then go on after a binary operator or ")".
        while True:
            tok = tokens[k]
            k += 1
            entry, bound = _BINARY.get(tok, (None, 0))
            while ops and ops[-1][0] > bound:
                strength, make, agent = ops.pop()
                x = make(args.pop(), x) if strength < 5 else make(x) if agent is None else make(agent, x)
            if entry:
                args.append(x)
                ops.append(entry)
                break
            if ops and tok == ")":
                ops.pop()
            elif ops or tok:
                _fail(text, tokens, k - 1, "expected ')'" if ops else f"trailing input {tok!r}")
            else:
                return x


def _fail(text: str, tokens: list[str], k: int, message: str) -> NoReturn:
    """Raise the error at token k, or the first character no token
    starts with, which is reported first."""
    at = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
    for j, tok in enumerate(tokens):
        if len(tok) == 1 and not ("a" <= tok <= "z" or tok in _PREFIX or tok in _BINARY or tok == ")"):
            raise ParseError(f"unexpected character {tok!r}", at[j])
    raise ParseError(message, at[k])


# Binding strength: iff=1 < imp=2 < or=3 < and=4 < unary=5 < leaf=6.
def _match_only_knows(f: Formula) -> tuple[int, Formula] | None:
    if (
        isinstance(f, And)
        and isinstance(f.left, L)
        and isinstance(f.right, N)
        and f.left.agent == f.right.agent
        and isinstance(f.right.sub, Not)
        and f.right.sub.sub is f.left.sub
    ):
        return f.left.agent, f.left.sub
    return None


# (separator, binding strength, needed by the left operand, by the right)
_INFIX = {And: (" & ", 4, 4, 5), Or: (" | ", 3, 3, 4), Implies: (" -> ", 2, 3, 2), Iff: (" <-> ", 1, 1, 2)}


def to_text(f: Formula) -> str:
    """Minimally parenthesized concrete syntax; parse(to_text(f)) is f.
    Iterative, so depth costs no stack: text is written left to right,
    and what comes after a node's first piece waits on a stack of text
    and (node, binding strength its place needs) pairs.  Unary
    operators bind at 5, and leaves never take parentheses."""
    out: list[str] = []
    stack: list[str | tuple[Formula, int]] = [(f, 1)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, need = item
        kind = type(g)
        if kind is Atom or kind is TrueConst or kind is FalseConst:
            out.append(g.name if kind is Atom else "true" if kind is TrueConst else "false")
            continue
        folded = _match_only_knows(g) if kind is And else None
        infix = None if folded else _INFIX.get(kind)
        if (infix[1] if infix else 5) < need:
            out.append("(")
            stack.append(")")
        if infix:
            op, _, left, right = infix
            stack += ((g.right, right), op, (g.left, left))
        elif folded:
            out.append(f"O{folded[0]} ")
            stack.append((folded[1], 5))
        elif kind in (Not, Val, L, N):
            out.append("~" if kind is Not else "V " if kind is Val else f"{kind.__name__}{g.agent} ")
            stack.append((g.sub, 5))
        else:
            raise FormulaError(f"unknown node {g!r}")
    return "".join(out)
