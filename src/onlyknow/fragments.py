"""The paper's syntactic fragments, and the rewrites that no decide asks for.

The paper states its results over fragments of the language: the
propositional and the basic formulas (no N, no V), the i-objective and
the i-subjective ones, ONL⁻ (no N<j> inside the scope of another
agent's modality) and bounded modal depth; ``classify`` answers all of
these at once.  ``build_independent`` is the construction behind its
independence result.  ``substitute_atom`` and ``assign`` rewrite a
formula; the normal-form stream and the K45 prover use ``assign``, the
oracles and the corpus the rest.

None of this is on the path of a decide, so it lives apart from
``formula`` and loads on first use; ``formula`` still hands out each
of these names (PEP 562), so ``from onlyknow.formula import classify``
keeps working.  The whole-formula questions read ``nodes``, the
distinct nodes that ``transform`` visits, so a shared subformula is
looked at once and depth costs no stack; the i-objective and
i-subjective tests read ``leaves``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping

from .formula import (
    FALSE,
    MODAL,
    TRUE,
    Atom,
    FalseConst,
    Formula,
    FormulaError,
    L,
    N,
    TrueConst,
    Val,
    ValPresentError,
    _BOOLEAN_SHAPE,
    children,
    fold,
    leaves,
    transform,
)


def walk(f: Formula) -> Iterator[Formula]:
    """Preorder traversal of all subformula occurrences."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def nodes(f: Formula) -> list[Formula]:
    """The distinct subformulas of f, children first: transform's walk,
    with a step that keeps each node, so a shared one comes once."""
    out: list[Formula] = []
    transform(f, lambda g, h: out.append(g) or g)
    return out


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in nodes(f) if isinstance(g, Atom))


def agents(f: Formula) -> frozenset[int]:
    return frozenset(g.agent for g in nodes(f) if isinstance(g, MODAL))


def is_propositional(f: Formula) -> bool:
    return not any(isinstance(g, (L, N, Val)) for g in nodes(f))


def is_basic(f: Formula) -> bool:
    """No N and no V anywhere (L is fine)."""
    return not any(isinstance(g, (N, Val)) for g in nodes(f))


def is_i_objective(f: Formula, i: int) -> bool:
    """Boolean combination of atoms and other-agent modal formulas."""
    return all(g.agent != i if isinstance(g, MODAL) else not isinstance(g, Val) for g in leaves(f))


def is_i_subjective(f: Formula, i: int) -> bool:
    """Boolean combination of the agent's own L/N formulas.

    The Boolean constants are degenerate combinations, so they are both
    objective and subjective for every agent.
    """
    return all(
        g.agent == i if isinstance(g, MODAL) else isinstance(g, (TrueConst, FalseConst)) for g in leaves(f)
    )


def in_onl_minus(f: Formula) -> bool:
    """No V, and no N<j> inside the scope of an L<i>/N<i> with i != j.
    One pass over nodes(f) that keeps, per node, the agents of the N
    formulas at or below it."""
    below: dict[Formula, frozenset[int]] = {}
    for g in nodes(f):
        if isinstance(g, Val):
            return False
        here = frozenset().union(*(below[c] for c in children(g)))
        if isinstance(g, MODAL):
            if not here <= {g.agent}:
                return False
            if isinstance(g, N):
                here = frozenset({g.agent})
        below[g] = here
    return True


def modal_depth(f: Formula) -> int:
    """Nesting depth of L/N, with N ranked like L.  V-free input only.
    One pass over nodes(f) that keeps each node's depth."""
    depth: dict[Formula, int] = {}
    for g in nodes(f):
        if isinstance(g, Val):
            raise ValPresentError("modal depth is defined for V-free formulas only")
        depth[g] = max((depth[c] for c in children(g)), default=0) + isinstance(g, MODAL)
    return depth[f]


# The bool fields, and modal_depth, an int or None when f holds V.
FormulaClass = namedtuple("FormulaClass", "propositional basic i_objective i_subjective in_onl_minus modal_depth")


def classify(f: Formula, i: int) -> FormulaClass:
    """All syntactic classifications of f relative to agent i."""
    has_val = any(isinstance(g, Val) for g in nodes(f))
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
    return transform(f, lambda g, h: value if type(g) is Atom and g.name == name else h)


def assign(f: Formula, env: Mapping[Formula, bool]) -> Formula:
    """Replace the Boolean-level leaves that env decides by constants.

    Only Not and the binary connectives are entered; a leaf (an atom, or
    a modal or V formula) is looked up whole, so occurrences nested
    inside it stay put.  Each rebuilt node is folded, so the result is
    simplified when f is; a subtree with nothing to replace comes back
    as the same object.
    """

    def step(g: Formula, h: Formula) -> Formula:
        if _BOOLEAN_SHAPE[type(g)]:  # Not or a binary connective
            return g if h is g else fold(h)
        hit = env.get(g)
        return g if hit is None else TRUE if hit else FALSE

    return transform(f, step, boolean=True)


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

