"""K45 satisfiability for basic multi-agent formulas, with finite
witness models.  This is the independent oracle the main decision
procedure is checked against on the basic fragment.

In a K45 frame the worlds an agent entertains from anywhere form one
cluster: every member sees exactly the cluster, so the agent's L
formulas take the same value at the root and throughout the cluster.
The prover exploits that shape directly.  A world is saturated by
splitting on its Boolean leaves (atoms and L subformulas).  For each
agent whose assignment denies some L formula, the cluster's full L
valuation is guessed over the relevant own-agent L subformulas, every
denied member must then be witnessed by a cluster world (saturated
recursively with the guess frozen, so no same-agent re-expansion
happens), and every affirmed member's argument is carried into each
witness.  Agents with nothing denied keep an empty cluster; seriality
is not assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formula import (
    BINARY,
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    FormulaError,
    L,
    Not,
    NotBasicError,
    agents,
    assign,
    conj,
    is_basic,
    to_text,
)
from .normal_form import simplify
from .kripke import KripkeStructure

_MEMO: dict[tuple, "_Tree | None"] = {}


def clear_cache() -> None:
    _MEMO.clear()


@dataclass
class _Tree:
    atoms_true: frozenset[str]
    clusters: dict[int, list["_Tree"]] = field(default_factory=dict)


def _require_basic(f: Formula, n_agents: int | None) -> None:
    if not is_basic(f):
        raise NotBasicError(f"not a basic formula: {to_text(f)}")
    if n_agents is not None:
        bad = [i for i in agents(f) if i < 1 or i > n_agents]
        if bad:
            raise FormulaError(f"agent index {bad[0]} out of range 1..{n_agents}")


def sat(f: Formula, n_agents: int | None = None) -> bool:
    """K45 satisfiability of a basic formula."""
    _require_basic(f, n_agents)
    return _solve((f,), {}, None) is not None


def find_model(f: Formula, n_agents: int | None = None) -> KripkeStructure | None:
    """A finite K45 witness structure with the formula true at world w0,
    or None when unsatisfiable."""
    _require_basic(f, n_agents)
    tree = _solve((f,), {}, None)
    return None if tree is None else _to_structure(tree)


def independent(f: Formula, g: Formula) -> bool:
    """Neither g nor its negation follows from f: both conjunctions stay
    satisfiable."""
    _require_basic(f, None)
    _require_basic(g, None)
    return sat(And(f, g)) and sat(And(f, Not(g)))


# -- world saturation ------------------------------------------------------


def _first_leaf(f: Formula) -> Formula | None:
    if isinstance(f, (Atom, L)):
        return f
    if isinstance(f, Not):
        return _first_leaf(f.sub)
    if isinstance(f, BINARY):
        return _first_leaf(f.left) or _first_leaf(f.right)
    return None


def _assignments(f: Formula, preset: dict[Formula, bool]):
    """All leaf assignments satisfying f, extending the preset."""

    def go(g: Formula, env: dict[Formula, bool]):
        if g is TRUE:
            yield env
            return
        if g is FALSE:
            return
        leaf = _first_leaf(g)
        assert leaf is not None
        for value in (True, False):
            yield from go(simplify(assign(g, {leaf: value})), {**env, leaf: value})

    yield from go(simplify(assign(f, preset)), dict(preset))


def _own_closure(agent: int, content: list[Formula]) -> list[L]:
    """Own-agent L subformulas reachable without crossing another
    agent's modality; these are the ones a cluster evaluates itself."""
    seen: dict[L, None] = {}
    queue = list(content)
    while queue:
        g = queue.pop(0)
        if isinstance(g, L):
            if g.agent == agent:
                if g not in seen:
                    seen[g] = None
                    queue.append(g.sub)
            continue
        if isinstance(g, Not):
            queue.append(g.sub)
        elif isinstance(g, BINARY):
            queue.append(g.left)
            queue.append(g.right)
    return list(seen)


def _solve(
    formulas: tuple[Formula, ...],
    preset: dict[Formula, bool],
    skip_agent: int | None,
) -> _Tree | None:
    key = (
        frozenset(formulas),
        tuple(sorted(preset.items(), key=lambda kv: (to_text(kv[0]), kv[1]))),
        skip_agent,
    )
    if key in _MEMO:
        return _MEMO[key]
    result = None
    for env in _assignments(conj(formulas), preset):
        clusters: dict[int, list[_Tree]] = {}
        failed = False
        for agent in sorted({leaf.agent for leaf in env if isinstance(leaf, L)}):
            if agent == skip_agent:
                continue
            boxes = [leaf.sub for leaf, v in env.items() if isinstance(leaf, L) and leaf.agent == agent and v]
            diamonds = [leaf.sub for leaf, v in env.items() if isinstance(leaf, L) and leaf.agent == agent and not v]
            if not diamonds:
                continue
            cluster = _cluster(agent, boxes, diamonds)
            if cluster is None:
                failed = True
                break
            clusters[agent] = cluster
        if not failed:
            result = _Tree(
                atoms_true=frozenset(a.name for a, v in env.items() if isinstance(a, Atom) and v),
                clusters=clusters,
            )
            break
    _MEMO[key] = result
    return result


def _cluster(agent: int, boxes: list[Formula], diamonds: list[Formula]) -> list[_Tree] | None:
    content = list(dict.fromkeys(boxes + diamonds))
    forced: dict[L, bool] = {L(agent, b): True for b in boxes}
    for d in diamonds:
        forced[L(agent, d)] = False
    domain = list(dict.fromkeys(_own_closure(agent, content) + list(forced)))
    free = [m for m in domain if m not in forced]
    for bits in itertools.product((True, False), repeat=len(free)):
        valuation = dict(forced)
        valuation.update(zip(free, bits))
        carried = tuple(m.sub for m in domain if valuation[m])
        members: list[_Tree] = []
        for denied in (m.sub for m in domain if not valuation[m]):
            tree = _solve((Not(denied),) + carried, dict(valuation), agent)
            if tree is None:
                break
            members.append(tree)
        else:
            return members
    return None


def _to_structure(root: _Tree) -> KripkeStructure:
    worlds: dict[str, frozenset[str]] = {}
    relations: dict[int, set[tuple[str, str]]] = {}

    counter = itertools.count()

    def visit(tree: _Tree) -> str:
        name = f"w{next(counter)}"
        worlds[name] = tree.atoms_true
        for agent, members in sorted(tree.clusters.items()):
            names = [visit(m) for m in members]
            pairs = relations.setdefault(agent, set())
            for a in names:
                pairs.add((name, a))
                for b in names:
                    pairs.add((a, b))
        return name

    visit(root)
    return KripkeStructure(
        worlds=worlds,
        relations={agent: frozenset(pairs) for agent, pairs in relations.items()},
    )
