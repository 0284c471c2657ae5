"""Bounded-exhaustive agreement with the oracles: every formula of up to
a few nodes over p and q, each distinct one (up to simplify) decided
and checked, so a disagreement this small cannot slip through."""

from onlyknow import k45
from onlyknow.decision import Decider
from onlyknow.finite_semantics import oracle_valid
from onlyknow.formula import And, Atom, Iff, Implies, L, N, Not, Or, simplify, to_text

BINARY = (And, Or, Implies, Iff)


def formulas(size, unary):
    """Each distinct simplify of the formulas of at most size nodes over
    p and q, unary the one-argument constructors and BINARY the others."""
    by_size = {1: [Atom("p"), Atom("q")]}
    for n in range(2, size + 1):
        by_size[n] = [u(f) for u in unary for f in by_size[n - 1]]
        by_size[n] += [
            op(a, b) for k in range(1, n - 1) for op in BINARY for a in by_size[k] for b in by_size[n - 1 - k]
        ]
    return list(dict.fromkeys(simplify(f) for n in by_size for f in by_size[n]))


def test_basic_formulas_up_to_six_nodes_agree_with_k45():
    fs = formulas(6, (Not, lambda f: L(1, f), lambda f: L(2, f)))
    assert len(fs) == 7382
    d = Decider()
    for f in fs:
        assert bool(d.consistent(f)) == k45.sat(f), to_text(f)
        assert bool(d.valid(f)) == (not k45.sat(Not(f))), to_text(f)


def test_one_agent_formulas_up_to_five_nodes_agree_with_the_extended_oracle():
    fs = formulas(5, (Not, lambda f: L(1, f), lambda f: N(1, f)))
    assert len(fs) == 1128
    d = Decider()
    for f in fs:
        assert bool(d.valid(f)) == oracle_valid(f, ("p", "q"), semantics="extended").valid, to_text(f)
        assert bool(d.consistent(f)) == (not oracle_valid(Not(f), ("p", "q"), semantics="extended").valid), to_text(f)
