"""Bounded-exhaustive agreement with the oracles: every formula of up to
a few nodes over p and q, each distinct one (up to simplify) decided
and checked, so a disagreement this small cannot slip through.  The
enumerator is tools/exhaustive.py's, which runs larger sizes."""

import importlib.util
from pathlib import Path

from onlyknow import k45
from onlyknow.decision import Decider
from onlyknow.finite_semantics import oracle_valid
from onlyknow.formula import L, N, Not, to_text

TOOL = Path(__file__).resolve().parents[1] / "tools" / "exhaustive.py"
_spec = importlib.util.spec_from_file_location("exhaustive", TOOL)
exhaustive = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exhaustive)
formulas = exhaustive.formulas


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


def test_only_knowing_formulas_up_to_five_nodes_agree_with_the_extended_oracle():
    # O1 f counts as one node, so O-pairs whose base holds L1 or N1 of
    # its own, which the pair rule cofactors, come in at five nodes.
    fs = formulas(5, exhaustive.UNARY["only"])
    assert len(fs) == 2166
    assert list(exhaustive.disagreements("only", fs)) == []
