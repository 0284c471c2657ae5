"""Reasoning engine for the multi-agent logic of only knowing.

Parse modal formulas over the belief modalities L/N (with O as a
defined form and V the validity operator), rewrite them into a streamed
disjunctive normal form, and decide satisfiability and validity, with
brute-force semantic oracles for cross-validation and an autoepistemic
query layer on top.
"""

from .formula import (
    Atom,
    And,
    FALSE,
    Formula,
    FormulaError,
    Iff,
    Implies,
    L,
    N,
    Not,
    NotBasicError,
    Or,
    ParseError,
    TRUE,
    Val,
    ValPresentError,
    classify,
    FormulaClass,
    build_independent,
    modal_depth,
    only_knows,
    parse,
    to_text,
)
from .normal_form import (
    AgentBlock,
    DisjunctGauge,
    NormalFormDisjunct,
    merge_positive,
    reassemble,
    simplify,
    to_normal_form,
)
from .decision import (
    BudgetExceededError,
    Decider,
    Verdict,
)
from .k45 import find_model, independent, sat as k45_sat
from .kripke import (
    KripkeStructure,
    ModelError,
    check_basic,
    check_fixed_n,
    check_naive_n,
    validate,
)
from .finite_semantics import (
    ExtendedSituation,
    OracleResult,
    Situation,
    evaluate,
    evaluate_x,
    oracle_valid,
    reduce_n_to_l,
    worlds_over,
)
from .autoepistemic import BeliefQuery, believes, kb_coherent, only_knowing_sets
from .corpus import CorpusEntry, cross_check, generate_random, load_corpus

__version__ = "0.1.0"

__all__ = [
    "AgentBlock",
    "And",
    "Atom",
    "BeliefQuery",
    "BudgetExceededError",
    "CorpusEntry",
    "Decider",
    "DisjunctGauge",
    "ExtendedSituation",
    "FALSE",
    "Formula",
    "FormulaClass",
    "FormulaError",
    "Iff",
    "Implies",
    "KripkeStructure",
    "L",
    "ModelError",
    "N",
    "NormalFormDisjunct",
    "Not",
    "NotBasicError",
    "Or",
    "OracleResult",
    "ParseError",
    "Situation",
    "TRUE",
    "Val",
    "ValPresentError",
    "Verdict",
    "believes",
    "build_independent",
    "check_basic",
    "check_fixed_n",
    "check_naive_n",
    "classify",
    "cross_check",
    "evaluate",
    "evaluate_x",
    "find_model",
    "generate_random",
    "independent",
    "k45_sat",
    "kb_coherent",
    "load_corpus",
    "merge_positive",
    "modal_depth",
    "only_knowing_sets",
    "only_knows",
    "oracle_valid",
    "parse",
    "reassemble",
    "reduce_n_to_l",
    "simplify",
    "to_normal_form",
    "to_text",
    "validate",
    "worlds_over",
]
