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
    only_knows,
    parse,
    simplify,
    to_text,
)
from .decision import (
    BudgetExceededError,
    Decider,
    Verdict,
)

# The syntactic classes, the normal-form stream, the oracles and the
# query layer load on first use, so that deciding a formula imports only
# the two modules above.  A name resolves through the module __getattr__
# (PEP 562), which keeps it in the globals.
_LAZY = {
    "FormulaClass": ("fragments", "FormulaClass"),
    "build_independent": ("fragments", "build_independent"),
    "classify": ("fragments", "classify"),
    "modal_depth": ("fragments", "modal_depth"),
    "AgentBlock": ("normal_form", "AgentBlock"),
    "NormalFormDisjunct": ("normal_form", "NormalFormDisjunct"),
    "reassemble": ("normal_form", "reassemble"),
    "to_normal_form": ("normal_form", "to_normal_form"),
    "find_model": ("k45", "find_model"),
    "independent": ("k45", "independent"),
    "k45_sat": ("k45", "sat"),
    "KripkeStructure": ("kripke", "KripkeStructure"),
    "ModelError": ("kripke", "ModelError"),
    "check_basic": ("kripke", "check_basic"),
    "check_fixed_n": ("kripke", "check_fixed_n"),
    "check_naive_n": ("kripke", "check_naive_n"),
    "validate": ("kripke", "validate"),
    "ExtendedSituation": ("finite_semantics", "ExtendedSituation"),
    "OracleResult": ("finite_semantics", "OracleResult"),
    "Situation": ("finite_semantics", "Situation"),
    "evaluate": ("finite_semantics", "evaluate"),
    "evaluate_x": ("finite_semantics", "evaluate_x"),
    "oracle_valid": ("finite_semantics", "oracle_valid"),
    "reduce_n_to_l": ("finite_semantics", "reduce_n_to_l"),
    "worlds_over": ("finite_semantics", "worlds_over"),
    "believes": ("autoepistemic", "believes"),
    "kb_coherent": ("autoepistemic", "kb_coherent"),
    "only_knowing_sets": ("autoepistemic", "only_knowing_sets"),
    "CorpusEntry": ("corpus", "CorpusEntry"),
    "cross_check": ("corpus", "cross_check"),
    "generate_random": ("corpus", "generate_random"),
    "load_corpus": ("corpus", "load_corpus"),
}
_LAZY_MODULES = ("fragments", "normal_form", "k45", "kripke", "finite_semantics", "autoepistemic", "corpus")


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _LAZY_MODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        module, attr = _LAZY[name]
        value = getattr(import_module(f"{__name__}.{module}"), attr)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__version__ = "0.1.0"

__all__ = [
    "AgentBlock",
    "And",
    "Atom",
    "BudgetExceededError",
    "CorpusEntry",
    "Decider",
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
