"""Regression corpus plumbing: seeded formula generation, the corpus
file format, and the oracle cross-check suites that tie the decision
procedure to its independent semantic checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import k45
from .decision import Decider
from .finite_semantics import oracle_valid
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    FormulaError,
    Iff,
    Implies,
    L,
    N,
    Not,
    Or,
    Val,
    conj,
    parse,
    to_text,
)
from .fragments import atoms, is_i_objective, is_i_subjective, is_propositional, substitute_atom


@dataclass(frozen=True)
class CorpusEntry:
    """One known-answer fact: a formula, the query mode, and the verdict
    it must produce.  The note records where the fact comes from."""

    formula: str
    mode: str  # sat | valid
    expected: str  # SAT | UNSAT | VALID | INVALID
    agents: int = 2
    note: str = ""


def default_corpus_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "corpus"


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    entries = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormulaError(f"{path}:{line_no}: bad JSON: {exc}") from exc
        entries.append(
            CorpusEntry(
                formula=raw["formula"],
                mode=raw["mode"],
                expected=raw["expected"],
                agents=int(raw.get("agents", 2)),
                note=raw.get("note", ""),
            )
        )
    return entries


def run_entry(entry: CorpusEntry, decider: Decider | None = None) -> str:
    d = decider or Decider()
    f = parse(entry.formula, entry.agents)
    if entry.mode == "sat":
        return "SAT" if d.consistent(f) else "UNSAT"
    if entry.mode == "valid":
        return "VALID" if d.valid(f) else "INVALID"
    raise FormulaError(f"unknown corpus mode {entry.mode!r}")


# -- seeded generation ----------------------------------------------------

_PROFILES = ("basic", "onl_minus", "full")


def generate_random(
    seed: int,
    profile: str = "full",
    max_modal_depth: int = 3,
    n_atoms: int = 3,
    n_agents: int = 2,
    size: int = 8,
    allow_val: bool | None = None,
    rng: random.Random | None = None,
) -> Formula:
    """Reproducible random formula.  The profile picks the operator pool:
    'basic' has no N and no V, 'onl_minus' never nests an N under another
    agent's modality, 'full' allows everything (V only when allow_val is
    not overridden to False).
    """
    if profile not in _PROFILES:
        raise FormulaError(f"unknown profile {profile!r}")
    if allow_val is None:
        allow_val = profile == "full"
    r = rng or random.Random(seed)
    names = [f"p{k}" if k else "p" for k in range(n_atoms)]
    agent_pool = list(range(1, n_agents + 1))
    return _gen(r, profile, max_modal_depth, size, names, agent_pool, allow_val, None)


def _gen(
    r: random.Random,
    profile: str,
    modal_budget: int,
    size: int,
    names: list[str],
    agent_pool: list[int],
    allow_val: bool,
    allowed_n: frozenset[int] | None,
) -> Formula:
    if size <= 1 or r.random() < 0.18:
        pick = r.random()
        if pick < 0.85:
            return Atom(r.choice(names))
        return TRUE if pick < 0.93 else FALSE
    ops = ["not", "and", "or", "implies", "iff"]
    if modal_budget > 0:
        ops += ["l", "l", "n", "n"]
        if allow_val:
            ops.append("val")
    op = r.choice(ops)
    if op == "not":
        return Not(_gen(r, profile, modal_budget, size - 1, names, agent_pool, allow_val, allowed_n))
    if op in ("and", "or", "implies", "iff"):
        split = r.randint(1, size - 1)
        left = _gen(r, profile, modal_budget, split, names, agent_pool, allow_val, allowed_n)
        right = _gen(r, profile, modal_budget, size - split, names, agent_pool, allow_val, allowed_n)
        cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op]
        return cls(left, right)
    if op == "val":
        return Val(_gen(r, profile, modal_budget - 1, size - 1, names, agent_pool, allow_val, allowed_n))
    agent = r.choice(agent_pool)
    if op == "n":
        if profile == "basic":
            op = "l"
        elif profile == "onl_minus" and allowed_n is not None and agent not in allowed_n:
            op = "l"
    narrowed = frozenset({agent}) if allowed_n is None else allowed_n & {agent}
    inner_allowed = narrowed if profile == "onl_minus" else allowed_n
    sub = _gen(r, profile, modal_budget - 1, size - 1, names, agent_pool, allow_val, inner_allowed)
    return (N if op == "n" else L)(agent, sub)


# -- axiom schema instances -------------------------------------------------


def _random_objective(r: random.Random, agent: int, n_agents: int = 2) -> Formula:
    while True:
        f = generate_random(
            r.randrange(10**9), "full", max_modal_depth=2, n_atoms=2,
            n_agents=n_agents, size=5, allow_val=False, rng=r,
        )
        if is_i_objective(f, agent):
            return f


def _random_subjective(r: random.Random, agent: int, n_agents: int = 2) -> Formula:
    parts = []
    for _ in range(r.randint(1, 2)):
        op = r.choice((L, N))
        body = generate_random(
            r.randrange(10**9), "full", max_modal_depth=1, n_atoms=2,
            n_agents=n_agents, size=4, allow_val=False, rng=r,
        )
        f: Formula = op(agent, body)
        parts.append(Not(f) if r.random() < 0.4 else f)
    return conj(parts)


def axiom_instances(rng: random.Random, count: int) -> list[Formula]:
    """Instances of the proof system's schemas, side conditions checked
    at generation time: objectivity for the A5'/V3 arguments, and for V4
    an objective next to a subjective conjunct; V2 only takes formulas
    k45.sat certifies satisfiable."""
    out: list[Formula] = []
    while len(out) < count:
        kind = rng.choice(("a1", "a2", "a3", "a4", "a5", "v1", "v2", "v3", "v4"))
        i = rng.choice((1, 2))

        def rf(depth=1, size=4):
            return generate_random(
                rng.randrange(10**9), "full", max_modal_depth=depth, n_atoms=2,
                n_agents=2, size=size, allow_val=False, rng=rng,
            )

        if kind == "a1":
            a, b = rf(), rf()
            out.append(rng.choice(((a & b) >> a, a >> (b >> a), Or(a, Not(a)))))
        elif kind == "a2":
            a, b = rf(), rf()
            out.append(L(i, a >> b) >> (L(i, a) >> L(i, b)))
        elif kind == "a3":
            a, b = rf(), rf()
            out.append(N(i, a >> b) >> (N(i, a) >> N(i, b)))
        elif kind == "a4":
            s = _random_subjective(rng, i)
            assert is_i_subjective(s, i)
            out.append(s >> (L(i, s) & N(i, s)))
        elif kind == "a5":
            a = _random_objective(rng, i)
            assert is_i_objective(a, i)
            out.append(Not(Val(a)) >> (N(i, a) >> Not(L(i, a))))
        elif kind == "v1":
            a, b = rf(), rf()
            out.append((Val(a) & Val(a >> b)) >> Val(b))
        elif kind == "v2":
            a = generate_random(
                rng.randrange(10**9), "basic", max_modal_depth=0, n_atoms=3,
                size=5, rng=rng,
            )
            if not k45.sat(a):
                continue
            out.append(Not(Val(Not(a))))
        elif kind == "v3":
            alpha = _random_objective(rng, i)
            gamma = _random_objective(rng, i)
            betas = [_random_objective(rng, i) for _ in range(rng.randint(0, 2))]
            deltas = [_random_objective(rng, i) for _ in range(rng.randint(0, 2))]
            for g in (alpha, gamma, *betas, *deltas):
                assert is_i_objective(g, i)
            antecedent = conj(
                [Not(Val(Not(alpha & b))) for b in betas]
                + [Not(Val(Not(gamma & dd))) for dd in deltas]
                + [Val(Or(alpha, gamma))]
            )
            consequent = Not(
                Val(
                    Not(
                        conj(
                            [L(i, alpha)]
                            + [Not(L(i, Not(b))) for b in betas]
                            + [N(i, gamma)]
                            + [Not(N(i, Not(dd))) for dd in deltas]
                        )
                    )
                )
            )
            out.append(antecedent >> consequent)
        else:
            a = _random_objective(rng, i)
            b = _random_subjective(rng, i)
            assert is_i_objective(a, i) and is_i_subjective(b, i)
            out.append((Not(Val(Not(a))) & Not(Val(Not(b)))) >> Not(Val(Not(a & b))))
    return out


def single_agent_axiom_instances(rng: random.Random, count: int) -> list[Formula]:
    """Instances of the single-agent proof system (no validity operator),
    for the finite-alphabet oracle: formulas stay on the p,q alphabet."""
    out: list[Formula] = []
    while len(out) < count:
        kind = rng.choice(("a1", "a2", "a3", "a4", "a5"))

        def rf():
            f = generate_random(
                rng.randrange(10**9), "full", max_modal_depth=1, n_atoms=2,
                n_agents=1, size=4, allow_val=False, rng=rng,
            )
            return substitute_atom(f, "p1", Atom("q"))

        if kind == "a1":
            a, b = rf(), rf()
            out.append(rng.choice(((a & b) >> a, a >> (b >> a), Or(a, Not(a)))))
        elif kind == "a2":
            a, b = rf(), rf()
            out.append(L(1, a >> b) >> (L(1, a) >> L(1, b)))
        elif kind == "a3":
            a, b = rf(), rf()
            out.append(N(1, a >> b) >> (N(1, a) >> N(1, b)))
        elif kind == "a4":
            body = rf()
            op = rng.choice((L, N))
            s: Formula = op(1, body)
            if rng.random() < 0.5:
                s = Not(s)
            assert is_i_subjective(s, 1)
            out.append(s >> (L(1, s) & N(1, s)))
        else:
            a = rf()
            if not is_propositional(a) or not k45.sat(Not(a)):
                continue
            out.append(N(1, a) >> Not(L(1, a)))
    return out


# -- cross-check suites ----------------------------------------------------


@dataclass
class CrossCheckReport:
    basic_checked: int = 0
    basic_disagreements: list[str] = field(default_factory=list)
    single_agent_checked: int = 0
    single_agent_disagreements: list[str] = field(default_factory=list)
    corpus_checked: int = 0
    corpus_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.basic_disagreements
            or self.single_agent_disagreements
            or self.corpus_failures
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "DISAGREEMENT"
        return (
            f"{status}: basic {self.basic_checked} "
            f"({len(self.basic_disagreements)} off), "
            f"single-agent {self.single_agent_checked} "
            f"({len(self.single_agent_disagreements)} off), "
            f"corpus {self.corpus_checked} ({len(self.corpus_failures)} off)"
        )


def cross_check(
    samples: int = 500,
    seed: int = 20240,
    corpus_dir: str | Path | None = None,
    single_agent_samples: int | None = None,
) -> CrossCheckReport:
    """Run the oracle-agreement suites and the known-answer corpus.

    Any disagreement is reported with the offending formula; an empty
    report means the decision procedure, the K45 prover and the finite
    semantics all tell the same story on the shared fragments.
    """
    report = CrossCheckReport()
    decider = Decider()

    for k in range(samples):
        f = generate_random(seed + k, "basic", max_modal_depth=3, n_atoms=3, n_agents=2)
        by_decision = bool(decider.consistent(f))
        by_tableau = k45.sat(f)
        report.basic_checked += 1
        if by_decision != by_tableau:
            report.basic_disagreements.append(to_text(f))

    n_single = samples // 2 if single_agent_samples is None else single_agent_samples
    for k in range(n_single):
        f = generate_random(
            seed + 10_000 + k, "full", max_modal_depth=2, n_atoms=2, n_agents=1, size=6
        )
        g = decider.eliminate_val(f)
        phi = tuple(sorted(atoms(g))) or ("p",)
        by_decision = bool(decider.valid(g))
        by_oracle = oracle_valid(g, phi, semantics="extended").valid
        report.single_agent_checked += 1
        if by_decision != by_oracle:
            report.single_agent_disagreements.append(to_text(f))

    directory = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    for path in sorted(directory.glob("*.jsonl")):
        for entry in load_corpus(path):
            actual = run_entry(entry, decider)
            report.corpus_checked += 1
            if actual != entry.expected:
                report.corpus_failures.append(
                    f"{entry.formula}: expected {entry.expected}, got {actual}"
                )
    return report
