"""Seeded query families for the benchmark, each query with its answer.

A workload is an endless sequence of cycles.  Every cycle has the same
shape (the same rungs, modes and variants in the same order); the seed
only picks the random content, so two seeds load the engine alike and
a run that stops after whole cycles always has the same mix.

Expected answers never come from ``Decider``.  They come from the
construction of a family, from a truth table computed here, from the
independent ``k45`` prover, from the finite-alphabet oracle, or from
the known-answer corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from onlyknow import k45
from onlyknow.corpus import generate_random, load_corpus
from onlyknow.finite_semantics import oracle_valid
from onlyknow.formula import atoms, to_text


@dataclass(frozen=True)
class Query:
    """One request.  ``kind`` is believes | sat | valid | nf.  For
    believes, ``text`` is the query and ``kb`` the knowledge base; for
    nf the expected answer is the number of normal-form disjuncts."""

    kind: str
    text: str
    expected: bool | int
    rung: str
    agents: int = 2
    kb: str = ""


Cycle = list[Query]

# -- propositional truth tables -------------------------------------------

Clause = tuple[tuple[int, bool], ...]


def random_3cnf(rng: random.Random, n: int, m: int) -> list[Clause]:
    """m clauses over variables 0..n-1, three distinct variables each."""
    return [
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), 3))
        for _ in range(m)
    ]


def cnf_text(clauses: list[Clause], prefix: str) -> str:
    return " & ".join(
        "(" + " | ".join(f"{prefix}{v}" if pos else f"~{prefix}{v}" for v, pos in c) + ")"
        for c in clauses
    )


def _column(i: int, n: int) -> int:
    """Bit a of the result is bit i of a, for all 2^n assignments a."""
    half = 1 << i
    period = half << 1
    block = ((1 << half) - 1) << half
    reps = (1 << n) // period
    return block * (((1 << (period * reps)) - 1) // ((1 << period) - 1))


def truth_table(clauses: list[Clause], n: int) -> tuple[bool, bool]:
    """(satisfiable, valid) of a CNF over n variables, by evaluating all
    2^n assignments at once as bit vectors."""
    full = (1 << (1 << n)) - 1
    columns = [_column(i, n) for i in range(n)]
    models = full
    for clause in clauses:
        hit = 0
        for v, pos in clause:
            hit |= columns[v] if pos else full ^ columns[v]
        models &= hit
    return models != 0, models == full


# -- defaults: autoepistemic belief under default theories ------------------

# (secret defaults, blocked ordinary defaults, blocked secret defaults).
DEFAULT_VARIANTS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 0), (2, 0, 0), (1, 1, 1))
# A question about a theory is "yes" (its first conclusion, believed),
# "no" (a formula not believed), "yes&no" (false) or "yes&other" (two
# believed formulas, true).
# (k, variant, questions, theories per cycle): 48 questions.  Costs vary
# 400-fold across them, in steps, so the mix is chosen by their cost in
# this cycle on the unmodified engine: the p50 and p90 ranks fall in the
# middle of a group of questions of about the same cost, not on the edge
# between two groups, where a small change in timing would make the
# percentile jump from one group to the next.  Questions about the same
# theory share work, so a question's cost depends on what was asked
# before it.  By cost, at 1 ms of the host speed probe:
#   19 questions under 3 ms (every variant at k = 2, one at k = 3);
#   10 of 8.5-8.8 ms at k = 3, around p50;
#   11 of 13-120 ms at k = 3 and 4;
#    6 of 165-180 ms at k = 4, around p90;
#    2 of 200-280 ms at k = 4.
DEFAULT_CYCLE = (
    *((2, v, ("yes", "no", "yes&no" if v % 2 == 0 else "yes&other"), 1) for v in range(6)),
    (3, 5, ("yes",), 1),
    (3, 3, ("yes", "no"), 4),
    (3, 1, ("yes",), 2),
    (3, 4, ("yes",), 1),
    (3, 0, ("yes",), 1),
    (4, 5, ("yes", "no"), 1),
    (4, 2, ("yes", "no", "yes&no", "yes&other"), 1),
    (4, 1, ("yes", "yes&no"), 3),
    (4, 3, ("yes&no",), 3),
    (4, 0, ("yes",), 1),
    (4, 4, ("no",), 1),
)
# Rungs that exceed the per-query limit today.  Each costs the whole
# limit, so they are asked once per run, in its first cycle: one
# question about an unblocked default of variant 0.
TOP_RUNGS = (5, 6)


@dataclass(frozen=True)
class Theory:
    """A default theory with what only knowing it commits agent 1 to.

    ``yes`` is the conclusion of the first unblocked default (or a
    blocking fact when every default is blocked) and ``no`` a formula
    the agent does not come to believe, preferring a blocked default's
    conclusion; ``believed`` and ``not_believed`` list them all."""

    kb: str
    believed: tuple[str, ...]
    not_believed: tuple[str, ...]
    yes: str
    no: str


def default_theory(k: int, secret: set[int], blocked: set[int], tag: str = "") -> Theory:
    """Defaults j < k.  An ordinary default ``~L1 ~b -> f`` yields f
    unless the blocking fact ``~b`` is in the base; b itself is never
    believed.  A secret default ``~L1 L2 p -> ~L2 p`` yields ``~L2 p``
    unless ``L2 p`` is in the base; p itself is never believed.  The
    defaults share no atoms, so the agent's beliefs are the union of
    what each one yields.  A blocking fact precedes its default, as in
    the known-answer corpus."""
    parts: list[str] = []
    believed: list[str] = []
    not_believed: list[str] = []
    conclusions: dict[int, str] = {}
    retracted: dict[int, str] = {}
    for j in range(k):
        if j in secret:
            p = f"p{tag}{j}"
            if j in blocked:
                parts.append(f"L2 {p}")
                believed.append(f"L2 {p}")
                retracted[j] = f"~L2 {p}"
            else:
                conclusions[j] = f"~L2 {p}"
            parts.append(f"(~L1 L2 {p} -> ~L2 {p})")
            not_believed.append(p)
        else:
            b, f = f"b{tag}{j}", f"f{tag}{j}"
            if j in blocked:
                parts.append(f"~{b}")
                believed.append(f"~{b}")
                retracted[j] = f
            else:
                conclusions[j] = f
            parts.append(f"(~L1 ~{b} -> {f})")
            not_believed.append(b)
    believed += conclusions.values()
    not_believed += retracted.values()
    yes = next(iter(conclusions.values()), believed[0])
    no = next(iter(retracted.values()), not_believed[0])
    return Theory(" & ".join(parts), tuple(believed), tuple(not_believed), yes, no)


def _theory(rng: random.Random, used: set[str], k: int, variant: int) -> Theory:
    # The seed draws only the atom names.  They never repeat within a
    # run, so no query is a cache hit of an earlier one.
    n_secret, n_blocked, n_blocked_secret = DEFAULT_VARIANTS[variant]
    secret = set(range(n_secret))
    blocked = set(range(n_secret, n_secret + n_blocked)) | set(range(n_blocked_secret))
    tag = f"{rng.randrange(10**6):06d}x"
    while tag in used:
        tag = f"{rng.randrange(10**6):06d}x"
    used.add(tag)
    return default_theory(k, secret, blocked, tag)


def _defaults_top(rng: random.Random, used: set[str]) -> Cycle:
    out: Cycle = []
    for k in TOP_RUNGS:
        theory = _theory(rng, used, k, 0)
        out.append(Query("believes", theory.yes, True, f"k={k}", kb=theory.kb))
    return out


def _question(theory: Theory, kind: str) -> tuple[str, bool]:
    if kind == "yes":
        return theory.yes, True
    if kind == "no":
        return theory.no, False
    if kind == "yes&no":
        return f"({theory.yes}) & ({theory.no})", False
    other = next(x for x in theory.believed if x != theory.yes)
    return f"({theory.yes}) & ({other})", True


def _defaults_cycle(rng: random.Random, used: set[str]) -> Cycle:
    # Each theory's structure is fixed by its place in DEFAULT_CYCLE, so
    # every cycle asks the same questions.
    out: Cycle = []
    for k, variant, questions, copies in DEFAULT_CYCLE:
        for _ in range(copies):
            theory = _theory(rng, used, k, variant)
            for kind in questions:
                text, expected = _question(theory, kind)
                out.append(Query("believes", text, expected, f"k={k}", kb=theory.kb))
    return out


# -- objective: modal-free queries -------------------------------------------

# n = 150 comes twice: its two slow queries (plain sat, conj -> q) then
# fill the top seventh of a cycle, so p90 falls inside that group and not
# in the gap between two groups of different speed.
CONJ_SIZES = (50, 100, 150, 150)
CNF_SIZES = (8, 10, 12)
CNF_RATIO = 4.26


def _objective_cycle(rng: random.Random) -> Cycle:
    out: Cycle = []
    for n in CONJ_SIZES:
        names = [f"p{i}" for i in range(n)]
        rng.shuffle(names)
        out.append(Query("sat", " & ".join(names), True, f"conj n={n}"))
        planted = list(names)
        planted.insert(rng.randrange(n + 1), f"~{rng.choice(names)}")
        out.append(Query("sat", " & ".join(planted), False, f"conj n={n}"))
    for n in CONJ_SIZES:
        names = [f"p{i}" for i in range(n)]
        rng.shuffle(names)
        conj = " & ".join(names)
        out.append(Query("valid", f"{conj} -> {rng.choice(names)}", True, f"conj n={n}"))
        out.append(Query("valid", f"{conj} -> q", False, f"conj n={n}"))
    for n in CNF_SIZES:
        # One satisfiable and one unsatisfiable instance per mode: the two
        # take very different time, so a fixed mix keeps runs comparable.
        for mode, satisfiable in (("sat", True), ("sat", False), ("valid", True), ("valid", False)):
            while True:
                clauses = random_3cnf(rng, n, round(CNF_RATIO * n))
                if truth_table(clauses, n)[0] == satisfiable:
                    break
            text = cnf_text(clauses, "x")
            if mode == "sat":
                out.append(Query("sat", text, satisfiable, f"cnf n={n}"))
            else:
                out.append(Query("valid", f"~({text})", not satisfiable, f"cnf n={n}"))
    return out


# -- modal-mix: many small mixed queries --------------------------------------

BASIC_SIZES = (8, 12, 16, 20)
BASIC_PER_SIZE = 4
SINGLE_AGENT_SIZES = (6, 8, 10)
SINGLE_AGENT_PER_SIZE = 6
CORPUS_PER_CYCLE = 6
MODAL_CNF_CLAUSES = (2, 3, 4, 5)
# k = 6 comes three times: its requests all cost about the same, and with
# the small random formulas around them they put p90 in the middle of
# that group.  With one, p90 fell where the cost rises steeply with rank
# (2.6 ms at the 88th percentile, 5.9 ms at the 91st).
NF_WIDTHS = (4, 6, 6, 6, 8, 10)


def corpus_file() -> Path:
    return Path(__file__).resolve().parents[1] / "corpus" / "known_answers.jsonl"


def _modal_mix_cycle(rng: random.Random, corpus: list, used: set[int]) -> Cycle:
    out: Cycle = []
    for size in BASIC_SIZES:
        for _ in range(BASIC_PER_SIZE):
            f = generate_random(
                rng.randrange(10**9), "basic", max_modal_depth=3, n_atoms=3, n_agents=2, size=size
            )
            out.append(Query("sat", to_text(f), k45.sat(f), "random basic"))
    for size in SINGLE_AGENT_SIZES:
        for _ in range(SINGLE_AGENT_PER_SIZE):
            f = generate_random(
                rng.randrange(10**9), "full", max_modal_depth=2, n_atoms=2, n_agents=1,
                size=size, allow_val=False,
            )
            alphabet = sorted(atoms(f)) or ["p"]
            expected = oracle_valid(f, alphabet, semantics="extended").valid
            out.append(Query("valid", to_text(f), expected, "random single-agent", agents=1))
    for entry in rng.sample(corpus, CORPUS_PER_CYCLE):
        expected = entry.expected in ("SAT", "VALID")
        out.append(Query(entry.mode, entry.formula, expected, "corpus", agents=entry.agents))
    for m in MODAL_CNF_CLAUSES:
        n = rng.randint(4, 8)
        clauses = random_3cnf(rng, n, m)
        satisfiable, valid = truth_table(clauses, n)
        text = cnf_text(clauses, "y")
        out.append(Query("sat", f"~L1 ~({text})", satisfiable, f"L-cnf m={m}"))
        out.append(Query("valid", f"L1 ({text})", valid, f"L-cnf m={m}"))
    for k in NF_WIDTHS:
        # Atom names never repeat within a run, so every request
        # enumerates its normal form afresh.
        tag = rng.randrange(10**6)
        while tag in used:
            tag = rng.randrange(10**6)
        used.add(tag)
        text = " & ".join(f"(L1 p{tag}x{j} | ~L2 q{tag}x{j})" for j in range(k))
        out.append(Query("nf", text, 2**k, f"nf k={k}"))
    return out


def known_failure() -> Query:
    """A basic formula whose decision raises RecursionError (in
    ``normal_form._push`` -> ``simplify``) on the engine this benchmark
    was written against.  It opens every modal-mix run."""
    f = generate_random(7183, "basic", max_modal_depth=4, n_atoms=4, size=40)
    return Query("sat", to_text(f), k45.sat(f), "known failure")


WORKLOADS = ("defaults", "objective", "modal-mix")
# Seconds one cycle took on the unmodified engine (2-core x86 VM, Python
# 3.11); a run of --seconds S is round(S / this) cycles.
NOMINAL_CYCLE_S = {"defaults": 2.1, "objective": 3.75, "modal-mix": 0.15}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def interleave(cycle: Cycle) -> Cycle:
    """Spread each rung's queries evenly over the cycle.  Machine speed
    drifts over seconds, so a rung run in one burst per cycle would be
    timed in only a few windows of the run."""
    rungs: dict[str, list[Query]] = {}
    for q in cycle:
        rungs.setdefault(q.rung, []).append(q)
    keyed = [
        ((i + 0.5) / len(qs), r, i, q)
        for r, qs in enumerate(rungs.values())
        for i, q in enumerate(qs)
    ]
    return [q for *_, q in sorted(keyed, key=lambda t: t[:3])]


def cycles(workload: str, seed: int) -> Iterator[Cycle]:
    """The workload's cycles, generated lazily with their answers."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "defaults":
        used: set[str] = set()
        yield _defaults_top(rng, used) + interleave(_defaults_cycle(rng, used))
        while True:
            yield interleave(_defaults_cycle(rng, used))
    elif workload == "objective":
        while True:
            yield interleave(_objective_cycle(rng))
    elif workload == "modal-mix":
        corpus = load_corpus(corpus_file())
        tags: set[int] = set()
        yield [known_failure()] + interleave(_modal_mix_cycle(rng, corpus, tags))
        while True:
            yield interleave(_modal_mix_cycle(rng, corpus, tags))
    else:
        raise ValueError(f"unknown workload {workload!r}")
