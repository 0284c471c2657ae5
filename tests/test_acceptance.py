"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its timing and asserting the stated budget.  Run with -s (or
read the -rA summary) to see the lines; every expected value here is
exact, no tolerances beyond the time budgets.
"""

import random
import resource
import time

from onlyknow import k45, kripke
from onlyknow.autoepistemic import believes, only_knowing_sets
from onlyknow.corpus import (
    axiom_instances,
    generate_random,
    single_agent_axiom_instances,
)
from onlyknow.decision import Decider
from onlyknow.finite_semantics import (
    evaluate,
    evaluate_x,
    extended_situations,
    oracle_valid,
    reduce_n_to_l,
    situations,
)
from onlyknow.formula import (
    Atom,
    Iff,
    N,
    Or,
    atoms,
    conj,
    parse,
    to_text,
    walk,
)
from onlyknow.normal_form import reassemble, to_normal_form


class _Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget
        self.started = time.monotonic()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"[criterion-{self.number:02d}] {status} {self.label} ({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed <= self.budget, f"criterion {self.number} exceeded its {self.budget}s budget"
        return False


def test_c01_core_only_knowing_theorems():
    theorems = [
        "O1 (~L1 L2 p -> ~L2 p) -> L1 ~L2 p",
        "O1 (L2 p & (~L1 L2 p -> ~L2 p)) -> L1 L2 p",
        "L2 O1 (~L1 ~p -> p) -> L2 L1 p",
        "N1 L2 p -> ~L1 L2 p",
    ]
    with _Criterion(1, "core only-knowing theorems decide VALID", budget=4 * 1.0):
        for text in theorems:
            started = time.monotonic()
            assert Decider().valid(parse(text, 2)).status == "valid", text
            assert time.monotonic() - started < 1.0, f"{text} took over a second"


def test_c02_nested_only_knowing_separation():
    with _Criterion(2, "nested only-knowing separation facts", budget=2 * 5.0):
        started = time.monotonic()
        assert Decider().consistent(parse("O1 ~O2 p", 2)).status == "satisfiable"
        assert time.monotonic() - started < 5.0
        started = time.monotonic()
        assert (
            Decider().consistent(parse("N1 ~O2 p & L1 ~O2 p", 2)).status
            == "unsatisfiable"
        )
        assert time.monotonic() - started < 5.0


def test_c03_axiom_soundness_suite():
    rng = random.Random(20240)
    decider = Decider()
    with _Criterion(3, "300 axiom schema instances decide VALID", budget=60.0):
        instances = axiom_instances(rng, 300)
        assert len(instances) >= 300
        for inst in instances:
            assert bool(decider.valid(inst)), to_text(inst)


def test_c04_basic_fragment_oracle_agreement():
    decider = Decider()
    with _Criterion(4, "500 basic formulas: decision == K45 prover", budget=120.0):
        for seed in range(500):
            f = generate_random(seed, "basic", max_modal_depth=3, n_atoms=3, n_agents=2)
            assert bool(decider.consistent(f)) == k45.sat(f), to_text(f)


def test_c05_single_agent_finite_semantics():
    rng = random.Random(551)
    decider = Decider()
    with _Criterion(5, "single-agent axioms sound; complement principle splits the semantics", budget=60.0):
        for inst in single_agent_axiom_instances(rng, 120):
            assert oracle_valid(inst, ("p", "q"), "levesque").valid, to_text(inst)
            assert oracle_valid(inst, ("p", "q"), "extended").valid, to_text(inst)
        complement_principle = parse("~L1 ~p -> N1 ~p", 1)
        assert oracle_valid(complement_principle, ("p",), "levesque").valid
        refutation = oracle_valid(complement_principle, ("p",), "extended")
        assert refutation.valid is False
        assert refutation.counterexample is not None
        print(f"    complement principle counterexample: {refutation.counterexample.describe()}")
        assert not evaluate_x(refutation.counterexample, complement_principle)


def test_c06_n_elimination_over_finite_alphabet():
    with _Criterion(6, "200 single-agent formulas: N eliminated, oracle-equivalent", budget=60.0):
        for seed in range(200):
            f = generate_random(
                seed + 2200, "full", max_modal_depth=2, n_atoms=1, n_agents=1,
                size=6, allow_val=False,
            )
            g = reduce_n_to_l(f, ("p",))
            assert not any(isinstance(x, N) for x in walk(g)), to_text(f)
            for s in situations(("p",)):
                assert evaluate(s, f) == evaluate(s, g), (to_text(f), s.describe())


def test_c07_normal_form_equivalence():
    decider = Decider()
    with _Criterion(7, "200 formulas provably equivalent to their normal form", budget=300.0):
        for seed in range(200):
            f = generate_random(
                seed + 3300, "full", max_modal_depth=3, n_atoms=3, n_agents=2,
                allow_val=False,
            )
            back = reassemble(list(to_normal_form(f)))
            assert bool(decider.valid(Iff(f, back))), to_text(f)
        # single-agent subset additionally checked against the semantics,
        # at every complementary situation and every covering two-set one
        checked = 0
        for seed in range(400):
            f = generate_random(
                seed + 4400, "full", max_modal_depth=2, n_atoms=2, n_agents=1,
                size=6, allow_val=False,
            )
            back = reassemble(list(to_normal_form(f)))
            phi = tuple(sorted(atoms(f) | atoms(back))) or ("p",)
            for s in situations(phi):
                assert evaluate(s, f) == evaluate(s, back), to_text(f)
            for sx in extended_situations(phi):
                assert evaluate_x(sx, f) == evaluate_x(sx, back), to_text(f)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100


def test_c08_finite_model_counterexample():
    with _Criterion(8, "one-world model defeats the finite N readings", budget=1.0):
        m = kripke.KripkeStructure(
            worlds={"w": frozenset({"p"})},
            relations={1: frozenset({("w", "w")})},
        )
        assert kripke.validate(m).ok
        f = parse("L1 p & N1 p", 1)
        assert kripke.check_naive_n(m, "w", f) is True
        assert kripke.check_fixed_n(m, "w", f) is True


def test_c09_default_reasoning():
    with _Criterion(9, "default conclusion, fixed point, and retraction", budget=5.0):
        default = parse("~L1 ~p -> p", 1)
        states = only_knowing_sets(default, ("p",))
        assert states == (frozenset({frozenset({"p"})}),)
        assert believes(1, default, Atom("p")) is True
        weak = parse("~L1 L2 p -> ~L2 p", 2)
        strong = parse("L2 p & (~L1 L2 p -> ~L2 p)", 2)
        assert believes(1, weak, parse("~L2 p", 2)) is True
        assert believes(1, strong, parse("~L2 p", 2)) is False
        assert believes(1, strong, parse("L2 p", 2)) is True


def test_c10_disjunct_streaming():
    factors = [Or(Atom(f"p{k}"), Atom(f"q{k}")) for k in range(16)]
    f = conj(factors)
    with _Criterion(10, "2^16-disjunct formula streamed one disjunct at a time under 512 MB", budget=120.0):
        total = sum(1 for _ in to_normal_form(f))
        assert total == 2**16
        assert Decider().consistent(f).status == "satisfiable"
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"    streamed {total} disjuncts, process peak {peak_mb:.0f} MB")
        assert peak_mb < 512
