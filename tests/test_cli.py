import json

import pytest

from onlyknow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_valid_exit_zero(capsys):
    code, out, _ = run(
        capsys, "decide", "--mode", "valid", "--agents", "2", "O1 (~L1 L2 p -> ~L2 p) -> L1 ~L2 p"
    )
    assert code == 0
    assert out.strip() == "VALID"


def test_decide_unsat_exit_one(capsys):
    code, out, _ = run(capsys, "decide", "--mode", "sat", "--agents", "2", "N1 ~O2 p & L1 ~O2 p")
    assert code == 1
    assert out.strip() == "UNSAT"


def test_decide_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "decide", "--mode", "sat", "p & & q")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [(), ("p", "--batch", "lines.txt")])
def test_decide_takes_a_formula_or_a_batch(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(["decide", "--mode", "sat", *argv])
    assert stop.value.code == 2
    assert "formula" in capsys.readouterr().err


def test_decide_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", "L1 p & ~L1 q")
    assert code == 0
    assert out.strip() == "SAT"
    assert "satisfiable?" in err
    _, _, err = run(capsys, "decide", "--mode", "sat", "--trace", "L1 p")
    assert err.splitlines()[0] == "satisfiable?: L1 p"
    _, _, err = run(capsys, "decide", "--mode", "sat", "--trace", "q")
    assert err.splitlines() == ["satisfiable?: q", "  satisfying literals: q"]
    _, _, err = run(capsys, "decide", "--mode", "valid", "--trace", "q")
    assert err.splitlines()[0] == "satisfiable?: ~q"
    # the jsonl record keeps its fields; the trace still goes to stderr
    code, out, err = run(capsys, "decide", "--mode", "sat", "--format", "jsonl", "--trace", "~L1 (p & q) & ~L2 (p & q)")
    assert code == 0
    assert set(json.loads(out)) == {"input", "verdict", "millis"}
    assert "    memo hit: ~(p & q)" in err.splitlines()


@pytest.mark.parametrize(
    "text, code, lines",
    [
        (
            "L1 p & ~L1 q",
            0,
            [
                "satisfiable?: L1 p & ~L1 q",
                "  agent 1: entailed by the positive L part?: q",
                "  agent 1: union of positive parts must be valid: true",
                "  satisfying literals: L1 p & ~L1 q",
            ],
        ),
        (
            "~(L1 p | ~N1 q)",
            0,
            [
                "satisfiable?: ~(L1 p | ~N1 q)",
                "  agent 1: entailed by the positive L part?: p",
                "  agent 1: union of positive parts must be valid: true",
                "  satisfying literals: ~L1 p & N1 q",
            ],
        ),
        ("p & ~p & L1 q", 1, []),
        ("p & L1 q & ~p", 1, ["satisfiable?: p & L1 q & ~p"]),
        (
            "V p | q",
            0,
            [
                "resolve validity operator: p",
                "  satisfiable?: ~p",
                "    satisfying literals: ~p",
                "satisfiable?: q",
                "  satisfying literals: q",
            ],
        ),
        (
            # A positive side is one list of conjuncts, so a nested
            # conjunction prints flat in the union.
            "L1 p & L1 (q & (r & s)) & ~L1 t & N1 u",
            1,
            [
                "satisfiable?: L1 p & L1 (q & (r & s)) & ~L1 t & N1 u",
                "  agent 1: entailed by the positive L part?: t",
                "  agent 1: union of positive parts must be valid: p & q & r & s | u",
                "    satisfiable?: ~(p & q & r & s | u)",
                "      satisfying literals: ~p & ~u",
            ],
        ),
        (
            # A conjunct that two arguments share is joined once.
            "L1 (p & q) & L1 (q & r) & N1 s",
            1,
            [
                "satisfiable?: L1 (p & q) & L1 (q & r) & N1 s",
                "  agent 1: union of positive parts must be valid: p & q & r | s",
                "    satisfiable?: ~(p & q & r | s)",
                "      satisfying literals: ~p & ~s",
            ],
        ),
    ],
)
def test_decide_trace_of_literal_sets(capsys, text, code, lines):
    # Sets of literals are tested without a search; their trace is the
    # one the search printed: the group tests, then the literals in the
    # order of first appearance, and nothing after a complementary pair.
    # A V body is resolved first, one level down, by its own literal set.
    # A positive part that shares no atom with q entails it only if it is
    # unsatisfiable, and ~q is a literal, so neither case searches.
    got, _, err = run(capsys, "decide", "--mode", "sat", "--trace", text)
    assert got == code
    assert err.splitlines() == lines


def test_decide_trace_of_an_only_knowing_pair(capsys):
    # The pair propagates before its group is tested.  Rule F asks
    # whether the base at its low bound, its dependency L1 ~p read as
    # false, entails ~p.  That base, q, does not, so L1 ~p would fail
    # the pair's entailment: the pair forces ~L1 ~p.  The group test then
    # reads the negated L conjunct q, which the base it leaves, q,
    # entails, so the group fails.  Each answer is read off the parts,
    # with no search.
    code, out, err = run(capsys, "decide", "--mode", "valid", "--trace", "O1 (~L1 ~p -> q) -> L1 q")
    assert (code, out.strip()) == (0, "VALID")
    assert err.splitlines() == [
        "satisfiable?: ~(O1 (~L1 ~p -> q) -> L1 q)",
        "  agent 1: entailed by the base's low bound?: ~p",
        "  agent 1: only knowing forces: ~L1 ~p",
        "  agent 1: entailed by the positive L part?: q",
    ]


def test_decide_trace_of_an_only_knowing_pair_forcing_a_belief(capsys):
    # A blocked default: ~b is a conjunct of the base however L1 ~b is
    # read, so the base entails ~b under both bounds (rule F asks the
    # low bound, rule T the high bound with the other positive L parts),
    # and the pair forces L1 ~b.  Its base, ~b, then entails ~b, and f
    # is not believed.
    code, out, err = run(capsys, "decide", "--mode", "valid", "--trace", "O1 (~b & (~L1 ~b -> f)) -> L1 f")
    assert (code, out.strip()) == (1, "INVALID")
    assert err.splitlines() == [
        "satisfiable?: ~(O1 (~b & (~L1 ~b -> f)) -> L1 f)",
        "  agent 1: entailed by the base's low bound?: ~b",
        "  agent 1: entailed by the base's high bound and the other positive L parts?: ~b",
        "  agent 1: only knowing forces: L1 ~b",
        "  agent 1: entailed by the positive L part?: f",
        "  agent 1: only-knowing base must entail the other positive L parts: ~b",
        "  agent 1: entailed by the base's low bound?: ~b",
        "  satisfying literals: O1 (~b & (~L1 ~b -> f)) & ~L1 f & L1 ~b",
    ]


def test_decide_trace_of_a_component_memo_hit(capsys):
    # The positive L part of agent 2 is one component that shares no atom
    # with p2.  The first group test searches it; the second finds its
    # answer in the memo, and logs the hit one level below its group line.
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", "~L2 (p2 <-> L2 p2) & L2 (p1 | (p1 <-> L1 p))")
    assert (code, out.strip()) == (0, "SAT")
    assert err.splitlines() == [
        "satisfiable?: ~L2 (p2 <-> L2 p2) & L2 (p1 | (p1 <-> L1 p))",
        "  agent 2: entailed by the positive L part?: false",
        "  agent 2: components of the positive L part: p1 | (p1 <-> L1 p)",
        "    satisfiable?: p1 | (p1 <-> L1 p)",
        "      satisfying literals: p1",
        "  agent 2: union of positive parts must be valid: true",
        "  agent 2: entailed by the positive L part?: ~p2",
        "    memo hit: p1 | (p1 <-> L1 p)",
        "  agent 2: entailed by the positive L part?: p2",
        "  agent 2: union of positive parts must be valid: true",
        "  satisfying literals: ~L2 (p2 <-> L2 p2) & L2 (p1 | (p1 <-> L1 p)) & ~L2 p2",
    ]


def test_decide_trace_of_a_false_settled_part(capsys):
    # With L1 q false, the argument p & L1 q settles to the parts p and
    # false.  The false part stays one conjunct among the others, and the
    # component pre-check finds the positive L part unsatisfiable, so the
    # group fails with no search.
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", "L1 (p & L1 q) & ~L1 q & ~L1 r")
    assert (code, out.strip()) == (1, "UNSAT")
    assert err.splitlines() == [
        "satisfiable?: L1 (p & L1 q) & ~L1 q & ~L1 r",
        "  agent 1: entailed by the positive L part?: q",
        "  agent 1: components of the positive L part: false",
    ]


def test_decide_trace_of_a_search_that_pops_a_flip_with_the_level_below(capsys):
    # The search decides p (level 1), then ~q (level 2), which needs
    # both s and ~s.  Backtracking flips it: q is implied at level 1, and
    # needs both r and ~r.  Level 1 then closes with the flipped q on it,
    # ~p is implied at level 0 and propagates q, and the search decides
    # t.  A search that tried each decision's negation first would end
    # at ~p & q & ~t & u.
    text = "(p | q) & (~p | ~q | r) & (~p | ~q | ~r) & (~p | q | s) & (~p | q | ~s) & (t | u)"
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", text)
    assert (code, out.strip()) == (0, "SAT")
    assert err.splitlines() == [
        f"satisfiable?: {text}",
        "  satisfying literals: ~p & q & t",
    ]


def pigeonhole(n):
    """The pigeonhole formula PHP(n + 1, n): n + 1 pigeons, each in one
    of n holes, no two in one hole.  Resolution refutes it only in
    2^Ω(n) steps (Haken, The intractability of resolution, TCS 1985), so
    no DPLL or CDCL search answers it within a budget stop's budget; at
    n = 10 an unbudgeted decide takes about 100 times 0.5 s.  Balanced
    parentheses keep parsing and V elimination well inside the budget."""
    parts = ["(" + " | ".join(f"x{i}_{j}" for j in range(n)) + ")" for i in range(n + 1)]
    parts += [f"(~x{a}_{j} | ~x{b}_{j})" for j in range(n) for a in range(n + 1) for b in range(a + 1, n + 1)]
    while len(parts) > 1:
        parts = ["(" + " & ".join(parts[i : i + 2]) + ")" for i in range(0, len(parts), 2)]
    return parts[0]


def test_decide_trace_survives_a_budget_stop(capsys):
    import time

    started = time.monotonic()
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", "--budget", "0.5", pigeonhole(10))
    assert code == 3
    assert time.monotonic() - started <= 0.5 + 1.5
    assert out == ""
    assert any(line.startswith("satisfiable?") for line in err.splitlines())


def test_decide_jsonl_record_fields(capsys):
    code, out, _ = run(capsys, "decide", "--mode", "sat", "--format", "jsonl", "p | q")
    record = json.loads(out)
    assert record["input"] == "p | q"
    assert record["verdict"] == "SAT"
    assert "millis" in record


def test_batch_mode_deterministic_verdicts(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p & ~p\nL1 p & ~L1 L1 p\nO1 ~O2 p\n# comment\n  # indented comment\n\n")
    args = ("decide", "--mode", "sat", "--agents", "2", "--format", "jsonl", "--batch", str(batch))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0

    def strip_millis(text):
        return [
            {k: v for k, v in json.loads(line).items() if k != "millis"}
            for line in text.strip().splitlines()
        ]

    records = strip_millis(out1)
    assert records == strip_millis(out2)
    assert [r["verdict"] for r in records] == ["UNSAT", "UNSAT", "SAT"]


def test_batch_budget_partial_exit_three(tmp_path, capsys, monkeypatch):
    batch = tmp_path / "batch.txt"
    batch.write_text("p\nq\n")
    monkeypatch.setenv("ONLYKNOW_TIME_BUDGET", "-1")
    code, out, _ = run(capsys, "decide", "--mode", "sat", "--format", "jsonl", "--batch", str(batch))
    assert code == 3
    assert "PARTIAL" in out


def test_single_query_budget_exit_three(capsys):
    code, _, err = run(capsys, "decide", "--mode", "sat", "--budget", "-1", "L1 p & ~L1 q")
    assert code == 3
    assert "PARTIAL" in err


@pytest.mark.parametrize("where", ["flag", "environment"])
def test_a_nan_budget_is_an_input_error(capsys, monkeypatch, where):
    # A NaN deadline compares false with every time, so it would turn
    # the budget off instead of bounding the query.
    argv = ["decide", "--mode", "sat", "L1 p & ~L1 q"]
    if where == "flag":
        argv[1:1] = ["--budget", "nan"]
    else:
        monkeypatch.setenv("ONLYKNOW_TIME_BUDGET", "nan")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "budget" in err


def test_nf_subcommand_streams_disjuncts(capsys):
    code, out, _ = run(capsys, "nf", "L1 (p | L1 q)")
    assert code == 0
    assert out.strip().splitlines() == ["L1 p", "L1 q"]
    code, out, _ = run(capsys, "nf", "--limit", "1", "L1 (p | L1 q)")
    assert out.strip().splitlines() == ["L1 p", "..."]


def test_nf_of_a_formula_with_v_is_an_input_error(capsys):
    code, out, err = run(capsys, "nf", "V p")
    assert (code, out) == (2, "")
    assert "normal form is defined for V-free formulas only" in err


def test_k45_with_witness(tmp_path, capsys):
    witness = tmp_path / "model.json"
    code, out, _ = run(capsys, "k45", "--witness", str(witness), "L1 p & ~L1 q")
    assert code == 0 and out.strip() == "SAT"
    payload = json.loads(witness.read_text())
    assert "worlds" in payload and "relations" in payload
    code, out, _ = run(capsys, "k45", "L1 p & ~L1 L1 p")
    assert code == 1 and out.strip() == "UNSAT"


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "--phi", "p", "--semantics", "levesque", "~L1 ~p -> N1 ~p")
    assert code == 0 and out.strip() == "VALID"
    code, out, _ = run(capsys, "oracle", "--phi", "p", "--semantics", "extended", "~L1 ~p -> N1 ~p")
    assert code == 1
    assert out.startswith("INVALID")
    assert "counterexample" in out


def test_reduce_subcommand(capsys):
    code, out, _ = run(capsys, "reduce", "--phi", "p", "N1 p")
    assert code == 0 and out.strip() == "~L1 p"


def test_kripke_subcommands(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text('{"worlds": {"w": ["p"]}, "relations": {"1": [["w", "w"]]}}')
    code, out, _ = run(capsys, "kripke", "validate", str(model))
    assert code == 0 and out.strip() == "OK"
    code, out, _ = run(capsys, "kripke", "check", str(model), "--world", "w", "--semantics", "naive", "L1 p & N1 p")
    assert code == 0 and out.strip() == "TRUE"
    code, out, _ = run(capsys, "kripke", "check", str(model), "--world", "w", "L1 ~p")
    assert code == 1 and out.strip() == "FALSE"


def test_believes_subcommand(capsys):
    code, out, _ = run(
        capsys, "believes", "--agent", "1", "--agents", "2",
        "--kb", "~L1 L2 p -> ~L2 p", "--query", "~L2 p",
    )
    assert code == 0 and out.strip() == "YES"
    code, out, _ = run(
        capsys, "believes", "--agent", "1", "--agents", "2",
        "--kb", "L2 p & (~L1 L2 p -> ~L2 p)", "--query", "~L2 p",
    )
    assert code == 1 and out.strip() == "NO"


@pytest.mark.parametrize(
    "argv",
    [
        ("believes", "--agent", "0", "--kb", "p", "--query", "p"),
        ("believes", "--agent", "3", "--agents", "2", "--kb", "p", "--query", "p"),
        ("classify", "--agent", "-1", "p"),
    ],
)
def test_agent_option_out_of_range_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "agent index" in err and "out of range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "--mode", "sat", "--jobs", "0", "p"),
        ("decide", "--mode", "sat", "--jobs", "-2", "p"),
        ("nf", "--limit", "-1", "p"),
    ],
)
def test_out_of_range_count_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert argv[-3] in err and "must be at least" in err


def test_okn_sets_subcommand(capsys):
    code, out, _ = run(capsys, "okn-sets", "--phi", "p", "~L1 ~p -> p")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["{p}", "count: 1"]


def test_parse_and_classify(capsys):
    code, out, _ = run(capsys, "parse", "O1 p")
    assert code == 0 and out.strip() == "O1 p"
    code, out, _ = run(capsys, "classify", "--agent", "1", "q & N2 L1 p")
    assert code == 0
    assert "i_objective: True" in out


def test_batch_with_trace_is_an_input_error(tmp_path, capsys):
    # A batch prints no trace, so asking for one is refused, not ignored.
    batch = tmp_path / "batch.txt"
    batch.write_text("p\n")
    code, out, err = run(capsys, "decide", "--mode", "sat", "--trace", "--batch", str(batch))
    assert code == 2
    assert out == ""
    assert "--trace" in err and "--batch" in err


def test_jobs_parallel_batch(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p\np & ~p\nL1 p -> L1 L1 p\n")
    code, out, _ = run(capsys, "decide", "--mode", "sat", "--jobs", "2", "--format", "jsonl", "--batch", str(batch))
    assert code == 0
    verdicts = [json.loads(line)["verdict"] for line in out.strip().splitlines()]
    assert verdicts == ["SAT", "UNSAT", "SAT"]


@pytest.mark.parametrize("cpus", [8, 1, None])
def test_jobs_ask_for_no_more_workers_than_lines_or_processors(tmp_path, capsys, monkeypatch, cpus):
    # A fork pool starts every worker at its first task, so --jobs 100000
    # on a two-line batch must ask for at most two, and for no pool where
    # one process is all there is to use.  The fake pool maps in this
    # process, and forking fails the test.
    import concurrent.futures
    import multiprocessing
    import os

    asked = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    batch = tmp_path / "batch.txt"
    batch.write_text("p\np & ~p\n")
    code, out, _ = run(
        capsys, "decide", "--mode", "sat", "--jobs", "100000", "--format", "jsonl", "--batch", str(batch)
    )
    assert code == 0
    assert [json.loads(line)["verdict"] for line in out.strip().splitlines()] == ["SAT", "UNSAT"]
    assert asked == ([2] if cpus == 8 else [])
    assert multiprocessing.active_children() == []


def test_internal_error_exits_four_not_a_verdict_code(monkeypatch, capsys):
    from onlyknow.decision import Decider

    def crash(self, f):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(Decider, "consistent", crash)
    code, out, err = run(capsys, "decide", "--mode", "sat", "p")
    assert code == 4
    assert out == ""
    assert "internal error: RecursionError" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_bad_line_gets_error_record_and_later_lines_are_decided(tmp_path, capsys, jobs):
    batch = tmp_path / "batch.txt"
    batch.write_text("p\n(q &\np & ~p\n")
    code, out, _ = run(
        capsys, "decide", "--mode", "sat", "--jobs", jobs, "--format", "jsonl", "--batch", str(batch)
    )
    assert code == 2
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["verdict"] for r in records] == ["SAT", "ERROR", "UNSAT"]
    assert records[1]["input"] == "(q &"
    assert records[1]["error"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_budget_bounds_every_line(tmp_path, capsys, jobs):
    import time

    batch = tmp_path / "batch.txt"
    batch.write_text(f"{pigeonhole(10)}\np\n")
    started = time.monotonic()
    code, out, _ = run(
        capsys, "decide", "--mode", "sat", "--budget", "0.3", "--jobs", jobs,
        "--format", "jsonl", "--batch", str(batch),
    )
    assert code == 3
    assert time.monotonic() - started <= 0.3 + 1.5
    assert [json.loads(line)["verdict"] for line in out.strip().splitlines()] == ["PARTIAL"]
