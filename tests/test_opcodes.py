import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

OPCODES = Path(__file__).resolve().parents[1] / "tools" / "opcodes.py"


@pytest.fixture(scope="module")
def opcodes():
    spec = importlib.util.spec_from_file_location("opcodes", OPCODES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["defaults", "modal-mix"])
def test_first_queries_of_each_workload_are_counted(opcodes, workload, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["opcodes.py", "--workload", workload, "--queries", "4"])
    before = sys.gettrace()
    opcodes.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["rung", "queries", "total", "p50", "p90"]
    name, queries, total, p50, p90 = rows[-1].rsplit(maxsplit=4)
    assert (name, queries) == ("all", "4")
    assert 0 < int(p50) <= int(p90) <= int(total)
    assert sum(int(row.rsplit(maxsplit=4)[1]) for row in rows[:-1]) == 4
    assert sys.gettrace() is before


def test_rung_prefix_counts_only_those_rungs(opcodes, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["opcodes.py", "--workload", "modal-mix", "--rung", "nf k=4"])
    opcodes.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.rsplit(maxsplit=4)[:2] for row in rows] == [["nf k=4", "1"], ["all", "1"]]
    assert rows[0].split()[2:] == rows[1].split()[1:]


def test_render_answers_nf_as_the_cli_prints_it(opcodes, monkeypatch, capsys):
    # Rendering each disjunct costs more than counting it, and the
    # disjunct count is checked against the query's either way.
    def total(*argv):
        monkeypatch.setattr(sys, "argv", ["opcodes.py", "--workload", "modal-mix", "--rung", "nf k=4", *argv])
        opcodes.main()
        *_, last = capsys.readouterr().out.splitlines()
        name, queries, total, _, _ = last.rsplit(maxsplit=4)
        assert (name, queries) == ("all", "1")
        return int(total)

    assert total("--render") > total()


@pytest.mark.parametrize("argv", [["--rung", "nosuch"], ["--cycles", "0"], ["--queries", "0"]])
def test_a_selection_that_matches_no_query_is_a_usage_error(opcodes, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["opcodes.py", *argv])
    with pytest.raises(SystemExit) as stop:
        opcodes.main()
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "matches no query" in captured.err and " ".join(argv).replace("nosuch", "'nosuch'") in captured.err


@pytest.mark.parametrize("argv", [["--cycles", "-1"], ["--queries", "-1"], ["--queries", "-3"]])
def test_a_negative_count_is_a_usage_error(opcodes, argv, monkeypatch, capsys):
    # Refused before anything is counted: --cycles -1 would end in a
    # traceback from islice, and --queries -n would count all but the
    # last n queries.
    monkeypatch.setattr(sys, "argv", ["opcodes.py", *argv])
    with pytest.raises(SystemExit) as stop:
        opcodes.main()
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"argument {argv[0]}: must be 0 or more" in captured.err


def test_a_rung_counts_alike_alone_and_in_the_full_run():
    # Each run is a fresh interpreter, so the rung's first query is the
    # first of its process when it runs alone, and counting it must not
    # charge it with the process's first-use work.
    def rows(*argv):
        out = subprocess.run(
            [sys.executable, str(OPCODES), "--workload", "modal-mix", *argv],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return {row.rsplit(maxsplit=4)[0]: row.split()[-4:] for row in out.splitlines()[1:]}

    alone, full = rows("--rung", "nf k=6"), rows()
    assert alone["nf k=6"] == full["nf k=6"]
    assert alone["nf k=6"][2] == alone["nf k=6"][3]  # its queries count alike, so p50 is p90


def test_growth_counts_each_case_of_a_point(opcodes, monkeypatch, capsys):
    # The smallest believes point has three cases, each checked against
    # its answer, and a second count of the point gives the same numbers.
    monkeypatch.setattr(sys, "argv", ["opcodes.py", "--growth", "believes:10"])
    opcodes.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["family", "size", "case", "opcodes"]
    cells = [row.split() for row in rows]
    assert [cell[:3] for cell in cells] == [["believes", "10", case] for case in ("yes", "no", "blocked-no")]
    assert all(int(cell[3]) > 0 for cell in cells)
    assert [n for _, n in opcodes.count_growth("believes", 10)] == [int(cell[3]) for cell in cells]
