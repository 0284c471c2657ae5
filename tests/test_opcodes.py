import importlib.util
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
