"""The work-count contract: how much work the engine does at fixed
points of tools/growth.py's families, pinned in work_counts.json, one
row per point.  The counts depend only on the algorithm, not on the
host's speed, so a change that makes the engine do more work fails
here even where its verdicts and its tests stay right.  A count above
its row fails; a count below it is printed, so the change that lowers
it can lower the row.  A change that raises a row says so, with the
old and new counts and why.

The counts are read through wrappers, as in
test_a_default_theory_question_searches_few_formulas: _sat calls,
_search calls, group tests (_group_ok calls), the clauses that
to_clauses makes, the literals that the group blocks take in
(_Block.push calls), the literals the searches assign
(_Trail.assign calls: set-up units, unit propagation, decisions and
only knowing's forced literals), and the rounds of the pair's
propagation (Decider._forced calls, made only in a search with an N
literal whose argument has dependencies).  A wrapper fails the point
at once when its count passes CAP times its row, so a change that
makes the engine blow up fails in seconds instead of running on."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from onlyknow import decision
from onlyknow.decision import Decider, _Block, _Trail
from onlyknow.formula import parse

TESTS = Path(__file__).resolve().parent
ROWS = json.loads((TESTS / "work_counts.json").read_text())
COUNTS = ("sat", "search", "group_ok", "clauses", "push", "assign", "forced")
CAP = 4


@pytest.fixture(scope="module")
def growth():
    spec = importlib.util.spec_from_file_location("growth", TESTS.parent / "tools" / "growth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_work(monkeypatch, row: dict) -> dict[str, int]:
    """Wrap the counted routines; the returned counts grow as they run,
    and one that passes CAP times its row raises AssertionError there."""
    counts = dict.fromkeys(COUNTS, 0)

    def add(key, n):
        counts[key] += n
        if counts[key] > CAP * row[key]:
            raise AssertionError(f"{key} passed {CAP} times its row of {row[key]}: {counts}")

    def counted(owner, name, key):
        method = getattr(owner, name)

        def run(*args):
            add(key, 1)
            return method(*args)

        monkeypatch.setattr(owner, name, run)

    counted(Decider, "_sat", "sat")
    counted(Decider, "_search", "search")
    counted(Decider, "_group_ok", "group_ok")
    counted(_Block, "push", "push")
    counted(_Trail, "assign", "assign")
    counted(Decider, "_forced", "forced")
    to_clauses = decision.to_clauses

    def clausify(*args):
        variables, clauses = to_clauses(*args)
        add("clauses", len(clauses))
        return variables, clauses

    monkeypatch.setattr(decision, "to_clauses", clausify)
    return counts


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row['family']}-{row['size']}-{row['case'] or 'sat'}")
def test_work_counts_stay_within_their_row(growth, row, monkeypatch):
    (thunk, answer), = [(t, a) for case, t, a in growth.points(row["family"], row["size"]) if case == row["case"]]
    counts = _count_work(monkeypatch, row)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        verdict = thunk()
    finally:
        sys.setrecursionlimit(limit)
    assert answer is None or verdict == answer
    below = {k: (counts[k], row[k]) for k in COUNTS if counts[k] < row[k]}
    if below:
        print(f"below the row (count, row): {below}")
    assert {k: counts[k] for k in COUNTS if counts[k] > row[k]} == {}, row


def test_a_count_past_its_cap_fails_inside_the_run(monkeypatch):
    # With every row at 0 the first _sat call is past the cap, so the
    # wrapper raises before the query is answered.
    _count_work(monkeypatch, dict.fromkeys(COUNTS, 0))
    with pytest.raises(AssertionError, match="sat passed 4 times its row of 0"):
        Decider().consistent(parse("L1 p & ~L1 q", 1))
