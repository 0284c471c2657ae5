import importlib.util
import sys
from pathlib import Path

import pytest

GROWTH = Path(__file__).resolve().parents[1] / "tools" / "growth.py"


@pytest.fixture(scope="module")
def growth():
    spec = importlib.util.spec_from_file_location("growth", GROWTH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "family",
    ["believes", "believes-secret", "nf", "3cnf", "modal-cnf", "iff-chain", "and-chain", "nested-l", "nested-l-sat", "parse",
     "chain", "nixon", "dag", "about", "alternating", "nested-l-or"],
)
def test_smallest_point_of_each_family_has_its_answer(growth, family):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cases = growth.points(family, growth.SIZES[family][0])
        assert cases
        for case, thunk, answer in cases:
            verdict = thunk()
            assert answer is None or verdict == answer, (family, case, verdict)
    finally:
        sys.setrecursionlimit(limit)
