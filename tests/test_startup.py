"""Start-up: deciding a formula loads only formula and decision, and
the rest of the package, the syntactic classes and the normal-form
stream included, loads on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that the syntactic classes, the normal-form stream, the
# oracles, the query layer or a process pool need, and that a decide
# must not load; typing, which only annotations name.
OFF_THE_DECIDE_PATH = (
    "onlyknow.fragments",
    "onlyknow.normal_form",
    "onlyknow.k45",
    "onlyknow.kripke",
    "onlyknow.finite_semantics",
    "onlyknow.corpus",
    "onlyknow.autoepistemic",
    "dataclasses",
    "concurrent.futures",
    "typing",
)

# The paper's syntactic classes and the rewrites no decide asks for: they
# live in onlyknow.fragments and still resolve from onlyknow.formula.
MOVED = (
    "walk", "nodes", "atoms", "agents",
    "is_propositional", "is_basic", "is_i_objective", "is_i_subjective", "in_onl_minus", "modal_depth",
    "FormulaClass", "classify", "substitute_atom", "assign", "build_independent",
)
# The moved names that the package root imported up front and now loads
# on first use.
MOVED_FROM_THE_ROOT = ("FormulaClass", "build_independent", "classify", "modal_depth")

DECIDES = {
    "library": "import onlyknow\nassert onlyknow.Decider().consistent(onlyknow.parse('p & ~L1 q'))\n",
    "cli": "from onlyknow.cli import main\nassert main(['decide', '--mode', 'sat', 'p & ~L1 q']) == 0\n",
    "batch": "from onlyknow.cli import main\n"
    "assert main(['decide', '--batch', 'lines.txt', '--jobs', '1', '--mode', 'sat']) == 0\n",
}


def _fresh_python(code: str, cwd: Path) -> str:
    """Run code in a fresh interpreter without site packages and return
    its standard output."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("case", sorted(DECIDES))
def test_a_decide_loads_only_the_decide_path(case, tmp_path):
    (tmp_path / "lines.txt").write_text("p & ~L1 q\nL1 p | N2 q\n")
    check = f"import sys\nprint(sorted(set({OFF_THE_DECIDE_PATH!r}) & set(sys.modules)))\n"
    assert _fresh_python(DECIDES[case] + check, tmp_path).splitlines()[-1] == "[]"


@pytest.mark.parametrize("case", ["library", "cli"])
def test_a_decide_compiles_none_of_the_moved_names(case, tmp_path):
    check = f"import onlyknow.formula\nprint(sorted(set({MOVED!r}) & set(vars(onlyknow.formula))))\n"
    assert _fresh_python(DECIDES[case] + check, tmp_path).splitlines()[-1] == "[]"


def test_each_moved_name_resolves_where_it_was(tmp_path):
    code = (
        "import onlyknow, onlyknow.formula, onlyknow.fragments\n"
        f"for name in {MOVED!r}:\n"
        "    assert getattr(onlyknow.formula, name) is getattr(onlyknow.fragments, name), name\n"
        f"for name in {MOVED_FROM_THE_ROOT!r}:\n"
        "    assert getattr(onlyknow, name) is getattr(onlyknow.fragments, name), name\n"
        "try:\n"
        "    onlyknow.formula.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert _fresh_python(code, tmp_path).strip() == "ok"


def test_believes_loads_no_oracle_and_no_typing(tmp_path):
    # The query layer adds only autoepistemic to the decide path.
    code = (
        "from onlyknow.cli import main\n"
        "assert main(['believes', '--agent', '1', '--kb', 'p', '--query', 'p']) == 0\n"
        "import sys\n"
        f"print(sorted((set({OFF_THE_DECIDE_PATH!r}) - {{'onlyknow.autoepistemic'}}) & set(sys.modules)))\n"
    )
    assert _fresh_python(code, tmp_path).splitlines()[-1] == "[]"


def test_every_public_name_resolves_after_a_bare_import(tmp_path):
    code = (
        "import onlyknow, sys\n"
        "assert 'onlyknow.k45' not in sys.modules\n"
        "assert onlyknow.k45.sat(onlyknow.parse('L1 p & ~L1 ~p'))\n"
        "assert onlyknow.k45_sat is onlyknow.k45.sat\n"
        "names = {}\n"
        "exec('from onlyknow import *', names)\n"
        "assert all(names[n] is getattr(onlyknow, n) for n in onlyknow.__all__)\n"
        "assert set(onlyknow.__all__) <= set(dir(onlyknow))\n"
        "assert not hasattr(onlyknow, 'no_such_name')\n"
        "print('ok')\n"
    )
    assert _fresh_python(code, tmp_path).strip() == "ok"


@pytest.mark.parametrize("runs", ["1", "0"])
def test_coldstart_rejects_fewer_than_two_runs_before_any_process_starts(runs, monkeypatch, capsys):
    # The table's quartiles need two runs per row; the check must come
    # before the tool copies the sources or starts a process.
    import importlib.util

    spec = importlib.util.spec_from_file_location("coldstart", SRC.parent / "tools" / "coldstart.py")
    coldstart = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coldstart)

    def started(*args, **kwargs):
        raise AssertionError("a process started")

    monkeypatch.setattr(coldstart.subprocess, "run", started)
    monkeypatch.setattr(coldstart.shutil, "copytree", started)
    monkeypatch.setattr(sys, "argv", ["coldstart.py", "--runs", runs])
    with pytest.raises(SystemExit) as stop:
        coldstart.main()
    assert stop.value.code == 2
    assert "at least 2" in capsys.readouterr().err
