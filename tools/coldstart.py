"""Cold-start wall times of the engine, in fresh interpreters.

Usage: python tools/coldstart.py [--runs N] [--out FILE]

Times N fresh processes of each command: ``pass`` (the interpreter
alone), ``import onlyknow; Decider()``, ``onlyknow decide --mode sat
'p & ~L1 q'``, and ``onlyknow classify --agent 1 'p & ~L1 q'`` (both
through ``onlyknow.cli.main``, as the console script runs them).  A
decide loads formula and decision only; classify also compiles
fragments, the paper's syntactic classes, so the last two rows differ
by what that module costs.  Each is timed twice.  With no cache, the
package's sources are copied into a fresh directory and
PYTHONDONTWRITEBYTECODE is set, so they are compiled every time; the
standard library keeps its installed caches.  Cached, every module's
bytecode is read from a temporary PYTHONPYCACHEPREFIX that one untimed
run filled.  Nothing is written into src/.  One line is printed per
command and mode: median, first and third quartile, in ms, so N must be
at least 2; a smaller N is a usage error (exit 2), before any process
starts.  With --out the table is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = "import sys; from onlyknow.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = {
    "pass": ["-c", "pass"],
    "import": ["-c", "import onlyknow; onlyknow.Decider()"],
    "decide": ["-c", CLI, "decide", "--mode", "sat", "p & ~L1 q"],
    "classify": ["-c", CLI, "classify", "--agent", "1", "p & ~L1 q"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="processes per command and mode, at least 2")
    parser.add_argument("--out", type=Path, help="write the table as JSON here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error(f"--runs {args.runs}: the quartiles need at least 2 runs")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC / "onlyknow", Path(tmp, "onlyknow"), ignore=shutil.ignore_patterns("__pycache__"))
        base = dict(os.environ, PYTHONPATH=tmp)
        base.pop("PYTHONDONTWRITEBYTECODE", None)
        base.pop("PYTHONPYCACHEPREFIX", None)
        envs = {
            "no_cache": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
            "cached": {**base, "PYTHONPYCACHEPREFIX": str(Path(tmp, "pycache"))},
        }
        for argv in COMMANDS.values():  # fill the cache
            subprocess.run([sys.executable, *argv], cwd=tmp, env=envs["cached"], stdout=subprocess.DEVNULL, check=True)
        times: dict[str, dict[str, list[float]]] = {mode: {name: [] for name in COMMANDS} for mode in envs}
        for _ in range(args.runs):  # interleaved, so a change in host speed hits every row alike
            for mode, env in envs.items():
                for name, argv in COMMANDS.items():
                    start = time.perf_counter()
                    subprocess.run([sys.executable, *argv], cwd=tmp, env=env, stdout=subprocess.DEVNULL, check=True)
                    times[mode][name].append((time.perf_counter() - start) * 1000)
    table = {mode: {name: dict(zip(("q1_ms", "median_ms", "q3_ms"), statistics.quantiles(runs, n=4)))
                    for name, runs in rows.items()} for mode, rows in times.items()}
    for mode, rows in table.items():
        for name, row in rows.items():
            print(f"{mode:9} {name:8} {row['median_ms']:8.1f} ms  (q1 {row['q1_ms']:.1f}, q3 {row['q3_ms']:.1f})")
    if args.out:
        args.out.write_text(json.dumps({"python": platform.python_version(), "runs": args.runs, "table": table},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
