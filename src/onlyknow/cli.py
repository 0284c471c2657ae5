"""Command-line front end.

Exit codes: 0 for a positive verdict (or plain success), 1 for a
negative verdict, 2 for usage or input errors, 3 when the time budget
ran out (partial results only, never a wrong verdict), 4 for an
internal error.  In a batch, a line that does not parse gets an ERROR
record, the later lines are still decided, and the exit code is 2.
The budget comes from --budget or the ONLYKNOW_TIME_BUDGET environment
variable, in seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback  # up front, so the internal-error handler needs no import

# A subcommand imports what only it uses (the normal-form stream, the
# oracles, the query layer, the process pool, json), so that deciding a
# formula loads no more.
from .decision import BudgetExceededError, Decider
from .formula import FormulaError, parse, to_text

_POSITIVE = ("SAT", "VALID", "YES")


def _budget_deadline(budget: float | None) -> float | None:
    if budget is None:
        raw = os.environ.get("ONLYKNOW_TIME_BUDGET")
        if raw is None:
            return None
        budget = float(raw)
    if budget != budget:  # a NaN deadline would never be reached
        raise ValueError("time budget is not a number")
    return time.monotonic() + budget


def _check_agent(args) -> None:
    """--agent takes the indices the parser accepts in L<i> and N<i>."""
    if args.agent < 1 or (args.agents is not None and args.agent > args.agents):
        raise FormulaError(f"agent index {args.agent} out of range")


def _emit(args, record: dict) -> None:
    if args.format == "jsonl":
        import json

        print(json.dumps(record, sort_keys=True))
    else:
        line = record["verdict"]
        if record.get("error"):
            line += f"  error: {record['error']}"
        if record.get("counterexample"):
            line += f"  counterexample: {record['counterexample']}"
        print(line)


def _verdict_code(verdict: str) -> int:
    return 0 if verdict in _POSITIVE else 1


# -- subcommands -------------------------------------------------------


def _cmd_parse(args) -> int:
    f = parse(args.formula, args.agents)
    print(to_text(f))
    return 0


def _cmd_classify(args) -> int:
    from .fragments import classify

    _check_agent(args)
    f = parse(args.formula, args.agents)
    flags = classify(f, args.agent)._asdict()
    if args.format == "jsonl":
        import json

        print(json.dumps({"input": args.formula, **flags}, sort_keys=True))
    else:
        for key, value in flags.items():
            print(f"{key}: {value}")
    return 0


def _cmd_nf(args) -> int:
    from .normal_form import to_normal_form

    f = parse(args.formula, args.agents)
    for count, d in enumerate(to_normal_form(f)):
        if args.limit is not None and count >= args.limit:
            print("...")
            break
        print(to_text(d.to_formula()))
    return 0


def _trace_to_stderr(level: int, rule: str, g) -> None:
    print(f"{'  ' * level}{rule}: {to_text(g)}", file=sys.stderr, flush=True)


def _decide_one(text: str, mode: str, agents: int | None, trace, deadline: float | None) -> dict:
    f = parse(text, agents)
    started = time.monotonic()
    decider = Decider(trace=trace, deadline=deadline)
    verdict = decider.consistent(f) if mode == "sat" else decider.valid(f)
    return {
        "input": text,
        "verdict": {"satisfiable": "SAT", "unsatisfiable": "UNSAT", "valid": "VALID", "invalid": "INVALID"}[verdict.status],
        "millis": int((time.monotonic() - started) * 1000),
    }


def _decide_line(task: tuple[str, str, int | None, float | None]) -> dict:
    """One batch line: its record, an ERROR record when it is not a
    well-formed formula, or a PARTIAL record when the budget ran out."""
    text, mode, agents, deadline = task
    try:
        return _decide_one(text, mode, agents, None, deadline)
    except FormulaError as exc:
        return {"input": text, "verdict": "ERROR", "error": str(exc)}
    except BudgetExceededError:
        return {"input": text, "verdict": "PARTIAL", "partial": True}


def _cmd_decide(args) -> int:
    deadline = _budget_deadline(args.budget)
    if args.batch is None:
        trace = _trace_to_stderr if args.trace else None
        record = _decide_one(args.formula, args.mode, args.agents, trace, deadline)
        _emit(args, record)
        return _verdict_code(record["verdict"])
    if args.trace:  # the lines may run in worker processes, whose trace would interleave
        raise ValueError("--trace cannot be combined with --batch")

    with open(args.batch) as handle:
        lines = [ln for ln in map(str.strip, handle) if ln and not ln.startswith("#")]
    # time.monotonic() is system-wide on Linux, so workers compare the deadline directly.
    tasks = [(ln, args.mode, args.agents, deadline) for ln in lines]
    pool = None
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(args.jobs)
    try:
        code = 0
        for record in pool.map(_decide_line, tasks) if pool else map(_decide_line, tasks):
            _emit(args, record)
            if record["verdict"] == "PARTIAL":
                return 3
            if record["verdict"] == "ERROR":
                code = 2
        return code
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _cmd_k45(args) -> int:
    from . import k45

    f = parse(args.formula, args.agents)
    model = k45.find_model(f)
    print("SAT" if model is not None else "UNSAT")
    if model is not None and args.witness:
        model.save(args.witness)
    return 0 if model is not None else 1


def _cmd_oracle(args) -> int:
    from . import finite_semantics

    f = parse(args.formula)
    phi = [a for a in args.phi.split(",") if a]
    result = finite_semantics.oracle_valid(f, phi, semantics=args.semantics, bound=args.bound)
    record = {"input": args.formula, "verdict": "VALID" if result.valid else "INVALID"}
    if result.counterexample is not None:
        record["counterexample"] = result.counterexample.describe()
    _emit(args, record)
    return _verdict_code(record["verdict"])


def _cmd_reduce(args) -> int:
    from . import finite_semantics

    f = parse(args.formula)
    phi = [a for a in args.phi.split(",") if a]
    print(to_text(finite_semantics.reduce_n_to_l(f, phi, bound=args.bound)))
    return 0


def _cmd_kripke(args) -> int:
    from . import kripke

    model = kripke.KripkeStructure.load(args.model)
    if args.kripke_command == "validate":
        report = kripke.validate(model)
        for agent, u, v, w in report.transitivity_violations:
            print(f"transitivity violation agent {agent}: ({u},{v}) and ({v},{w}) but not ({u},{w})")
        for agent, u, v, w in report.euclidean_violations:
            print(f"euclidean violation agent {agent}: ({u},{v}) and ({u},{w}) but not ({v},{w})")
        print("OK" if report.ok else "NOT-K45")
        return 0 if report.ok else 1
    f = parse(args.formula)
    checker = {
        "basic": kripke.check_basic,
        "naive": kripke.check_naive_n,
        "fixed": kripke.check_fixed_n,
    }[args.semantics]
    value = checker(model, args.world, f)
    print("TRUE" if value else "FALSE")
    return 0 if value else 1


def _cmd_believes(args) -> int:
    from . import autoepistemic

    _check_agent(args)
    deadline = _budget_deadline(args.budget)
    kb = parse(args.kb, args.agents)
    query = parse(args.query, args.agents)
    answer = autoepistemic.believes(args.agent, kb, query, Decider(deadline=deadline))
    _emit(args, {"input": f"{args.kb} |= {args.query}", "verdict": "YES" if answer else "NO"})
    return 0 if answer else 1


def _cmd_okn_sets(args) -> int:
    from . import autoepistemic, finite_semantics

    f = parse(args.formula)
    phi = [a for a in args.phi.split(",") if a]
    sets = autoepistemic.only_knowing_sets(f, phi, bound=args.bound)
    for possible in sets:
        names = sorted(finite_semantics.world_to_text(w, phi) for w in possible)
        print("{" + ", ".join(names) + "}")
    print(f"count: {len(sets)}")
    return 0


def _at_least(low: int):
    """An argparse type for a count: an int no smaller than low, so a
    smaller one is an input error (exit 2)."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the arguments, it builds only the
    subcommand they name, so a run pays for one subparser; it builds them
    all when there are none, and for --help before a name or an unknown
    name, so that argparse lists every command."""
    top = argparse.ArgumentParser(prog="onlyknow", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    named = next((a for a in argv or () if a in ("-h", "--help") or not a.startswith("-")), None)

    def add(command, help):
        return sub.add_parser(command, help=help) if named in (None, command) else None

    def common(p, agents=True, fmt=True):
        if agents:
            p.add_argument(
                "--agents", type=int, default=None, help="highest agent index accepted (default: any index >= 1)"
            )
        if fmt:
            p.add_argument("--format", choices=("text", "jsonl"), default="text")

    if p := add("parse", "parse and reprint a formula"):
        p.add_argument("formula")
        common(p, fmt=False)
        p.set_defaults(func=_cmd_parse)

    if p := add("classify", "syntactic classification relative to an agent"):
        p.add_argument("formula")
        p.add_argument("--agent", type=int, default=1)
        common(p)
        p.set_defaults(func=_cmd_classify)

    if p := add("nf", "stream the normal-form disjuncts"):
        p.add_argument("formula")
        p.add_argument("--limit", type=_at_least(0), default=None)
        common(p, fmt=False)
        p.set_defaults(func=_cmd_nf)

    if p := add("decide", "satisfiability or validity"):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("formula", nargs="?")
        source.add_argument("--batch", default=None, help="file with one formula per line")
        p.add_argument("--mode", choices=("sat", "valid"), required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--jobs", type=_at_least(1), default=1)
        p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
        common(p)
        p.set_defaults(func=_cmd_decide)

    if p := add("k45", "K45 satisfiability of a basic formula"):
        p.add_argument("formula")
        p.add_argument("--witness", default=None, help="write a witness model to this JSON file")
        common(p, fmt=False)
        p.set_defaults(func=_cmd_k45)

    if p := add("oracle", "finite-alphabet validity by enumeration"):
        p.add_argument("formula")
        p.add_argument("--phi", required=True, help="comma-separated atom alphabet")
        p.add_argument("--semantics", choices=("levesque", "extended"), default="levesque")
        p.add_argument("--bound", type=int, default=2)
        common(p, agents=False)
        p.set_defaults(func=_cmd_oracle)

    if p := add("reduce", "rewrite N away over a finite alphabet"):
        p.add_argument("formula")
        p.add_argument("--phi", required=True)
        p.add_argument("--bound", type=int, default=2)
        common(p, agents=False, fmt=False)
        p.set_defaults(func=_cmd_reduce)

    if p := add("kripke", "finite Kripke models"):
        ksub = p.add_subparsers(dest="kripke_command", required=True)
        pv = ksub.add_parser("validate", help="report K45 frame violations")
        pv.add_argument("model")
        pv.set_defaults(func=_cmd_kripke)
        pc = ksub.add_parser("check", help="model-check a formula at a world")
        pc.add_argument("model")
        pc.add_argument("formula")
        pc.add_argument("--world", required=True)
        pc.add_argument("--semantics", choices=("basic", "naive", "fixed"), default="basic")
        pc.set_defaults(func=_cmd_kripke)

    if p := add("believes", "entailment under only knowing"):
        p.add_argument("--agent", type=int, required=True)
        p.add_argument("--kb", required=True)
        p.add_argument("--query", required=True)
        p.add_argument("--budget", type=float, default=None)
        common(p)
        p.set_defaults(func=_cmd_believes)

    if p := add("okn-sets", "finite fixed points of only knowing"):
        p.add_argument("formula")
        p.add_argument("--phi", required=True)
        p.add_argument("--bound", type=int, default=2)
        common(p, agents=False, fmt=False)
        p.set_defaults(func=_cmd_okn_sets)

    if not sub.choices:
        return build_parser()
    return top


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(20000)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError:
        print("PARTIAL: time budget exceeded", file=sys.stderr)
        return 3
    except (FormulaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure must never read as a verdict
        traceback.print_exc(limit=-8)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
