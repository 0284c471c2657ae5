"""Spans and counters around the calls into each layer of the engine.

Nothing here edits the engine.  ``install`` rebinds module attributes
(``formula.parse``, ``autoepistemic.believes``, ``normal_form.normalize``
and the ``to_normal_form``/``simplify`` names bound in ``decision``) to
wrappers that call the originals, and ``TracedDecider`` overrides the
recursive steps of ``Decider``.  The memo stays on, so a traced query
takes the same path as an untraced one.

A span is (query id, span id, parent span id, name, start, end).  Spans
are kept in memory and written when the run ends.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from onlyknow import autoepistemic, decision, formula, normal_form
from onlyknow.formula import children

SPAN_CAP = 300_000  # spans kept for the span file; self times count all of them


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.self_time: Counter[str] = Counter()
        self.total_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_level = 0
        self.query = 0
        self.deciders: list[TracedDecider] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._active: Counter[str] = Counter()
        self._next_id = 0

    def call(self, name: str, fn: Callable, *args, outermost: bool = False, **kwargs):
        """Run fn inside a span.  With outermost, a recursive call made
        from inside a span of the same name gets no span of its own."""
        if outermost and self._active[name]:
            return fn(*args, **kwargs)
        self._active[name] += 1
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            span_id, _, start, child = self._stack.pop()
            self._active[name] -= 1
            duration = end - start
            self.self_time[name] += duration - child
            self.total_time[name] += duration
            parent = 0
            if self._stack:
                self._stack[-1][3] += duration
                parent = self._stack[-1][0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.query, span_id, parent, name, start, end))
            else:
                self.dropped += 1

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("query\tspan\tparent\tname\tstart\tend\n")
            for q, s, p, name, start, end in self.spans:
                out.write(f"{q}\t{s}\t{p}\t{name}\t{start:.9f}\t{end:.9f}\n")


def dag_size(f) -> int:
    """Distinct subformula objects reachable from f."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack.extend(children(g))
    return len(seen)


class _CountingMemo(dict):
    """Decider memo that counts lookups and hits; storage is unchanged."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def __contains__(self, key) -> bool:
        hit = dict.__contains__(self, key)
        self._tracer.counts["decision.memo_lookups"] += 1
        self._tracer.counts["decision.memo_hits"] += hit
        return hit


class TracedDecider(decision.Decider):
    def __init__(self, tracer: Tracer, deadline: float | None = None) -> None:
        super().__init__(deadline=deadline)
        self._tracer = tracer
        self._memo = _CountingMemo(tracer)
        tracer.deciders.append(self)

    def eliminate_val(self, f):
        if isinstance(f, formula.Val):
            self._tracer.counts["decision.val_subqueries"] += 1
        return self._tracer.call(
            "decision.eliminate_val", super().eliminate_val, f, outermost=True
        )

    def _sat(self, f, level):
        t = self._tracer
        t.counts["decision.sat_calls"] += 1
        t.max_level = max(t.max_level, level)
        return t.call("decision.sat", super()._sat, f, level)

    def _block_ok(self, b, level):
        t = self._tracer
        t.counts["decision.group_tests"] += 1
        ok = t.call("decision.group", super()._block_ok, b, level)
        t.counts["decision.group_fails"] += not ok
        return ok

    def _prop_sat(self, f):
        t = self._tracer
        if t._active["decision.prop_sat"]:
            return super()._prop_sat(f)
        t.counts["decision.prop_sat_calls"] += 1
        ok = t.call("decision.prop_sat", super()._prop_sat, f)
        t.counts["decision.prop_unsat"] += not ok
        return ok


def _traced_stream(tracer: Tracer, original: Callable, counter: str) -> Callable:
    """Wrap a disjunct generator so that each next() is one span."""

    def stream(f, *args, **kwargs) -> Iterator:
        it = original(f, *args, **kwargs)
        while True:
            try:
                d = tracer.call("normal_form.disjunct", next, it)
            except StopIteration:
                return
            tracer.counts["normal_form.disjuncts"] += 1
            tracer.counts[counter] += 1
            yield d

    return stream


@contextmanager
def install(tracer: Tracer):
    """Rebind the layer entry points to traced wrappers for the duration.
    An entry point the engine no longer has is skipped."""

    def spanned(name: str):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)

            return wrapper

        return wrap

    def parse(fn):
        def wrapper(*args, **kwargs):
            f = tracer.call("formula.parse", fn, *args, **kwargs)
            tracer.counts["formula.parse_nodes"] += dag_size(f)
            return f

        return wrapper

    def normalize(fn):
        def wrapper(f):
            if tracer._active["normal_form.normalize"]:
                return fn(f)  # recursion inside the outermost call
            g = tracer.call("normal_form.normalize", fn, f)
            tracer.counts["normal_form.normalized_nodes"] += dag_size(g)
            return g

        return wrapper

    patches = [
        (formula, "parse", parse),
        (autoepistemic, "believes", spanned("autoepistemic.believes")),
        (normal_form, "normalize", normalize),
        (decision, "simplify", spanned("normal_form.simplify")),
        (decision, "to_normal_form", lambda fn: _traced_stream(tracer, fn, "decision.disjuncts")),
        (normal_form, "to_normal_form", lambda fn: _traced_stream(tracer, fn, "nf.disjuncts")),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches if hasattr(module, name)]
    wrappers = {(module, name): wrap for module, name, wrap in patches}
    try:
        for module, name, fn in saved:
            setattr(module, name, wrappers[module, name](fn))
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
