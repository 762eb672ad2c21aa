"""The traced run: spans around calls into the program, and the per-layer metrics.

Tracing is installed from outside the program: the public functions
listed in TARGETS are replaced, in every ``wreathtree`` module that
holds them, by wrappers that record one span per call (name, start,
end, the op it belongs to, its parent span) and the counts named in
TARGETS.  Spans stay in memory until the run ends.  Peak memory is
taken in a separate pass under tracemalloc, so it inflates no timing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import harness

LAYERS = ("cli", "automaton", "modmath", "decide", "oracle")


def _captured_bytes() -> int:
    """Bytes written so far to a captured stdout (the caller redirects it to a StringIO)."""
    return len(sys.stdout.getvalue().encode())


def _stream_steps(stream) -> int:
    return len(stream.preperiod) + len(stream.period)


# span name -> (module, attribute, class or None, counts(args, result) -> dict)
TARGETS = {
    "cli.main": ("cli", "main", None, lambda a, r: {"stdout_bytes": _captured_bytes()}),
    "automaton.parse_automaton": ("automaton", "parse_automaton", None,
                                  lambda a, r: {"lines": a[0].count("\n")}),
    "automaton.compose": ("automaton", "compose", "InitialAutomaton",
                          lambda a, r: {"states": r.automaton.n_states}),
    "automaton.minimize": ("automaton", "minimize", "InitialAutomaton",
                           lambda a, r: {"states_in": a[0].automaton.n_states, "states_out": r.automaton.n_states}),
    "automaton.inverse": ("automaton", "inverse", "InitialAutomaton", None),
    "automaton.equivalent": ("automaton", "equivalent", "InitialAutomaton", None),
    "modmath.coefficient_stream": ("modmath", "coefficient_stream", None,
                                   lambda a, r: {"steps": _stream_steps(r)}),
    "modmath.series_expand": ("modmath", "series_expand", None, None),
    "decide.is_spherically_transitive": ("decide", "is_spherically_transitive", None,
                                         lambda a, r: {"steps": _stream_steps(r.stream)}),
    "decide.abelianization_equal": ("decide", "abelianization_equal", None, None),
    "decide.conjugate": ("decide", "conjugate", None, None),
    "decide.rational_form": ("decide", "rational_form", None,
                             lambda a, r: {"den_degree": len(r.denominator) - 1}),
    "oracle.level_transitive": ("oracle", "level_transitive", None,
                                lambda a, r: {"words": a[0].k ** a[1]}),
    "oracle.abelian_coefficient_bruteforce": ("oracle", "abelian_coefficient_bruteforce", None,
                                              lambda a, r: {"words": a[0].k ** a[1]}),
    "oracle.conjugate_by": ("oracle", "conjugate_by", None,
                            lambda a, r: {"states": r.automaton.n_states}),
}
MEMORY_TARGETS = ("modmath.coefficient_stream", "decide.is_spherically_transitive")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts", "error")

    def __init__(self, name, op, parent):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.counts = {}
        self.error = None


class Tracer:
    """Spans of one run; ``op`` tags every span with the operation it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.memory = False  # record tracemalloc peaks instead of plain spans

    @contextmanager
    def span(self, name: str):
        span = Span(name, self.op, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if tracer.memory and name in MEMORY_TARGETS:
                    result = _with_peak(span, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result

        return traced


def _with_peak(span: Span, fn, args, kwargs):
    """Call fn under tracemalloc; store its peak traced memory (bytes) in the span."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        return fn(*args, **kwargs)
    finally:
        span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if not outer:
            tracemalloc.stop()


def install(tracer: Tracer):
    """Rebind every traced function in every package module; return the undo function."""
    modules = [importlib.import_module("wreathtree")] + [
        importlib.import_module(f"wreathtree.{name}") for name in LAYERS
    ]
    undo = []
    for name, (mod_name, attr, cls_name, counts) in TARGETS.items():
        home = importlib.import_module(f"wreathtree.{mod_name}")
        if cls_name is not None:
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, counts))
            undo.append((cls, attr, original))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def paired_loop(ops, tracer: Tracer, seconds: float):
    """Run each op untraced and then traced, back to back, for ``seconds`` in all.

    Pairing the two calls of the same op cancels the drift of a shared
    host's speed out of ``trace.overhead_ratio``.  Returns both loops.
    """
    plain, traced = harness.Loop(), harness.Loop()
    while True:
        for i, op in enumerate(ops):
            if plain.busy_s + traced.busy_s >= seconds:
                return plain, traced
            harness.run_one(plain, i, op)
            uninstall = install(tracer)
            try:
                tracer.op = ("op", i)
                harness.run_one(traced, i, op)
            finally:
                uninstall()


def run_probe(ops, tracer: Tracer):
    """Every probe op once, traced and tagged ("probe", index)."""
    loop = harness.Loop()
    uninstall = install(tracer)
    try:
        for i, op in enumerate(ops):
            tracer.op = ("probe", i)
            harness.run_one(loop, i, op)
    finally:
        uninstall()
    return loop


def self_times(spans: list[Span], phase: str) -> dict:
    """Layer -> [self seconds, calls] over the spans of one phase.

    Self time is a span's duration minus the part its child spans cover.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = defaultdict(lambda: [0.0, 0])
    for i, s in enumerate(spans):
        if s.op[0] != phase:
            continue
        layer = s.name.split(".", 1)[0]
        out[layer][0] += s.end - s.start - child[i]
        out[layer][1] += 1
    return dict(out)


def python_ms(code: str, env: dict, cwd: str, repeat: int) -> float:
    """Median wall time of a fresh interpreter running ``code``, in ms."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, capture_output=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def layer_metrics(spans: list[Span], memory_spans: list[Span], kernel_probe: Span,
                  kernel_steps: int, interp_ms: float, import_ms: float,
                  overhead_ratio: float) -> dict:
    """Every per-layer metric: means per call over the traced ops and the probe."""
    by = defaultdict(list)
    for s in spans:
        if s.error is None:
            by[s.name].append(s)

    def ms(name):
        return _mean((s.end - s.start) * 1e3 for s in by[name])

    def count(name, key):
        return _mean(s.counts[key] for s in by[name])

    def peak_mb(name):
        return max(s.counts["peak_bytes"] for s in memory_spans if s.name == name and s.error is None) / 2**20

    levels = by["oracle.level_transitive"]
    return {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms - interp_ms,
        "cli.main_ms": ms("cli.main"),
        "cli.stdout_bytes": count("cli.main", "stdout_bytes"),
        "automaton.parse_us": ms("automaton.parse_automaton") * 1e3,
        "automaton.parse_lines": count("automaton.parse_automaton", "lines"),
        "automaton.compose_ms": ms("automaton.compose"),
        "automaton.compose_states": count("automaton.compose", "states"),
        "automaton.minimize_ms": ms("automaton.minimize"),
        "automaton.minimize_states_in": count("automaton.minimize", "states_in"),
        "automaton.minimize_states_out": count("automaton.minimize", "states_out"),
        "automaton.inverse_ms": ms("automaton.inverse"),
        "automaton.equivalent_ms": ms("automaton.equivalent"),
        "modmath.stream_ms": ms("modmath.coefficient_stream"),
        "modmath.stream_steps": count("modmath.coefficient_stream", "steps"),
        "modmath.kernel_us_per_step": (kernel_probe.end - kernel_probe.start) * 1e6 / kernel_steps,
        "modmath.stream_peak_mb": peak_mb("modmath.coefficient_stream"),
        "modmath.series_expand_ms": ms("modmath.series_expand"),
        "decide.transitive_ms": ms("decide.is_spherically_transitive"),
        "decide.transitive_steps": count("decide.is_spherically_transitive", "steps"),
        "decide.transitive_peak_mb": peak_mb("decide.is_spherically_transitive"),
        "decide.equal_ms": ms("decide.abelianization_equal"),
        "decide.conjugate_ms": ms("decide.conjugate"),
        "decide.rational_ms": ms("decide.rational_form"),
        "decide.rational_den_degree": count("decide.rational_form", "den_degree"),
        "oracle.level_ms": ms("oracle.level_transitive"),
        "oracle.level_words": count("oracle.level_transitive", "words"),
        "oracle.ns_per_word": sum(s.end - s.start for s in levels) * 1e9 / sum(s.counts["words"] for s in levels),
        "oracle.bruteforce_ms": ms("oracle.abelian_coefficient_bruteforce"),
        "oracle.conjugate_by_ms": ms("oracle.conjugate_by"),
        "oracle.conjugate_by_states": count("oracle.conjugate_by", "states"),
        "trace.overhead_ratio": overhead_ratio,
    }
