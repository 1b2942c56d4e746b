"""In-memory span recorder for the traced benchmark run.

The recorder replaces covgraph functions with timing wrappers at the names
their callers look them up by (``covgraph.cli.fit_icf``, the module global
``covgraph.icf.icf_update_vertex`` that a sweep calls, and so on) and puts
every original back afterwards.  Nothing in the package itself changes.

A span is one call: its name, the caller module it was reached through, start
and end, the index of the span that was open when it started, the command id,
the ``iterations`` field of a fit result, and its outcome.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (caller module, attribute, span name).  Span names are
# "<defining layer>.<function>", so self time lands on the layer whose code ran.
WRAPS = (
    ("covgraph.cli", "fit_icf", "icf.fit_icf"),
    ("covgraph.cli", "fit_icf_multi", "icf_multi.fit_icf_multi"),
    ("covgraph.cli", "fit_anderson", "anderson.fit_anderson"),
    ("covgraph.cli", "fit_dual", "dual.fit_dual"),
    ("covgraph.cli", "fit_el", "emplik.fit_el"),
    ("covgraph.cli", "run_simulation", "simulate.run_simulation"),
    ("covgraph.cli", "profile_loglik", "model.profile_loglik"),
    ("covgraph.cli", "deviance", "model.deviance"),
    ("covgraph.cli", "sample_stats", "model.sample_stats"),
    ("covgraph.cli", "cliques", "graphs.cliques"),
    ("covgraph.cli", "graph_from_matrix", "graphs.graph_from_matrix"),
    ("covgraph.cli", "validate_family", "graphs.validate_family"),
    ("covgraph.io", "load_stats", "io.load_stats"),
    ("covgraph.io", "load_graph", "io.load_graph"),
    ("covgraph.io", "load_data", "io.load_data"),
    ("covgraph.io", "load_matrix", "io.load_matrix"),
    ("covgraph.io", "load_family", "io.load_family"),
    ("covgraph.io", "write_matrix", "io.write_matrix"),
    ("covgraph.io", "parse_graph_text", "graphs.parse_graph_text"),
    ("covgraph.icf", "icf_update_vertex", "icf.icf_update_vertex"),
    ("covgraph.icf", "profile_loglik", "model.profile_loglik"),
    ("covgraph.icf", "stationarity_residual", "model.stationarity_residual"),
    ("covgraph.icf_multi", "block_update", "icf_multi.block_update"),
    ("covgraph.icf_multi", "validate_family", "graphs.validate_family"),
    ("covgraph.anderson", "profile_loglik", "model.profile_loglik"),
    ("covgraph.anderson", "stationarity_residual", "model.stationarity_residual"),
    ("covgraph.anderson", "free_index_set", "graphs.free_index_set"),
    ("covgraph.dual", "dual_residual", "dual.dual_residual"),
    ("covgraph.dual", "profile_loglik", "model.profile_loglik"),
    ("covgraph.dual", "cliques", "graphs.cliques"),
    ("covgraph.dual", "free_index_set", "graphs.free_index_set"),
    ("covgraph.model", "free_index_set", "graphs.free_index_set"),
    ("covgraph.emplik", "inner_el", "emplik.inner_el"),
    ("covgraph.simulate", "fit_icf", "icf.fit_icf"),
    ("covgraph.simulate", "fit_icf_multi", "icf_multi.fit_icf_multi"),
    ("covgraph.simulate", "fit_anderson", "anderson.fit_anderson"),
    ("covgraph.simulate", "fit_dual", "dual.fit_dual"),
    ("covgraph.simulate", "fit_el", "emplik.fit_el"),
    ("covgraph.simulate", "sample_t", "simulate.sample_t"),
    ("covgraph.simulate", "sample_gaussian", "simulate.sample_gaussian"),
    ("covgraph.simulate", "sample_stats", "model.sample_stats"),
    ("covgraph.simulate", "cliques", "graphs.cliques"),
    ("covgraph.simulate", "graph_from_matrix", "graphs.graph_from_matrix"),
)

ROOT = "cli.main"
FIELDS = ("name", "via", "start", "end", "parent", "command", "iterations", "outcome")
NAME, VIA, START, END, PARENT, COMMAND, ITERATIONS, OUTCOME = range(len(FIELDS))


def wrapped_attributes() -> dict[tuple[str, str], object]:
    """Current value of every attribute the recorder wraps."""
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in WRAPS
    }


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._command: int | None = None

    @contextmanager
    def installed(self):
        """Wrap every attribute in WRAPS for the duration of the block."""
        for mod_name, attr, name in WRAPS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, mod_name.rsplit(".", 1)[1]))
        try:
            yield self
        finally:
            while self._saved:
                mod, attr, orig = self._saved.pop()
                setattr(mod, attr, orig)

    @contextmanager
    def command(self, command_id: int):
        """Root span of one benchmark command."""
        self._command = command_id
        span = self._open(ROOT, "bench")
        try:
            yield
        finally:
            self._close(span)
            self._command = None

    def _open(self, name: str, via: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, via, time.perf_counter(), None, parent, self._command, None, "ok"]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, via: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[OUTCOME] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if result is None:
                span[OUTCOME] = "none"
            span[ITERATIONS] = getattr(result, "iterations", None)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its children.

    Calls are nested and sequential on one thread, so children of a span never
    overlap and their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[k] for k, span in enumerate(spans)]


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def accounting_errors(spans: list[list], tol: float = 1e-9) -> list[str]:
    """Spans whose self time is negative, and commands whose self times do not
    add up to the command span."""
    selfs = self_times(spans)
    errors = [
        f"span {k} ({spans[k][NAME]}) has self time {v:.3g}s" for k, v in enumerate(selfs) if v < -tol
    ]
    totals: dict[int, float] = {}
    for span, v in zip(spans, selfs):
        totals[span[COMMAND]] = totals.get(span[COMMAND], 0.0) + v
    for span in spans:
        if span[PARENT] < 0:
            dur = span[END] - span[START]
            if abs(totals[span[COMMAND]] - dur) > tol * max(1.0, dur):
                errors.append(f"command {span[COMMAND]}: self times sum to "
                              f"{totals[span[COMMAND]]!r}s, span is {dur!r}s")
    return errors
