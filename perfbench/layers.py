"""Per-layer metrics computed from the spans of a traced run.

Every metric is returned as ``name -> (value, unit, samples)``.  Times named
``<function>_s`` are medians per call; ``<layer>.self_s`` is the layer's self
time per command, so the layer self times add up to ``command_s``.  A layer a
workload never reaches reports zero calls and zero time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import COMMAND, END, ITERATIONS, NAME, OUTCOME, PARENT, ROOT, START, VIA, layer, self_times

LAYERS = ("cli", "io", "graphs", "model", "icf", "icf_multi", "anderson", "dual", "emplik", "simulate")
SIM_METHODS = {
    "icf.fit_icf": "ml-icf",
    "anderson.fit_anderson": "ml-anderson",
    "dual.fit_dual": "dual",
    "emplik.fit_el": "el",
}
DRAWS = ("simulate.sample_t", "simulate.sample_gaussian")


def _dur(span) -> float:
    return span[END] - span[START]


def _median(values) -> tuple[float, int]:
    values = list(values)
    return (statistics.median(values) if values else 0.0), len(values)


def _ratio(num: float, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, sim_failures: dict[str, int], overhead: tuple[float, int]) -> dict:
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    roots = by_name[ROOT]
    ncmd = len(roots)
    out = {"command_s": (_ratio(sum(map(_dur, roots)), ncmd), "s", ncmd)}

    layer_self = defaultdict(float)
    for span, value in zip(spans, selfs):
        layer_self[layer(span[NAME])] += value
    for name in LAYERS:
        out[f"{name}.self_s"] = (_ratio(layer_self[name], ncmd), "s", ncmd)

    def median_duration(metric: str, calls: list) -> None:
        value, n = _median(map(_dur, calls))
        out[metric] = (value, "s", n)

    def per_call(metric: str, span_name: str) -> None:
        median_duration(metric, by_name[span_name])

    def calls_per(metric: str, span_name: str, per: list) -> None:
        out[metric] = (_ratio(len(by_name[span_name]), len(per)), "count", len(per))

    def per_iteration(metric: str, fits: list) -> None:
        value, n = _median(_dur(f) / f[ITERATIONS] for f in fits if f[ITERATIONS])
        out[metric] = (value, "s", n)

    def mean_iterations(metric: str, fits: list) -> None:
        out[metric] = (_ratio(sum(f[ITERATIONS] or 0 for f in fits), len(fits)), "count", len(fits))

    for fn in ("load_stats", "load_graph", "load_data", "load_matrix", "write_matrix"):
        per_call(f"io.{fn}_s", f"io.{fn}")
    for fn in ("cliques", "graph_from_matrix"):
        per_call(f"graphs.{fn}_s", f"graphs.{fn}")
    for fn in ("profile_loglik", "stationarity_residual"):
        calls_per(f"model.{fn}_calls", f"model.{fn}", roots)
        per_call(f"model.{fn}_s", f"model.{fn}")
    per_call("model.deviance_s", "model.deviance")
    per_call("model.sample_stats_s", "model.sample_stats")

    icf_fits = by_name["icf.fit_icf"]
    calls_per("icf.update_calls", "icf.icf_update_vertex", icf_fits)
    per_call("icf.update_s", "icf.icf_update_vertex")
    mean_iterations("icf.sweeps", icf_fits)
    per_iteration("icf.sweep_s", icf_fits)

    multi_fits = by_name["icf_multi.fit_icf_multi"]
    calls_per("icf_multi.block_calls", "icf_multi.block_update", multi_fits)
    per_call("icf_multi.block_s", "icf_multi.block_update")
    mean_iterations("icf_multi.sweeps", multi_fits)

    anderson_fits = by_name["anderson.fit_anderson"]
    mean_iterations("anderson.iterations", anderson_fits)
    per_iteration("anderson.iter_s", anderson_fits)

    dual_fits = by_name["dual.fit_dual"]
    mean_iterations("dual.cycles", dual_fits)
    per_iteration("dual.cycle_s", dual_fits)
    calls_per("dual.residual_calls", "dual.dual_residual", dual_fits)

    el_fits = by_name["emplik.fit_el"]
    inner = by_name["emplik.inner_el"]
    per_call("emplik.fit_s", "emplik.fit_el")
    calls_per("emplik.inner_calls_per_fit", "emplik.inner_el", el_fits)
    per_call("emplik.inner_s", "emplik.inner_el")
    feasible = sum(1 for s in inner if s[OUTCOME] == "ok")
    out["emplik.inner_feasible_ratio"] = (_ratio(feasible, len(inner)), "ratio", len(inner))
    infeasible = sum(1 for s in el_fits if s[OUTCOME] == "ELInfeasibleError")
    out["emplik.infeasible_fits"] = (infeasible, "count", len(el_fits))

    draws = [s for name in DRAWS for s in by_name[name]
             if s[PARENT] < 0 or spans[s[PARENT]][NAME] not in DRAWS]
    median_duration("simulate.draw_s", draws)
    for span_name, method in SIM_METHODS.items():
        fits = [s for s in by_name[span_name] if s[VIA] == "simulate"]
        median_duration(f"simulate.fit_s.{method}", fits)
    for method in SIM_METHODS.values():
        out[f"simulate.failures.{method}"] = (sim_failures.get(method, 0), "count", ncmd)

    out["trace_overhead"] = (overhead[0], "ratio", overhead[1])
    return out


def command_signatures(spans) -> dict[int, tuple]:
    """Per command: span counts by name plus the iteration count of every fit.

    Two runs of the same command on the same input must give equal signatures;
    these hold the sweeps, iterations, cycles and inner EL solves.
    """
    counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    iters: dict[int, list] = defaultdict(list)
    for span in spans:
        counts[span[COMMAND]][span[NAME]] += 1
        if span[ITERATIONS] is not None:
            iters[span[COMMAND]].append((span[NAME], span[ITERATIONS]))
    return {cid: (tuple(sorted(c.items())), tuple(iters[cid])) for cid, c in counts.items()}
