"""Command-line front end.

Subcommands: ``fit`` (estimate one covariance), ``simulate`` (Monte
Carlo comparison), ``loglik`` (evaluate a stored estimate), and
``compare`` (pairwise log-likelihood differences between methods).
Data lines go to stdout, diagnostics to stderr; exit code 0 means a
converged fit, 2 a fit that did not converge, 1 an input error or an
output file that cannot be written.
Setting ``COVGRAPH_QUIET`` silences stderr progress.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from collections import Counter
from typing import Sequence

import numpy as np

from . import io as cio
from .anderson import fit_anderson
from .dual import fit_dual
from .emplik import fit_el
from .graphs import CovarianceGraph, GraphError, cliques, graph_from_matrix, label_order, validate_family
from .icf import fit_icf
from .icf_multi import fit_icf_multi
from .model import (
    ConstrainedCovariance,
    ModelError,
    SampleStats,
    deviance,
    profile_loglik,
    sample_stats,
)
from .results import FitConfig, FitResult
from .simulate import METHOD_NAMES, SimSpec, _check_distinct, run_simulation

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

ML_METHODS = ("ml-icf", "ml-icf-multi", "ml-anderson")


def _quiet() -> bool:
    return bool(os.environ.get("COVGRAPH_QUIET"))


def _note(msg: str) -> None:
    if not _quiet():
        print(msg, file=sys.stderr)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="covgraph", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--graph", required=True, help="graph file")
        sp.add_argument("--data", help="raw data table")
        sp.add_argument("--stats", help="moment file (n, sds, correlations)")
        sp.add_argument("--delimiter", help="data delimiter (default: sniff , ; tab space)")
        sp.add_argument(
            "--header", default="auto", choices=["auto", "yes", "no"],
            help="whether the data file starts with a label row",
        )
        sp.add_argument("--n-adjust", action="store_true", dest="adjust", help="scale likelihood values by (n-1)/n")

    def add_fitting(sp):
        add_common(sp)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--max-iter", type=int, default=5000)

    fit = sub.add_parser("fit", help="fit one covariance estimate")
    add_fitting(fit)
    fit.add_argument("--method", default="ml-icf", choices=METHOD_NAMES)
    fit.add_argument("--family", help="complete-set family file (ml-icf-multi)")
    fit.add_argument(
        "--start", help="starting matrix file (default: diag(S) for ml-icf and ml-icf-multi, the identity for ml-anderson)"
    )
    fit.add_argument("--trace", help="write per-iteration log-likelihood here")
    fit.add_argument("--digits", type=int, help="fixed-point output digits")
    fit.add_argument("--out", help="write the estimate matrix to this file")

    sim = sub.add_parser("simulate", help="Monte-Carlo estimator comparison")
    sim.add_argument("--sigma", required=True, help="true covariance matrix file")
    sim.add_argument("--graph", help="optional graph file; default: zero pattern of --sigma")
    sim.add_argument("--dist", default="gaussian", choices=["gaussian", "t"])
    sim.add_argument("--df", type=int, default=5)
    sim.add_argument("--n", default="100", help="comma-separated sample sizes")
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--methods", default="ml-icf,dual,el", help="comma-separated method names")
    sim.add_argument("--out", help="write the report table to this file")

    ll = sub.add_parser("loglik", help="evaluate a stored estimate")
    add_common(ll)
    ll.add_argument("--matrix", required=True, help="estimate matrix file")

    cmp_ = sub.add_parser("compare", help="pairwise log-likelihood differences")
    add_fitting(cmp_)
    cmp_.add_argument("--methods", default="ml-icf,dual", help="comma-separated method names")
    cmp_.add_argument("--family", help="complete-set family file (ml-icf-multi)")
    return ap


def _load_inputs(args) -> tuple[CovarianceGraph, SampleStats, np.ndarray | None]:
    """Graph plus stats (aligned to graph order); raw data when given."""
    g = cio.load_graph(args.graph)
    if bool(args.data) == bool(args.stats):
        raise cio.InputError("exactly one of --data or --stats is required")
    if args.data:
        data, labels = cio.load_data(args.data, delimiter=args.delimiter, header=args.header)
        data = data[:, label_order(g.vertices, labels, data.shape[1], args.data)]
        return g, sample_stats(data, labels=g.vertices), data
    return g, cio.load_stats(args.stats).aligned_to(g.vertices), None


def _reported(args, n: int, value: float) -> str:
    """A log-likelihood, deviance or difference of them as printed: times (n-1)/n under ``--n-adjust``."""
    return format(value * (n - 1) / n if args.adjust else value, ".17g")


def _aligned(g: CovarianceGraph, labels: tuple[str, ...] | None, m: np.ndarray, what: str) -> np.ndarray:
    """A square matrix read from ``what``, in the vertex order of ``g``."""
    perm = label_order(g.vertices, labels, len(m), what)
    return m[np.ix_(perm, perm)]


def _run_method(method, stats, data, g, args, cfg) -> FitResult:
    """Dispatch one fit; an ``el`` record carries the Gaussian log-likelihood of its sigma."""
    if method == "el":
        if data is None:
            raise cio.InputError("method el needs raw data; weights require observations")
        if cfg.start is not None:
            raise cio.InputError("method el takes no starting value")
        res = fit_el(data, g)
        try:
            ll = profile_loglik(stats, res.sigma)
        except ModelError:
            ll = float("nan")
        return dataclasses.replace(res, loglik=ll)
    if method == "ml-icf":
        return fit_icf(stats, g, cfg)
    if method == "ml-icf-multi":
        fam = cio.load_family(args.family, g) if args.family else cliques(g)
        bad = validate_family(g, fam)
        if bad is not None:
            raise cio.InputError(f"invalid family: {bad}")
        return fit_icf_multi(stats, g, fam, cfg)
    if method == "ml-anderson":
        return fit_anderson(stats, g, cfg)
    if method == "dual":
        return fit_dual(stats, g, cfg)
    raise cio.InputError(f"unknown method {method!r}")


def cmd_fit(args) -> int:
    try:
        if args.digits is not None and args.digits < 0:
            raise cio.InputError("--digits must be non-negative")
        if args.trace and args.method not in ML_METHODS:
            raise cio.InputError(f"--trace needs a sweep method ({', '.join(ML_METHODS)}), not {args.method}")
        if args.family and args.method != "ml-icf-multi":
            raise cio.InputError(f"--family needs method ml-icf-multi, not {args.method}")
        g, stats, data = _load_inputs(args)
        start = None
        if args.start:
            start = ConstrainedCovariance(g, _aligned(g, *cio.load_matrix(args.start), args.start))
        cfg = FitConfig(tol=args.tol, max_iter=args.max_iter, start=start, record_trace=bool(args.trace))
        t0 = time.perf_counter()
        res = _run_method(args.method, stats, data, g, args, cfg)
        elapsed = time.perf_counter() - t0
    except (cio.InputError, GraphError, ModelError) as exc:
        return _fail(str(exc))
    # An ML fit without an estimate prints none; el prints its sigma whatever its stop reason.
    sigma = res.sigma if res.estimate is not None or args.method not in ML_METHODS else None
    out = sys.stdout
    print(f"method {args.method}", file=out)
    print(f"n {stats.n}", file=out)
    print(f"p {stats.p}", file=out)
    print(f"converged {str(res.converged).lower()}", file=out)
    print(f"iterations {res.iterations}", file=out)
    if res.rejected_extrapolations is not None:
        print(f"rejected-extrapolations {res.rejected_extrapolations}", file=out)
    if res.newton_steps is not None:
        print(f"newton-steps {res.newton_steps}", file=out)
    if res.inner_solves is not None:
        print(f"inner-solves {res.inner_solves}", file=out)
    if res.loglik is not None:
        print(f"loglik {_reported(args, stats.n, res.loglik)}", file=out)
    if sigma is not None:
        try:
            dev, df = deviance(stats, sigma, graph=g)
        except ModelError:
            dev = None  # singular estimate (possible for el): no deviance value
        if dev is not None:
            key = "deviance" if args.method in ML_METHODS else "deviance-functional"
            print(f"{key} {_reported(args, stats.n, dev)}", file=out)
            print(f"df {df}", file=out)
    print(f"detail {res.detail}", file=out)
    if res.residual is not None:
        print(f"residual {format(res.residual, '.3g')}", file=out)
    if res.weighted is not None:
        print(f"el-log-ratio {format(res.weighted.el_log_ratio, '.17g')}", file=out)
    _note(f"fit finished in {elapsed:.3f}s")
    if args.trace:
        rows = (f"{k}\t{'' if v is None else _reported(args, stats.n, v)}\n"
                for k, v in enumerate(res.trace or (), 1))
        cio._write_text(args.trace, "iteration\tloglik\n" + "".join(rows))
    if sigma is None:
        print("estimate none", file=out)
        return EXIT_NO_CONVERGENCE
    if args.out:
        cio.write_matrix(args.out, sigma, labels=g.vertices, digits=args.digits)
    else:
        print("matrix", file=out)
        out.write(cio.format_matrix(sigma, labels=g.vertices, digits=args.digits))
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    try:
        labels, sigma = cio.load_matrix(args.sigma)
        g = cio.load_graph(args.graph) if args.graph else graph_from_matrix(sigma, labels=labels)
        sigma = _aligned(g, labels, sigma, args.sigma)
        sizes = tuple(int(tok) for tok in str(args.n).split(",") if tok)
        methods = tuple(tok for tok in args.methods.split(",") if tok)
        spec = SimSpec(
            sigma_true=sigma,
            distribution=args.dist,
            df=args.df,
            sample_sizes=sizes,
            replications=args.reps,
            seed=args.seed,
            methods=methods,
        )
        if args.out:
            cio._check_writable(args.out)  # before the simulation, not after it has run
        report = run_simulation(spec, graph=g)
    except (cio.InputError, GraphError, ModelError, ValueError) as exc:
        return _fail(str(exc))
    for (method, n), reasons in report.failure_reasons.items():
        counts = Counter(r for r in reasons if r is not None)
        if counts:
            _note(f"failures {method} n={n}: " + ", ".join(f"{r} {c}" for r, c in sorted(counts.items())))
    text = report.to_table()
    if args.out:
        cio._write_text(args.out, text)
        _note(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_loglik(args) -> int:
    try:
        g, stats, _ = _load_inputs(args)
        m = _aligned(g, *cio.load_matrix(args.matrix), args.matrix)
        ll = profile_loglik(stats, m)
        dev, df = deviance(stats, m, graph=g)
    except (cio.InputError, GraphError, ModelError) as exc:
        return _fail(str(exc))
    print(f"loglik {_reported(args, stats.n, ll)}")
    print(f"deviance-functional {_reported(args, stats.n, dev)}")
    print(f"df {df}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        g, stats, data = _load_inputs(args)
        methods = tuple(tok for tok in args.methods.split(",") if tok)
        if len(methods) < 2:
            raise cio.InputError("compare needs at least two methods")
        _check_distinct("methods", methods)
        if args.family and "ml-icf-multi" not in methods:
            raise cio.InputError("--family needs ml-icf-multi among the compared methods")
        cfg = FitConfig(tol=args.tol, max_iter=args.max_iter)
        logliks = {}
        all_converged = True
        for m in methods:
            res = _run_method(m, stats, data, g, args, cfg)
            all_converged &= res.converged
            logliks[m] = res.loglik if res.loglik is not None else float("nan")
    except (cio.InputError, GraphError, ModelError) as exc:
        return _fail(str(exc))
    for m in methods:
        print(f"loglik {m} {_reported(args, stats.n, logliks[m])}")
    for a in range(len(methods)):
        for b in range(a + 1, len(methods)):
            diff = logliks[methods[a]] - logliks[methods[b]]
            print(f"dloglik {methods[a]} {methods[b]} {_reported(args, stats.n, diff)}")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "fit": cmd_fit,
        "simulate": cmd_simulate,
        "loglik": cmd_loglik,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except cio.InputError as exc:  # an output file that cannot be written
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
