"""Monte-Carlo comparison harness for the covariance estimators.

Draws repeated samples from a Gaussian or multivariate-t distribution
with a fixed dispersion matrix, fits a chosen set of estimators to
each replication, and aggregates entrywise bias and root mean squared
error against the true covariance.  Replications use counter-based
random substreams, so results are bit-reproducible and independent of
execution order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .anderson import fit_anderson
from .dual import fit_dual
from .emplik import ELConfig, fit_el
from .graphs import CovarianceGraph, cliques, graph_from_matrix
from .icf import fit_icf
from .icf_multi import fit_icf_multi
from .model import ModelError, is_pos_def, sample_stats
from .results import FitConfig

__all__ = [
    "SimSpec",
    "SimEntry",
    "SimReport",
    "sample_gaussian",
    "sample_t",
    "run_simulation",
    "default_fitters",
    "NotConvergedError",
    "METHOD_NAMES",
]

METHOD_NAMES = ("ml-icf", "ml-icf-multi", "ml-anderson", "dual", "el")


@dataclass(frozen=True)
class SimSpec:
    """One simulation design.

    The covariance graph is read off the zero pattern of
    ``sigma_true``.  For the t distribution the dispersion matrix is
    ``sigma_true`` and the actual covariance is df / (df - 2) times it,
    which is what errors are measured against.
    """

    sigma_true: np.ndarray
    distribution: str = "gaussian"
    df: int = 5
    sample_sizes: tuple[int, ...] = (100,)
    replications: int = 200
    seed: int = 0
    methods: tuple[str, ...] = ("ml-icf", "dual", "el")

    def __post_init__(self):
        m = np.asarray(self.sigma_true, dtype=float)
        if not is_pos_def(m):
            raise ModelError("true covariance must be positive definite")
        object.__setattr__(self, "sigma_true", m)
        if self.distribution not in ("gaussian", "t"):
            raise ModelError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "t":
            if self.df <= 4:
                raise ModelError("t simulations need df > 4 for finite fourth moments")
        if self.replications < 1:
            raise ModelError("need at least one replication")
        unknown = [m_ for m_ in self.methods if m_ not in METHOD_NAMES]
        if unknown:
            raise ModelError(f"unknown methods: {unknown}")

    @property
    def truth(self) -> np.ndarray:
        if self.distribution == "t":
            return self.sigma_true * (self.df / (self.df - 2.0))
        return self.sigma_true


@dataclass(frozen=True)
class SimEntry:
    method: str
    n: int
    i: str
    j: str
    bias: float
    rmse: float
    failures: int


@dataclass
class SimReport:
    spec: SimSpec
    labels: tuple[str, ...]
    entries: list[SimEntry]
    # Raw per-replication error stacks keyed by (method, n); NaN rows mark
    # failed replications.  Not part of the serialized table.
    raw_errors: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    # Per-replication failure reasons keyed like ``raw_errors``: the stop
    # reason of a fit that did not converge, else the exception type
    # name, ``not-pd`` for an estimate that is not positive definite,
    # None for a success.  Not serialized either.
    failure_reasons: dict[tuple[str, int], list[str | None]] = field(default_factory=dict)

    def to_table(self) -> str:
        """Serialize as the delimited report table, byte-deterministic."""
        buf = io.StringIO()
        spec = self.spec
        buf.write("# covgraph simulation report\n")
        buf.write(
            f"# seed {spec.seed} distribution {spec.distribution}"
            + (f" df {spec.df}" if spec.distribution == "t" else "")
            + f" replications {spec.replications}\n"
        )
        buf.write("# truth matrix (errors are measured against these values)\n")
        for row in spec.truth:
            buf.write("# " + "\t".join(format(x, ".17g") for x in row) + "\n")
        buf.write("method\tn\ti\tj\tbias\trmse\tfailures\n")
        for e in self.entries:
            buf.write(
                f"{e.method}\t{e.n}\t{e.i}\t{e.j}\t"
                f"{format(e.bias, '.17g')}\t{format(e.rmse, '.17g')}\t{e.failures}\n"
            )
        return buf.getvalue()


def sample_gaussian(sigma: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. mean-zero rows with the given covariance."""
    sigma = np.asarray(sigma, dtype=float)
    if not is_pos_def(sigma):
        raise ModelError("covariance must be positive definite")
    low = np.linalg.cholesky(sigma)
    z = rng.standard_normal((n, sigma.shape[0]))
    return z @ low.T


def sample_t(sigma: np.ndarray, df: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. multivariate-t rows with the given dispersion matrix.

    Rows are Gaussian draws divided by sqrt(chi-square(df) / df); for
    df > 2 the population covariance is df / (df - 2) times sigma.
    """
    if df < 1:
        raise ModelError("df must be at least 1")
    z = sample_gaussian(sigma, n, rng)
    u = rng.chisquare(df, size=n)
    return z / np.sqrt(u / df)[:, None]


def _rep_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class NotConvergedError(ModelError):
    """A fit that stopped without converging; ``reason`` is its stop reason."""

    def __init__(self, method: str, reason: str):
        super().__init__(f"{method} did not converge ({reason})")
        self.reason = reason


def default_fitters(
    graph: CovarianceGraph, tol: float = 1e-8, max_iter: int = 5000
) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Built-in method table mapping names to data -> estimate callables.

    Each callable raises on failure, ``NotConvergedError`` for a fit that
    stopped without converging; the harness turns raises into failure
    counts.
    """
    fit_cfg = FitConfig(tol=tol, max_iter=max_iter)
    el_cfg = ELConfig()
    fam = cliques(graph)

    def need_converged(res):
        if not res.converged or res.estimate is None:
            raise NotConvergedError(res.method, res.detail)
        return res.estimate.sigma

    return {
        "ml-icf": lambda data: need_converged(fit_icf(sample_stats(data), graph, fit_cfg)),
        "ml-icf-multi": lambda data: need_converged(
            fit_icf_multi(sample_stats(data), graph, fam, fit_cfg)
        ),
        "ml-anderson": lambda data: need_converged(fit_anderson(sample_stats(data), graph, fit_cfg)),
        "dual": lambda data: need_converged(fit_dual(sample_stats(data), graph, fit_cfg)),
        "el": lambda data: fit_el(data, graph, el_cfg).sigma,
    }


def _run_one_rep(
    spec: SimSpec,
    graph: CovarianceGraph,
    n: int,
    stream: int,
    fitters: Mapping[str, Callable[[np.ndarray], np.ndarray]],
) -> dict[str, np.ndarray | str]:
    """Draw one data set and fit every method.

    Each method maps to its error matrix, or to a string naming why it
    failed: the stop reason of a fit that did not converge, the
    exception type, or ``not-pd``.
    """
    rng = _rep_rng(spec.seed, stream)
    if spec.distribution == "t":
        data = sample_t(spec.sigma_true, spec.df, n, rng)
    else:
        data = sample_gaussian(spec.sigma_true, n, rng)
    truth = spec.truth
    out: dict[str, np.ndarray | str] = {}
    for name in spec.methods:
        try:
            est = fitters[name](data)
        except (ModelError, np.linalg.LinAlgError) as exc:
            out[name] = exc.reason if isinstance(exc, NotConvergedError) else type(exc).__name__
            continue
        if name != "el" and not is_pos_def(est):
            out[name] = "not-pd"
        else:
            out[name] = est - truth
    return out


def run_simulation(
    spec: SimSpec,
    fitters: Mapping[str, Callable[[np.ndarray], np.ndarray]] | None = None,
    labels: Sequence[str] | None = None,
) -> SimReport:
    """Run the full design and aggregate entrywise bias and RMSE.

    Aggregation reads stored per-replication errors in replication
    order, so the report only depends on the spec, never on scheduling.
    """
    graph = graph_from_matrix(spec.sigma_true, labels=labels)
    if fitters is None:
        fitters = default_fitters(graph)
    missing = [m for m in spec.methods if m not in fitters]
    if missing:
        raise ModelError(f"no fitter supplied for methods: {missing}")
    p = graph.p
    entries: list[SimEntry] = []
    raw: dict[tuple[str, int], np.ndarray] = {}
    reasons: dict[tuple[str, int], list[str | None]] = {}
    for size_idx, n in enumerate(spec.sample_sizes):
        errors = {m: np.full((spec.replications, p, p), np.nan) for m in spec.methods}
        reasons.update(((m, n), [None] * spec.replications) for m in spec.methods)
        for rep in range(spec.replications):
            stream = size_idx * spec.replications + rep + 1
            rep_out = _run_one_rep(spec, graph, n, stream, fitters)
            for m, err in rep_out.items():
                if isinstance(err, str):
                    reasons[(m, n)][rep] = err
                else:
                    errors[m][rep] = err
        for m in spec.methods:
            raw[(m, n)] = errors[m]
            ok = ~np.isnan(errors[m][:, 0, 0])
            failures = int((~ok).sum())
            good = errors[m][ok]
            for i in range(p):
                for j in range(i, p):
                    if good.shape[0] == 0:
                        bias, rmse = float("nan"), float("nan")
                    else:
                        e = good[:, i, j]
                        bias = float(e.mean())
                        rmse = float(np.sqrt((e**2).mean()))
                    entries.append(
                        SimEntry(
                            method=m,
                            n=n,
                            i=graph.vertices[i],
                            j=graph.vertices[j],
                            bias=bias,
                            rmse=rmse,
                            failures=failures,
                        )
                    )
    return SimReport(
        spec=spec, labels=graph.vertices, entries=entries, raw_errors=raw, failure_reasons=reasons
    )
