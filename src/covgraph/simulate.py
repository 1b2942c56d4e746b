"""Monte-Carlo comparison harness for the covariance estimators.

Draws repeated samples from a Gaussian or multivariate-t distribution
with a fixed dispersion matrix, fits a chosen set of estimators to
each replication, and aggregates entrywise bias and root mean squared
error against the true covariance, in one vectorized pass per method
and sample size.  Replications use counter-based random substreams,
so results are bit-reproducible and independent of execution order.
What the fitters derive from the graph alone (its cliques, the dual
fit's clique steps, the ICF block plans) is planned once per graph and
kept in its store, so replications after the first pay only for their fits.
The report keeps each cell's bias and RMSE as columns and formats the
table from them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .anderson import fit_anderson
from .dual import fit_dual
from .emplik import fit_el
from .graphs import CovarianceGraph, cliques, graph_from_matrix
from .icf import fit_icf
from .icf_multi import fit_icf_multi
from .model import ConstrainedCovariance, ModelError, is_pos_def, sample_stats
from .results import FitConfig, _as_int

__all__ = [
    "SimSpec",
    "SimReport",
    "sample_gaussian",
    "sample_t",
    "run_simulation",
    "default_fitters",
    "NotConvergedError",
    "METHOD_NAMES",
]

METHOD_NAMES = ("ml-icf", "ml-icf-multi", "ml-anderson", "dual", "el")


def _check_distinct(what: str, values: tuple) -> None:
    """Raise ``ModelError`` naming every value listed more than once."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ModelError(f"repeated {what}: {repeated}")


@dataclass(frozen=True)
class SimSpec:
    """One simulation design.

    The fitted graph is not part of the design: ``run_simulation`` takes
    it, and reads it off the zero pattern of ``sigma_true`` when none is
    given.  For the t distribution the dispersion matrix is
    ``sigma_true`` and the actual covariance is df / (df - 2) times it,
    which is what errors are measured against.  Methods and sample
    sizes must each be given, distinct, and every sample size at least 2;
    sizes, ``replications`` and ``seed`` are whole numbers, kept as ints.
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
        for name in ("replications", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        object.__setattr__(self, "sample_sizes", tuple(_as_int("sample sizes", n) for n in self.sample_sizes))
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
        too_small = sorted({n for n in self.sample_sizes if n < 2})
        if too_small:
            raise ModelError(f"sample sizes must be at least 2: {too_small}")
        for what, values in (("methods", self.methods), ("sample sizes", self.sample_sizes)):
            if not values:
                raise ModelError(f"no {what} given")
            _check_distinct(what, values)

    @property
    def truth(self) -> np.ndarray:
        if self.distribution == "t":
            return self.sigma_true * (self.df / (self.df - 2.0))
        return self.sigma_true


@dataclass
class SimReport:
    """The aggregated result of ``run_simulation``.

    ``cells`` maps each (method, n) cell, in table order (sample sizes
    outer, methods inner), to its bias and RMSE columns over the
    upper-triangle entries in row-major order, and its failure count.
    """

    spec: SimSpec
    labels: tuple[str, ...]
    cells: dict[tuple[str, int], tuple[np.ndarray, np.ndarray, int]]
    # Raw per-replication error stacks keyed by (method, n); NaN rows mark
    # failed replications.  Not part of the serialized table.
    raw_errors: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    # Per-replication failure reasons keyed like ``raw_errors``: the stop
    # reason of a fit that did not converge, else the exception type
    # name, ``not-pd`` for an estimate that is not positive definite,
    # None for a success.  Not serialized either.
    failure_reasons: dict[tuple[str, int], list[str | None]] = field(default_factory=dict)

    def to_table(self) -> str:
        """Serialize as the delimited report table, byte-deterministic.

        Floats are written with 17 significant digits.  Each block (the
        truth matrix, each cell) is one ``%`` format of a repeated row
        template, with the labels and constants spliced into it.
        """
        spec = self.spec
        truth = spec.truth
        parts = [
            "# covgraph simulation report\n",
            f"# seed {spec.seed} distribution {spec.distribution}"
            + (f" df {spec.df}" if spec.distribution == "t" else "")
            + f" replications {spec.replications}\n",
            "# truth matrix (errors are measured against these values)\n",
            (("# " + "\t".join(["%.17g"] * truth.shape[1]) + "\n") * truth.shape[0])
            % tuple(truth.ravel().tolist()),
            "method\tn\ti\tj\tbias\trmse\tfailures\n",
        ]
        # Labels may hold "%", so they are escaped; method names cannot.
        labels, (iu, ju) = self.labels, np.triu_indices(len(self.labels))
        pair_cells = [f"{labels[i]}\t{labels[j]}\t".replace("%", "%%") for i, j in zip(iu.tolist(), ju.tolist())]
        for (m, n), (bias, rmse, failures) in self.cells.items():
            lead = f"{m}\t{n}\t"
            tail = f"%.17g\t%.17g\t{failures}\n"
            template = lead + (tail + lead).join(pair_cells) + tail
            parts.append(template % tuple(np.column_stack((bias, rmse)).ravel().tolist()))
        return "".join(parts)


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


def default_fitters(graph: CovarianceGraph) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Built-in method table mapping names to data -> estimate callables.

    Each callable raises on failure, ``NotConvergedError`` for a fit that
    stopped without converging; the harness turns raises into failure
    counts.  The likelihood and dual fitters run with the ``FitConfig``
    defaults.
    """
    fit_cfg = FitConfig()

    def need_converged(res):
        if not res.converged:
            raise NotConvergedError(res.method, res.detail)
        return res.sigma

    return {
        "ml-icf": lambda data: need_converged(fit_icf(sample_stats(data), graph, fit_cfg)),
        "ml-icf-multi": lambda data: need_converged(
            fit_icf_multi(sample_stats(data), graph, cliques(graph), fit_cfg)
        ),
        "ml-anderson": lambda data: need_converged(fit_anderson(sample_stats(data), graph, fit_cfg)),
        "dual": lambda data: need_converged(fit_dual(sample_stats(data), graph, fit_cfg)),
        "el": lambda data: need_converged(fit_el(data, graph)),
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
    graph: CovarianceGraph | None = None,
) -> SimReport:
    """Run the full design and aggregate entrywise bias and RMSE.

    The estimators fit ``graph``, in the vertex order of ``sigma_true``
    and with edges covering its nonzero entries; without one they fit the
    zero pattern of ``sigma_true``, with vertices X1..Xp.

    Aggregation reads stored per-replication errors in replication
    order, so the report only depends on the spec, never on scheduling.
    Each (method, n) cell is aggregated in one pass: the upper-triangle
    errors of its successful replications are laid out as one
    contiguous row per entry, and a row mean gives the bias and the
    root of the mean square the RMSE.  A cell in which every
    replication failed reports NaN for both.  The report keeps these
    columns.
    """
    if graph is None:
        graph = graph_from_matrix(spec.sigma_true)
    ConstrainedCovariance(graph, spec.sigma_true)  # the truth must lie in the fitted pattern
    if fitters is None:
        fitters = default_fitters(graph)
    missing = [m for m in spec.methods if m not in fitters]
    if missing:
        raise ModelError(f"no fitter supplied for methods: {missing}")
    p = graph.p
    iu, ju = np.triu_indices(p)
    cells: dict[tuple[str, int], tuple[np.ndarray, np.ndarray, int]] = {}
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
            if ok.any():
                # One contiguous row per entry: each row mean sums in the
                # same order as a mean over that entry's own replications.
                e = np.ascontiguousarray(errors[m][ok][:, iu, ju].T)
                bias = e.mean(axis=1)
                rmse = np.sqrt((e**2).mean(axis=1))
            else:
                bias = rmse = np.full(iu.size, np.nan)
            cells[(m, n)] = (bias, rmse, int((~ok).sum()))
    return SimReport(
        spec=spec, labels=graph.vertices, cells=cells, raw_errors=raw, failure_reasons=reasons
    )
