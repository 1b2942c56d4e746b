"""Workload inputs, command lists and output checks for the covgraph benchmark.

A workload is built from the benchmark seed alone.  It writes its input files
into a work directory and hands the loop one round of commands at a time; each
command is an argument list for ``covgraph.cli.main`` plus the check that its
output must pass.  Every workload issues ``fit`` commands for the four
likelihood-equation methods and one ``simulate`` command per round, because
every end-to-end metric is reported on every workload; what differs is the
input, and so which layer dominates.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

FIT_METHODS = ("ml-icf", "ml-icf-multi", "ml-anderson", "dual")
ML_METHODS = ("ml-icf", "ml-icf-multi", "ml-anderson")
# Acceptance criterion 3: the ML methods agree on the estimate to this bound.
AGREE_TOL = 1e-6
# Acceptance criterion 1: published yeast deviance, tolerance and degrees of freedom.
YEAST_DEVIANCE = {"gd": (9.98, 1.0, 9), "gs": (33.07, 1.5, 13)}

# Four-variable chain with edges 1-3, 3-4, 2-4: the simulation design of the
# acceptance suite.
SIGMA_CHAIN = np.array(
    [
        [1.0, 0.0, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.25],
        [0.5, 0.0, 1.0, 0.75],
        [0.0, 0.25, 0.75, 1.0],
    ]
)


class MissingSourceError(RuntimeError):
    """The checkout lacks the package or the data the benchmark drives."""


@dataclass(frozen=True)
class Graph:
    """Benchmark-side copy of a graph file: labels and index-pair edges."""

    path: str
    vertices: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def p(self) -> int:
        return len(self.vertices)

    def free_count(self) -> int:
        return self.p + len(self.edges)


@dataclass
class Check:
    """Outcome of one command: an error message, or what the loop needs."""

    error: str | None = None
    sigma: np.ndarray | None = None
    failures: dict[str, int] | None = None  # per method, from a simulation report
    report: bytes = b""


def check_command(cmd, rc: int, stdout: str) -> Check:
    """Exit code 0 and output that passes the command's own checks."""
    if rc != 0:
        return Check(error=f"exit code {rc}")
    try:
        return cmd.check_output(stdout)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return Check(error=f"unreadable output: {exc!r}")


@dataclass
class FitCommand:
    """``covgraph fit --method <method> --out <out>`` on one input."""

    method: str
    argv: list[str]
    out: str
    graph: Graph
    input_key: str  # fits of one input must agree on the ML estimate
    deviance: tuple[float, float, int] | None = None  # published value, tolerance, df

    def operations(self) -> int:
        return 1

    def failed_operations(self, check: Check) -> int:
        return 0 if check.error is None else 1

    def check_output(self, stdout: str) -> Check:
        fields = dict(line.partition(" ")[::2] for line in stdout.splitlines())
        if fields.get("converged") != "true":
            return Check(error="fit did not report convergence")
        g = self.graph
        key = "deviance" if self.method in ML_METHODS else "deviance-functional"
        dev, df = float(fields[key]), int(fields["df"])
        want_df = g.p * (g.p + 1) // 2 - g.free_count()
        if df != want_df or not math.isfinite(dev) or dev < 0.0:
            return Check(error=f"deviance {dev} on df {df}, expected df {want_df}")
        if self.deviance is not None:
            target, tol, published_df = self.deviance
            if abs(dev - target) > tol or df != published_df:
                return Check(error=f"deviance {dev:.3f} on df {df}, published {target} +- {tol} on df {published_df}")
        sigma = read_matrix(self.out, g.vertices)
        off_pattern = [
            (i, j) for i in range(g.p) for j in range(i + 1, g.p)
            if (i, j) not in g.edges and (sigma[i, j] != 0.0 or sigma[j, i] != 0.0)
        ]
        if off_pattern:
            return Check(error=f"nonzero estimate on missing edges {off_pattern[:3]}")
        if not np.all(np.isfinite(sigma)):
            return Check(error="non-finite estimate")
        return Check(sigma=sigma)


@dataclass
class SimCommand:
    """``covgraph simulate --reps <reps> --methods <methods> --seed <seed>``."""

    argv: list[str]
    out: str
    methods: tuple[str, ...]
    reps: int
    seed: int
    method = "simulate"

    def operations(self) -> int:
        return self.reps * len(self.methods)

    def failed_operations(self, check: Check) -> int:
        """Failed replication fits of a readable report, else every operation."""
        if check.error is None:
            return 0
        return sum(check.failures.values()) if check.failures is not None else self.operations()

    def check_output(self, stdout: str) -> Check:
        with open(self.out, "rb") as fh:
            report = fh.read()
        lines = report.decode("utf-8").splitlines()
        if len(lines) < 2 or not lines[1].startswith(f"# seed {self.seed} "):
            return Check(error="report header does not carry the requested seed")
        failures: dict[str, int] = {}
        start = lines.index("method\tn\ti\tj\tbias\trmse\tfailures") + 1
        for line in lines[start:]:
            method, _, _, _, bias, rmse, fails = line.split("\t")
            failures[method] = int(fails)
            if int(fails) < self.reps and not (math.isfinite(float(bias)) and math.isfinite(float(rmse))):
                return Check(error=f"non-finite bias or rmse for {method}")
        if tuple(failures) != self.methods:
            return Check(error=f"report methods {tuple(failures)} != {self.methods}")
        total = sum(failures.values())
        return Check(
            error=f"{total} failed replication fits" if total else None,
            failures=failures,
            report=report,
        )


def read_matrix(path: str, labels: tuple[str, ...]) -> np.ndarray:
    """Parse the estimate file written by ``fit --out`` into graph order."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#labels"):
        raise ValueError("estimate file lacks its #labels line")
    file_labels = lines[0].split("\t")[1:]
    m = np.array([[float(tok) for tok in line.split("\t")] for line in lines[1:]])
    perm = [file_labels.index(v) for v in labels]
    if m.shape != (len(labels), len(labels)):
        raise ValueError(f"estimate has shape {m.shape}")
    return m[np.ix_(perm, perm)]


def read_graph(path: str) -> Graph:
    vertices: list[str] = []
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts and parts[0] == "vertex":
                vertices.append(parts[1])
            elif parts and parts[0] == "edge":
                pairs.append((parts[1], parts[2]))
    pos = {v: k for k, v in enumerate(vertices)}
    edges = frozenset(tuple(sorted((pos[a], pos[b]))) for a, b in pairs)
    return Graph(path=path, vertices=tuple(vertices), edges=edges)


def write_graph(path: str, vertices, edges) -> Graph:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"vertex {v}\n" for v in vertices)
        fh.writelines(f"edge {vertices[i]} {vertices[j]}\n" for i, j in edges)
    return read_graph(path)


def write_matrix(path: str, m: np.ndarray, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#labels\t" + "\t".join(labels) + "\n")
        for row in m:
            fh.write("\t".join(format(float(x), ".17g") for x in row) + "\n")


def write_table(path: str, data: np.ndarray, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        for row in data:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def patterned_cov(g: Graph, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Random positive-definite matrix with zeros off the graph's edges.

    Edge entries are uniform in (-scale, scale); the diagonal is lifted above
    each row's absolute sum, so the matrix is diagonally dominant.
    """
    m = np.zeros((g.p, g.p))
    for i, j in sorted(g.edges):
        m[i, j] = m[j, i] = scale * rng.uniform(-1.0, 1.0)
    m += np.diag(rng.uniform(1.0, 2.0, g.p) + np.abs(m).sum(axis=1))
    return m


def gaussian_rows(sigma: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, sigma.shape[0])) @ np.linalg.cholesky(sigma).T


class Workload:
    """Base: a work directory, a seeded generator and the round schedule."""

    name = ""
    why = ""

    def __init__(self, root: str, seed: int, workdir: str, small: bool = False):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.rng = np.random.default_rng([seed, 0x6276])
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # Seed of every ``simulate`` command, whatever the benchmark seed.  EL's
    # cost per replication is heavy-tailed (0.2 s to several seconds), so a
    # run that drew other replications would differ by what it drew, not by
    # the program or the machine.  With one seed every round repeats the same
    # replications, and the median command time is a steady measure.
    SIM_SEED = 1000

    def fit(self, method: str, argv: list[str], graph: Graph, key: str, deviance=None) -> FitCommand:
        out = self.path(f"est-{key}-{method}.mat")
        return FitCommand(
            method=method, out=out, graph=graph, input_key=key, deviance=deviance,
            argv=["fit", *argv, "--graph", graph.path, "--method", method, "--out", out],
        )

    def simulate(self, sigma_path: str, argv: list[str], methods, reps: int) -> SimCommand:
        out = self.path("report.tsv")
        seed = self.SIM_SEED
        return SimCommand(
            out=out, methods=tuple(methods), reps=reps, seed=seed,
            argv=["simulate", "--sigma", sigma_path, *argv, "--reps", str(reps),
                  "--methods", ",".join(methods), "--seed", str(seed), "--out", out],
        )

    def round(self, k: int) -> list:
        raise NotImplementedError


class YeastChainT5(Workload):
    name = "yeast-chain-t5"
    why = (
        "small p: yeast fits (n=134, p=8, ~120 ICF sweeps) plus the paper's t5 chain "
        "simulation with EL; per-call overhead and EL dominate"
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        data = os.path.join(self.root, "tests", "data")
        for name in ("table1.stats", "gd.graph", "gs.graph"):
            src = os.path.join(data, name)
            if not os.path.isfile(src):
                raise MissingSourceError(f"missing yeast input {src}")
            shutil.copyfile(src, self.path(name))
        self.graphs = {g: read_graph(self.path(f"{g}.graph")) for g in ("gd", "gs")}
        self.fits = [(g, m) for g in ("gd", "gs") for m in FIT_METHODS]
        # The four-variable chain of the acceptance suite, simulated with t5
        # rows by the CLI's default methods; its graph is Sigma's pattern.
        self.sigma_path = self.path("sigma-chain.mat")
        write_matrix(self.sigma_path, SIGMA_CHAIN, ("X1", "X2", "X3", "X4"))

    def round(self, k: int) -> list:
        cmds = []
        for idx in self.rng.permutation(len(self.fits)):
            g, method = self.fits[idx]
            dev = YEAST_DEVIANCE[g] if method in ML_METHODS else None
            cmds.append(self.fit(method, ["--stats", self.path("table1.stats")], self.graphs[g], g, dev))
        cmds.append(self.simulate(
            self.sigma_path, ["--dist", "t", "--df", "5", "--n", "100"],
            ("ml-icf", "dual", "el"), reps=1,
        ))
        return cmds


class LatticeFit(Workload):
    name = "lattice-fit"
    why = (
        "large p: seeded 10x10 lattice (p=100, 180 edges, n=300 rows), few sweeps; "
        "per-update linear algebra and data parsing dominate and EL is bypassed"
    )
    # Fits per round of each method.  The two fast methods take a tenth of
    # the time of the ICF fits, so they run more often to give their medians
    # as many samples.
    REPEATS = {"ml-icf": 1, "ml-icf-multi": 1, "ml-anderson": 2, "dual": 2}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        side = 3 if self.small else 10
        n = 40 if self.small else 300
        labels = [f"L{r}_{c}" for r in range(side) for c in range(side)]
        edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
        self.graph = write_graph(self.path("lattice.graph"), labels, sorted(edges))
        sigma = patterned_cov(self.graph, self.rng)
        self.sigma_path = self.path("sigma.mat")
        write_matrix(self.sigma_path, sigma, labels)
        self.data_path = self.path("data.csv")
        write_table(self.data_path, gaussian_rows(sigma, n, self.rng), labels)
        self.n = n

    def round(self, k: int) -> list:
        fits = [m for m in FIT_METHODS for _ in range(self.REPEATS[m])]
        cmds = [self.fit(fits[i], ["--data", self.data_path], self.graph, "lattice")
                for i in self.rng.permutation(len(fits))]
        cmds.append(self.simulate(
            self.sigma_path,
            ["--graph", self.graph.path, "--dist", "gaussian", "--n", str(self.n)],
            ("ml-anderson", "dual"), reps=1,
        ))
        return cmds


WORKLOADS = {w.name: w for w in (YeastChainT5, LatticeFit)}
