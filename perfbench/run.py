"""End-to-end and per-layer benchmark of the covgraph command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload yeast-chain-t5 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

One process drives ``covgraph.cli.main`` in process as a closed loop with one
caller: each command is issued when the previous one has returned.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the package's functions (see spans.py) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, provenance
and the traced spans are also written under perfbench/_work/.
"""

from __future__ import annotations

import os

# BLAS and OpenMP are pinned to one thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["COVGRAPH_QUIET"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_RUNS = 5  # fresh-interpreter imports per run; setup_s is their median
MIN_ROUNDS = 2  # rounds measured in full whatever --seconds says


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


if not os.path.isfile(os.path.join(SRC, "covgraph", "cli.py")):
    fail_setup(f"no covgraph package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from covgraph import cli  # noqa: E402
from layers import command_signatures, layer_metrics  # noqa: E402
from spans import FIELDS, Recorder, accounting_errors  # noqa: E402
from workloads import (  # noqa: E402
    AGREE_TOL, FIT_METHODS, ML_METHODS, WORKLOADS, MissingSourceError, SimCommand, check_command,
)

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    fail_setup(f"covgraph imported from {cli.__file__}, not from {SRC}")


def tail(samples: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (n > 20)."""
    xs = sorted(samples)
    return xs[len(xs) - 11]


def call_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument list this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the loop must go on; the command counts as failed
        traceback.print_exc(file=sys.stderr)
        return -1


class Loop:
    """Issues commands one after another and keeps what each one yields."""

    def __init__(self, recorder: Recorder | None):
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # slot (fit method or "simulate") -> traced? -> wall seconds
        self.times: dict[str, dict[bool, list[float]]] = defaultdict(lambda: {True: [], False: []})
        self.sim_reps = 0  # replications per simulate command
        self.sim_failures: dict[str, int] = defaultdict(int)
        self.refs: dict[str, np.ndarray] = {}
        self.next_id = 0

    def issue(self, cmd, traced: bool, measured: bool):
        cid = self.next_id
        self.next_id += 1
        buf = io.StringIO()
        root = self.recorder.command(cid) if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        with root, contextlib.redirect_stdout(buf):
            rc = call_cli(cmd.argv)
        elapsed = time.perf_counter() - t0
        check = check_command(cmd, rc, buf.getvalue())
        if check.sigma is not None and cmd.method in ML_METHODS:
            ref = self.refs.setdefault(cmd.input_key, check.sigma)
            gap = float(np.abs(check.sigma - ref).max())
            if gap > AGREE_TOL:
                check.error = f"ML estimate is {gap:.3g} from the first ML estimate of this input"
        self.attempted += cmd.operations()
        self.failed += cmd.failed_operations(check)
        if traced and measured and check.failures:
            for method, count in check.failures.items():
                self.sim_failures[method] += count
        if check.error is not None:
            self.errors.append(f"{' '.join(cmd.argv[:1] + [cmd.method])}: {check.error}")
        elif measured:
            self.times[cmd.method][traced].append(elapsed)
            if isinstance(cmd, SimCommand):
                self.sim_reps = cmd.reps
        return cid, check


def measure_setup() -> tuple[float, int]:
    """Median time to import covgraph.cli in a fresh interpreter.

    One untimed import runs first, so the bytecode cache is written before the
    timed ones.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import covgraph.cli; print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times[1:]), SETUP_RUNS


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_settings": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "loop": "closed, one caller, in process",
    }


def overhead_ratio(loop: Loop) -> tuple[float, int]:
    """Traced over untraced wall time, summed over per-slot medians."""
    both = [t for t in loop.times.values() if t[True] and t[False]]
    traced = sum(statistics.median(t[True]) for t in both)
    plain = sum(statistics.median(t[False]) for t in both)
    n = sum(len(t[True]) + len(t[False]) for t in both)
    return (traced / plain if plain else 0.0), n


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns metrics, counts, flags and spans."""
    workdir = os.path.join(WORK, f"{name}-s{seed}-t{int(trace)}{'-small' if small else ''}")
    workload = WORKLOADS[name](ROOT, seed, workdir, small=small)
    recorder = Recorder() if trace else None
    loop = Loop(recorder)
    flags: list[str] = []
    setup = measure_setup() if not trace else None

    round0 = workload.round(0)
    warm = [loop.issue(cmd, traced=False, measured=False)[1] for cmd in round0]
    deadline = time.perf_counter() + seconds
    first: list[tuple[int, object]] = []  # round 0 as measured: (command id, check)
    k, cmds = 0, round0
    while True:
        # Rounds alternate traced and untraced in a traced run, so that the
        # tracing overhead is measured under the same machine load.
        traced = trace and k % 2 == 0
        with recorder.installed() if traced else contextlib.nullcontext():
            for cmd in cmds:
                if k >= MIN_ROUNDS and time.perf_counter() >= deadline:
                    break
                issued = loop.issue(cmd, traced, measured=True)
                if k == 0:
                    first.append(issued)
        k += 1
        if k >= MIN_ROUNDS and time.perf_counter() >= deadline:
            break
        cmds = workload.round(k)
    rounds = k

    result = {"info": {}}
    reports_match = True
    if trace:
        measured_spans = len(recorder.spans)
        with recorder.installed():
            replay = [loop.issue(cmd, traced=True, measured=False)[0] for cmd in round0]
        sigs = command_signatures(recorder.spans)
        before = [sigs.get(cid) for cid, _ in first]
        after = [sigs.get(cid) for cid in replay]
        if before != after:
            flags.append("counts differ between two traced runs of round 0 in one run")
        for cmd, w, (_, chk) in zip(round0, warm, first):
            if isinstance(cmd, SimCommand) and w.report != chk.report:
                flags.append("simulate report differs between the untraced and traced runs")
                reports_match = False
        flags.extend(accounting_errors(recorder.spans))
        flags.extend(cross_run_counts(name, seed, small, round0, after))
        spans = recorder.spans[:measured_spans]
        metrics = layer_metrics(spans, loop.sim_failures, overhead_ratio(loop))
        result["spans"] = spans
    else:
        # The gated timings are means over the run.  The shared host's speed
        # drifts by up to a third over tens of seconds; the mean weighs every
        # part of the run alike and spread least between runs.  Median, tail
        # and minimum are printed and recorded beside them.
        metrics = {"setup_s": (setup[0], "s", setup[1])}
        info = result["info"]
        for method in FIT_METHODS:
            samples = loop.times[method][False]
            if samples:
                n = len(samples)
                metrics[f"fit_s_mean.{method}"] = (statistics.fmean(samples), "s", n)
                info[f"fit_s.{method}"] = (statistics.median(samples), "s", n)
                info[f"fit_s_min.{method}"] = (min(samples), "s", n)
            if len(samples) > 20:
                info[f"fit_s_tail.{method}"] = (tail(samples), "s", len(samples))
        sims = loop.times[SimCommand.method][False]
        if sims:
            metrics["sim_reps_per_s"] = (loop.sim_reps * len(sims) / sum(sims), "1/s", len(sims))
        result["samples"] = {m: t[False] for m, t in loop.times.items()}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss, "MB", 1)
    result.update(
        correct=reports_match and loop.failed == 0,
        attempted=loop.attempted,
        failed=loop.failed,
        fail_frac=loop.failed / loop.attempted,
        rounds=rounds,
        errors=loop.errors[:20],
        flags=flags,
        metrics=metrics,
    )
    shutil.rmtree(workdir)  # the inputs are regenerated from the seed
    return result


def cross_run_counts(name: str, seed: int, small: bool, commands: list, signatures: list) -> list[str]:
    """Compare round-0 counts with an earlier run of the same commands, if any."""
    path = os.path.join(WORK, "counts", f"{name}-s{seed}{'-small' if small else ''}.json")
    current = json.loads(json.dumps({"argv": [c.argv for c in commands], "counts": signatures}))
    flags = []
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier.get("argv") == current["argv"] and earlier.get("counts") != current["counts"]:
            flags.append(f"counts differ from the earlier run recorded in {os.path.relpath(path, ROOT)}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(current, fh)
    return flags


def report(args, result: dict) -> None:
    prov = provenance(args)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(WORK, "results", f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": spans}, fh)
    record = dict(result, provenance=prov, metrics={
        k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result["metrics"].items()
    })
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for flag in result["flags"]:
        print(f"perfbench: FLAG {flag}", file=sys.stderr)
    for err in result["errors"]:
        print(f"perfbench: failed {err}", file=sys.stderr)
    for k, (v, u, n) in [*result["metrics"].items(), *result["info"].items()]:
        print(f"{args.workload:14s} {k:34s} {v:14.6g} {u:6s} samples={n}")
    print(f"{args.workload:14s} {'fail_frac':34s} {result['fail_frac']:14.6g} "
          f"{'':6s} failed={result['failed']} attempted={result['attempted']}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSourceError as exc:
        fail_setup(str(exc))
    report(args, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
