"""Smoke self-check of the benchmark at its smallest input size.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced for a moment and checks that:

- every metric BENCHMARK.json names is emitted with its unit, and no other;
- every attribute the traced run wraps holds its original value afterwards;
- span self times are non-negative and add up to their command spans;
- no command fails, and the determinism checks raise no flag, also when a
  traced run is repeated with the same seed;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run  # sets the thread pins and the import path before numpy loads
from spans import accounting_errors, self_times, wrapped_attributes
from workloads import WORKLOADS

SECONDS = 0.2  # the loop still measures its minimum of two rounds


def declared() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    unit = lambda entries: {m["name"]: m["unit"] for m in entries}  # noqa: E731
    return unit(spec["end_to_end"]), unit(spec["per_layer"])


def check_workload(name: str, e2e: dict, per_layer: dict) -> list[str]:
    problems = []
    before = wrapped_attributes()
    results = [
        run.run_workload(name, 7, SECONDS, trace=False, small=True),
        run.run_workload(name, 7, SECONDS, trace=True, small=True),
        run.run_workload(name, 7, SECONDS, trace=True, small=True),
    ]
    after = wrapped_attributes()
    moved = [key for key, value in before.items() if after[key] is not value]
    if moved:
        problems.append(f"attributes not restored: {moved}")
    for result, want in zip(results, (e2e, per_layer, per_layer)):
        got = {k: u for k, (_, u, _) in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} failed operations: {result['errors']}")
        problems.extend(f"flag: {f}" for f in result["flags"])
    for result in results[1:]:
        spans = result["spans"]
        if any(v < 0.0 for v in self_times(spans)):
            problems.append("negative self time")
        problems.extend(accounting_errors(spans))
    return [f"{name}: {p}" for p in problems]


def check_bare_directory() -> list[str]:
    """run.py must refuse to report from a tree without the package."""
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    shutil.copyfile(os.path.join(run.ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "lattice-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    e2e, per_layer = declared()
    problems = []
    for name in WORKLOADS:
        problems.extend(check_workload(name, e2e, per_layer))
    problems.extend(check_bare_directory())
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
