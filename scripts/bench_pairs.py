#!/usr/bin/env python
"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_17.json \\
        --first-seed 17500 --claim auction_100k/op_ms_p50_norm --tier1 2 \\
        --note "what the change does"

Run from the root of a checkout. Each of the two commits (any git tree-ish)
is exported with `git archive` into a temporary directory of its own, so the
runs measure committed files only, and the repository gains no worktree.
Every workload of BENCHMARK.json runs ten pairs; the k-th workload in its
order runs on the seeds first_seed + 100·(k+1) + 1 .. + 10. One pair is one
seed: the parent and the change run back to back on it, the parent first on
even-numbered pairs and the change first on odd ones, each as

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in a subprocess from the root of its tree, T being the benchmark's
run_seconds. The last line of a run's stdout
is its result. The file holds, per workload and side, the median and
quartiles (numpy.percentile, linear) of every end-to-end metric that
BENCHMARK.json declares, the operations attempted and failed, whether every
run was correct, in how many pairs the change was better, and the bound
check of each metric. --claim adds the gain rule: the change better in at
least nine of every ten pairs, and the difference of the medians larger
than the parent's interquartile range. --tier1 N adds N alternating runs of
the Tier-1 suite in each tree, with pytest's own time and its five slowest
tests.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TIER1_COMMAND = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--durations=5"]


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return done.stdout.strip()


def _export(rev: str, into: Path) -> Path:
    """The files of one commit, written under `into` by git archive."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def _run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def tier1_result(stdout: str) -> dict:
    """A Tier-1 run as pytest's stdout reports it: the counts, its own time and the slowest tests."""
    summary = stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    seconds = re.search(r"in ([\d.]+)s", summary)
    slowest = re.findall(r"^([\d.]+)s (?:setup|call|teardown) +(\S+)$", stdout, re.MULTILINE)
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0) + counts.get("error", 0),
            "seconds": float(seconds.group(1)) if seconds else None,
            "slowest": [{"test": test, "seconds": float(s)} for s, test in slowest]}


def _run_tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return tier1_result(subprocess.run(TIER1_COMMAND, cwd=tree, env=env, capture_output=True, text=True).stdout)


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """One workload's runs per side, paired by index, as the BENCH file records them."""
    out: dict = {}
    for side in SIDES:
        out[side] = {m["name"]: _quartiles([r["metrics"][m["name"]]["value"] for r in runs[side]])
                     for m in metrics}
        out[side].update(runs=len(runs[side]),
                         operations_attempted=sum(r["attempted"] for r in runs[side]),
                         operations_failed=sum(r["failed"] for r in runs[side]),
                         correct_in_every_run=all(r["correct"] for r in runs[side]))
    out["change_better_in_pairs"] = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (p["metrics"][m["name"]]["value"] - c["metrics"][m["name"]]["value"]) > 0
                   for p, c in zip(runs["parent"], runs["change"]))
        out["change_better_in_pairs"][m["name"]] = f"{wins} of {len(runs['change'])}"
    return out


def bound_check(summary: dict, metric: dict) -> str:
    """Whether the change's median is worse than the parent's by more than the metric's bound.

    Where the parent's own spread is wider than the bound, the check is
    unresolved, unless every run of the change reads better than every run
    of the parent.
    """
    parent, change = summary["parent"][metric["name"]], summary["change"][metric["name"]]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    better = sign * (parent["median"] - change["median"]) / parent["median"]
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    every_run_better = max(sign * v for v in change["runs"]) < min(sign * v for v in parent["runs"])
    if better < -metric["bound"]:
        verdict = f"OUTSIDE bound {metric['bound']}"
    elif spread > metric["bound"] and not every_run_better:
        verdict = f"unresolved: the parent's spread is wider than the bound {metric['bound']}"
    else:
        verdict = "within bound"
    return (f"{verdict}: change median better by {better:+.3f} of the parent median, "
            f"parent IQR/median {spread:.3f}")


def claim(summary: dict, metric: dict) -> dict:
    """The gain rule: better in at least nine of every ten pairs, by more than the parent's IQR."""
    parent, change = summary["parent"][metric["name"]], summary["change"][metric["name"]]
    wins, pairs = (int(x) for x in summary["change_better_in_pairs"][metric["name"]].split(" of "))
    sign = 1.0 if metric["better"] == "lower" else -1.0
    difference = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    return {"parent_median": parent["median"], "change_median": change["median"],
            "pairs_won": f"{wins} of {pairs}", "median_difference": difference,
            "parent_interquartile_range": iqr,
            "improvement_of_parent_median": difference / parent["median"],
            "met": wins * 10 >= 9 * pairs and difference > iqr}


def machine() -> dict:
    """The BENCH file's machine block: cores, and the versions of what the runs' speed depends on.

    orjson parses `auction run`'s bids file; None where it is not installed.
    """
    try:
        orjson = importlib.metadata.version("orjson")
    except importlib.metadata.PackageNotFoundError:
        orjson = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "orjson": orjson}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit measured as the parent")
    parser.add_argument("--change", required=True, help="the commit measured as the change")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", default=None, help="workload/metric whose gain is claimed")
    parser.add_argument("--tier1", type=int, default=0, help="Tier-1 runs per side (default 0)")
    parser.add_argument("--note", default="", help="what the change does")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}

    result: dict = {
        "change": args.note,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "machine": machine(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                   "run from the root of a git archive of each commit",
        "protocol": f"scripts/bench_pairs.py: one pair per seed, parent and change on the same seed, "
                    f"back to back; the parent ran first on even-numbered pairs and the change first on "
                    f"odd ones; workloads in the order {', '.join(workloads)}; quartiles by linear "
                    f"interpolation (numpy.percentile)",
        "end_to_end": {},
        "bound_check": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: _export(shas[side], Path(tmp) / side) for side in SIDES}
        for k, workload in enumerate(workloads):
            seeds = [args.first_seed + 100 * (k + 1) + i + 1 for i in range(PAIRS)]
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(_run_benchmark(trees[side], workload, seed, seconds))
                    value = runs[side][-1]["metrics"]["op_ms_p50_norm"]["value"]
                    print(f"{workload} seed {seed} {side}: op_ms_p50_norm {value:.2f}", file=sys.stderr)
            summary = summarise(runs, metrics)
            result["end_to_end"][workload] = {"seeds": seeds, **summary}
            for m in metrics:
                result["bound_check"][f"{workload}.{m['name']}"] = bound_check(summary, m)
        if args.claim:
            workload, name = args.claim.split("/")
            metric = next(m for m in metrics if m["name"] == name)
            result["claim"] = {"metric": name, "workload": workload,
                               **claim(result["end_to_end"][workload], metric)}
        if args.tier1:
            tier1: dict = {side: [] for side in SIDES}
            for _ in range(args.tier1):
                for side in SIDES:
                    tier1[side].append(_run_tier1(trees[side]))
                    print(f"tier1 {side}: {tier1[side][-1]}", file=sys.stderr)
            result["tier1"] = {**tier1, "protocol": f"{TIER1_COMMAND[2:]} with PYTHONPATH=src, "
                               "pytest's own time, alternating, parent first"}

    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
