"""Record benchmark runs into ``BENCH_<n>.json`` at the repository root.

Runs ``perfbench/run.py --trace 0`` once per workload and seed, each in a
fresh process, for every workload and the run length that ``BENCHMARK.json``
declares, and writes the git hash, the machine, the Python, numpy and
scipy versions, every run's metrics, and the median and quartiles of each
metric per workload::

    python3 tests/bench_record.py --number 8 --seeds 1-10
    python3 tests/bench_record.py --number 8 --seeds 1-10 --baseline ../parent

With ``--baseline DIR`` each workload and seed also runs in the checkout at
DIR, and the two trees take turns to go first from one seed to the next.
The record then holds both trees' runs and, per metric, how many of the
pairs the change won, lost and tied (the direction comes from
``BENCHMARK.json``), the baseline's quartile spread (q3 - q1), the
change's median minus the baseline's, and ``gain_rule``: whether the change
won at least nine tenths of the pairs and its median is better than the
baseline's by more than that spread, the rule a claimed gain must meet.  The file is rewritten after every run, so an
interrupted recording keeps what it measured.  The file name does not
match ``test_*.py``, so pytest does not collect it.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,5"``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_hash(tree: Path) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=True).stdout.strip()
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def one_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles (inclusive method) of each metric."""
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive") \
            if len(vals) > 1 else vals * 3
        out[name] = {"median": q2, "q1": q1, "q3": q3, "n": len(vals)}
    return out


def pair_counts(change: list[dict], base: list[dict], lower_better: dict) -> dict:
    """Per metric: the pairs the change won, lost and tied; the baseline's
    quartile spread; the change's median minus the baseline's; and whether
    the gain rule holds: the change wins at least nine tenths of the pairs
    and its median is better by more than the baseline's spread."""
    out = {}
    c_sum, b_sum = summary(change), summary(base)
    for name, lower in lower_better.items():
        sign = 1 if lower else -1
        diffs = [(c["metrics"][name] - b["metrics"][name]) * sign
                 for c, b in zip(change, base)]
        won = sum(d < 0 for d in diffs)
        iqr = b_sum[name]["q3"] - b_sum[name]["q1"]
        median_diff = c_sum[name]["median"] - b_sum[name]["median"]
        out[name] = {"change_better": won,
                     "change_worse": sum(d > 0 for d in diffs),
                     "equal": sum(d == 0 for d in diffs),
                     "baseline_iqr": iqr,
                     "median_diff": median_diff,
                     "gain_rule": 10 * won >= 9 * len(diffs) and -sign * median_diff > iqr}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--seeds", type=seed_list, required=True, help='e.g. "1-10" or "1,3,5"')
    ap.add_argument("--baseline", type=Path, help="checkout to run in alternation")
    args = ap.parse_args(argv)

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    record = {
        "git": {label: git_hash(tree) for label, tree in trees.items()},
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "run_seconds": seconds,
        "workloads": {},
    }
    out_path = ROOT / f"BENCH_{args.number}.json"
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {label: [] for label in trees}
        entry = record["workloads"][workload] = {}
        for i, seed in enumerate(args.seeds):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for label in order:
                run = one_run(trees[label], workload, seed, seconds)
                runs[label].append(run)
                print(f"{workload} seed {seed} {label}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
            for label in trees:
                entry[label] = {"runs": runs[label], "summary": summary(runs[label])}
            if "baseline" in trees:
                entry["pairs"] = pair_counts(runs["change"], runs["baseline"], lower_better)
            out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
