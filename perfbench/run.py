"""modkalm benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload ring-white --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics (rtf, setup_s, peak_mem_mb, segsnr_gain_db); with
``--trace 1`` it holds the per-module figures of a traced run.  See
README.md in this directory.
"""
import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "modkalm" / "__init__.py").is_file():
        print(f"error: no modkalm package under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS/OpenMP pools at the cores this process may use; must precede
    # the first numpy import, here and in the probes that inherit it
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    sys.path.insert(0, str(SRC))
    import workloads

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
