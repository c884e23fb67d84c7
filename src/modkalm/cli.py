"""Batch front end: enhance WAV files or run a small benchmark grid.

Two subcommands:

``modkalm enhance``
    Enhance one or more mono 16-bit WAV files and write
    ``<stem>.enhanced.wav`` next to ``-o``, printing the per-file
    clamp/fault counters.  In ``logmmse`` and ``mdkm`` modes consecutive
    files go to the enhancer in batches of up to ``BATCH_BYTES`` of WAV
    each, cut so that every process runs about the same bytes; a batch's
    pre-cleaning and Kalman stages each run as one frame loop
    (:func:`modkalm.enhancer.diagnose_batch`), and each file's output and
    counters are those of a run on that file alone.  ``mdkr`` takes one
    file per job.

``modkalm bench``
    Mix a noise file into clean references at exact global SNRs, run the
    requested enhancers, and write a segmental-SNR CSV plus a JSON bundle
    of per-run diagnostics.

The flags are the one declaration of a run's settings; ``--mode`` is the
one enhancer setting, since the framing and model orders are fixed at the
paper's operating point.

Both run their jobs on ``--workers`` processes, by default one per usable
core: this process takes jobs itself beside ``--workers - 1`` ones started
for the call, whichever is free taking the next job in input order.

Exit codes: 0 success, 1 runtime failure (I/O, bad audio, a process that
ended abruptly), 2 usage error (bad flags, inputs that share an output).
``MODKALM_LOG`` sets the log level (default WARNING).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob
import itertools
import json
import logging
import os
import sys
import threading
import zlib
from pathlib import Path

import numpy as np

from .enhancer import (
    MAX_PEAK,
    EnhancerConfig,
    Mode,
    _checked,
    _over_peak,
    diagnose,
    diagnose_batch,
)
from .metrics import seg_snr
from .stft import SAMPLE_RATE, read_wav, write_wav

log = logging.getLogger("modkalm.cli")

# WAV bytes per enhance batch: eight 0.5 s files of 16 kHz 16-bit audio
# with their headers (8 x 16,044 bytes), not nine.  One pre-cleaning frame
# loop and, in mdkm, one Kalman frame loop over a batch's stacked bins
# cost less per cell than a file at a time, but the batch holds the
# spectra of all its files at once.  Traced with tracemalloc, a batch of
# 0.5 s files peaks at 2.52, 4.51 and 5.94 MB in mdkm and at 2.25, 3.51
# and 4.64 MB in logmmse for 3, 6 and 8 files, 0.66 and 0.42 MB a file
# from 3 to 6.  Twelve 0.5 s files, run twice through a logmmse call and
# an mdkm call on two processes, peaked at 62.6-62.7 MB of resident
# memory in the calling process at this size (two mdkm batches of six),
# against 62.8-63.2 MB at 2 ** 16 when each file held a grid of speech
# models (four batches of three).
BATCH_BYTES = 2 ** 17


class UsageError(ValueError):
    """A bad flag value, or inputs that would share an output: report and
    exit 2."""


def _usable_cores() -> int:
    """The cores this process may run on, or the host's where the platform
    cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _add_shared(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-o", "--out-dir", default=".", help="output directory")
    ap.add_argument("--workers", type=int, default=_usable_cores(),
                    help="processes running the files' jobs, this one "
                         "included (default: the usable cores, %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkalm",
        description="Modulation-domain Kalman speech enhancement.")
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in Mode]

    enh = sub.add_parser("enhance", help="enhance WAV files")
    enh.add_argument("inputs", nargs="+", metavar="WAV",
                     help="input files or globs")
    enh.add_argument("--mode", choices=modes, default=EnhancerConfig.mode.value)
    _add_shared(enh)

    bench = sub.add_parser("bench", help="mix, enhance, and score")
    bench.add_argument("inputs", nargs="+", metavar="CLEAN",
                       help="clean reference files or globs")
    bench.add_argument("--noise", required=True, help="noise WAV to mix in")
    bench.add_argument("--snr", nargs="+", type=float, default=[0.0],
                       metavar="DB", help="global SNRs to test")
    bench.add_argument("--mode", action="append", choices=modes,
                       default=None,
                       help="enhancer to run (repeatable; default: all)")
    bench.add_argument("--seed", type=int, default=0,
                       help="seed for the noise excerpt's alignment")
    _add_shared(bench)
    return parser


def _expand(patterns) -> list[str]:
    paths: list[str] = []
    for pat in patterns:
        hits = sorted(glob.glob(pat))
        if hits:
            paths.extend(hits)
        elif os.path.exists(pat):
            paths.append(pat)
        else:
            raise FileNotFoundError(f"no input matches {pat!r}")
    return paths


def _run_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on ``min(workers, len(jobs))``
    processes: this one and ones started for the call.  Whichever one is
    free takes the next job in input order.  Once a job fails no further
    job starts; the running ones finish, and the error of the first job in
    input order that failed is raised."""
    lanes = min(workers, len(jobs))
    if lanes <= 1:
        return [fn(job) for job in jobs]
    results, errors = [None] * len(jobs), {}
    order, lock, stop = iter(range(len(jobs))), threading.Lock(), threading.Event()

    def take():
        with lock:
            return None if stop.is_set() else next(order, None)

    def lane(run, i):
        while i is not None:
            try:
                results[i] = run(i)
            except Exception as err:
                errors[i] = err
                stop.set()
            i = take()

    with concurrent.futures.ProcessPoolExecutor(max_workers=lanes - 1) as pool:
        # under fork the first submit forks every process, so it comes
        # before this process starts a thread or a job
        started = {i: pool.submit(fn, jobs[i]) for i in itertools.islice(order, lanes - 1)}

        def in_pool(i):
            return (started.pop(i, None) or pool.submit(fn, jobs[i])).result()
        feeders = [threading.Thread(target=lane, args=(in_pool, i)) for i in started]
        for feeder in feeders:
            feeder.start()
        try:
            lane(lambda i: fn(jobs[i]), take())
        finally:
            stop.set()
            for feeder in feeders:
                feeder.join()
    if errors:
        raise errors[min(errors)]
    return results


def _batches(paths, workers: int) -> list[list[str]]:
    """``paths`` cut into consecutive batches in the order the processes
    take them, time counted in bytes: the first process free (the one with
    the fewest bytes run) takes the next batch.  The batch takes files while
    their middle byte stays within that process's next multiple of
    ``total / count`` bytes or, if further, within an equal part of the
    bytes left over the batches left, so the last of ``count`` batches takes
    what remains.  ``count`` is the least multiple of ``workers``, from the
    first whose shares fit in ``BATCH_BYTES``, at which every batch of two
    or more files fits there too."""
    sizes = [os.path.getsize(path) for path in paths]
    total = sum(sizes) or 1
    count = workers * -(-total // (workers * BATCH_BYTES))
    while True:
        # an entry per process that took a batch; one that took none comes
        # after them with 0 bytes, so it is first free unless one ran 0 bytes
        loads, taken, batches, used, rest = [], [], [], [], total
        for path, size in zip(paths, sizes):
            if not batches or 2 * loads[p] + size > 2 * goal:
                if len(loads) < workers and 0 not in loads:
                    loads.append(0)
                    taken.append(0)
                p = loads.index(min(loads))
                taken[p] += 1
                goal = max(taken[p] * total / count,
                           loads[p] + rest / (count - len(batches)))
                batches.append([])
                used.append(0)
            batches[-1].append(path)
            used[-1] += size
            loads[p] += size
            rest -= size
        if all(n <= BATCH_BYTES or len(b) == 1 for b, n in zip(batches, used)):
            return batches
        count += workers


def _out_path(out_dir: str, path: str) -> str:
    return os.path.join(out_dir, Path(path).stem + ".enhanced.wav")


def _read_signal(path: str) -> np.ndarray:
    """The samples of a WAV file, checked as the enhancer checks them;
    every error names the file."""
    samples = read_wav(path, expect_rate=SAMPLE_RATE)[0]  # read_wav's errors name it
    try:
        return _checked(samples, SAMPLE_RATE)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _enhance_files(job: tuple) -> list[str]:
    """Enhance and write the files of one batch.  A file that cannot be
    read or enhanced fails the batch, after the files before it are
    enhanced and written, as when each file was a job of its own."""
    paths, cfg, out_dir = job
    failure = None

    def signals():
        nonlocal failure
        for path in paths:
            try:
                x = _read_signal(path)
            except (OSError, ValueError) as err:
                failure = err
                return
            yield x
    diags = diagnose_batch(signals(), SAMPLE_RATE, cfg)
    lines = []
    for path, diag in zip(paths, diags):
        out_path = _out_path(out_dir, path)
        clipped = write_wav(out_path, diag.enhanced, SAMPLE_RATE)
        counters = sorted(dict(diag.counters, saturated=clipped).items())
        lines.append(f"{path} -> {out_path}  " + " ".join(f"{k}={v}" for k, v in counters))
    if failure is not None:
        raise failure
    return lines


def cmd_enhance(ns: argparse.Namespace) -> int:
    cfg = EnhancerConfig(mode=Mode(ns.mode))
    paths = _expand(ns.inputs)
    writers = {}
    for path in paths:
        out_path = _out_path(ns.out_dir, path)
        if out_path in writers:
            raise UsageError(f"{writers[out_path]} and {path} would both write {out_path}")
        writers[out_path] = path
    os.makedirs(ns.out_dir, exist_ok=True)
    # the pre-cleaner's and mdkm's frame loops run faster stacked; mdkr
    # spends its time in ring cells taken one at a time, so a batch there
    # only holds more memory
    if cfg.mode is Mode.MDKR:
        batches = [[path] for path in paths]
    else:
        batches = _batches(paths, ns.workers)
    jobs = [(batch, cfg, ns.out_dir) for batch in batches]
    for lines in _run_jobs(_enhance_files, jobs, ns.workers):
        for line in lines:
            print(line)
    return 0


def _mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float,
                seed: int = 0, tag: int = 0) -> np.ndarray:
    """Add ``noise`` to ``clean`` so the total-energy ratio is exactly
    ``snr_db``.  Long noise contributes a seeded excerpt; short noise is
    tiled (with a warning) so every sample of clean gets covered.  An
    ``snr_db`` whose noise scale overflows for these signals, or whose mix
    peaks above the enhancer's :data:`~modkalm.enhancer.MAX_PEAK`, is a
    :class:`UsageError`."""
    if noise.size < clean.size:
        log.warning("noise (%d samples) shorter than clean (%d); tiling",
                    noise.size, clean.size)
        reps = -(-clean.size // noise.size)
        seg = np.tile(noise, reps)[: clean.size]
    elif noise.size > clean.size:
        rng = np.random.default_rng([seed, tag])
        start = int(rng.integers(0, noise.size - clean.size + 1))
        seg = noise[start: start + clean.size]
    else:
        seg = noise
    e_clean = float(np.sum(clean**2))
    e_seg = float(np.sum(seg**2))
    if e_seg == 0.0:
        raise ValueError("noise excerpt is silent; cannot set an SNR")
    with np.errstate(over="ignore"):
        scale = np.sqrt(e_clean / e_seg / 10.0 ** (snr_db / 10.0))
    if not np.isfinite(scale):
        raise UsageError(f"--snr {snr_db} dB gives no finite noise scale for these signals")
    mixed = clean + scale * seg
    peak = _over_peak(mixed)
    if peak is not None:
        raise UsageError(f"--snr {snr_db} dB mixes to a peak of {peak:.4g}, above the "
                         f"enhancer's bound of {MAX_PEAK:.0e}")
    return mixed


def _bench_one(job: tuple) -> dict:
    clean_path, noise_path, snr_db, mode, cfg, seed = job
    # the enhancer's refusals of the clean signal come before the mix: an
    # empty one would take an empty noise excerpt, refused as silent
    clean = _read_signal(clean_path)
    noise = read_wav(noise_path, expect_rate=SAMPLE_RATE)[0]
    tag = zlib.crc32(f"{clean_path}|{snr_db:.6f}".encode()) & 0x7FFFFFFF
    noisy = _mix_at_snr(clean, noise, snr_db, seed=seed, tag=tag)
    try:
        diag = diagnose(noisy, SAMPLE_RATE, cfg)
    except ValueError as err:
        raise ValueError(f"{clean_path}: {err}") from err
    row = {
        "file": clean_path,
        "enhancer": mode,
        "snr_db": snr_db,
        "segsnr_db": seg_snr(clean, diag.enhanced).mean,
    }
    extra = {"counters": dict(diag.counters)}
    if diag.prediction_gain_db is not None:
        extra["prediction_gain_db_mean"] = float(np.mean(diag.prediction_gain_db))
    return {"row": row, "diag": extra}


def cmd_bench(ns: argparse.Namespace) -> int:
    with np.errstate(over="ignore"):  # the power ratios _mix_at_snr divides by
        bad = [snr for snr in ns.snr if not 0.0 < np.float64(10.0) ** (snr / 10.0) < np.inf]
    if bad:
        raise UsageError(f"--snr {bad[0]} dB gives no finite positive power ratio")
    if ns.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {ns.seed}")
    modes = dict.fromkeys(ns.mode or [m.value for m in Mode])
    configs = {mode: EnhancerConfig(mode=Mode(mode)) for mode in modes}
    paths = dict.fromkeys(_expand(ns.inputs))
    _expand([ns.noise])
    os.makedirs(ns.out_dir, exist_ok=True)

    jobs = [(p, ns.noise, snr, mode, configs[mode], ns.seed)
            for p in paths for snr in dict.fromkeys(ns.snr) for mode in modes]
    results = _run_jobs(_bench_one, jobs, ns.workers)

    # a JSON entry is keyed by its CSV row's file, enhancer and SNR text
    csv_path = os.path.join(ns.out_dir, "bench.csv")
    bundle = {}
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "enhancer", "snr_db", "segsnr_db"])
        for res in results:
            row = res["row"]
            key = [row["file"], row["enhancer"], repr(float(row["snr_db"]))]
            writer.writerow(key + [repr(float(row["segsnr_db"]))])
            bundle["|".join(key)] = res["diag"]

    diag_path = os.path.join(ns.out_dir, "bench_diagnostics.json")
    with open(diag_path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)

    print(f"wrote {csv_path} ({len(results)} rows) and {diag_path}")
    return 0


def main(argv=None) -> int:
    level_name = os.environ.get("MODKALM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level)
    logging.getLogger("modkalm").setLevel(level)

    try:
        ns = _build_parser().parse_args(argv)
        log.debug("parsed options: %s", vars(ns))
        if ns.workers < 1:
            raise UsageError("--workers must be at least 1")
        if ns.command == "enhance":
            return cmd_enhance(ns)
        return cmd_bench(ns)
    except SystemExit as err:  # argparse has already printed the message
        return int(err.code or 0)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except concurrent.futures.BrokenExecutor:
        print("error: a worker process ended abruptly", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
