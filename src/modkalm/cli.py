"""Batch front end: enhance WAV files or run a small benchmark grid.

Two subcommands:

``modkalm enhance``
    Enhance one or more mono 16-bit WAV files and write
    ``<stem>.enhanced.wav`` next to ``-o``, printing the per-file
    clamp/fault counters.  In ``mdkm`` mode consecutive files go to the
    enhancer in batches of up to ``BATCH_BYTES`` of WAV, and to at least as
    many batches as workers; a batch's Kalman stages run as one
    (:func:`modkalm.enhancer.diagnose_batch`), and each file's output and
    counters are those of a run on that file alone.  The other modes take
    one file per job.

``modkalm bench``
    Mix a noise file into clean references at exact global SNRs, run the
    requested enhancers, and write a segmental-SNR CSV plus a JSON bundle
    of per-run diagnostics.

The argument parser is the one declaration of the options; ``--mode`` is
the one enhancer setting, since the framing and model orders are fixed at
the paper's operating point.  A ``key = value`` config file (``--config``)
sets flags by their dest names (``out_dir``, ``workers``, ``noise``, ...),
each value parsed as that flag parses it; keys that only the other
subcommand has are ignored, and a flag given on the command line replaces
the file's value.

Exit codes: 0 success, 1 runtime failure (I/O, bad audio), 2 usage error.
``MODKALM_LOG`` sets the log level (default WARNING).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob
import json
import logging
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .enhancer import EnhancerConfig, Mode, diagnose, diagnose_batch
from .metrics import seg_snr
from .stft import SAMPLE_RATE, read_wav, write_wav

log = logging.getLogger("modkalm.cli")

# WAV bytes per enhance batch: four 0.5 s files of 16 kHz 16-bit audio
# with their headers (4 x 16,044 bytes), not five.  One Kalman frame loop
# over a batch's stacked bins costs less per cell than a file at a time,
# but the batch holds the spectra and model grids of all its files at once,
# about 1.1 MB per 0.5 s of audio.  At this size the benchmark's batch
# workload (twelve 0.5 s files) peaked 1.8-2.0% above one file at a time
# (three files per batch: 0.8-1.2%), within half its 5% bound on peak
# memory.
BATCH_BYTES = 2 ** 16


class UsageError(ValueError):
    """Bad flag/config combination: report and exit 2."""


def _add_shared(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-o", "--out-dir", default=".", help="output directory")
    ap.add_argument("--config", metavar="FILE",
                    help="key = value file setting flags by dest name; "
                         "flags given here replace its values")
    ap.add_argument("--workers", type=int, default=1,
                    help="process count for file-level parallelism")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
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
    bench.add_argument("--noise", help="noise WAV to mix in (required; may come "
                       "from --config)")
    bench.add_argument("--snr", nargs="+", type=float, default=[0.0],
                       metavar="DB", help="global SNRs to test")
    bench.add_argument("--mode", action="append", choices=modes,
                       default=None,
                       help="enhancer to run (repeatable; default: all)")
    bench.add_argument("--seed", type=int, default=0,
                       help="seed for the noise excerpt's alignment")
    _add_shared(bench)
    return parser, {"enhance": enh, "bench": bench}


def _load_config(path: str, subparsers: dict) -> dict:
    """Per subcommand, a namespace of the values the file sets.  Each line
    goes through the flag of that dest as if given on the command line."""
    flags = {name: {a.dest: a for a in sp._actions
                    if a.option_strings and a.dest not in ("help", "config")}
             for name, sp in subparsers.items()}
    values = {name: argparse.Namespace() for name in subparsers}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        owners = [name for name in subparsers if key in flags[name]]
        if not owners:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        for name in owners:
            sp, action = subparsers[name], flags[name][key]
            tokens = value.split() if action.nargs == "+" else [value.strip()]
            if not tokens:
                raise UsageError(f"{path}:{lineno}: {key} needs a value")
            try:
                action(sp, values[name], sp._get_values(action, tokens))
            except argparse.ArgumentError as err:
                raise UsageError(f"{path}:{lineno}: {err}") from err
    return values


def _parse_args(argv) -> argparse.Namespace:
    """The flags given, over the --config file's values, over the flags'
    defaults."""
    parser, subparsers = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    from_file = _load_config(ns.config, subparsers)[ns.command]
    # parsed again without defaults, the namespace holds only the flags given
    for action in subparsers[ns.command]._actions:
        action.default = argparse.SUPPRESS
    given = parser.parse_args(argv)
    return argparse.Namespace(**{**vars(ns), **vars(from_file), **vars(given)})


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


def _counters_text(counters: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(counters.items()))


def _run_jobs(fn, jobs, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _batches(paths, workers: int) -> list[list[str]]:
    """Consecutive runs of ``paths`` of at most ``BATCH_BYTES`` each and at
    most a ``workers``-th of all their bytes, so that every worker gets a
    batch; a file larger than that is a batch of its own."""
    sizes = [os.path.getsize(path) for path in paths]
    budget = min(BATCH_BYTES, sum(sizes) / workers)
    batches, used = [], 0
    for path, size in zip(paths, sizes):
        if not batches or used + size > budget:
            batches.append([])
            used = 0
        batches[-1].append(path)
        used += size
    return batches


def _enhance_files(job: tuple) -> list[str]:
    paths, cfg, out_dir = job
    signals = (read_wav(path, expect_rate=SAMPLE_RATE)[0] for path in paths)
    lines = []
    for path, diag in zip(paths, diagnose_batch(signals, SAMPLE_RATE, cfg)):
        out_path = os.path.join(out_dir, Path(path).stem + ".enhanced.wav")
        clipped = write_wav(out_path, diag.enhanced, SAMPLE_RATE)
        counters = dict(diag.counters, saturated=clipped)
        lines.append(f"{path} -> {out_path}  {_counters_text(counters)}")
    return lines


def cmd_enhance(ns: argparse.Namespace) -> int:
    cfg = EnhancerConfig(mode=Mode(ns.mode))
    paths = _expand(ns.inputs)
    os.makedirs(ns.out_dir, exist_ok=True)
    # only mdkm's Kalman stage runs faster stacked: logmmse has none, and
    # mdkr spends its time in ring cells taken one at a time, so a batch
    # there only holds more memory
    if cfg.mode is Mode.MDKM:
        batches = _batches(paths, ns.workers)
    else:
        batches = [[path] for path in paths]
    jobs = [(batch, cfg, ns.out_dir) for batch in batches]
    for lines in _run_jobs(_enhance_files, jobs, ns.workers):
        for line in lines:
            print(line)
    return 0


def _mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float,
                seed: int = 0, tag: int = 0) -> np.ndarray:
    """Add ``noise`` to ``clean`` so the total-energy ratio is exactly
    ``snr_db``.  Long noise contributes a seeded excerpt; short noise is
    tiled (with a warning) so every sample of clean gets covered."""
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
    scale = np.sqrt(e_clean / e_seg / 10.0 ** (snr_db / 10.0))
    return clean + scale * seg


def _bench_one(job: tuple) -> dict:
    clean_path, noise_path, snr_db, mode, cfg, seed = job
    clean, rate = read_wav(clean_path, expect_rate=SAMPLE_RATE)
    noise, _ = read_wav(noise_path, expect_rate=rate)
    tag = zlib.crc32(f"{clean_path}|{snr_db:.6f}".encode()) & 0x7FFFFFFF
    noisy = _mix_at_snr(clean, noise, snr_db, seed=seed, tag=tag)
    diag = diagnose(noisy, rate, cfg)
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
    if ns.noise is None:
        raise UsageError("bench needs --noise (a flag or a config key)")
    if not all(np.isfinite(ns.snr)):
        raise UsageError("SNR values must be finite")
    if ns.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {ns.seed}")
    modes = dict.fromkeys(ns.mode or [m.value for m in Mode])
    configs = {mode: EnhancerConfig(mode=Mode(mode)) for mode in modes}
    paths = _expand(ns.inputs)
    _expand([ns.noise])
    os.makedirs(ns.out_dir, exist_ok=True)

    jobs = [(p, ns.noise, snr, mode, configs[mode], ns.seed)
            for p in paths for snr in ns.snr for mode in modes]
    results = _run_jobs(_bench_one, jobs, ns.workers)

    csv_path = os.path.join(ns.out_dir, "bench.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "enhancer", "snr_db", "segsnr_db"])
        for res in results:
            row = res["row"]
            writer.writerow([row["file"], row["enhancer"],
                             repr(float(row["snr_db"])),
                             repr(float(row["segsnr_db"]))])

    diag_path = os.path.join(ns.out_dir, "bench_diagnostics.json")
    bundle = {f"{r['row']['file']}|{r['row']['enhancer']}|{r['row']['snr_db']:g}":
              r["diag"] for r in results}
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
        ns = _parse_args(argv)
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
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
