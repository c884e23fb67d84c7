"""Batch front end: enhance WAV files or run a small benchmark grid.

Two subcommands:

``modkalm enhance``
    Enhance one or more mono 16-bit WAV files and write
    ``<stem>.enhanced.wav`` next to ``-o``, printing the per-file
    clamp/fault counters.

``modkalm bench``
    Mix a noise file into clean references at exact global SNRs, run the
    requested enhancers, and write a segmental-SNR CSV plus a JSON bundle
    of per-run diagnostics.

Exit codes: 0 success, 1 runtime failure (I/O, bad audio), 2 usage error.
A ``key=value`` config file (``--config``) fills in defaults; explicit
flags still win.  ``MODKALM_LOG`` sets the log level (default WARNING).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import glob
import json
import logging
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .enhancer import EnhancerConfig, Mode, diagnose
from .gaussring import DEFAULT_RING_CAP
from .metrics import seg_snr
from .stft import FrameConfig, read_wav, write_wav

log = logging.getLogger("modkalm.cli")

ALL_MODES = ("logmmse", "mdkm", "mdkr")

# keys a --config file may set; each maps to a parser so bad values fail
# with a usage message instead of a traceback
_CONFIG_KEYS = {
    "mode": str,
    "p": int,
    "q": int,
    "frame_ms": float,
    "inc_ms": float,
    "mod_frame_ms": float,
    "ring_cap": int,
    "snr": lambda s: [float(v) for v in s.replace(",", " ").split()],
    "seed": int,
    "workers": int,
    "out_dir": str,
}


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Everything one invocation needs, resolved from flags and config."""

    inputs: tuple[str, ...]
    out_dir: str
    modes: tuple[str, ...]
    noise: str | None
    snrs: tuple[float, ...]
    seed: int
    workers: int
    p: int
    q: int | None
    frame_ms: float
    inc_ms: float
    mod_frame_ms: float
    ring_cap: int

    def enhancer_config(self, mode: str) -> EnhancerConfig:
        if not (np.isfinite(self.mod_frame_ms) and self.mod_frame_ms > 0):
            raise UsageError("--mod-frame-ms must be a positive, finite number of "
                             f"milliseconds, got {self.mod_frame_ms}")
        try:
            FrameConfig.from_ms(EnhancerConfig.sample_rate, self.frame_ms, self.inc_ms)
        except ValueError as err:
            raise UsageError(f"--frame-ms/--inc-ms give no valid framing: {err}") from err
        mod_frames = self.mod_frame_ms / self.inc_ms
        if not np.isfinite(mod_frames):
            raise UsageError(f"--mod-frame-ms {self.mod_frame_ms} spans more than "
                             f"any number of --inc-ms {self.inc_ms} hops")
        return EnhancerConfig(
            mode=Mode.parse(mode),
            frame_ms=self.frame_ms,
            inc_ms=self.inc_ms,
            mod_frames=max(1, round(mod_frames)),
            speech_order=self.p,
            noise_order=self.q,
            ring_cap=self.ring_cap,
        )


class UsageError(ValueError):
    """Bad flag/config combination: report and exit 2."""


def _load_config(path: str) -> dict:
    values = {}
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
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as err:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return values


def _add_shared(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-o", "--out-dir", default=".", help="output directory")
    ap.add_argument("--config", metavar="FILE",
                    help="key=value file providing defaults for any flag")
    ap.add_argument("--p", type=int, default=3, help="speech model order")
    ap.add_argument("--q", type=int, default=None,
                    help="noise model order (mdkr only; mdkm fixes it at 0)")
    ap.add_argument("--frame-ms", type=float, default=32.0)
    ap.add_argument("--inc-ms", type=float, default=8.0)
    ap.add_argument("--mod-frame-ms", type=float, default=64.0,
                    help="modulation analysis window, in milliseconds")
    ap.add_argument("--ring-cap", type=int, default=DEFAULT_RING_CAP)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for benchmark noise alignment")
    ap.add_argument("--workers", type=int, default=1,
                    help="process count for file-level parallelism")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="modkalm",
        description="Modulation-domain Kalman speech enhancement.")
    sub = parser.add_subparsers(dest="command", required=True)

    enh = sub.add_parser("enhance", help="enhance WAV files")
    enh.add_argument("inputs", nargs="+", metavar="WAV",
                     help="input files or globs")
    enh.add_argument("--mode", choices=ALL_MODES, default="mdkr")
    _add_shared(enh)

    bench = sub.add_parser("bench", help="mix, enhance, and score")
    bench.add_argument("inputs", nargs="+", metavar="CLEAN",
                       help="clean reference files or globs")
    bench.add_argument("--noise", required=True, help="noise WAV to mix in")
    bench.add_argument("--snr", nargs="+", type=float, default=[0.0],
                       metavar="DB", help="global SNRs to test")
    bench.add_argument("--mode", action="append", choices=ALL_MODES,
                       default=None,
                       help="enhancer to run (repeatable; default: all)")
    _add_shared(bench)
    return parser, {"enhance": enh, "bench": bench}


def _job_from_args(ns: argparse.Namespace) -> JobSpec:
    modes = ns.mode if isinstance(ns.mode, list) else [ns.mode]
    if modes == [None] or modes is None or not modes:
        modes = list(ALL_MODES)
    snrs = tuple(float(v) for v in getattr(ns, "snr", []) or [])
    if not all(np.isfinite(snrs)):
        raise UsageError("SNR values must be finite")
    if ns.workers < 1:
        raise UsageError("--workers must be at least 1")
    return JobSpec(
        inputs=tuple(ns.inputs),
        out_dir=ns.out_dir,
        modes=tuple(dict.fromkeys(modes)),
        noise=getattr(ns, "noise", None),
        snrs=snrs,
        seed=ns.seed,
        workers=ns.workers,
        p=ns.p,
        q=ns.q,
        frame_ms=ns.frame_ms,
        inc_ms=ns.inc_ms,
        mod_frame_ms=ns.mod_frame_ms,
        ring_cap=ns.ring_cap,
    )


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


def _enhance_one(job: tuple) -> str:
    path, cfg, out_dir = job
    samples, rate = read_wav(path, expect_rate=cfg.sample_rate)
    diag = diagnose(samples, rate, cfg)
    out_path = os.path.join(out_dir, Path(path).stem + ".enhanced.wav")
    clipped = write_wav(out_path, diag.enhanced, rate)
    counters = dict(diag.counters, saturated=clipped)
    return f"{path} -> {out_path}  {_counters_text(counters)}"


def _configs_or_usage(job: JobSpec) -> dict:
    try:
        return {mode: job.enhancer_config(mode) for mode in job.modes}
    except ValueError as err:
        raise UsageError(str(err)) from err


def cmd_enhance(job: JobSpec) -> int:
    cfg = _configs_or_usage(job)[job.modes[0]]
    paths = _expand(job.inputs)
    os.makedirs(job.out_dir, exist_ok=True)
    lines = _run_jobs(_enhance_one,
                      [(p, cfg, job.out_dir) for p in paths], job.workers)
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
    clean, rate = read_wav(clean_path, expect_rate=cfg.sample_rate)
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


def cmd_bench(job: JobSpec) -> int:
    if not job.snrs:
        raise UsageError("bench needs at least one --snr value")
    configs = _configs_or_usage(job)
    paths = _expand(job.inputs)
    _expand([job.noise])
    os.makedirs(job.out_dir, exist_ok=True)

    jobs = [(p, job.noise, snr, mode, configs[mode], job.seed)
            for p in paths for snr in job.snrs for mode in job.modes]
    results = _run_jobs(_bench_one, jobs, job.workers)

    csv_path = os.path.join(job.out_dir, "bench.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "enhancer", "snr_db", "segsnr_db"])
        for res in results:
            row = res["row"]
            writer.writerow([row["file"], row["enhancer"],
                             repr(float(row["snr_db"])),
                             repr(float(row["segsnr_db"]))])

    diag_path = os.path.join(job.out_dir, "bench_diagnostics.json")
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

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)

    parser, subparsers = _build_parser()
    try:
        if known.config:
            overrides = _load_config(known.config)
            for sp in subparsers.values():
                sp.set_defaults(**overrides)
        ns = parser.parse_args(argv)
    except SystemExit as err:  # argparse has already printed the message
        return int(err.code or 0)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    log.debug("parsed options: %s", vars(ns))
    try:
        job = _job_from_args(ns)
        log.debug("job spec: %s", job)
        if ns.command == "enhance":
            return cmd_enhance(job)
        return cmd_bench(job)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
