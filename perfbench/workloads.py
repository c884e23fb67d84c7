"""The three workloads: inputs, timed loop, output checks and traced run.

One operation is one utterance enhanced.  A run repeats whole rounds of
the same operations (the utterances of one seed, in a fixed order) until
``seconds`` have passed, so every run attempts a whole number of rounds.

``ring-white``      in-process ``mdkr`` on speech in white noise, -5 and 0 dB
``ring-modulated``  in-process ``mdkr`` at -5 dB in coloured noise whose level
                    swings at 2 Hz
``files-scalar``    the ``modkalm enhance`` CLI, called in-process with
                    ``--mode logmmse`` and then ``--mode mdkm`` over a
                    directory of 16-bit WAVs written at set-up
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import hostspeed
import oracles
import synth
from tracer import Tracer

import modkalm.cli
from modkalm.enhancer import EnhancerConfig, Mode, enhance

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ring-white", "ring-modulated", "files-scalar")
UTTERANCE_S = 0.5
RING_ROUND = {                      # (noise, SNR dB) of each utterance
    "ring-white": (("white", -5.0), ("white", 0.0)) * 3,
    "ring-modulated": (("modulated", -5.0),) * 6,
}
FILES = (("white", 0.0), ("white", -5.0)) * 6
CLI_MODES = ("logmmse", "mdkm")
# non-power-of-two gain for the scale-equivariance check
EQUIVARIANCE_GAIN = 3.7
# the noisy WAVs peak at this level, so neither input nor output saturates
WAV_PEAK = 0.5
SETUP_PROBES = 3


@dataclass
class Utterance:
    clean: np.ndarray
    noisy: np.ndarray

    @property
    def seconds(self) -> float:
        return self.clean.size / synth.RATE


def make_round(items, seed: int) -> list[Utterance]:
    """One utterance per (noise, SNR) item; utterance i draws from the
    generator seeded with (seed, i)."""
    out = []
    for i, (noise, snr) in enumerate(items):
        rng = np.random.default_rng([seed, i])
        clean = synth.speech(rng, UTTERANCE_S)
        noisy = synth.mix(clean, getattr(synth, noise)(rng, clean.size), snr)
        out.append(Utterance(clean, noisy))
    return out


def setup_seconds(workload: str, work: Path) -> float:
    """Median over fresh interpreters of the time from before ``import
    modkalm`` to the end of a first small enhancement (see probe.py),
    scaled by the dependencies' import time timed around each probe (see
    hostspeed.py)."""
    times = []
    base_prev = hostspeed.import_seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(work)],
            capture_output=True, text=True, timeout=120, check=True)
        base = hostspeed.import_seconds()
        times.append(float(proc.stdout.split()[-1]) * hostspeed.IMPORT_REFERENCE_S
                     * 2.0 / (base_prev + base))
        base_prev = base
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_until(seconds: float, one_round) -> int:
    """Call ``one_round(i)`` for i = 0, 1, ... until ``seconds`` have
    passed; at least one round always runs."""
    start = time.perf_counter()
    i = 0
    while True:
        one_round(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return i


class Case:
    """The inputs of one workload at one seed, and one round over them."""

    def __init__(self, workload: str, seed: int, work: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of "
                             f"{', '.join(WORKLOADS)}")
        self.workload, self.work = workload, work
        if workload == "files-scalar":
            self.utts = make_round(FILES, seed)
            self.paths, self.cleans, self.stored = write_files(self.utts, work)
            self.audio = len(CLI_MODES) * sum(u.seconds for u in self.utts)
        else:
            self.utts = make_round(RING_ROUND[workload], seed)
            self.audio = sum(u.seconds for u in self.utts)
            cfg = EnhancerConfig(mode=Mode.MDKR)
            self.enhance = lambda x: enhance(x, synth.RATE, cfg)

    def _call(self, unit, tally: checks.Tally, tracer: Tracer | None):
        """One timed call: the CLI in mode ``unit`` over every file, or one
        enhancement of utterance ``unit``.  Returns (seconds, [(clean,
        noisy, output)] of the operations that succeeded)."""
        if self.workload == "files-scalar":
            return files_call(unit, self.paths, self.cleans, self.stored,
                              self.work, tally, tracer)
        dt, out = tally.timed(self.enhance, unit.noisy)
        return dt, ([] if out is None else [(unit.clean, unit.noisy, out)])

    def round(self, tally: checks.Tally, tracer: Tracer | None = None,
              calibrate: bool = False):
        """Every operation once; returns (seconds, seconds at the reference
        host speed or None, successes as (clean, noisy, output))."""
        units = CLI_MODES if self.workload == "files-scalar" else self.utts
        seconds, scaled, triples = 0.0, 0.0, []
        k_prev = hostspeed.kernel_seconds() if calibrate else None
        for unit in units:
            dt, done = self._call(unit, tally, tracer)
            seconds += dt
            triples += done
            if calibrate:
                k = hostspeed.kernel_seconds()
                scaled += hostspeed.at_reference(dt, k_prev, k)
                k_prev = k
        return seconds, (scaled if calibrate else None), triples

    def equivariance_fault(self, first_output: np.ndarray) -> str | None:
        """Scale equivariance on the first utterance, given its output."""
        err = checks.equivariance_error(self.enhance, self.utts[0].noisy,
                                        first_output, EQUIVARIANCE_GAIN)
        if err <= checks.EQUIVARIANCE_TOL:
            return None
        return f"enhance(c x) != c enhance(x): relative error {err:.2e}"


# -- files-scalar ----------------------------------------------------------------

def write_files(utts, work: Path):
    """Write each noisy utterance, peak-normalised, as a 16-bit WAV; returns
    (paths, clean references at the same scale, noisy as stored)."""
    src = work / "in"
    src.mkdir(parents=True)
    paths, cleans, stored = [], [], []
    for i, u in enumerate(utts):
        scale = WAV_PEAK / np.max(np.abs(u.noisy))
        path = src / f"utt{i:02d}.wav"
        synth.write_wav(path, scale * u.noisy)
        paths.append(str(path))
        cleans.append(scale * u.clean)
        stored.append(synth.read_wav(path))
    return paths, cleans, stored


_LINE = re.compile(r"^(?P<src>\S+) -> (?P<dst>\S+)\s+(?P<counters>.*)$")


def cli_call(mode: str, paths, out_dir: Path, tracer: Tracer | None = None):
    """``modkalm enhance --mode MODE PATHS -o OUT_DIR`` in-process; returns
    (seconds, exit code, printed lines)."""
    argv = ["enhance", "--mode", mode, *paths, "-o", str(out_dir)]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            code = modkalm.cli.main(argv)
        else:
            code = tracer.span("cli", modkalm.cli.main, argv)
    return time.perf_counter() - t0, code, buf.getvalue().splitlines()


def cli_faults(code, lines, paths, stored, out_dir: Path):
    """Per input file: (None or why its operation failed, output or None).
    ``code`` is the exit code, or the error that escaped the call.  A file
    fails on a non-zero exit or an escape, a missing output line or WAV,
    saturated samples, a wrong length or a non-finite sample."""
    if code != 0:
        reason = f"exit code {code}" if isinstance(code, int) else code
        return [reason] * len(paths), [None] * len(paths)
    by_src = {}
    for line in lines:
        m = _LINE.match(line)
        if m:
            by_src[m["src"]] = (m["dst"], dict(kv.split("=", 1) for kv in m["counters"].split()))
    faults, outputs = [], []
    for path, noisy in zip(paths, stored):
        dst = out_dir / (Path(path).stem + ".enhanced.wav")
        out = None
        if path not in by_src:
            fault = f"{path}: no output line"
        elif Path(by_src[path][0]) != dst or not dst.is_file():
            fault = f"{path}: no output WAV at {dst}"
        elif by_src[path][1].get("saturated") != "0":
            fault = f"{path}: saturated={by_src[path][1].get('saturated')}"
        else:
            out = synth.read_wav(dst)
            fault = checks.output_fault(noisy, out)
        faults.append(fault)
        outputs.append(out if fault is None else None)
    return faults, outputs


def files_call(mode: str, paths, cleans, stored, work: Path,
               tally: checks.Tally, tracer: Tracer | None = None):
    """One CLI call over every file; returns (seconds, [(clean, noisy,
    output)] of the operations that succeeded)."""
    out_dir = work / f"out-{mode}"
    try:
        dt, code, lines = cli_call(mode, paths, out_dir, tracer)
    except Exception as err:  # an escape fails every file of the call
        dt, code, lines = 0.0, f"{type(err).__name__}: {err}", []
    faults, outputs = cli_faults(code, lines, paths, stored, out_dir)
    triples = []
    for fault, clean, noisy, out in zip(faults, cleans, stored, outputs):
        if tally.record(fault):
            triples.append((clean, noisy, out))
    return dt, triples


# -- runs ----------------------------------------------------------------------

def mean_gain(triples) -> float:
    """Mean segSNR of the output minus that of the input."""
    gains = [checks.seg_snr(c, out) - checks.seg_snr(c, x) for c, x, out in triples]
    return float(np.mean(gains)) if gains else float("nan")


def _result(tally: checks.Tally, faults: list, metrics: dict) -> dict:
    for reason in tally.reasons + faults:
        print(f"fault: {reason}", file=sys.stderr)
    return {
        "correct": not faults,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; ``work`` is an empty scratch directory."""
    case = Case(workload, seed, work)
    if trace:
        return traced_run(case, seed, seconds)
    setup_s = setup_seconds(workload, work)
    tally, faults = checks.Tally(), []
    raw, rtfs, first = [], [], []

    def one_round(r):
        dt, scaled, triples = case.round(tally, calibrate=True)
        raw.append(dt / case.audio)
        rtfs.append(scaled / case.audio)
        if r == 0:
            first.extend(triples)
    rounds_until(seconds, one_round)
    print(f"raw rtf per round {raw}, at reference speed {rtfs}", file=sys.stderr)
    mem = peak_rss_mb()
    gain = mean_gain(first)
    if not gain > 0:
        faults.append(f"segSNR gain {gain:.3f} dB is not positive")
    # the first utterance's output, unless that operation failed
    if case.workload != "files-scalar" and first and first[0][1] is case.utts[0].noisy:
        fault = case.equivariance_fault(first[0][2])
        if fault:
            faults.append(fault)
    return _result(tally, faults, {
        "rtf": (statistics.median(rtfs), "s/s"),
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (mem, "MB"),
        "segsnr_gain_db": (gain, "dB"),
    })


def traced_run(case: Case, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds until ``seconds`` pass; report
    the per-layer figures per traced round, the tracing overhead (at the
    reference host speed) and check the sampled cells against the
    oracles."""
    tally, faults = checks.Tally(), []
    tracer = Tracer(random.Random(seed))
    plain, traced = [], []

    def pair(r):
        plain.append(case.round(tally, calibrate=True)[1])
        tracer.sampling = r == 0
        with tracer:
            _, scaled, triples = case.round(tally, tracer, calibrate=True)
        tracer.sampling = False
        traced.append(scaled)
        if r == 0:
            gain = mean_gain(triples)
            if not gain > 0:
                faults.append(f"segSNR gain {gain:.3f} dB is not positive")
    rounds = rounds_until(seconds, pair)

    for cell in tracer.ring_cells.items:
        fault = oracles.ring_cell_fault(cell)
        if fault:
            faults.append(fault)
    for cell in tracer.gamma_cells.items:
        fault = oracles.gamma_cell_fault(cell)
        if fault:
            faults.append(fault)
    metrics = tracer.metrics(rounds)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return _result(tally, faults, metrics)
