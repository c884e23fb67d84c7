"""Output checks that rest on properties the method must have, and the
tally that turns a failed check into a failed operation.

Nothing here compares against a stored copy of earlier output: every check
is either a property of any correct enhancer (length, finiteness, scale
equivariance, a positive segmental-SNR gain) or is computed apart from the
package (:func:`seg_snr` does not use ``modkalm.metrics``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# segmental SNR: 32 ms frames, 8 ms hop at 16 kHz; per-frame values are
# clamped to [-10, 35] dB and frames quieter than 1e-6 of the mean
# reference frame energy are skipped
SEG_FRAME = 512
SEG_HOP = 128
SEG_CLAMP = (-10.0, 35.0)
SEG_SILENCE = 1e-6
# enhance(c x) must equal c enhance(x) to this relative error
EQUIVARIANCE_TOL = 1e-9


def seg_snr(clean: np.ndarray, test: np.ndarray) -> float:
    """Mean clamped per-frame SNR (dB) of ``test`` against ``clean``."""
    n = (clean.size - SEG_FRAME) // SEG_HOP + 1
    idx = np.arange(SEG_FRAME)[None, :] + SEG_HOP * np.arange(n)[:, None]
    energy = np.sum(clean[idx] ** 2, axis=1)
    err = np.sum((clean - test)[idx] ** 2, axis=1)
    active = energy > SEG_SILENCE * energy.mean()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(energy[active] / err[active])
    return float(np.mean(np.clip(db, *SEG_CLAMP)))


def output_fault(noisy: np.ndarray, out) -> str | None:
    """Why an enhanced signal is unacceptable, or None: it must have the
    input's length and every sample must be finite."""
    out = np.asarray(out)
    if out.shape != noisy.shape:
        return f"output shape {out.shape} != input shape {noisy.shape}"
    if not np.all(np.isfinite(out)):
        return f"{int(np.count_nonzero(~np.isfinite(out)))} non-finite samples"
    return None


def equivariance_error(enhance, x: np.ndarray, y: np.ndarray, c: float) -> float:
    """max |enhance(c x) - c y| / max |c y|, where y = enhance(x)."""
    ref = c * y
    return float(np.max(np.abs(np.asarray(enhance(c * x)) - ref)) / np.max(np.abs(ref)))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, fault: str | None) -> bool:
        self.attempted += 1
        if fault is None:
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(fault)
        return False

    def timed(self, fn, noisy: np.ndarray):
        """Run one enhancement of ``noisy``; returns (seconds, output or
        None).  An exception or a faulty output counts as a failed
        operation; only the call itself is timed."""
        t0 = time.perf_counter()
        try:
            out = fn(noisy)
        except Exception as err:  # any escape is a failed operation
            self.record(f"{type(err).__name__}: {err}")
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        return seconds, (out if self.record(output_fault(noisy, out)) else None)
