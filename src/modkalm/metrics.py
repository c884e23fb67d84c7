"""Segmental SNR of a processed signal against its clean reference."""
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stft import FRAME_INC, FRAME_LEN

SEG_SNR_MIN = -10.0
SEG_SNR_MAX = 35.0
SILENCE_REL = 1e-6


@dataclass
class SegSnrReport:
    """Per-frame SNR values (active frames only) and their average."""

    per_frame: np.ndarray
    mean: float
    frames_used: int


def seg_snr(clean, test) -> SegSnrReport:
    """Frame-wise 10*log10(signal power / error power), clamped to
    [SEG_SNR_MIN, SEG_SNR_MAX] and averaged over frames whose reference
    energy clears a relative silence threshold.  The frames are the
    enhancer's STFT frames, :data:`.stft.FRAME_LEN` samples every
    :data:`.stft.FRAME_INC`.

    ``test`` is trimmed or zero-padded (with a warning) if its length
    differs from the reference.
    """
    clean = np.asarray(clean, dtype=float).ravel()
    test = np.asarray(test, dtype=float).ravel()
    if clean.size < FRAME_LEN:
        raise ValueError("reference shorter than one frame")
    if test.size != clean.size:
        warnings.warn(
            f"length mismatch: test has {test.size} samples, reference "
            f"{clean.size}; trimming/padding the test signal"
        )
        if test.size > clean.size:
            test = test[:clean.size]
        else:
            test = np.concatenate([test, np.zeros(clean.size - test.size)])

    cf = sliding_window_view(clean, FRAME_LEN)[::FRAME_INC]
    ef = sliding_window_view(clean - test, FRAME_LEN)[::FRAME_INC]
    energy = (cf ** 2).sum(axis=1)
    err = (ef ** 2).sum(axis=1)

    active = energy > SILENCE_REL * energy.mean()
    if not np.any(active):
        raise ValueError("reference signal is silent")
    with np.errstate(divide="ignore"):
        ratio_db = 10.0 * np.log10(energy[active] / err[active])
    per_frame = np.clip(ratio_db, SEG_SNR_MIN, SEG_SNR_MAX)
    return SegSnrReport(
        per_frame=per_frame,
        mean=float(per_frame.mean()),
        frames_used=int(per_frame.size),
    )
