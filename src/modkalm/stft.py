"""Framing, windowing, forward STFT and weighted overlap-add inverse, at the
one operating point the enhancer runs at (16 kHz, 32 ms frames every 8 ms).

The analysis applies a periodic Hamming window and keeps the one-sided
spectrum; the synthesis applies the window a second time and divides by the
numerically accumulated squared-window overlap, which makes the round trip
exact (to rounding) wherever the overlap is complete.  Signals are padded by
one frame length at each end so the whole original extent has full overlap.
"""
from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SAMPLE_RATE",
    "FRAME_LEN",
    "FRAME_INC",
    "ComplexSpectrogram",
    "periodic_hamming",
    "analyze",
    "synthesize",
    "read_wav",
    "write_wav",
]


# the paper's operating point: 16 kHz, 32 ms frames every 8 ms.  The
# periodic window's squared overlap is constant at FRAME_LEN / FRAME_INC = 4.
SAMPLE_RATE = 16000
FRAME_LEN = 512
FRAME_INC = 128


def periodic_hamming(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hamming window of length ``n``: the first ``n``
    samples of the symmetric window of length n + 1.  Formed with the
    operations of ``scipy.signal.get_window("hamming", n)``, so it has the
    same bits."""
    if n <= 1:
        return np.ones(n)
    return 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


@dataclass
class ComplexSpectrogram:
    """One-sided STFT grid: frame index along axis 0, bin index along axis 1."""

    values: np.ndarray

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)


def analyze(signal) -> ComplexSpectrogram:
    """Windowed one-sided DFT of every frame of ``signal``.

    The signal is zero-padded by FRAME_LEN at the front and by at least
    FRAME_LEN at the back (rounded up so the hop divides the padded length),
    so every original sample is covered by a full set of overlapping frames.
    """
    x = np.asarray(signal, dtype=float).ravel()
    if x.size < FRAME_LEN:
        raise ValueError(f"signal shorter than one frame ({x.size} < {FRAME_LEN})")
    pad_back = FRAME_LEN + (-(x.size + FRAME_LEN)) % FRAME_INC
    xp = np.concatenate([np.zeros(FRAME_LEN), x, np.zeros(pad_back)])
    frames = sliding_window_view(xp, FRAME_LEN)[::FRAME_INC]
    values = np.fft.rfft(frames * periodic_hamming(FRAME_LEN), axis=1)
    return ComplexSpectrogram(values=values)


def synthesize(amplitudes, phases, n_samples: int) -> np.ndarray:
    """Weighted overlap-add reconstruction from amplitude and phase grids.

    Inverts :func:`analyze`: the synthesis window is applied again and the
    accumulation divided by the summed squared window.  The result is
    trimmed to ``n_samples``, the length of the analyzed signal.
    """
    amp = np.asarray(amplitudes, dtype=float)
    ph = np.asarray(phases, dtype=float)
    if amp.shape != ph.shape or amp.ndim != 2:
        raise ValueError("amplitude/phase grids must be equal-shaped 2-D arrays")
    if amp.shape[1] != FRAME_LEN // 2 + 1:
        raise ValueError(f"grid has {amp.shape[1]} bins, the framing gives "
                         f"{FRAME_LEN // 2 + 1}")
    if np.any(amp < 0):
        raise ValueError("amplitudes must be nonnegative")
    flen, inc = FRAME_LEN, FRAME_INC
    n_frames = amp.shape[0]
    win = periodic_hamming(flen)
    frames = np.fft.irfft(amp * np.exp(1j * ph), n=flen, axis=1) * win
    total = (n_frames - 1) * inc + flen
    y = np.zeros(total)
    norm = np.zeros(total)
    w2 = win * win
    for i in range(n_frames):
        s = i * inc
        y[s:s + flen] += frames[i]
        norm[s:s + flen] += w2
    good = norm > 1e-10 * norm.max()
    y[good] /= norm[good]
    y[~good] = 0.0
    end = flen + int(n_samples)
    if end > total:
        raise ValueError("n_samples exceeds the synthesized extent")
    return y[flen:end]


def read_wav(path, expect_rate: int | None = None) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono WAV file, normalized to [-1, 1).  A file that
    is not a WAV the ``wave`` module can read raises ``ValueError``."""
    try:
        w = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as err:
        raise ValueError(f"{path}: not a WAV file ({str(err) or 'too short'})") from err
    with w:
        if w.getnchannels() != 1:
            raise ValueError(f"{path}: mono required")
        if w.getsampwidth() != 2:
            raise ValueError(f"{path}: 16-bit PCM required")
        if w.getcomptype() != "NONE":
            raise ValueError(f"{path}: unsupported encoding {w.getcomptype()}")
        rate = w.getframerate()
        raw = w.readframes(w.getnframes())
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(f"{path}: sample rate {rate} != expected {expect_rate}")
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return samples, rate


def write_wav(path, samples, rate: int) -> int:
    """Write 16-bit PCM mono WAV; returns the number of saturated samples."""
    x = np.asarray(samples, dtype=float).ravel()
    q = np.round(x * 32768.0)
    clipped = int(np.count_nonzero((q < -32768) | (q > 32767)))
    q = np.clip(q, -32768, 32767).astype("<i2")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(rate))
        w.writeframes(q.tobytes())
    return clipped
