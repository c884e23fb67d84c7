"""Seeded synthetic inputs: speech stand-ins, noises and 16-bit WAV I/O.

The speech is the stand-in of the package's end-to-end acceptance checks: a
harmonic carrier whose log-envelope is a slow AR(3) walk.  White noise is
made the same way as those checks make it; the modulated noise is coloured
by a one-pole low-pass and has its level swung at 2 Hz, so the noise
prediction rows and the noise-model refits have real dynamics to follow.
Every generator takes a ``numpy.random.Generator``, so one benchmark seed
fixes every input.
"""
from __future__ import annotations

import wave

import numpy as np
from scipy.signal import lfilter

RATE = 16000
# one-pole colouring and 2 Hz level swing of the modulated noise
COLOUR_POLE = 0.6
MOD_HZ = 2.0
MOD_DEPTH = 0.5


def speech(rng: np.random.Generator, seconds: float, depth: float = 0.55) -> np.ndarray:
    """Harmonic carrier (f0 in 90-200 Hz, harmonics to 7 kHz) under an AR(3)
    log-envelope of standard deviation ``depth``; unit RMS."""
    n = int(RATE * seconds)
    t = np.arange(n) / RATE
    f0 = rng.uniform(90, 200)
    sig = np.zeros(n)
    for h in range(1, 40):
        freq = f0 * h
        if freq > 7000:
            break
        sig += rng.uniform(0.3, 1.0) / h * np.cos(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    n_env = n // 128 + 2
    walk = lfilter([1.0], [1.0, -1.6, 0.64, 0.09], rng.standard_normal(n_env))
    walk = walk / np.std(walk) * depth
    sig *= np.exp(np.interp(np.arange(n) / 128.0, np.arange(n_env), walk))
    return sig / np.sqrt(np.mean(sig ** 2))


def white(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


def modulated(rng: np.random.Generator, n: int) -> np.ndarray:
    """Low-pass coloured noise whose level swings at 2 Hz from a random phase."""
    t = np.arange(n) / RATE
    coloured = lfilter([1.0], [1.0, -COLOUR_POLE], rng.standard_normal(n))
    return coloured * (1.0 + MOD_DEPTH * np.sin(2 * np.pi * MOD_HZ * t + rng.uniform(0, 2 * np.pi)))


def mix(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """``clean`` plus ``noise`` scaled to a total-energy SNR of ``snr_db``."""
    scale = np.sqrt(np.sum(clean ** 2) / np.sum(noise ** 2) / 10 ** (snr_db / 10))
    return clean + scale * noise


def write_wav(path, samples: np.ndarray) -> None:
    """16-bit mono PCM at :data:`RATE`; the caller keeps samples in [-1, 1)."""
    q = np.round(np.asarray(samples) * 32768.0)
    if q.min() < -32768 or q.max() > 32767:
        raise ValueError(f"{path}: samples outside the 16-bit range")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(RATE)
        w.writeframes(q.astype("<i2").tobytes())


def read_wav(path) -> np.ndarray:
    """Samples of a 16-bit mono PCM file, scaled to [-1, 1)."""
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1 or w.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono PCM")
        raw = w.readframes(w.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0
