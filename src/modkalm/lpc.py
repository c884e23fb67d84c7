"""Linear-prediction modeling of per-bin spectral-amplitude trajectories.

Each frequency bin's amplitude track is carved into short modulation frames;
an autoregressive model is fitted per frame for the speech track, while the
noise track keeps a recursively averaged modulation magnitude spectrum that
is refreshed only during noise-only intervals.  The coefficient sign follows
the companion-matrix convention: predicted a_n = -sum_i b_i * a_{n-i}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window

__all__ = [
    "ModFrameConfig",
    "autocorrelation",
    "levinson_grid",
    "speech_lpc_grid",
    "noise_lpc_grid",
    "frame_model_index",
    "prediction_gain",
]

# relative diagonal loading applied before the recursion so nearly singular
# autocorrelations (e.g. constant tracks) stay solvable
_DIAG_LOAD = 1e-10


@dataclass(frozen=True)
class ModFrameConfig:
    """Modulation framing in units of acoustic frames."""

    mod_frame_len: int = 8
    mod_frame_inc: int = 1
    window: str = "hamming"

    def __post_init__(self):
        if self.mod_frame_len <= 0:
            raise ValueError("mod_frame_len must be positive")
        if not 0 < self.mod_frame_inc <= self.mod_frame_len:
            raise ValueError("mod_frame_inc must be in (0, mod_frame_len]")

    def window_samples(self) -> np.ndarray:
        return get_window(self.window, self.mod_frame_len, fftbins=True)


def autocorrelation(seq, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[l] = (1/N) sum_t seq[t] seq[t+l], l=0..max_lag."""
    x = np.asarray(seq, dtype=float).ravel()
    if x.size <= max_lag:
        raise ValueError(f"sequence length {x.size} <= max_lag {max_lag}")
    n = x.size
    return np.array([np.dot(x[: n - l], x[l:]) / n for l in range(max_lag + 1)])


def levinson_grid(r: np.ndarray, order: int):
    """Levinson-Durbin recursion over a batch of autocorrelation rows.

    ``r`` has shape (B, order+1); returns (coeffs (B, order), residual (B,))
    in the companion-matrix sign convention.  ``r[:, 0]`` is loaded by a
    relative 1e-10 first, so nearly singular rows stay solvable.  A row
    whose recursion hits a reflection coefficient of magnitude >= 1 or a
    non-positive error freezes at the highest stable order; its trailing
    coefficients stay zero.  Rows with ``r[:, 0] <= 0`` come back as
    all-zero "degenerate" models, and callers mask those rows themselves.
    """
    r = np.asarray(r, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if r.ndim != 2 or r.shape[1] < order + 1:
        raise ValueError("need a (batch, order+1) autocorrelation array")
    B = r.shape[0]
    if order == 0:
        return np.zeros((B, 0)), np.maximum(r[:, 0], 0.0)
    r = r.copy()
    r[:, 0] *= 1.0 + _DIAG_LOAD
    c = np.zeros((B, order))
    err = r[:, 0].copy()
    alive = r[:, 0] > 0
    err[~alive] = 0.0
    for i in range(1, order + 1):
        dot = np.zeros(B)
        for t in range(i - 1):
            dot += c[:, t] * r[:, i - 1 - t]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (r[:, i] - dot) / err
        ok = alive & np.isfinite(k) & (np.abs(k) < 1.0)
        if i > 1:
            c[ok, : i - 1] -= k[ok, None] * c[ok, i - 2::-1]
        c[ok, i - 1] = k[ok]
        err[ok] *= 1.0 - k[ok] ** 2
        dead = ok & (err <= 0.0)
        err[dead] = 0.0
        alive = ok & ~dead
    return -c, np.maximum(err, 0.0)


def speech_lpc_grid(precleaned_amps, cfg: ModFrameConfig, order: int):
    """Per-modulation-frame AR fits for every bin of an amplitude grid.

    ``precleaned_amps`` is (frames, bins).  Each bin's track is cut into
    windowed modulation frames of ``cfg.mod_frame_len`` acoustic frames,
    stepped by ``cfg.mod_frame_inc``, and an AR model is fitted to each.
    The windowed autocorrelation is divided by the window's own, which
    keeps a constant track exactly predictable.  Returns
    ``(coeffs (S, bins, order), residual (S, bins))`` where S is the number
    of modulation windows; all-zero segments come back degenerate
    (zero coefficients, zero residual).
    """
    amps = np.asarray(precleaned_amps, dtype=float)
    if amps.ndim != 2:
        raise ValueError("need a (frames, bins) amplitude grid")
    mlen, inc = cfg.mod_frame_len, cfg.mod_frame_inc
    if amps.shape[0] < mlen:
        raise ValueError(f"track length {amps.shape[0]} < mod_frame_len {mlen}")
    win = cfg.window_samples()
    rwin = autocorrelation(win, order)
    segs = np.lib.stride_tricks.sliding_window_view(amps, mlen, axis=0)[::inc]
    S, K = segs.shape[0], segs.shape[1]
    wseg = segs * win
    r = np.empty((S, K, order + 1))
    for l in range(order + 1):
        r[:, :, l] = np.einsum("skt,skt->sk", wseg[:, :, : mlen - l],
                               wseg[:, :, l:]) / mlen
    r /= rwin
    coeffs, resvar = levinson_grid(r.reshape(S * K, order + 1), order)
    coeffs = coeffs.reshape(S, K, order)
    resvar = resvar.reshape(S, K)
    silent = ~np.any(segs, axis=2)
    coeffs[silent] = 0.0
    resvar[silent] = 0.0
    return coeffs, resvar


def noise_lpc_grid(noisy_amps, vad, cfg: ModFrameConfig,
                   order: int, smoothing: float = 0.9):
    """AR models of every bin's noise amplitude modulation.

    ``noisy_amps`` is (frames, bins).  Each bin keeps a recursively averaged
    modulation magnitude spectrum, updated with factor ``smoothing`` only on
    modulation frames whose acoustic frames are all flagged noise-only in
    ``vad``; the model is refitted from the inverse DFT of the averaged
    squared magnitudes.  Before any noise-only frame is seen, the model
    derives from a flat spectrum scaled to the first few frames.  The flags
    are shared across bins, so every bin is advanced at once.  Returns
    ``(coeffs (S, bins, order), residual (S, bins))``, one row per
    modulation window.
    """
    amps = np.asarray(noisy_amps, dtype=float)
    flags = np.asarray(vad, dtype=bool).ravel()
    if amps.ndim != 2:
        raise ValueError("need a (frames, bins) amplitude grid")
    if flags.size != amps.shape[0]:
        raise ValueError("vad flags must align with the amplitude grid")
    mlen, inc = cfg.mod_frame_len, cfg.mod_frame_inc
    if amps.shape[0] < mlen:
        raise ValueError(f"track length {amps.shape[0]} < mod_frame_len {mlen}")
    win = cfg.window_samples()
    nfft = 2 * mlen
    K = amps.shape[1]
    wcorr = np.array([np.dot(win[: mlen - l], win[l:]) for l in range(order + 1)])
    p0 = np.mean(amps[: min(6, amps.shape[0])] ** 2, axis=0)
    mbar = np.sqrt(np.maximum(p0, 1e-300)[:, None]
                   * np.sum(win ** 2)) * np.ones(nfft // 2 + 1)

    def fit_all():
        acf = np.fft.irfft(mbar ** 2, n=nfft, axis=1)[:, : order + 1] / wcorr
        c, e = levinson_grid(acf, order)
        bad = acf[:, 0] <= 0
        c[bad] = 0.0
        e[bad] = 0.0
        return c, e

    coeffs_now, res_now = fit_all()
    starts = range(0, amps.shape[0] - mlen + 1, inc)
    S = len(starts)
    coeffs = np.empty((S, K, order))
    resvar = np.empty((S, K))
    for j, s in enumerate(starts):
        if flags[s:s + mlen].all():
            mag = np.abs(np.fft.rfft(amps[s:s + mlen] * win[:, None], n=nfft, axis=0))
            mbar = smoothing * mbar + (1.0 - smoothing) * mag.T
            coeffs_now, res_now = fit_all()
        coeffs[j] = coeffs_now
        resvar[j] = res_now
    return coeffs, resvar


def frame_model_index(n_frames: int, cfg: ModFrameConfig, n_windows: int) -> np.ndarray:
    """Which modulation window's model governs each acoustic frame.

    Window j (starting at frame j*inc) takes over at its final frame and
    holds until the next window completes; the first window also covers
    the warm-up frames before any window is complete, and the last one
    covers the tail.
    """
    n = np.arange(n_frames)
    idx = (n - cfg.mod_frame_len + 1) // cfg.mod_frame_inc
    return np.clip(idx, 0, n_windows - 1)


def prediction_gain(clean_amps, predicted_amps) -> np.ndarray:
    """Per-bin ratio of track power to prediction-error power, in dB.

    Expectations run over acoustic frames; an exact prediction yields +inf
    for that bin.
    """
    clean = np.asarray(clean_amps, dtype=float)
    pred = np.asarray(predicted_amps, dtype=float)
    if clean.shape != pred.shape:
        raise ValueError("grids must have equal shapes")
    num = np.sum(clean ** 2, axis=0)
    den = np.sum((clean - pred) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 10.0 * np.log10(num / den)
    gain = np.where((den == 0) & (num > 0), np.inf, gain)
    return gain
