"""Linear-prediction modeling of per-bin spectral-amplitude trajectories.

Each frequency bin's amplitude track is carved into Hamming-windowed
modulation frames of ``mod_frames`` acoustic frames, one starting at every
acoustic frame (the hop is one frame).  An autoregressive model is fitted
per modulation frame for the speech track, while the noise track keeps a
recursively averaged modulation magnitude spectrum that is refreshed only
during noise-only intervals.  The coefficient sign follows the
companion-matrix convention: predicted a_n = -sum_i b_i * a_{n-i}.
"""
from __future__ import annotations

import numpy as np

from .stft import periodic_hamming

__all__ = [
    "levinson_grid",
    "speech_lpc_grid",
    "noise_lpc_grid",
    "frame_model_index",
    "prediction_gain",
]

# relative diagonal loading applied before the recursion so nearly singular
# autocorrelations (e.g. constant tracks) stay solvable
_DIAG_LOAD = 1e-10
# recursive averaging factor of the noise modulation magnitude spectrum
NOISE_SMOOTHING = 0.9


def _mod_window(amps: np.ndarray, mod_frames: int, order: int):
    """Check a (frames, bins) grid against the modulation frame length and
    return the periodic Hamming window of one modulation frame with its lag
    products sum_t w[t] w[t+l], l = 0..order."""
    if amps.ndim != 2:
        raise ValueError("need a (frames, bins) amplitude grid")
    if not 0 < mod_frames <= amps.shape[0]:
        raise ValueError(
            f"mod_frames {mod_frames} must be in [1, track length {amps.shape[0]}]")
    if not 0 <= order < mod_frames:
        raise ValueError(f"order {order} must be in [0, mod_frames {mod_frames})")
    win = periodic_hamming(mod_frames)
    wlags = np.array([np.dot(win[: mod_frames - l], win[l:]) for l in range(order + 1)])
    return win, wlags


def levinson_grid(r: np.ndarray, order: int):
    """Levinson-Durbin recursion over a batch of autocorrelation rows.

    ``r`` has shape (B, order+1); returns (coeffs (B, order), residual (B,))
    in the companion-matrix sign convention.  ``r[:, 0]`` is loaded by a
    relative 1e-10 first, so nearly singular rows stay solvable.  A row
    whose recursion hits a reflection coefficient of magnitude >= 1 or a
    non-positive error freezes at the highest stable order; its trailing
    coefficients stay zero.  Rows with ``r[:, 0] <= 0`` (or NaN) come back
    as "degenerate" models: zero coefficients and zero residual.
    """
    r = np.asarray(r, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if r.ndim != 2 or r.shape[1] < order + 1:
        raise ValueError("need a (batch, order+1) autocorrelation array")
    B = r.shape[0]
    # the loaded r[:, 0] is read only here; the recursion reads lags >= 1
    err = r[:, 0] * (1.0 + _DIAG_LOAD)
    c = np.zeros((B, order))
    alive = err > 0
    err[~alive] = 0.0
    # whole columns step under np.where masks: a row that is not ok keeps
    # its values, and k is zeroed there so the discarded arithmetic stays finite
    for i in range(1, order + 1):
        dot = np.zeros(B)
        for t in range(i - 1):
            dot += c[:, t] * r[:, i - 1 - t]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (r[:, i] - dot) / err
        ok = alive & np.isfinite(k) & (np.abs(k) < 1.0)
        k = np.where(ok, k, 0.0)
        if i > 1:
            c[:, : i - 1] = np.where(ok[:, None], c[:, : i - 1] - k[:, None] * c[:, i - 2::-1],
                                     c[:, : i - 1])
        c[:, i - 1] = k
        err = np.where(ok, err * (1.0 - k ** 2), err)
        dead = ok & (err <= 0.0)
        err = np.where(dead, 0.0, err)
        alive = ok & ~dead
    return -c, np.maximum(err, 0.0)


def speech_lpc_grid(precleaned_amps, mod_frames: int, order: int):
    """Per-modulation-frame AR fits for every bin of an amplitude grid.

    ``precleaned_amps`` is (frames, bins).  Each bin's track is cut into
    windowed modulation frames of ``mod_frames`` acoustic frames, one
    starting at every acoustic frame, and an AR model is fitted to each.
    The windowed autocorrelation is divided by the window's own, which
    keeps a constant track exactly predictable.  Returns
    ``(coeffs (S, bins, order), residual (S, bins))`` with
    S = frames - mod_frames + 1 modulation frames; all-zero segments come
    back as :func:`levinson_grid`'s degenerate rows.
    """
    amps = np.asarray(precleaned_amps, dtype=float)
    win, wlags = _mod_window(amps, mod_frames, order)
    mlen = mod_frames
    segs = np.lib.stride_tricks.sliding_window_view(amps, mlen, axis=0)
    S, K = segs.shape[0], segs.shape[1]
    wseg = segs * win
    r = np.empty((S, K, order + 1))
    for l in range(order + 1):
        r[:, :, l] = np.einsum("skt,skt->sk", wseg[:, :, : mlen - l],
                               wseg[:, :, l:]) / mlen
    r /= wlags / mlen
    del wseg  # the largest array here, not needed by the fits
    coeffs, resvar = levinson_grid(r.reshape(S * K, order + 1), order)
    return coeffs.reshape(S, K, order), resvar.reshape(S, K)


def noise_lpc_grid(noisy_amps, vad, mod_frames: int, order: int):
    """AR models of every bin's noise amplitude modulation.

    ``noisy_amps`` is (frames, bins), cut into modulation frames as in
    :func:`speech_lpc_grid`.  Each bin keeps a recursively averaged
    modulation magnitude spectrum, updated with factor
    :data:`NOISE_SMOOTHING` only on modulation frames whose acoustic frames
    are all flagged noise-only in ``vad``; the model is refitted from the
    inverse DFT of the averaged squared magnitudes.  Before any noise-only
    frame is seen, the model derives from a flat spectrum scaled to the
    first few frames.  The flags are shared across bins, so every bin is
    advanced at once.  Returns ``(coeffs (S, bins, order), residual
    (S, bins))``, one row per modulation frame; a spectrum whose power has
    underflowed to zero gives :func:`levinson_grid`'s degenerate rows.
    """
    amps = np.asarray(noisy_amps, dtype=float)
    flags = np.asarray(vad, dtype=bool).ravel()
    win, wlags = _mod_window(amps, mod_frames, order)
    if flags.size != amps.shape[0]:
        raise ValueError("vad flags must align with the amplitude grid")
    mlen = mod_frames
    nfft = 2 * mlen
    K = amps.shape[1]
    p0 = np.mean(amps[: min(6, amps.shape[0])] ** 2, axis=0)
    mbar = np.sqrt(np.maximum(p0, 1e-300)[:, None]
                   * np.sum(win ** 2)) * np.ones(nfft // 2 + 1)

    def fit_all():
        acf = np.fft.irfft(mbar ** 2, n=nfft, axis=1)[:, : order + 1] / wlags
        return levinson_grid(acf, order)

    coeffs_now, res_now = fit_all()
    S = amps.shape[0] - mlen + 1
    coeffs = np.empty((S, K, order))
    resvar = np.empty((S, K))
    for s in range(S):
        if flags[s:s + mlen].all():
            mag = np.abs(np.fft.rfft(amps[s:s + mlen] * win[:, None], n=nfft, axis=0))
            mbar = NOISE_SMOOTHING * mbar + (1.0 - NOISE_SMOOTHING) * mag.T
            coeffs_now, res_now = fit_all()
        coeffs[s] = coeffs_now
        resvar[s] = res_now
    return coeffs, resvar


def frame_model_index(n_frames: int, mod_frames: int, n_windows: int) -> np.ndarray:
    """Which modulation frame's model governs each acoustic frame.

    Modulation frame j (acoustic frames j .. j + mod_frames - 1) takes over
    at its final frame and holds for that one frame; the first also covers
    the warm-up frames before any modulation frame is complete, and the
    last one covers the tail.
    """
    return np.clip(np.arange(n_frames) - mod_frames + 1, 0, n_windows - 1)


def prediction_gain(clean_amps=None, predicted_amps=None, *, sums=None) -> np.ndarray:
    """Per-bin ratio of track power to prediction-error power, in dB.

    The powers are sums over the acoustic frames (axis 0) of the (frames,
    bins) grids ``clean_amps`` and ``predicted_amps``; a frame loop that
    keeps no grids passes its running per-bin sums of clean**2 and
    (clean - predicted)**2 as ``sums`` instead.  An exact prediction yields
    +inf for that bin.
    """
    if sums is None:
        clean = np.asarray(clean_amps, dtype=float)
        pred = np.asarray(predicted_amps, dtype=float)
        if clean.shape != pred.shape:
            raise ValueError("grids must have equal shapes")
        sums = np.sum(clean ** 2, axis=0), np.sum((clean - pred) ** 2, axis=0)
    num, den = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 10.0 * np.log10(num / den)
    gain = np.where((den == 0) & (num > 0), np.inf, gain)
    return gain
