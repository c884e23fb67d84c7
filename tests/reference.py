"""Independent per-bin references that the tests compare the package against.

The package runs one batched implementation of each stage.  The scalar
forms kept here are written differently (one bin, one modulation frame or
one cell at a time), so agreement between the two is evidence for both:

- :func:`autocorrelation` is the biased lag-product estimate the LPC
  oracles fit to.
- :func:`levinson`, :func:`speech_lpc_track`, :func:`noise_lpc_track` and
  :func:`models_per_frame` are the per-bin oracles for
  ``lpc.levinson_grid``, ``lpc.speech_lpc_grid``, ``lpc.noise_lpc_grid``
  and ``lpc.frame_model_index``.
- :func:`build_transition` assembles the Kalman transition F, the
  residual variances Q and the excitation map D from two prediction
  models; the tests hand ``kalman.predict`` the process-noise covariance
  W = D Q Dᵀ.
- :func:`fit_gamma_shape_brentq` solves the Gamma-prior shape equation by
  bracketing, for ``gamma_update.fit_gamma_prior``'s batched Newton solve.
- :func:`nakagami_from_moments` and :func:`rician_from_nakagami` are the
  two-step Nakagami→Rician match that ``gaussring.build_ring`` evaluates
  inline.
- :func:`log_kummer_series` sums the ascending series for log M(a;1;x)
  element by element, each element stopping on its own; the package sums
  the batch in lock-step (``gamma_update._log_kummer_series``).
- :func:`mdkr_cell`, with its :func:`_product_arrays` and
  :func:`amplitude_moments`, is the ring cell in its plain form: every product component weighted, each reduction a dot
  product, fresh arrays throughout.  ``gaussring.mdkr_cell`` must return
  the same bytes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.signal import get_window

from modkalm.gamma_update import GAMMA_MAX, GAMMA_MIN, _log_shape_ratio
from modkalm.gaussring import (
    _CROSS_TAN2,
    _CROSS_W,
    _WEIGHT_PRUNE,
    DEFAULT_RING_CAP,
    GaussringModel,
    build_ring,
    rice_mean,
)
from modkalm.kalman import psd_project, tally
from modkalm.lpc import _DIAG_LOAD


@dataclass
class ModulationLpcModel:
    """AR model of one modulation frame: predicted a_n = -coeffs . past."""

    coeffs: np.ndarray
    residual_var: float
    order: int
    degenerate: bool = False

    def predict_next(self, recent) -> float:
        """One-step prediction; ``recent[0]`` is the newest past value."""
        recent = np.asarray(recent, dtype=float)
        if recent.size < self.order:
            raise ValueError("need at least `order` past values")
        return float(-np.dot(self.coeffs, recent[: self.order]))


@dataclass
class TrackedModel:
    """A fitted model plus the half-open range of acoustic frames it governs."""

    model: ModulationLpcModel
    first_frame: int
    last_frame: int


def autocorrelation(seq, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[l] = (1/N) sum_t seq[t] seq[t+l], l=0..max_lag."""
    x = np.asarray(seq, dtype=float).ravel()
    if x.size <= max_lag:
        raise ValueError(f"sequence length {x.size} <= max_lag {max_lag}")
    n = x.size
    return np.array([np.dot(x[: n - l], x[l:]) / n for l in range(max_lag + 1)])


def levinson(r, order: int) -> ModulationLpcModel:
    """Levinson-Durbin recursion on an autocorrelation vector.

    Falls back to the highest stable order when the recursion hits a
    non-positive error or a reflection coefficient of magnitude >= 1 (the
    trailing coefficients stay zero in that case).
    """
    r = np.asarray(r, dtype=float).ravel()
    if order < 0:
        raise ValueError("order must be >= 0")
    if r.size < order + 1:
        raise ValueError("autocorrelation vector too short for requested order")
    if r[0] <= 0:
        raise ValueError("r[0] must be positive")
    if order == 0:
        return ModulationLpcModel(np.zeros(0), float(r[0]), 0)
    r = r.copy()
    r[0] *= 1.0 + _DIAG_LOAD
    # c holds forward-prediction coefficients: predicted a_n = c . past
    c = np.zeros(order)
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] - np.dot(c[: i - 1], r[i - 1:0:-1])
        k = acc / err
        if not np.isfinite(k) or abs(k) >= 1.0:
            break
        if i > 1:
            c[: i - 1] -= k * c[i - 2::-1]
        c[i - 1] = k
        err *= 1.0 - k * k
        if err <= 0:
            err = max(err, 0.0)
            break
    return ModulationLpcModel(-c, float(max(err, 0.0)), order)


def _compensated_acf(seg: np.ndarray, win: np.ndarray, max_lag: int) -> np.ndarray:
    # dividing out the window's own biased autocorrelation keeps constants
    # exactly predictable (the plain windowed ACF would not)
    r = autocorrelation(seg * win, max_lag)
    return r / autocorrelation(win, max_lag)


def speech_lpc_track(precleaned_amps, mlen: int, order: int,
                     inc: int = 1) -> list[TrackedModel]:
    """Per-modulation-frame AR models of one bin's pre-cleaned amplitude track,
    on Hamming-windowed modulation frames of ``mlen`` acoustic frames started
    every ``inc`` frames (the package's hop is 1).

    A frame's model governs the acoustic frames from its final window
    position until the next window completes; the first model also covers
    the warm-up frames before any window is complete.
    """
    amps = np.asarray(precleaned_amps, dtype=float).ravel()
    if amps.size < mlen:
        raise ValueError(f"track length {amps.size} < mlen {mlen}")
    win = get_window("hamming", mlen, fftbins=True)
    track: list[TrackedModel] = []
    starts = range(0, amps.size - mlen + 1, inc)
    for s in starts:
        seg = amps[s:s + mlen]
        if not np.any(seg):
            model = ModulationLpcModel(np.zeros(order), 0.0, order,
                                       degenerate=True)
        else:
            model = levinson(_compensated_acf(seg, win, order), order)
        end = s + mlen - 1
        first = 0 if s == 0 else end
        track.append(TrackedModel(model, first, end + inc - 1))
    track[-1].last_frame = amps.size - 1
    return track


def noise_lpc_track(noisy_amps, vad, mlen: int, order: int, inc: int = 1,
                    smoothing: float = 0.9) -> list[TrackedModel]:
    """AR models of one bin's noise amplitude modulation, framed as in
    :func:`speech_lpc_track`.

    Keeps a recursively averaged modulation magnitude spectrum, updated with
    factor ``smoothing`` only on modulation frames whose acoustic frames are
    all flagged noise-only; the model is refitted from the inverse DFT of the
    averaged squared magnitudes.  Before any noise-only frame is seen the
    model derives from a flat spectrum scaled to the first few frames.
    """
    amps = np.asarray(noisy_amps, dtype=float).ravel()
    flags = np.asarray(vad, dtype=bool).ravel()
    if flags.size != amps.size:
        raise ValueError("vad flags must align with the amplitude track")
    if amps.size < mlen:
        raise ValueError(f"track length {amps.size} < mlen {mlen}")
    win = get_window("hamming", mlen, fftbins=True)
    nfft = 2 * mlen
    # window correlation without the 1/N bias factor, for unit-consistent ACF
    wcorr = np.array([np.dot(win[: mlen - l], win[l:]) for l in range(order + 1)])
    # flat-spectrum initialization from the leading frames
    p0 = float(np.mean(amps[: min(6, amps.size)] ** 2))
    mbar = np.full(nfft // 2 + 1, np.sqrt(max(p0, 1e-300) * np.sum(win ** 2)))

    def fit() -> ModulationLpcModel:
        acf = np.fft.irfft(mbar ** 2, n=nfft)[: order + 1] / wcorr
        if acf[0] <= 0:
            return ModulationLpcModel(np.zeros(order), 0.0, order,
                                      degenerate=True)
        return levinson(acf, order)

    model = fit()
    track: list[TrackedModel] = []
    for s in range(0, amps.size - mlen + 1, inc):
        if flags[s:s + mlen].all():
            mag = np.abs(np.fft.rfft(amps[s:s + mlen] * win, n=nfft))
            mbar = smoothing * mbar + (1.0 - smoothing) * mag
            model = fit()
        end = s + mlen - 1
        first = 0 if s == 0 else end
        track.append(TrackedModel(model, first, end + inc - 1))
    track[-1].last_frame = amps.size - 1
    return track


def models_per_frame(track: list[TrackedModel],
                     n_frames: int) -> list[ModulationLpcModel]:
    """Expand a tracked-model list to one governing model per acoustic frame."""
    out: list[ModulationLpcModel] = [track[0].model] * n_frames
    for tm in track:
        for n in range(tm.first_frame, min(tm.last_frame, n_frames - 1) + 1):
            out[n] = tm.model
    return out


def build_transition(speech: ModulationLpcModel, noise: ModulationLpcModel):
    """Assemble (F, Q, D) from the two prediction models.

    F is block-diagonal in the two companion matrices, Q holds the residual
    variances and D picks out the entries that receive fresh excitation (the
    current speech amplitude and, when ``noise.order > 0``, the current noise
    amplitude).  An order-0 noise model yields the speech-only layout.
    """
    p, q = speech.order, noise.order
    if p < 1:
        raise ValueError("speech model must have order >= 1")
    n = p + q
    F = np.zeros((n, n))
    F[0, :p] = -speech.coeffs
    F[1:p, : p - 1] += np.eye(p - 1)
    if q:
        F[p, p:] = -noise.coeffs
        F[p + 1 :, p : n - 1] += np.eye(q - 1)
        Q = np.diag([speech.residual_var, noise.residual_var])
        D = np.zeros((n, 2))
        D[0, 0] = 1.0
        D[p, 1] = 1.0
    else:
        Q = np.array([[speech.residual_var]])
        D = np.zeros((n, 1))
        D[0, 0] = 1.0
    return F, Q, D


def fit_gamma_shape_brentq(mu: float, var: float) -> tuple[float, float]:
    """Shape and scale of the Gamma-shaped prior matching (mean, variance),
    with the shape found by Brent's method on the bracket [1e-3, 49] and
    clamped at its ends as ``fit_gamma_prior`` does."""
    second = mu * mu + var
    log_r = np.log(mu * mu) - np.log(second) if mu > 0 else -np.inf
    if log_r <= _log_shape_ratio(GAMMA_MIN):
        g = GAMMA_MIN
    elif log_r >= _log_shape_ratio(GAMMA_MAX):
        g = GAMMA_MAX
    else:
        g = brentq(
            lambda t: _log_shape_ratio(t) - float(log_r),
            GAMMA_MIN,
            GAMMA_MAX,
            xtol=1e-13,
            rtol=8.9e-16,
        )
    return float(g), float(np.sqrt(second / g))


@dataclass(frozen=True)
class NakagamiParams:
    m: float
    Omega: float


@dataclass(frozen=True)
class RicianParams:
    alpha: float
    delta2: float


def nakagami_from_moments(mu, var) -> NakagamiParams:
    """Shape/spread from amplitude mean and variance (lower-bound match)."""
    if var <= 0:
        raise ValueError("variance must be positive")
    if mu < 0:
        raise ValueError("mean must be nonnegative")
    Omega = mu * mu + var
    return NakagamiParams(m=Omega / (4.0 * var), Omega=Omega)


def rician_from_nakagami(p: NakagamiParams) -> RicianParams:
    """Ring radius and per-dimension variance preserving the second moment."""
    if p.m <= 1.0:
        raise ValueError("Rician match needs m > 1; use the Rayleigh fallback")
    alpha2 = p.Omega * np.sqrt(1.0 - 1.0 / p.m)
    return RicianParams(alpha=float(np.sqrt(alpha2)), delta2=0.5 * (p.Omega - alpha2))


def log_kummer_series(a: np.ndarray, x: np.ndarray, rescales: list | None = None) -> np.ndarray:
    """log M(a;1;x) by the ascending series with on-the-fly rescaling.

    All terms are nonnegative for a >= 0, x >= 0, so the sum has no
    cancellation; partial sums are rescaled before they can overflow.  The
    overflow test runs after every pass; each rescale appends its (pass,
    element index) to ``rescales``, passes counted from 1.
    """
    n = a.size
    total = np.ones(n)
    term = np.ones(n)
    shift = np.zeros(n)
    active = np.arange(n)
    k = 0
    while active.size:
        aa = a[active]
        xa = x[active]
        t = term[active] * (aa + k) * xa / ((1.0 + k) * (k + 1.0))
        s = total[active] + t
        big = s > 1e250
        if big.any():
            t = np.where(big, t * 1e-250, t)
            s = np.where(big, s * 1e-250, s)
            shift[active[big]] += 250.0 * math.log(10.0)
            if rescales is not None:
                rescales.extend((k + 1, int(i)) for i in active[big])
        term[active] = t
        total[active] = s
        k += 1
        # safe to stop once the term is negligible and the ratio is falling
        done = (t <= s * 1e-17) & ((aa + k) * xa < 0.9 * (1.0 + k) * (k + 1.0))
        if done.any():
            active = active[~done]
        if k > 200000:
            raise RuntimeError("kummer series failed to converge")
    return np.log(total) + shift


# --- the ring cell as it stood before its single-component path -----------
# Verbatim copies of ``gaussring._product_arrays``, ``amplitude_moments``
# and ``mdkr_cell`` from before the package cut their fixed per-call cost;
# ``test_gaussring.TestReferenceCell`` holds the package to the same bytes,
# counters and component counts.

def _product_arrays(speech: GaussringModel, noise: GaussringModel):
    """Pairwise Gaussian products: normalized weights, means, shared variance."""
    dsum = speech.var + noise.var
    dprod = speech.var * noise.var / dsum
    diff = speech.means[:, None] - noise.means[None, :]
    with np.errstate(over="ignore"):  # huge separations legitimately give -inf
        logw = -np.abs(diff) ** 2 / dsum - np.log(np.pi * dsum) - np.log(speech.G * noise.G)
    logw = logw.ravel()
    top = logw.max()
    if not math.isfinite(top):
        warnings.warn("all product weights underflowed; using uniform weights")
        w = np.full(logw.size, 1.0 / logw.size)
    else:
        w = np.exp(logw - top)
        w /= w.sum()
    means = (dprod * (speech.means[:, None] / speech.var + noise.means[None, :] / noise.var)).ravel()
    return w, means, dprod


def amplitude_moments(o, delta: float, z: complex):
    """Exact moments of (|S|, |S − z|) for S ~ CN(o, delta), per entry of
    the 1-D array ``o``.

    Both amplitudes are Rician, so their means come from :func:`rice_mean`
    and their second moments are δ + |o|² and δ + |o − z|².  The covariance
    uses |w| = (1/2√π)∫₀^∞ (1 − e^{−u|w|²}) u^{−3/2} du: tilting CN(o, δ) by
    e^{−u|S−z|²} gives C(u)·CN(o_u, δ_u) with δ_u = δ/(1+uδ),
    o_u = (o + uδz)/(1+uδ), C(u) = e^{−u|o−z|²/(1+uδ)}/(1+uδ), so

        Cov = (1/2√π) ∫₀^∞ u^{−3/2} C(u)·[E|S| − rice_mean(|o_u|², δ_u)] du.

    With u = (c·tanθ)², c = (δ + |o−z|²)^{−½}, the integrand is smooth on
    [0, π/2] and a fixed Gauss–Legendre rule evaluates it.  The two means
    and the 14 tilted means per entry go through one :func:`rice_mean`
    call on the concatenated arguments; its operations are elementwise, so
    each value has the bits that separate calls would give.  Returns
    arrays ``(mean_a, mean_b, var_a, var_b, cov_ab)``, each contiguous:
    ``@`` on strided views can sum in another order.
    """
    o = np.asarray(o, dtype=complex)
    n = o.size
    a2 = np.abs(o) ** 2
    b2 = np.abs(o - z) ** 2
    inv_c2 = delta + b2
    u = _CROSS_TAN2 / inv_c2[:, None]
    u_delta = u * delta
    ud = 1.0 + u_delta
    tilt = np.exp(-u * b2[:, None] / ud) / ud
    o_u = (o[:, None] + u_delta * z) / ud
    means = rice_mean(np.concatenate((a2, b2, (np.abs(o_u) ** 2).ravel())),
                      np.concatenate((np.full(2 * n, delta), (delta / ud).ravel())))
    mean_a, mean_b = means[:n], means[n:2 * n]
    gap = mean_a[:, None] - means[2 * n:].reshape(n, -1)
    cov_ab = np.sqrt(inv_c2) * ((tilt * gap) @ _CROSS_W)
    return (mean_a, mean_b, delta + a2 - mean_a ** 2, delta + b2 - mean_b ** 2,
            cov_ab)


def mdkr_cell(
    mu_speech: float,
    var_speech: float,
    mu_noise: float,
    var_noise: float,
    z: complex,
    cap: int = DEFAULT_RING_CAP,
    counters: dict | None = None,
    info: dict | None = None,
):
    """Joint posterior amplitude moments for one time-frequency cell.

    Builds the speech ring at the origin and the noise ring at z from the
    two marginal priors, forms the pairwise product mixture, and
    accumulates the mixture mean and covariance of (|S|, |S−z|).  The
    per-component moments are exact (:func:`amplitude_moments`: closed-form
    Rician means and second moments, and a cross moment within 1e-6
    relative).  Returns plain ``(mu (2,), Sigma (2,2))`` arrays; ``info``
    (if given) receives the two component counts.

    The enhancer passes Python floats and a Python complex, so the scalar
    work per cell skips numpy-scalar dispatch; numpy scalars give the
    same bits, as every operation rounds the same either way.
    """
    speech = build_ring(mu_speech, var_speech, center=0j, cap=cap,
                        counters=counters)
    noise = build_ring(mu_noise, var_noise, center=complex(z), cap=cap,
                       counters=counters)
    if info is not None:
        info["G_speech"] = speech.G
        info["G_noise"] = noise.G
    w, means, dprod = _product_arrays(speech, noise)

    keep = w > _WEIGHT_PRUNE * w.max()
    if not keep.all():
        tally(counters, "components_pruned", np.count_nonzero(~keep))
        w, means = w[keep], means[keep]
        w = w / w.sum()

    mean_a, mean_b, var_a, var_b, cov_ab = amplitude_moments(means, dprod, z)
    ma, mb = float(w @ mean_a), float(w @ mean_b)
    da = mean_a - ma
    db = mean_b - mb
    s12 = float(w @ (cov_ab + da * db))
    s11, s22 = float(w @ (var_a + da * da)), float(w @ (var_b + db * db))
    Sigma = np.array([[s11, s12], [s12, s22]])
    # mixture covariances are PSD up to rounding; only project when rounding
    # actually pushed an eigenvalue negative
    if s11 < 0.0 or s22 < 0.0 or s11 * s22 < s12 * s12:
        Sigma = psd_project(Sigma)
    return np.array([ma, mb]), Sigma
