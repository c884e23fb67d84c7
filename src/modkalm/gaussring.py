"""Ring-of-Gaussians amplitude posterior for jointly tracked speech and noise.

A predicted (mean, variance) amplitude pair with uniform phase is approximated
by a mixture of equal-weight complex Gaussians whose centres sit on a circle:
the amplitude marginal is near-Rician, and the phase marginal is uniform up
to a G-periodic ripple (below about 1.5% of the uniform density at the
two-sigma centre spacing).  The speech ring sits at the origin, the noise
ring at the observed coefficient; multiplying the two mixtures gives a
mixture of complex Gaussians, and the exact Rician moments of |S| and
|S − z| under each of its components give the joint posterior of the two
amplitudes, including their covariance.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, i1e

from .kalman import psd_project, tally

# mean/std ratio of a Rayleigh amplitude: below this no ring is identifiable
RAYLEIGH_GATE = float(np.sqrt(np.pi / (4.0 - np.pi)))
DEFAULT_RING_CAP = 64
# product components lighter than this fraction of the heaviest are dropped
_WEIGHT_PRUNE = 1e-12


@dataclass
class GaussringModel:
    """Equal-weight circular mixture; ``var`` is the total complex variance
    E|v − mean|² shared by every component.  G == 1 is the single Gaussian
    below the Rayleigh gate, whose one mean is the ring's centre."""

    G: int
    means: np.ndarray
    var: float


_unit_rings: dict[int, np.ndarray] = {}


def _unit_ring(G: int) -> np.ndarray:
    ring = _unit_rings.get(G)
    if ring is None:
        ring = np.exp(2j * np.pi * np.arange(G) / G)
        _unit_rings[G] = ring
    return ring


def build_ring(mu, var, center: complex = 0j, cap: int = DEFAULT_RING_CAP,
               counters: dict | None = None) -> GaussringModel:
    """Ring mixture matching the amplitude moments (mu, var) about ``center``.

    Centres are spaced roughly two component-sigmas apart, G = ⌈πμ/σ⌉.  When
    G exceeds ``cap`` the component variance is widened so the capped ring
    still overlaps itself.  Ratios below the Rayleigh gate collapse to one
    Gaussian matching E(A²).  Above it the ring is the Rician match of the
    Nakagami fit (Ω = μ² + σ², m = Ω/4σ² > 1.16 past the gate): radius
    α = √(Ω√(1 − 1/m)), complex variance δ = Ω − α².  The scalar maths
    runs on Python floats with ``math``, cheaper than numpy scalars; its
    ``+ − × ÷``, ``sqrt`` and ``ceil`` round as numpy does, so the rings
    are bit-identical to a numpy evaluation.
    """
    if var <= 0:
        raise ValueError("variance must be positive")
    if mu < 0:
        raise ValueError("mean must be nonnegative")
    sigma = math.sqrt(var)
    if mu / sigma < RAYLEIGH_GATE:
        return GaussringModel(G=1, means=np.array([center], dtype=complex), var=mu * mu + var)
    Omega = mu * mu + var
    alpha2 = Omega * math.sqrt(1.0 - 1.0 / (Omega / (4.0 * var)))
    alpha = math.sqrt(alpha2)
    G = math.ceil(math.pi * mu / sigma)
    delta = Omega - alpha2
    if G > cap:
        G = cap
        # keep adjacent centres ~2 effective sigmas apart: half the chord
        # length becomes the per-dimension deviation
        half_chord = alpha * float(np.sin(np.pi / G))
        delta = max(delta, 2.0 * (half_chord * half_chord))
        tally(counters, "ring_capped")
    means = center + alpha * _unit_ring(G)
    return GaussringModel(G=G, means=means, var=delta)


# log(G_speech · G_noise) per product size: minus the log prior weight of
# each product component
_log_counts: dict[int, float] = {}


def _product_means(speech: GaussringModel, noise: GaussringModel, dprod: float):
    """Means of the pairwise Gaussian products, speech-major, as a fresh
    1-D array."""
    means = speech.means[:, None] / speech.var + noise.means / noise.var
    means *= dprod
    return means.ravel()


def _product_arrays(speech: GaussringModel, noise: GaussringModel):
    """Pairwise Gaussian products: normalized weights, means, shared
    variance, and the heaviest weight.

    The weights are worked in place in one array.  The heaviest component
    has weight exp(top − top) = 1 before normalization, so after it the
    heaviest weight is 1/sum, with no second pass over the array.
    """
    dsum = speech.var + noise.var
    dprod = speech.var * noise.var / dsum
    count = speech.G * noise.G
    log_count = _log_counts.get(count)
    if log_count is None:
        log_count = _log_counts[count] = np.log(count)
    with np.errstate(over="ignore"):  # huge separations legitimately give -inf
        logw = np.abs(speech.means[:, None] - noise.means).ravel()
        logw *= logw
        logw /= -dsum  # the bits of −x/dsum
        logw -= np.log(np.pi * dsum)
        logw -= log_count
    top = np.maximum.reduce(logw)
    if not math.isfinite(top):
        warnings.warn("all product weights underflowed; using uniform weights")
        w = np.full(count, 1.0 / count)
        heaviest = 1.0 / count
    else:
        logw -= top
        w = np.exp(logw, out=logw)
        total = float(np.add.reduce(w))
        w /= total
        heaviest = 1.0 / total
    return w, _product_means(speech, noise, dprod), dprod, heaviest


def rice_mean(a2, delta):
    """E|S| for S ~ CN(o, delta) with |o|² = a2 (Rice, BSTJ 1944–45):
    √(πδ/4)·[(1+K)·i0e(K/2) + K·i1e(K/2)] with K = |o|²/δ."""
    K = a2 / delta
    half = 0.5 * K
    return np.sqrt(0.25 * np.pi * delta) * ((1.0 + K) * i0e(half) + K * i1e(half))


def _cross_rule(n: int):
    """Gauss–Legendre nodes θ ∈ [0, π/2] for the covariance integral of
    :func:`amplitude_moments`, as (tan²θ, weight · 1/(√π sin²θ))."""
    x, wts = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)
    return np.tan(theta) ** 2, 0.25 * np.pi * wts / (np.sqrt(np.pi) * np.sin(theta) ** 2)


# the fewest nodes that keep E|S||S−z| within 1e-6 relative of a converged
# 64-node rule on every product component of a 0 dB enhancement run
# (worst 5.9e-7; 12 nodes give 2.6e-6)
_CROSS_TAN2, _CROSS_W = _cross_rule(14)
_NEG_CROSS_TAN2 = -_CROSS_TAN2


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
    call, their arguments written into one buffer; its operations are
    elementwise, so each value has the bits that separate calls would
    give.  Returns arrays ``(mean_a, mean_b, var_a, var_b, cov_ab)``, each
    contiguous: a dot product on a strided view can sum in another order.
    """
    o = np.asarray(o, dtype=complex)
    n = o.size
    # the 2 + 14 Rician arguments of each entry, and their scales, are
    # written in place into one buffer each: |o|², |o − z|², then |o_u|²
    args = np.empty(16 * n)
    scales = np.empty(16 * n)
    ab2 = args[:2 * n]
    np.abs(o, out=ab2[:n])
    np.abs(o - z, out=ab2[n:])
    ab2 *= ab2
    second = delta + ab2  # δ + |o|², δ + |o − z|²
    inv_c2 = second[n:]
    neg_u = _NEG_CROSS_TAN2 / inv_c2[:, None]  # −u, so the tilt needs no negation
    u_delta = neg_u * -delta
    ud = 1.0 + u_delta
    tilt = neg_u * ab2[n:, None]
    tilt /= ud
    np.exp(tilt, out=tilt)
    tilt /= ud
    o_u = o[:, None] + u_delta * z
    o_u /= ud
    a2_u = args[2 * n:].reshape(n, -1)
    np.abs(o_u, out=a2_u)
    a2_u *= a2_u
    scales[:2 * n] = delta
    np.divide(delta, ud, out=scales[2 * n:].reshape(n, -1))
    means = rice_mean(args, scales)
    mean_ab = means[:2 * n]
    var_ab = second - mean_ab * mean_ab
    tilt *= mean_ab[:n, None] - means[2 * n:].reshape(n, -1)
    cov_ab = tilt.dot(_CROSS_W)
    cov_ab *= np.sqrt(inv_c2)
    return mean_ab[:n], mean_ab[n:], var_ab[:n], var_ab[n:], cov_ab


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

    Most of a cell's cost is fixed per call, so a product of two single
    Gaussians skips the mixture weights: its weight is exactly 1, and the
    weighted sums are done on Python floats with the arithmetic of a dot
    product with [1.0].
    The weighted sums of larger mixtures use ``ndarray.dot``, the same BLAS
    dot product as ``@`` at less cost per call.
    """
    speech = build_ring(mu_speech, var_speech, center=0j, cap=cap,
                        counters=counters)
    noise = build_ring(mu_noise, var_noise, center=complex(z), cap=cap,
                       counters=counters)
    if info is not None:
        info["G_speech"] = speech.G
        info["G_noise"] = noise.G
    if speech.G * noise.G == 1:
        # two single Gaussians: one product component, of weight 1
        dprod = speech.var * noise.var / (speech.var + noise.var)
        w, means = None, _product_means(speech, noise, dprod)
    else:
        w, means, dprod, heaviest = _product_arrays(speech, noise)
        keep = w > _WEIGHT_PRUNE * heaviest
        kept = np.count_nonzero(keep)
        if kept < w.size:
            tally(counters, "components_pruned", w.size - kept)
            means = means[keep]
            w = w[keep]
            w /= np.add.reduce(w)

    mean_a, mean_b, var_a, var_b, cov_ab = amplitude_moments(means, dprod, z)
    if w is None:
        # each weighted sum below is a dot product with [1.0], which is
        # 0.0 + v: the same arithmetic on Python floats
        a, b = float(mean_a[0]), float(mean_b[0])
        ma, mb = a + 0.0, b + 0.0
        da, db = a - ma, b - mb
        s12 = float(cov_ab[0]) + da * db + 0.0
        s11 = float(var_a[0]) + da * da + 0.0
        s22 = float(var_b[0]) + db * db + 0.0
    else:
        ma, mb = float(w.dot(mean_a)), float(w.dot(mean_b))
        da = mean_a - ma
        db = mean_b - mb
        s12 = float(w.dot(cov_ab + da * db))
        s11, s22 = float(w.dot(var_a + da * da)), float(w.dot(var_b + db * db))
    Sigma = np.array([[s11, s12], [s12, s22]])
    # mixture covariances are PSD up to rounding; only project when rounding
    # actually pushed an eigenvalue negative
    if s11 < 0.0 or s22 < 0.0 or s11 * s22 < s12 * s12:
        Sigma = psd_project(Sigma)
    return np.array([ma, mb]), Sigma
