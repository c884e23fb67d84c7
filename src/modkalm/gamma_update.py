"""Amplitude posterior under a Gamma prior and complex-Gaussian observation noise.

The predicted amplitude moments are matched to a two-parameter Gamma-shaped
prior p(a) ∝ a^(2γ−1) exp(−a²/β²); conditioning on an observed noisy
amplitude y with noise power ν² then has closed-form posterior moments built
from ratios of the confluent hypergeometric function M(·;1;x) at shapes γ,
γ+½ and γ+1.  M grows like exp(x) and is consumed only through ratios, so
:func:`kummer_m_log` returns its logarithm and ratios are formed by
subtracting logs.  Everything here broadcasts, so a whole frame of bins can
be processed per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .kalman import tally

GAMMA_MIN = 1e-3
GAMMA_MAX = 49.0
VAR_FLOOR_REL = 1e-12

# The box on which the posterior evaluates M(a;1;x): shapes 0 < γ ≤ 59, so
# a ≤ γ + 1 ≤ 60, headroom over the fitted shapes (≤ GAMMA_MAX) that still
# refuses silent extrapolation.  From x = 1e12 on, the M-ratios take their
# leading asymptotics instead.
_SHAPE_BOX_MAX = 59.0
_KUMMER_X_MAX = 1e12
_STOP_EVERY = 4  # passes of the lock-step series between tests of its stop rule
_LN10 = math.log(10.0)


def _series_switch(a: np.ndarray) -> np.ndarray:
    # Below this x the Taylor series is used; above, the large-x expansion.
    # The expansion's leading term ratio is ~a^2/x, so the cut grows with a
    # to keep its truncation error under ~1e-9.
    return np.maximum(30.0, 2.0 * (a + 1.0) ** 2)


def _log_kummer_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log M(a;1;x) by the ascending series with on-the-fly rescaling.

    All terms are nonnegative for a >= 0, x >= 0, so the sum has no
    cancellation; partial sums are rescaled before they can overflow.  The
    batch is summed in lock-step until all elements meet the stop rule,
    tested every ``_STOP_EVERY`` terms.  An element keeps its own bits:
    past its stop, t <= 1e-17 s is under half an ulp of s (> 2^-54 s) and
    the ratio (a+k)x/(k+1)^2 falls for k >= 1.  A running ``a + k`` would
    round differently.

    The overflow test (a total above 1e250 is rescaled by 1e-250) runs only
    in a block of passes where a total could pass 1e250 before the next stop
    test.  A pass multiplies a term by (a+k)x/(k+1)^2 <= max(a, 1)·x, and a
    term never exceeds its total, so a pass multiplies a total by at most
    1 + max(a, 1)·max(x).  The test is switched on when the largest total
    times that bound to the power ``_STOP_EVERY`` exceeds 1e249, a tenth of
    the threshold, which leaves room for rounding.  So every rescale falls
    on the pass where a test after every pass would make it.
    """
    total, term, shift = np.ones(a.size), np.ones(a.size), np.zeros(a.size)
    growth = (1.0 + max(a.max(), 1.0) * x.max()) ** _STOP_EVERY
    k = 0
    while k < 200000:
        guard = total.max() * growth > 1e249
        for _ in range(_STOP_EVERY):
            term *= a + k
            term *= x
            term /= (1.0 + k) * (k + 1.0)
            total += term
            if guard:
                big = total > 1e250
                if big.any():
                    term[big] *= 1e-250
                    total[big] *= 1e-250
                    shift[big] += 250.0 * _LN10
            k += 1
        # safe to stop once the term is negligible and the ratio is falling
        if ((term <= total * 1e-17).all()
                and ((a + k) * x < 0.9 * (1.0 + k) * (k + 1.0)).all()):
            return np.log(total) + shift
    raise RuntimeError("kummer series failed to converge")


def _log_kummer_asymptotic(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log M(a;1;x) from the exponentially dominant large-x expansion."""
    n = a.size
    s = np.ones(n)
    c = np.ones(n)
    prev = np.ones(n)
    done = np.zeros(n, dtype=bool)
    for k in range(80):
        c = c * (1.0 - a + k) * (1.0 - a + k) / ((k + 1.0) * x)
        mag = np.abs(c)
        # stop before terms start growing (divergent tail) or once negligible
        done |= (mag > prev) | (mag <= np.abs(s) * 1e-17)
        s = np.where(done, s, s + c)
        prev = mag
        if done.all():
            break
    s = np.maximum(s, 1e-300)
    # ln Γ(1) = 0 drops out of the leading term Γ(1)/Γ(a)·eˣ·x^(a−1)
    return x - gammaln(a) + (a - 1.0) * np.log(x) + np.log(s)


def kummer_m_log(a, x) -> np.ndarray:
    """log M(a;1;x), elementwise over broadcast ``a`` > 0 and ``x`` >= 0.

    The result is the log of a value >= 1.  It is accurate on the box
    a <= 60, x < 1e12, which :func:`mdkm_posterior` keeps to.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    a_flat = a.ravel()
    x_flat = x.ravel()
    use_series = x_flat <= _series_switch(a_flat)
    out = np.empty_like(a_flat)
    if use_series.any():
        out[use_series] = _log_kummer_series(a_flat[use_series], x_flat[use_series])
    if not use_series.all():
        asym = ~use_series
        out[asym] = _log_kummer_asymptotic(a_flat[asym], x_flat[asym])
    return out.reshape(a.shape)


@dataclass
class GammaPrior:
    """Shape/scale pair, array-valued (0-d for a single cell)."""

    gamma: np.ndarray
    beta: np.ndarray


def _log_half_ratio(g):
    """ln Γ(γ+½)/Γ(γ) by differenced log-gammas, ~1e-14 relative up to γ = 60."""
    return gammaln(g + 0.5) - gammaln(g)


def _log_shape_ratio(g):
    """ln of f(γ) = Γ²(γ+½) / (γ Γ²(γ)), strictly increasing on (0, ∞)."""
    g = np.asarray(g, dtype=float)
    return 2.0 * _log_half_ratio(g) - np.log(g)


_GRID_LOG_GAMMA = np.linspace(np.log(GAMMA_MIN), np.log(GAMMA_MAX), 512)
_GRID_LOG_F = _log_shape_ratio(np.exp(_GRID_LOG_GAMMA))


def _solve_gamma_vec(log_r: np.ndarray) -> np.ndarray:
    """Invert ln f(γ) = log_r: interpolated start plus Newton polish."""
    lg = np.interp(log_r, _GRID_LOG_F, _GRID_LOG_GAMMA)
    for _ in range(3):
        g = np.exp(lg)
        # d ln f / d ln γ
        slope = g * (2.0 * (digamma(g + 0.5) - digamma(g))) - 1.0
        lg = lg - (_log_shape_ratio(g) - log_r) / slope
        lg = np.clip(lg, _GRID_LOG_GAMMA[0], _GRID_LOG_GAMMA[-1])
    return np.exp(lg)


def fit_gamma_prior(mu, var, counters: dict | list | None = None) -> GammaPrior:
    """Moment-match the Gamma-shaped amplitude prior to (mean, variance).

    Solves Γ²(γ+½)/(γΓ²(γ)) = μ²/(μ²+σ²) for the shape, which is bracketed
    and strictly increasing; the scale follows from the second moment
    E(A²) = γβ².  The shape is clamped to [1e-3, 49] at the extremes (the
    ratio saturates there and the downstream special functions stay inside
    their supported box); clamps are counted.
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if (mu < 0).any():
        raise ValueError("mean must be nonnegative")
    if (var <= 0).any():
        raise ValueError("variance must be positive")

    second = mu * mu + var
    with np.errstate(divide="ignore"):
        log_r = np.log(mu * mu) - np.log(second)
    lo = log_r <= _GRID_LOG_F[0]
    hi = log_r >= _GRID_LOG_F[-1]
    tally(counters, "gamma_clamped_low", lo)
    tally(counters, "gamma_clamped_high", hi)

    gamma = np.empty_like(mu)
    gamma[lo] = GAMMA_MIN
    gamma[hi] = GAMMA_MAX
    mid = ~(lo | hi)
    if mid.any():
        gamma[mid] = _solve_gamma_vec(log_r[mid])
    return GammaPrior(gamma, np.sqrt(second / gamma))


def mdkm_posterior(prior: GammaPrior, nu2, y, counters: dict | list | None = None):
    """Posterior amplitude mean and variance given noisy amplitude y.

    The posterior under the Gamma-shaped prior is again of generalized-Gamma
    type tilted by a Bessel factor; its moments reduce to ratios of
    M(·;1;x) at shapes γ, γ+½, γ+1 with x = ζξ/(γ+ξ), where ζ = y²/ν² is
    the a-posteriori and ξ = γβ²/ν² the a-priori SNR.  Evaluated in log
    space so large x cannot overflow.  The variance is the second moment
    minus the squared mean, floored at 1e-12·y² (floor hits are counted).
    A zero observation gives the y → 0⁺ limit: ζ = 0 and M(·;1;0) = 1, so
    the mean is Γ(γ+½)/Γ(γ)·β′ and the second moment γβ′².
    A non-positive ν², a negative y, SNRs that are negative or non-finite,
    or a shape γ outside (0, 59] raise ``ValueError``.
    """
    gamma = np.asarray(prior.gamma, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    y = np.asarray(y, dtype=float)
    if (nu2 <= 0).any():
        raise ValueError("noise power must be positive")
    if (y < 0).any():
        raise ValueError("observed amplitude must be nonnegative")
    zeta = y * y / nu2
    xi = prior.gamma * np.asarray(prior.beta) ** 2 / nu2
    if (zeta < 0).any() or (xi < 0).any():
        raise ValueError("SNRs must be nonnegative")
    if not (np.isfinite(zeta).all() and np.isfinite(xi).all()):
        raise ValueError("SNRs must be finite")
    if not ((gamma > 0) & (gamma <= _SHAPE_BOX_MAX)).all():
        raise ValueError(f"shape must be in (0, {_SHAPE_BOX_MAX:g}]")
    if not gamma.shape == zeta.shape == xi.shape == y.shape == nu2.shape:
        gamma, zeta, xi = np.broadcast_arrays(gamma, zeta, xi)
        y = np.broadcast_to(y, gamma.shape)
        nu2 = np.broadcast_to(nu2, gamma.shape)

    den = gamma + xi
    x = zeta * xi / den
    big = x >= _KUMMER_X_MAX  # beyond the box: the Wiener-like limit below
    logm = kummer_m_log(np.stack([gamma, gamma + 0.5, gamma + 1.0]),
                        np.where(big, 0.0, x)[None])
    ratio_half, ratio_one = np.exp(logm[1:] - logm[0])
    half = np.exp(_log_half_ratio(gamma))
    if big.any():
        # beyond the box the M-ratios have converged to their leading
        # asymptotics (relative error O(1/x) ≤ 1e-12)
        ratio_half = np.where(big, np.sqrt(x) / half, ratio_half)
        ratio_one = np.where(big, x / gamma, ratio_one)

    # per-dimension posterior scale: β'² = β²ν²/(β²+ν²) = ν²ξ/(γ+ξ)
    scale2 = nu2 * xi / den
    mean = half * np.sqrt(scale2) * ratio_half
    second = gamma * scale2 * ratio_one

    var = second - mean * mean
    floor = VAR_FLOOR_REL * y * y
    tally(counters, "posterior_var_floored", var < floor)
    return mean, np.maximum(var, floor)
