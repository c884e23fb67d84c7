"""Amplitude posterior under a Gamma prior and complex-Gaussian observation noise.

The predicted amplitude moments are matched to a two-parameter Gamma-shaped
prior p(a) ∝ a^(2γ−1) exp(−a²/β²); conditioning on an observed noisy
amplitude y with noise power ν² then has closed-form posterior moments built
from confluent-hypergeometric ratios.  Everything here broadcasts, so a whole
frame of bins can be processed per call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .kalman import tally
from .specfun import _KUMMER_X_MAX, gamma_half_ratio, kummer_m_log

GAMMA_MIN = 1e-3
GAMMA_MAX = 49.0
VAR_FLOOR_REL = 1e-12


@dataclass
class GammaPrior:
    """Shape/scale pair, array-valued (0-d for a single cell)."""

    gamma: np.ndarray
    beta: np.ndarray


def _log_shape_ratio(g):
    """ln of f(γ) = Γ²(γ+½) / (γ Γ²(γ)), strictly increasing on (0, ∞)."""
    g = np.asarray(g, dtype=float)
    return 2.0 * (gammaln(g + 0.5) - gammaln(g)) - np.log(g)


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


def fit_gamma_prior(mu, var, counters: dict | None = None) -> GammaPrior:
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
    tally(counters, "gamma_clamped_low", np.count_nonzero(lo))
    tally(counters, "gamma_clamped_high", np.count_nonzero(hi))

    gamma = np.empty_like(mu)
    gamma[lo] = GAMMA_MIN
    gamma[hi] = GAMMA_MAX
    mid = ~(lo | hi)
    if mid.any():
        gamma[mid] = _solve_gamma_vec(log_r[mid])
    return GammaPrior(gamma, np.sqrt(second / gamma))


def mdkm_posterior(prior: GammaPrior, nu2, y, counters: dict | None = None):
    """Posterior amplitude mean and variance given noisy amplitude y.

    The posterior under the Gamma-shaped prior is again of generalized-Gamma
    type tilted by a Bessel factor; its moments reduce to ratios of
    M(·;1;x) at shapes γ, γ+½, γ+1 with x = ζξ/(γ+ξ), where ζ = y²/ν² is
    the a-posteriori and ξ = γβ²/ν² the a-priori SNR.  Evaluated in log
    space so large x cannot overflow.  The variance is the second moment
    minus the squared mean, floored at 1e-12·y² (floor hits are counted).
    A zero observation reports a zero mean with all mass in the variance.
    A non-positive ν², a negative y, or SNRs that are negative or
    non-finite raise ``ValueError``.
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
    half = gamma_half_ratio(gamma)
    if big.any():
        # beyond the box the M-ratios have converged to their leading
        # asymptotics (relative error O(1/x) ≤ 1e-12)
        ratio_half = np.where(big, np.sqrt(x) / half, ratio_half)
        ratio_one = np.where(big, x / gamma, ratio_one)

    # per-dimension posterior scale: β'² = β²ν²/(β²+ν²) = ν²ξ/(γ+ξ)
    scale2 = nu2 * xi / den
    mean = half * np.sqrt(scale2) * ratio_half
    second = gamma * scale2 * ratio_one

    mean = np.where(y > 0, mean, 0.0)
    var = second - mean * mean
    floor = VAR_FLOOR_REL * y * y
    tally(counters, "posterior_var_floored", np.count_nonzero(var < floor))
    return mean, np.maximum(var, floor)
