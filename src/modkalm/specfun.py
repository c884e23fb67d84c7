"""Numerically robust special functions for the Gamma-prior posterior.

Provides the half-step gamma ratio Γ(g+½)/Γ(g) and the confluent
hypergeometric function M(a;1;x), the one Kummer function the Gamma-prior
update needs, both on the parameter box the estimators use (a, g ≤ 60).
M grows like exp(x) and is consumed only through ratios, so
:func:`kummer_m_log` returns its logarithm, elementwise over broadcast
arrays, and ratios are formed by subtracting logs.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "gamma_half_ratio",
    "kummer_m_log",
]

_LN10 = math.log(10.0)

# Supported parameter box for kummer_m_log.  The estimators call it with
# a = shape, shape + 1/2 or shape + 1 (shape capped at 49); the box leaves
# generous headroom while refusing silent extrapolation.
_KUMMER_A_MAX = 60.0
_KUMMER_X_MAX = 1e12
_STOP_EVERY = 4  # passes of the lock-step series between tests of its stop rule


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def gamma_half_ratio(g):
    """Gamma(g + 1/2) / Gamma(g) for 0 < g <= 60, from log-gamma differences.

    The bound is the Kummer box's: the estimators never ask for a larger
    shape, and up to it the differenced logs keep ~1e-14 relative accuracy.
    """
    arr = _as_float_array(g, "g")
    if ((arr <= 0) | (arr > _KUMMER_A_MAX)).any():
        raise ValueError(f"gamma_half_ratio requires 0 < g <= {_KUMMER_A_MAX:g}")
    return np.exp(_sp.gammaln(arr + 0.5) - _sp.gammaln(arr))


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
    return _sp.gammaln(1.0) - _sp.gammaln(a) + x + (a - 1.0) * np.log(x) + np.log(s)


def kummer_m_log(a, x) -> np.ndarray:
    """Vectorized log of M(a;1;x) for a >= 0, x >= 0.

    ``a`` and ``x`` broadcast.  The result is always the log of a value
    >= 1, finite for arguments inside the supported box.
    """
    a_arr, x_arr = np.broadcast_arrays(
        _as_float_array(a, "a"), _as_float_array(x, "x")
    )
    if (a_arr < 0).any() or (a_arr > _KUMMER_A_MAX).any():
        raise ValueError(f"a must be in [0, {_KUMMER_A_MAX}]")
    if (x_arr < 0).any() or (x_arr > _KUMMER_X_MAX).any():
        raise ValueError(f"x must be in [0, {_KUMMER_X_MAX}]")
    a_flat = a_arr.ravel()
    x_flat = x_arr.ravel()
    # M(0;1;x) = 1 exactly; the large-x expansion divides by Gamma(a), so
    # route a == 0 around both branches.
    use_series = (x_flat <= _series_switch(a_flat)) & (a_flat > 0)
    if a_flat.size and use_series.all():
        return _log_kummer_series(a_flat, x_flat).reshape(a_arr.shape)
    out = np.zeros_like(a_flat)
    if use_series.any():
        out[use_series] = _log_kummer_series(a_flat[use_series], x_flat[use_series])
    use_asym = ~use_series & (a_flat > 0)
    if use_asym.any():
        out[use_asym] = _log_kummer_asymptotic(a_flat[use_asym], x_flat[use_asym])
    return out.reshape(a_arr.shape)
