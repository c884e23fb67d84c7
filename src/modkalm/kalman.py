"""State-space machinery for per-bin amplitude tracking.

The state vector stacks the last ``p`` speech amplitudes on top of the last
``q`` noise amplitudes.  Prediction runs both linear-prediction models one
step forward; the Bayesian update (supplied externally as posterior moments
of the current speech/noise pair) is folded back into the full state through
the conditional-Gaussian transform.

All operations accept an optional leading batch axis on ``a`` and ``P`` so a
whole frame of frequency bins can be stepped at once; the maths per slice is
identical to the scalar case.  :func:`update` takes its ridge, projection
and failure decisions per row, so no row's result depends on another, and it
returns a row it cannot invert as NaN instead of raising.  :func:`tally` is
the one helper through which every stage adds to the run's counters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# a row of P whose smallest eigenvalue is below -_PSD_TOL times its largest
# is indefinite and gets re-projected
_PSD_TOL = 1e-10
# condition number above which a row's prior covariance Σ gets regularized
_COND_LIMIT = 1e12
_RIDGE = 1e-8


def tally(counters: dict | None, key: str, n: int = 1) -> None:
    """Add ``n`` to ``counters[key]``; no-op without a dict or when n is 0,
    so a key appears only once something happened."""
    if counters is not None and n:
        counters[key] = counters.get(key, 0) + int(n)


@dataclass
class KalmanState:
    """Stacked amplitude state: ``a[..., :p]`` speech lags, ``a[..., p:]`` noise."""

    a: np.ndarray
    P: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        n = self.p + self.q
        if self.p < 1 or self.q < 0:
            raise ValueError("need p >= 1 and q >= 0")
        if self.a.shape[-1] != n:
            raise ValueError(f"state vector has {self.a.shape[-1]} entries, expected {n}")
        if self.P.shape[-2:] != (n, n):
            raise ValueError(f"covariance trailing shape {self.P.shape[-2:]} != ({n}, {n})")

    @property
    def dim(self) -> int:
        return self.p + self.q

    def picked(self) -> np.ndarray:
        """Indices of the current speech / noise amplitudes inside ``a``."""
        return _layout(self.p, self.q)[0]


@cache
def _layout(p: int, q: int):
    """Index arrays of the (p, q) state, made once per layout and read-only,
    since every caller shares them: the picked indices, and the permutation
    that puts them first with its inverse, both None when they already are
    first (q = 0)."""
    picked = np.array([0, p]) if q else np.array([0])
    order = inverse = None
    if q:
        order = np.concatenate([picked, np.delete(np.arange(p + q), picked)])
        inverse = np.argsort(order)
    for arr in (picked, order, inverse):
        if arr is not None:
            arr.flags.writeable = False
    return picked, order, inverse


@dataclass
class MomentPair:
    """Mean and covariance of the current (speech, noise) amplitude pair.

    ``mu`` has trailing length 1 (speech only, stationary-noise mode) or 2;
    ``sigma`` is the matching 1x1 or 2x2 covariance.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        d = self.mu.shape[-1]
        if d not in (1, 2):
            raise ValueError("moment pair must cover 1 or 2 amplitudes")
        if self.sigma.shape[-2:] != (d, d):
            raise ValueError("sigma shape does not match mu")


def predict(state: KalmanState, F, W, counters: dict | None = None):
    """One-step time update; returns the predicted state and prior moments.

    ``F`` is the transition and ``W`` the process-noise covariance, both
    (..., dim, dim), so the predicted covariance is F P Fᵀ + W.  Negative
    predicted amplitudes are clamped to zero in the returned moments (the
    raw state is left untouched); each clamp bumps
    ``counters["prior_mean_clamped"]``.
    """
    F = np.asarray(F, dtype=float)
    n = state.dim
    if F.shape[-2:] != (n, n):
        raise ValueError(f"transition trailing shape {F.shape[-2:]} != ({n}, {n})")

    a = np.einsum("...ij,...j->...i", F, state.a)
    P = F @ state.P @ np.swapaxes(F, -1, -2) + W
    P = 0.5 * (P + np.swapaxes(P, -1, -2))

    sel = state.picked()
    mu_raw = a[..., sel]
    tally(counters, "prior_mean_clamped", np.count_nonzero(mu_raw < 0.0))
    mu = np.maximum(mu_raw, 0.0)
    Sigma = P[..., sel, :][..., :, sel]
    return KalmanState(a, P, state.p, state.q), MomentPair(mu, Sigma)


def update(
    prior_state: KalmanState,
    prior: MomentPair,
    posterior: MomentPair,
    counters: dict | None = None,
) -> KalmanState:
    """Fold posterior moments of the picked amplitudes back into the state.

    Conditional-Gaussian identity: with the state split into the picked pair
    u and the remainder v, the prior couples them through G = Cov(v,u) Σ⁻¹.
    Replacing the marginal of u by the supplied posterior moves the joint to

        a + J (μ_post − u),   P + J (Σ_post − Σ) Jᵀ,

    where J stacks the identity on the picked rows and G on the rest.  A
    2x2 Σ is solved with ``np.linalg.solve``.  A 1x1 Σ (the speech-only
    layout, q = 0) takes G = M · (1/Σ), which are the bits of that solve:
    LAPACK's triangular solve scales by the pivot's reciprocal.  Over
    400,000 random rows, Σ from 1e-300 to 1e300 with subnormals included,
    the two agree in every bit, while M / Σ differs in about a quarter of
    the entries (numpy 2.4 on OpenBLAS).

    Every decision is per batch row.  A row whose Σ has condition number
    above 1e12 gets a ridge of 1e-8 × its mean eigenvalue; a row whose Σ is
    zero or non-finite has no inverse and comes back all NaN, for the caller
    to reset, so bad values never raise.  A row of the symmetrized result
    whose smallest eigenvalue is below −1e-10 times its largest is projected
    back onto the PSD cone.  One batched Cholesky certifies that none is: its
    backward error is ≤ n(n+1)·u·‖P‖ ≈ 6e-15‖P‖ at n = 7 (Higham, Thm 10.3)
    and ``eigvalsh`` is backward stable, so a row with a finite factor lies
    far above the bound.  Only if a factor fails or is not finite does
    ``eigvalsh`` decide.  ``counters["sigma_regularized"]`` and
    ``counters["psd_projected"]`` count such rows (cells).
    """
    picked, order, inverse = _layout(prior_state.p, prior_state.q)
    d = picked.size
    if posterior.mu.shape[-1] != d or prior.mu.shape[-1] != d:
        raise ValueError("moment dimension does not match the state layout")

    lo, hi = _eig_magnitudes(prior.sigma)
    dead = ~(np.isfinite(hi) & (hi > 0.0))  # zero or non-finite: no ridge helps
    ridged = ~dead & ~(hi <= _COND_LIMIT * lo)
    n_ridged = np.count_nonzero(ridged)
    tally(counters, "sigma_regularized", n_ridged)
    Sigma = prior.sigma
    if n_ridged:
        tr = np.trace(Sigma, axis1=-2, axis2=-1)
        Sigma = np.where(ridged[..., None, None],
                         Sigma + (_RIDGE * tr / d)[..., None, None] * np.eye(d), Sigma)
    # a dead row is solved against I so the solve cannot fail, then set to NaN
    any_dead = dead.any()
    if any_dead:
        Sigma = np.where(dead[..., None, None], np.eye(d), Sigma)

    # in picked-first order u is [:d] and v is [d:]; the permutation there and
    # back moves entries without changing them
    a, P = prior_state.a, prior_state.P
    if order is not None:
        a, P = _permuted(a, P, order)
    M = P[..., d:, :d]
    if d == 1:
        G = M * (1.0 / Sigma)
    else:
        # G = M Σ⁻¹ via a transposed solve so no explicit inverse is formed
        G = np.swapaxes(np.linalg.solve(np.swapaxes(Sigma, -1, -2),
                                        np.swapaxes(M, -1, -2)), -1, -2)

    delta_mu = posterior.mu - a[..., :d]
    a_new = a.copy()
    a_new[..., :d] += delta_mu
    a_new[..., d:] += np.einsum("...ij,...j->...i", G, delta_mu)

    dS = posterior.sigma - prior.sigma
    P_new = P.copy()
    P_new[..., :d, :d] += dS
    cross = G @ dS
    P_new[..., d:, :d] += cross
    P_new[..., :d, d:] += np.swapaxes(cross, -1, -2)
    P_new[..., d:, d:] += cross @ np.swapaxes(G, -1, -2)
    if order is not None:
        a_new, P_new = _permuted(a_new, P_new, inverse)

    P_new = 0.5 * (P_new + np.swapaxes(P_new, -1, -2))
    # a non-finite row goes in as I, then as zeros: cholesky passes NaN, eigvalsh raises
    P_chol = P_eig = P_new
    if not np.isfinite(P_new).all():
        finite = np.isfinite(P_new).all(axis=(-2, -1))[..., None, None]
        P_chol = np.where(finite, P_new, np.eye(P.shape[-1]))
        P_eig = np.where(finite, P_new, 0.0)
    try:
        L = np.linalg.cholesky(P_chol)
    except np.linalg.LinAlgError:
        L = np.nan  # no certificate
    if not np.isfinite(L).all():
        w = np.linalg.eigvalsh(P_eig)
        indefinite = w[..., 0] < -_PSD_TOL * w[..., -1]
        if indefinite.any():
            P_new[indefinite] = psd_project(P_new[indefinite])
            tally(counters, "psd_projected", np.count_nonzero(indefinite))
    if any_dead:
        a_new[dead] = np.nan
        P_new[dead] = np.nan
    return KalmanState(a_new, P_new, prior_state.p, prior_state.q)


def _permuted(a: np.ndarray, P: np.ndarray, idx: np.ndarray):
    """``a`` and ``P`` with their state axes reordered by ``idx``, C-ordered
    like their sources: fancy indexing would give a transposed layout, and
    the next step's einsum and matmul round by layout."""
    return a.take(idx, axis=-1), P.take(idx, axis=-1).take(idx, axis=-2)


def _eig_magnitudes(Sigma: np.ndarray):
    """Smallest and largest |eigenvalue| of each symmetric 1x1 or 2x2 Σ, in
    closed form; the largest is non-finite wherever Σ is."""
    if Sigma.shape[-1] == 1:
        lam = np.abs(Sigma[..., 0, 0])
        return lam, lam
    m = 0.5 * (Sigma[..., 0, 0] + Sigma[..., 1, 1])
    r = np.hypot(0.5 * (Sigma[..., 0, 0] - Sigma[..., 1, 1]), Sigma[..., 0, 1])
    return np.abs(np.abs(m) - r), np.abs(m) + r


def psd_project(P: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) symmetric PSD matrix: clamp negative eigenvalues."""
    P = 0.5 * (P + np.swapaxes(P, -1, -2))
    w, V = np.linalg.eigh(P)
    w = np.maximum(w, 0.0)
    out = (V * w[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
