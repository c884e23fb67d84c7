"""Independent references for the two posterior steps, applied to real
cells sampled by :class:`tracer.Tracer`.

* Ring posterior (``gaussring.mdkr_cell``): the moments of (|S|, |S - z|)
  under the exact product of the speech ring (at 0) and the noise ring (at
  z), by 2-D quadrature of the product density on a uniform grid.  This is
  the method of acceptance criterion 05; the rings come from
  ``gaussring.build_ring``, the model definition the posterior reduces.
* Gamma posterior (``gamma_update.mdkm_posterior``): the moments of
  p(a | y) ∝ a^(2γ-1) exp(-a²/β²) exp(-(a-y)²/ν²) i0e(2ay/ν²) by 1-D
  adaptive quadrature, as in acceptance criterion 04, done in u = ln a so
  that shapes near the 1e-3 clamp (mass piled up at a → 0) integrate
  exactly.

Each ``*_fault`` function returns None when the program's output agrees
with the reference within the criterion's tolerance, else a message.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e, logsumexp

from modkalm.gaussring import build_ring

# tighter than acceptance criterion 05 (2% and 5%): means within 0.1% of
# the smaller reference mean, covariance entries within 0.5% of
# sqrt(var_i var_j); the quadrature itself is within 6e-5 and 4.2e-4 on
# sampled real cells, the error being largest where mass sits at the kink
# of |S| at 0 or of |S - z| at z
RING_MEAN_TOL = 1e-3
RING_COV_TOL = 5e-3
# acceptance criterion 04
GAMMA_MEAN_TOL = 1e-4
GAMMA_VAR_TOL = 1e-3
# grid step in units of the per-axis sigma of a product component (halving
# it shrinks the error about eightfold), the largest grid side, and the
# most (point, component) pairs evaluated at once
_STEP_PER_SIGMA = 0.125
_MAX_SIDE = 1200
_CHUNK = 2_000_000


def _log_ring_pdf(means: np.ndarray, var: float, S: np.ndarray) -> np.ndarray:
    """log of the equal-weight circular mixture density at the points S."""
    d2 = np.abs(S[..., None] - means) ** 2
    return logsumexp(-d2 / var, axis=-1) - np.log(means.size * np.pi * var)


def ring_product_moments(sp_means, sp_var, nz_means, nz_var, z: complex):
    """(mean (2,), cov (2,2)) of (|S|, |S - z|) under the normalised
    product of two ring densities, by quadrature over a grid that covers
    every product component heavier than e^-40 of the heaviest."""
    sp_means = np.asarray(sp_means, dtype=complex)
    nz_means = np.asarray(nz_means, dtype=complex)
    # the product of two Gaussians of variances v1, v2 has variance
    # v1 v2 / (v1 + v2), and its centre and log-weight follow in closed
    # form; they only place the grid, the density itself is summed exactly
    vsum = sp_var + nz_var
    vprod = sp_var * nz_var / vsum
    logw = -np.abs(sp_means[:, None] - nz_means[None, :]) ** 2 / vsum
    centres = vprod * (sp_means[:, None] / sp_var + nz_means[None, :] / nz_var)
    centres = centres[logw > logw.max() - 40.0]
    sigma = np.sqrt(vprod / 2.0)
    pad = 10.0 * sigma
    lo = complex(centres.real.min() - pad, centres.imag.min() - pad)
    hi = complex(centres.real.max() + pad, centres.imag.max() + pad)
    step = _STEP_PER_SIGMA * sigma
    nx = int(min(np.ceil((hi.real - lo.real) / step), _MAX_SIDE))
    ny = int(min(np.ceil((hi.imag - lo.imag) / step), _MAX_SIDE))
    xs = np.linspace(lo.real, hi.real, nx + 1)
    ys = np.linspace(lo.imag, hi.imag, ny + 1)

    logp = np.empty((xs.size, ys.size))
    rows = max(1, _CHUNK // (ys.size * max(sp_means.size, nz_means.size)))
    for r in range(0, xs.size, rows):
        S = xs[r:r + rows, None] + 1j * ys[None, :]
        logp[r:r + rows] = (_log_ring_pdf(sp_means, sp_var, S)
                            + _log_ring_pdf(nz_means, nz_var, S))
    w = np.exp(logp - logp.max())
    w /= w.sum()
    S = xs[:, None] + 1j * ys[None, :]
    a, b = np.abs(S), np.abs(S - z)
    mean = np.array([np.sum(w * a), np.sum(w * b)])
    da, db = a - mean[0], b - mean[1]
    cab = np.sum(w * da * db)
    cov = np.array([[np.sum(w * da * da), cab], [cab, np.sum(w * db * db)]])
    return mean, cov


def ring_cell_fault(cell: dict) -> str | None:
    """Check one sampled ``mdkr_cell`` call against the quadrature."""
    mu_s, var_s, mu_n, var_n, z = cell["args"]
    sp = build_ring(mu_s, var_s, 0j, cap=cell["cap"])
    nz = build_ring(mu_n, var_n, z, cap=cell["cap"])
    ref_mu, ref_cov = ring_product_moments(sp.means, sp.var, nz.means, nz.var, z)
    m_err = float(np.max(np.abs(cell["mu"] - ref_mu)) / ref_mu.min())
    scale = np.sqrt(np.outer(np.diag(ref_cov), np.diag(ref_cov)))
    c_err = float(np.max(np.abs(cell["sigma"] - ref_cov) / scale))
    if m_err <= RING_MEAN_TOL and c_err <= RING_COV_TOL:
        return None
    return (f"ring cell {cell['args']}: mean error {m_err:.2e} (tol {RING_MEAN_TOL}), "
            f"covariance error {c_err:.2e} (tol {RING_COV_TOL})")


def gamma_posterior_moments(gamma: float, beta: float, nu2: float, y: float):
    """(mean, variance) of the amplitude posterior by quadrature in ln a.

    Below a0 = 1e-9 of the integration span the likelihood factor equals
    its value at 0 up to O(a0²) (the linear terms of -(a-y)²/ν² and of
    ln i0e cancel), so that tail is integrated in closed form.
    """
    c = 2.0 * gamma
    hi = 12.0 * max(beta * np.sqrt(gamma + 1.0), y, np.sqrt(nu2))
    u0 = np.log(hi) - 9.0 * np.log(10.0)

    def log_g(a):
        return -a * a / beta ** 2 - (a - y) ** 2 / nu2 + np.log(i0e(2.0 * a * y / nu2))

    def log_f(u, k):                      # log of a^(c+k) g(a) at a = e^u
        return (c + k) * u + log_g(np.exp(u))

    # breakpoints at the peak of each moment's integrand and a few widths
    # either side, so adaptive quadrature cannot step over a narrow peak
    coarse = np.linspace(u0, np.log(hi), 4001)
    step = coarse[1] - coarse[0]
    points, ref = set(), -np.inf
    for k in (0, 1, 2):
        fine = coarse[np.argmax(log_f(coarse, k))] + np.linspace(-step, step, 2001)
        vals = log_f(fine, k)
        u_star, top = fine[np.argmax(vals)], np.max(vals)
        ref = max(ref, top)
        h = 1e-3 * step
        d2 = (log_f(u_star + h, k) - 2.0 * top + log_f(u_star - h, k)) / h ** 2
        width = 1.0 / np.sqrt(-d2) if d2 < 0 else step
        for mult in (0.0, -3.0, 3.0, -10.0, 10.0, -30.0, 30.0):
            points.add(float(np.clip(u_star + mult * width, u0, np.log(hi))))
    points = sorted(points - {u0, float(np.log(hi))})
    g0 = -y * y / nu2

    def integral(weight, tail):
        body = quad(lambda u: weight(np.exp(u)) * np.exp(log_f(u, 0) - ref),
                    u0, np.log(hi), points=points, limit=500,
                    epsabs=0.0, epsrel=1e-12)[0]
        return body + tail

    a0 = np.exp(u0)
    tail0 = np.exp(g0 + c * u0 - ref) / c
    z0 = integral(lambda a: 1.0, tail0)
    tail1 = np.exp(g0 + (c + 1.0) * u0 - ref) / (c + 1.0)
    mean = integral(lambda a: a, tail1) / z0
    tail2 = np.exp(g0 + c * u0 - ref) * (mean ** 2 / c - 2.0 * mean * a0 / (c + 1.0)
                                         + a0 ** 2 / (c + 2.0))
    var = integral(lambda a: (a - mean) ** 2, tail2) / z0
    return mean, var


def gamma_cell_fault(cell: dict) -> str | None:
    """Check one sampled ``mdkm_posterior`` element against the quadrature."""
    ref_mean, ref_var = gamma_posterior_moments(cell["gamma"], cell["beta"],
                                                cell["nu2"], cell["y"])
    m_err = abs(cell["mean"] - ref_mean) / ref_mean
    v_err = abs(cell["var"] - ref_var) / ref_var
    if m_err <= GAMMA_MEAN_TOL and v_err <= GAMMA_VAR_TOL:
        return None
    return (f"gamma cell {cell}: mean error {m_err:.2e} (tol {GAMMA_MEAN_TOL}), "
            f"variance error {v_err:.2e} (tol {GAMMA_VAR_TOL})")
