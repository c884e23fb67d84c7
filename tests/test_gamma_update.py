"""Tests for the Gamma-prior amplitude posterior."""
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, i0e

from modkalm.gamma_update import (
    GAMMA_MAX,
    GAMMA_MIN,
    GammaPrior,
    fit_gamma_prior,
    mdkm_posterior,
)
from reference import fit_gamma_shape_brentq


def prior_density_moments(gamma, beta):
    """Mean/variance of p(a) ∝ a^(2γ−1) exp(−a²/β²) by direct quadrature."""
    hi = 12 * beta * np.sqrt(gamma + 1)
    z0 = quad(lambda a: a ** (2 * gamma - 1) * np.exp(-(a / beta) ** 2), 0, hi)[0]
    z1 = quad(lambda a: a ** (2 * gamma) * np.exp(-(a / beta) ** 2), 0, hi)[0]
    z2 = quad(lambda a: a ** (2 * gamma + 1) * np.exp(-(a / beta) ** 2), 0, hi)[0]
    m = z1 / z0
    return m, z2 / z0 - m * m


def posterior_moments_oracle(gamma, beta, nu2, y):
    """Log-stabilized quadrature of the tilted posterior density.

    Works directly on a^(2γ−1) e^(−a²/β²) e^(−(a−y)²/ν²) i0e(2ay/ν²): the
    density is located by grid search, then integrated about its peak, so
    narrow spikes at extreme SNRs are not missed.
    """
    nu = np.sqrt(nu2)

    def lng(a):
        a = np.asarray(a, dtype=float)
        return (
            (2 * gamma - 1) * np.log(a)
            - a * a / beta ** 2
            - (a - y) ** 2 / nu2
            + np.log(i0e(2 * a * y / nu2))
        )

    hi = 12 * max(beta * np.sqrt(gamma + 1), y, nu)
    grid = np.concatenate(
        [np.logspace(-12, np.log10(hi), 4000), np.linspace(hi / 4000, hi, 4000)]
    )
    lg = lng(grid)
    i_star = int(np.argmax(lg))
    a_star, s = grid[i_star], lg[i_star]
    h = max(a_star * 1e-3, hi * 1e-6)
    d2 = (lng(a_star + h) - 2 * s + lng(max(a_star - h, h / 2))) / h ** 2
    w = 1 / np.sqrt(-d2) if d2 < 0 else hi / 10
    pts = sorted(
        {
            min(max(p, 0.0), hi)
            for p in (a_star, a_star - 5 * w, a_star + 5 * w, a_star - 20 * w, a_star + 20 * w)
        }
    )

    def moment(k):
        f = lambda a: 0.0 if a == 0 else np.exp(lng(a) - s + k * np.log(a))
        return quad(f, 0, hi, points=pts, limit=400)[0]

    z0, z1, z2 = moment(0), moment(1), moment(2)
    m = z1 / z0
    return m, z2 / z0 - m * m


class TestFitGammaPrior:
    def test_rayleigh_ratio_gives_unit_shape(self):
        # mean²/(mean²+var) = π/4 is exactly the Rayleigh point
        mu = np.sqrt(np.pi)
        var = 4.0 - np.pi
        prior = fit_gamma_prior(mu, var)
        assert prior.gamma == pytest.approx(1.0, abs=1e-10)
        assert prior.beta == pytest.approx(2.0, rel=1e-10)

    def test_zero_mean_clamps_low(self):
        counters = {}
        prior = fit_gamma_prior(0.0, 1.0, counters=counters)
        assert prior.gamma == GAMMA_MIN
        assert counters["gamma_clamped_low"] == 1
        assert prior.beta == pytest.approx(np.sqrt(1.0 / GAMMA_MIN))

    def test_huge_ratio_clamps_high(self):
        counters = {}
        prior = fit_gamma_prior(100.0, 1e-4, counters=counters)
        assert prior.gamma == GAMMA_MAX
        assert counters["gamma_clamped_high"] == 1

    def test_round_trip_against_density_quadrature(self):
        prior = fit_gamma_prior(2.0, 1.0)
        m, v = prior_density_moments(prior.gamma, prior.beta)
        assert m == pytest.approx(2.0, rel=1e-4)
        assert v == pytest.approx(1.0, rel=1e-4)

    def test_moment_reconstruction_accessors(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mu = rng.uniform(0.3, 5.0)
            var = rng.uniform(0.05, 2.0) * mu * mu
            prior = fit_gamma_prior(mu, var)
            if prior.gamma in (GAMMA_MIN, GAMMA_MAX):
                continue
            g = float(prior.gamma)
            mean = prior.beta * float(mpmath.gamma(g + 0.5) / mpmath.gamma(g))
            assert mean == pytest.approx(mu, rel=1e-6)
            assert prior.gamma * prior.beta ** 2 - mean ** 2 == pytest.approx(var, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        mu = rng.uniform(0.1, 8.0, 300)
        var = rng.uniform(0.02, 3.0, 300) * mu * mu
        batch = fit_gamma_prior(mu, var)
        for i in range(0, 300, 17):
            gamma, beta = fit_gamma_shape_brentq(float(mu[i]), float(var[i]))
            assert batch.gamma[i] == pytest.approx(gamma, rel=1e-9)
            assert batch.beta[i] == pytest.approx(beta, rel=1e-9)

    def test_fit_residual_tolerance(self):
        rng = np.random.default_rng(13)
        mu = rng.uniform(0.2, 6.0, 200)
        var = rng.uniform(0.05, 2.0, 200) * mu * mu
        prior = fit_gamma_prior(mu, var)
        r = mu ** 2 / (mu ** 2 + var)
        from modkalm.gamma_update import _log_shape_ratio

        ok = (prior.gamma > GAMMA_MIN) & (prior.gamma < GAMMA_MAX)
        resid = np.abs(np.exp(_log_shape_ratio(prior.gamma[ok])) - r[ok])
        assert resid.max() <= 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_gamma_prior(-1.0, 1.0)
        with pytest.raises(ValueError):
            fit_gamma_prior(1.0, 0.0)


class TestMdkmPosterior:
    def test_rejects_bad_snr_inputs(self):
        prior = GammaPrior(1.0, 1.0)
        with pytest.raises(ValueError, match="noise power must be positive"):
            mdkm_posterior(prior, 0.0, 1.0)
        with pytest.raises(ValueError, match="observed amplitude must be nonnegative"):
            mdkm_posterior(prior, 1.0, -1.0)
        with pytest.raises(ValueError, match="SNRs must be nonnegative"):
            mdkm_posterior(GammaPrior(-0.1, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError, match="SNRs must be finite"):
            mdkm_posterior(GammaPrior(1.0, np.inf), 1.0, 1.0)

    def test_shape_outside_the_kummer_box_is_rejected(self):
        # M(a;1;x) is evaluated up to a = γ + 1, so the box is 0 < γ ≤ 59; a
        # negative or NaN γ is caught one check earlier, by its SNR
        for gamma in (0.0, -2.0, 59.5, 1e4, np.nan):
            with pytest.raises(ValueError):
                mdkm_posterior(GammaPrior(gamma, 1.0), 1.0, 1.0)
        for gamma in (0.0, 59.5, 1e4):
            with pytest.raises(ValueError, match=r"shape must be in \(0, 59\]"):
                mdkm_posterior(GammaPrior(np.array([1.0, gamma]), 1.0), 1.0, 1.0)
        mean, var = mdkm_posterior(GammaPrior(59.0, 1.0), 1.0, 1.0)
        assert np.isfinite(mean) and var > 0

    def test_zero_observation(self):
        # y = 0 is the y → 0⁺ limit, a posterior ∝ prior(a)·e^(−a²/ν²) with
        # scale β'² = ν²ξ/(γ+ξ): mean Γ(γ+½)/Γ(γ)·β', second moment γβ'²
        prior = fit_gamma_prior(1.0, 0.5)
        mean, var = mdkm_posterior(prior, 1.0, 0.0)
        xi = prior.gamma * prior.beta ** 2
        scale2 = xi / (prior.gamma + xi)
        expect = np.exp(gammaln(prior.gamma + 0.5) - gammaln(prior.gamma)) * np.sqrt(scale2)
        assert mean == pytest.approx(expect, rel=1e-12)
        assert var == pytest.approx(prior.gamma * scale2 - expect ** 2, rel=1e-12)
        # no jump at y = 0: a tiny observation gives the same moments
        near_mean, near_var = mdkm_posterior(prior, 1.0, 1e-9)
        assert mean == pytest.approx(near_mean, rel=1e-9)
        assert var == pytest.approx(near_var, rel=1e-9)

    def test_zero_observation_at_the_clamp_matches_quadrature(self):
        # a cell of a real mdkm run at the γ clamp, where the package once
        # gave mean 0 at y = 0 against 0.0017485 at y = 1e-9; QUADPACK's
        # algebraic weight a^(2γ−1) carries the near-1/a singularity at 0 of
        # the limit density a^(2γ−1)·e^(−a²/β²)·e^(−a²/ν²)
        gamma, beta, nu2 = 0.001, 1.685, 1.487
        mean, var = mdkm_posterior(GammaPrior(gamma, beta), nu2, 0.0)
        c = 1 / beta ** 2 + 1 / nu2
        m0, m1, m2 = (quad(lambda a, k=k: a ** k * np.exp(-c * a * a), 0, 40,
                           weight="alg", wvar=(2 * gamma - 1, 0),
                           epsabs=0, epsrel=1e-13, limit=200)[0] for k in range(3))
        assert mean == pytest.approx(m1 / m0, rel=1e-10)
        assert var == pytest.approx(m2 / m0 - (m1 / m0) ** 2, rel=1e-10)
        assert mean == pytest.approx(0.0017485, rel=1e-4)

    def test_rayleigh_prior_against_quadrature(self):
        for xi in (0.1, 1.0, 10.0):
            for zeta in (0.1, 1.0, 10.0):
                beta = np.sqrt(xi)
                y = np.sqrt(zeta)
                om, ov = posterior_moments_oracle(1.0, beta, 1.0, y)
                cm, cv = mdkm_posterior(GammaPrior(1.0, beta), 1.0, y)
                assert cm == pytest.approx(om, rel=1e-4)
                assert cv == pytest.approx(ov, rel=1e-4)

    def test_grid_against_quadrature(self):
        for gamma in np.logspace(np.log10(0.5), np.log10(8), 5):
            for xi in np.logspace(-2, 2, 5):
                for zeta in np.logspace(-2, 2, 5):
                    beta = np.sqrt(xi / gamma)
                    y = np.sqrt(zeta)
                    om, ov = posterior_moments_oracle(gamma, beta, 1.0, y)
                    cm, cv = mdkm_posterior(GammaPrior(gamma, beta), 1.0, y)
                    assert cm == pytest.approx(om, rel=1e-4)
                    assert cv == pytest.approx(ov, rel=1e-4)

    def test_vanishing_noise_tracks_observation(self):
        cm, _ = mdkm_posterior(GammaPrior(1.0, np.sqrt(1e4)), 1.0, 100.0)
        assert cm == pytest.approx(100.0, rel=0.01)

    def test_mean_envelope_and_monotonicity(self):
        prior = fit_gamma_prior(1.5, 0.8)
        ys = np.linspace(0.0, 12.0, 60)
        means = np.array([mdkm_posterior(prior, 0.7, float(y))[0] for y in ys])
        assert np.all(means >= 0)
        assert np.all(means <= ys + 1.5 * (1 + 1e-9))
        assert np.all(np.diff(means) >= -1e-12)

    def test_variance_floor_counted(self):
        # enormous SNR pushes the analytic variance below the relative floor
        counters = {}
        prior = GammaPrior(2.0, 1e5)
        mean, var = mdkm_posterior(prior, 1e-12, 10.0, counters=counters)
        assert mean == pytest.approx(10.0, rel=1e-9)
        assert var == pytest.approx(1e-12 * 100.0, rel=1e-9)
        assert counters.get("posterior_var_floored", 0) == 1

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        gamma = rng.uniform(0.5, 8.0, 40)
        beta = rng.uniform(0.2, 3.0, 40)
        nu2 = rng.uniform(0.1, 2.0, 40)
        y = rng.uniform(0.0, 5.0, 40)
        bm, bv = mdkm_posterior(GammaPrior(gamma, beta), nu2, y)
        for i in range(0, 40, 7):
            sm, sv = mdkm_posterior(
                GammaPrior(float(gamma[i]), float(beta[i])), float(nu2[i]), float(y[i])
            )
            assert bm[i] == pytest.approx(sm, rel=1e-12)
            assert bv[i] == pytest.approx(sv, rel=1e-12)
