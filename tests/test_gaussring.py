"""Tests for the ring-mixture amplitude posterior."""
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, rice

from modkalm.gaussring import (
    DEFAULT_RING_CAP,
    GaussringModel,
    RAYLEIGH_GATE,
    _product_arrays,
    amplitude_moments,
    build_ring,
    mdkr_cell,
    rice_mean,
)
import reference
from reference import (
    NakagamiParams,
    nakagami_from_moments,
    rician_from_nakagami,
)


def sample_ring(model: GaussringModel, n: int, rng) -> np.ndarray:
    comp = rng.integers(0, model.G, n)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(model.var / 2)
    return model.means[comp] + noise


def ring_density(model: GaussringModel, S: np.ndarray) -> np.ndarray:
    dens = np.zeros(S.shape, dtype=float)
    for o in model.means:
        dens += np.exp(-np.abs(S - o) ** 2 / model.var) / (np.pi * model.var)
    return dens / model.G


def product_grid_oracle(speech, noise, z, n=600):
    """Moments of (|S|, |S−z|) under the exact product of the two ring densities."""
    ext = max(
        np.abs(speech.means).max() + 7 * np.sqrt(speech.var),
        np.abs(noise.means).max() + 7 * np.sqrt(noise.var),
    )
    xs = np.linspace(-ext, ext, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    S = X + 1j * Y
    dens = ring_density(speech, S) * ring_density(noise, S)
    dens /= dens.sum()
    a_s, a_n = np.abs(S), np.abs(S - z)
    mu_s = (dens * a_s).sum()
    mu_n = (dens * a_n).sum()
    v_s = (dens * (a_s - mu_s) ** 2).sum()
    v_n = (dens * (a_n - mu_n) ** 2).sum()
    cv = (dens * (a_s - mu_s) * (a_n - mu_n)).sum()
    return np.array([mu_s, mu_n]), np.array([[v_s, cv], [cv, v_n]])


class TestNakagamiFromMoments:
    def test_unit_case(self):
        p = nakagami_from_moments(1.0, 1.0)
        assert p.Omega == pytest.approx(2.0)
        assert p.m == pytest.approx(0.5)

    def test_concentrated_case(self):
        p = nakagami_from_moments(10.0, 1.0)
        assert p.Omega == pytest.approx(101.0)
        assert p.m == pytest.approx(25.25)

    def test_zero_mean(self):
        p = nakagami_from_moments(0.0, 1.0)
        assert p.Omega == pytest.approx(1.0)
        assert p.m == pytest.approx(0.25)

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError):
            nakagami_from_moments(1.0, 0.0)
        with pytest.raises(ValueError):
            nakagami_from_moments(-1.0, 1.0)


class TestRicianFromNakagami:
    def test_moderate_shape(self):
        r = rician_from_nakagami(NakagamiParams(2.0, 1.0))
        assert r.alpha ** 2 == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert r.delta2 == pytest.approx(0.5 * (1 - np.sqrt(0.5)), rel=1e-12)
        assert r.alpha ** 2 + 2 * r.delta2 == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_limit(self):
        r = rician_from_nakagami(NakagamiParams(1e9, 1.0))
        assert r.alpha ** 2 == pytest.approx(1.0, abs=1e-9)
        assert r.delta2 == pytest.approx(0.0, abs=1e-9)

    def test_rejects_low_shape(self):
        with pytest.raises(ValueError):
            rician_from_nakagami(NakagamiParams(1.0, 1.0))

    def test_sampled_moments_round_trip(self):
        r = rician_from_nakagami(NakagamiParams(25.25, 101.0))
        rng = np.random.default_rng(0)
        n = 1_000_000
        v = r.alpha + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(r.delta2)
        amp = np.abs(v)
        assert amp.mean() == pytest.approx(10.0, rel=0.02)
        assert amp.std() == pytest.approx(1.0, rel=0.02)


class TestBuildRing:
    def test_concentrated_count(self):
        model = build_ring(10.0, 1.0)
        assert model.G == 32
        # centres sit on a circle about the origin
        radii = np.abs(model.means)
        assert np.ptp(radii) < 1e-12
        rice = rician_from_nakagami(nakagami_from_moments(10.0, 1.0))
        assert radii[0] == pytest.approx(rice.alpha, rel=1e-12)
        assert model.var == pytest.approx(2 * rice.delta2, rel=1e-12)

    def test_count_formula_property(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            ratio = rng.uniform(RAYLEIGH_GATE, 18.0)
            mu = rng.uniform(0.5, 20.0)
            sigma = mu / ratio
            model = build_ring(mu, sigma * sigma, cap=10_000)
            assert model.G == int(np.ceil(np.pi * mu / sigma))

    def test_gate_boundary(self):
        sigma = 1.0
        below = build_ring((RAYLEIGH_GATE - 1e-6) * sigma, sigma ** 2)
        at = build_ring(RAYLEIGH_GATE * sigma, sigma ** 2)
        assert below.G == 1
        assert at.G == int(np.ceil(np.pi * RAYLEIGH_GATE))

    def test_fallback_matches_rayleigh_moments(self):
        model = build_ring(0.1, 1.0)
        assert model.G == 1
        assert model.means[0] == 0j
        assert model.var == pytest.approx(1.01)
        # Rayleigh amplitude implied by that complex variance
        mean = np.sqrt(np.pi * model.var / 4)
        std = np.sqrt((1 - np.pi / 4) * model.var)
        assert mean == pytest.approx(0.89, abs=0.005)
        assert std == pytest.approx(0.47, abs=0.005)

    def test_fallback_keeps_center(self):
        model = build_ring(0.2, 1.0, center=3 - 2j)
        assert model.G == 1
        assert np.array_equal(model.means, [3 - 2j])

    def test_cap_inflates_variance(self):
        counters = {}
        model = build_ring(30.0, 1.0, counters=counters)
        assert model.G == DEFAULT_RING_CAP
        assert counters["ring_capped"] == 1
        rice = rician_from_nakagami(nakagami_from_moments(30.0, 1.0))
        floor = 2 * (rice.alpha * np.sin(np.pi / DEFAULT_RING_CAP)) ** 2
        assert model.var == pytest.approx(max(2 * rice.delta2, floor))
        assert model.var >= floor

    def test_custom_cap(self):
        model = build_ring(30.0, 1.0, cap=16)
        assert model.G == 16

    def test_sampled_amplitude_fidelity(self):
        rng = np.random.default_rng(0)
        n = 400_000
        for ratio in (2.0, 5.0, 10.0, 20.0):
            model = build_ring(ratio, 1.0)
            amp = np.abs(sample_ring(model, n, rng))
            assert amp.mean() == pytest.approx(ratio, rel=0.02)
            assert amp.std() == pytest.approx(1.0, rel=0.05)

    def test_sampled_phase_uniformity(self):
        # 7-, 32- and 63-component rings look uniform to a 36-bin histogram.
        # The 16-component ring (ratio 5) carries a real ~1% 16-cycle ripple
        # that the binning resolves, so it is only sanity-bounded here.
        crit = chi2.ppf(0.99, 35)
        n = 1_000_000
        for ratio, seed in ((2.0, 1), (10.0, 0), (20.0, 0)):
            rng = np.random.default_rng(seed)
            ph = np.angle(sample_ring(build_ring(ratio, 1.0), n, rng))
            counts, _ = np.histogram(ph, bins=36, range=(-np.pi, np.pi))
            stat = ((counts - n / 36) ** 2 / (n / 36)).sum()
            assert stat < crit
        rng = np.random.default_rng(0)
        ph = np.angle(sample_ring(build_ring(5.0, 1.0), n, rng))
        counts, _ = np.histogram(ph, bins=36, range=(-np.pi, np.pi))
        stat = ((counts - n / 36) ** 2 / (n / 36)).sum()
        assert stat < 3 * crit

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError):
            build_ring(1.0, -1.0)
        with pytest.raises(ValueError):
            build_ring(-1.0, 1.0)


class TestProductComponents:
    def test_coincident_single_gaussians(self):
        a = GaussringModel(1, np.array([1 + 1j]), 1.0)
        b = GaussringModel(1, np.array([1 + 1j]), 1.0)
        w, o, d, _ = _product_arrays(a, b)
        assert len(w) == 1
        assert w[0] == pytest.approx(1.0)
        assert o[0] == pytest.approx(1 + 1j)
        assert d == pytest.approx(0.5)

    def test_uninformative_noise_leaves_speech_ring(self):
        speech = build_ring(5.0, 1.0)
        noise = GaussringModel(1, np.array([0.7 + 0.2j]), 1e12)
        ws, os_, _, _ = _product_arrays(speech, noise)
        assert ws == pytest.approx(np.full(speech.G, 1 / speech.G), rel=1e-6)
        assert np.abs(os_ - speech.means).max() < 1e-6

    def test_random_rings_match_direct_evaluation(self):
        rng = np.random.default_rng(7)
        speech = build_ring(2.9, 1.0)  # 10 components
        noise = build_ring(2.0, 1.0, center=rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2))
        ws, _, _, heaviest = _product_arrays(speech, noise)
        # independent linear-space evaluation of the pairwise weights
        dsum = speech.var + noise.var
        raw = np.empty(len(ws))
        k = 0
        for om in speech.means:
            for on in noise.means:
                raw[k] = np.exp(-abs(om - on) ** 2 / dsum) / (np.pi * dsum * speech.G * noise.G)
                k += 1
        raw /= raw.sum()
        assert np.abs(ws - raw).max() < 1e-10
        assert ws.sum() == pytest.approx(1.0, abs=1e-12)
        assert heaviest == ws.max()

    def test_total_underflow_warns_and_uniformizes(self):
        a = GaussringModel(1, np.array([0j]), 1.0)
        b = GaussringModel(1, np.array([1e200 + 0j]), 1.0)
        with pytest.warns(UserWarning):
            ws, _, _, _ = _product_arrays(a, b)
        assert ws[0] == pytest.approx(1.0)


def polar_cross_moment(o, delta, z):
    """E|S||S−z| for S ~ CN(o, delta) by 2-D quadrature in polar
    coordinates about o; independent of the tilting identity."""
    def ring_mean(r):
        s = lambda ph: o + r * np.exp(1j * ph)
        f = lambda ph: abs(s(ph)) * abs(s(ph) - z)
        return quad(f, 0.0, 2 * np.pi, limit=200, epsabs=0, epsrel=1e-12)[0]
    radial = lambda r: ring_mean(r) * np.exp(-r * r / delta) * 2 * r / delta
    kinks = [abs(o), abs(o - z)]  # the radii at which S passes 0 or z
    return quad(radial, 0.0, 12 * np.sqrt(delta), points=kinks, limit=200,
                epsabs=0, epsrel=1e-11)[0] / (2 * np.pi)


def tilted_cov_quad(o, delta, z):
    """Adaptive quadrature of the covariance integral in its original
    variable u: a converged reference for the fixed node rule (it agrees
    with a 30-digit mpmath evaluation to 1e-7 of sqrt(Var|S|·Var|S−z|))."""
    ma = rice_mean(abs(o) ** 2, delta)

    def f(u):
        ud = 1 + u * delta
        tilt = np.exp(-u * abs(o - z) ** 2 / ud) / ud
        o_u = (o + u * delta * z) / ud
        return u ** -1.5 * tilt * (ma - rice_mean(abs(o_u) ** 2, delta / ud))

    s = 1.0 / (delta + abs(o - z) ** 2)
    # accuracy is asked for relative to the covariance scale: where that is
    # far below E|S|·E|S−z| the bracket carries rounding noise
    mb = rice_mean(abs(o - z) ** 2, delta)
    scale = np.sqrt((delta + abs(o) ** 2 - ma ** 2) * (delta + abs(o - z) ** 2 - mb ** 2))
    tol = dict(epsabs=1e-9 * scale, epsrel=1e-8, limit=200)
    # f ~ u^(-1/2) near 0, so the first piece is integrated in t = √u, where
    # the integrand 2t·f(t²) is flat; below t0 its bracket is lost to
    # cancellation, and the flat value carries the piece instead
    t0 = 1e-4 * np.sqrt(s)
    total = 2 * t0 * t0 * f(t0 * t0)
    total += quad(lambda t: 2 * t * f(t * t), t0, np.sqrt(s), **tol)[0]
    total += quad(f, s, np.inf, **tol)[0]
    return total / (2 * np.sqrt(np.pi))


class TestAmplitudeMoments:
    def test_means_and_variances_match_scipy_rice(self):
        rng = np.random.default_rng(41)
        # scipy's Rician moments turn NaN past shape b ≈ 30, so |o| ≤ 10 here
        o = 10 ** rng.uniform(-2, 1, 40) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        z = 2.0 - 1.5j
        delta = 0.6
        ma, mb, va, vb, _ = amplitude_moments(o, delta, z)
        sd = np.sqrt(delta / 2)  # per-dimension deviation
        for amp, mean, var in ((np.abs(o), ma, va), (np.abs(o - z), mb, vb)):
            law = rice(b=amp / sd, scale=sd)
            assert mean == pytest.approx(law.mean(), rel=1e-12)
            assert var == pytest.approx(law.var(), rel=1e-9)

    @pytest.mark.parametrize("o, delta, z", [
        (1 + 2j, 0.5, 3 + 0j),
        (0.1 - 0.2j, 2.0, 0.3 + 0.1j),
        (5 + 1j, 0.05, 2 - 1j),
        (0.7j, 1.3, 0.7j),
    ])
    def test_cross_moment_matches_polar_quadrature(self, o, delta, z):
        ma, mb, _, _, cov = amplitude_moments(np.array([o]), delta, z)
        ref = polar_cross_moment(o, delta, z)
        assert ma[0] * mb[0] + cov[0] == pytest.approx(ref, rel=1e-6)

    def test_fixed_rule_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            delta = 10 ** rng.uniform(-3, 2)
            o = 10 ** rng.uniform(-2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = 10 ** rng.uniform(-2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            ma, mb, _, _, cov = amplitude_moments(np.array([o]), delta, z)
            ref = tilted_cov_quad(o, delta, z)
            cross = ma[0] * mb[0]
            assert cross + cov[0] == pytest.approx(cross + ref, rel=1e-6)

    def test_scale_equivariance(self):
        o, z, c = np.array([1.5 - 0.4j, -0.2 + 2j]), 0.9 + 0.3j, 6.5
        a = amplitude_moments(o, 0.7, z)
        b = amplitude_moments(c * o, 0.7 * c * c, c * z)
        for x, y, power in zip(a, b, (1, 1, 2, 2, 2)):
            assert y == pytest.approx(c ** power * x, rel=1e-12)


class TestMdkrPosterior:
    def test_double_fallback_matches_classical_estimator(self):
        # both ratios far below the gate: the model is exactly one complex
        # Gaussian per side, and the classical Rayleigh-prior MMSE amplitude
        # estimate can be computed by brute-force 2-D integration
        mu_s, var_s, mu_n, var_n = 0.3, 1.0, 0.4, 2.0
        z = 0.8 + 0.33j
        sp_O, nz_O = mu_s ** 2 + var_s, mu_n ** 2 + var_n
        ext = abs(z) + 8 * np.sqrt(sp_O * nz_O / (sp_O + nz_O))
        xs = np.linspace(-ext, ext, 2401)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        S = X + 1j * Y
        dens = np.exp(-np.abs(S) ** 2 / sp_O - np.abs(S - z) ** 2 / nz_O)
        dens /= dens.sum()
        ref = (dens * np.abs(S)).sum()

        post_mu, post_sigma = mdkr_cell(mu_s, var_s, mu_n, var_n, z)
        assert post_mu[0] == pytest.approx(ref, rel=1e-3)

    def test_double_fallback_larger_observation(self):
        # the same single-Gaussian model farther from the origin, where |S|
        # is far from Rayleigh; the exact Rician component mean keeps the
        # estimate as tight as near the origin
        mu_s, var_s, mu_n, var_n = 0.3, 1.0, 0.4, 2.0
        z = 1.2 + 0.5j
        sp_O, nz_O = mu_s ** 2 + var_s, mu_n ** 2 + var_n
        ext = abs(z) + 8 * np.sqrt(sp_O * nz_O / (sp_O + nz_O))
        xs = np.linspace(-ext, ext, 2401)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        S = X + 1j * Y
        dens = np.exp(-np.abs(S) ** 2 / sp_O - np.abs(S - z) ** 2 / nz_O)
        dens /= dens.sum()
        ref = (dens * np.abs(S)).sum()
        post_mu, post_sigma = mdkr_cell(mu_s, var_s, mu_n, var_n, z)
        assert post_mu[0] == pytest.approx(ref, rel=1e-3)

    def test_zero_observation_symmetric_priors(self):
        post_mu, post_sigma = mdkr_cell(3.0, 1.0, 3.0, 1.0, 0j)
        assert post_mu[0] == pytest.approx(post_mu[1], rel=1e-10)
        assert post_sigma[0, 0] == pytest.approx(post_sigma[1, 1], rel=1e-10)

    def test_concentrated_rings_match_grid_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            r1, r2 = rng.uniform(6, 14, 2)
            mu1, mu2 = rng.uniform(2, 8, 2)
            v1, v2 = (mu1 / r1) ** 2, (mu2 / r2) ** 2
            z = rng.uniform(0.5, 6.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            om, osig = product_grid_oracle(build_ring(mu1, v1), build_ring(mu2, v2, z), z)
            post_mu, post_sigma = mdkr_cell(mu1, v1, mu2, v2, z)
            assert np.abs(post_mu - om).max() / om.min() < 0.02
            scale = np.sqrt(np.outer(np.diag(osig), np.diag(osig)))
            assert (np.abs(post_sigma - osig) / scale).max() < 0.02

    def test_near_gate_rings_match_grid_oracle_loosely(self):
        # close to the Rayleigh gate the rings are few and wide, so the
        # product components overlap heavily; exact per-component moments
        # hold the mixture to the same 2% as the concentrated case
        rng = np.random.default_rng(31)
        for _ in range(4):
            r1, r2 = rng.uniform(2.0, 3.0, 2)
            mu1, mu2 = rng.uniform(2, 6, 2)
            v1, v2 = (mu1 / r1) ** 2, (mu2 / r2) ** 2
            z = rng.uniform(0.5, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            om, osig = product_grid_oracle(build_ring(mu1, v1), build_ring(mu2, v2, z), z)
            post_mu, post_sigma = mdkr_cell(mu1, v1, mu2, v2, z)
            assert np.abs(post_mu - om).max() / om.min() < 0.02
            scale = np.sqrt(np.outer(np.diag(osig), np.diag(osig)))
            assert (np.abs(post_sigma - osig) / scale).max() < 0.02

    def test_rotation_near_invariance(self):
        base_mu, base_sigma = mdkr_cell(4.0, 0.8, 2.5, 0.5, 2.0 + 1.0j)
        for ang in (0.7, 2.1, 4.4):
            rot_mu, rot_sigma = mdkr_cell(4.0, 0.8, 2.5, 0.5,
                                          (2.0 + 1.0j) * np.exp(1j * ang))
            assert np.abs(rot_mu - base_mu).max() / base_mu.max() < 5e-3
            assert np.abs(rot_sigma - base_sigma).max() / np.abs(base_sigma).max() < 5e-3

    def test_scale_equivariance(self):
        c = 3.7
        a_mu, a_sigma = mdkr_cell(2.0, 0.25, 1.5, 0.16, 1.0 + 2.0j)
        b_mu, b_sigma = mdkr_cell(2.0 * c, 0.25 * c * c, 1.5 * c, 0.16 * c * c, (1.0 + 2.0j) * c)
        assert b_mu == pytest.approx(c * a_mu, rel=1e-9)
        assert b_sigma == pytest.approx(c * c * a_sigma, rel=1e-9, abs=1e-9 * np.abs(a_sigma).max())

    def test_posterior_is_psd_and_counts_pruning(self):
        counters = {}
        post_mu, post_sigma = mdkr_cell(8.0, 0.16, 6.0, 0.09, 10.0 + 0j,
                                        counters=counters)
        assert np.linalg.eigvalsh(post_sigma).min() >= 0
        assert counters.get("components_pruned", 0) > 0


class TestScalarBoundary:
    """The enhancer passes Python floats into each cell; numpy scalars must
    give the same bytes, counters and component counts."""

    @pytest.mark.parametrize("args, cap, expect", [
        # both ratios below the gate: a 1×1 product
        ((0.3, 1.0, 0.4, 2.0, 0.8 + 0.33j), DEFAULT_RING_CAP, {"G": (1, 1)}),
        # narrow rings far apart in phase: most products are pruned
        ((8.0, 0.16, 6.0, 0.09, 10.0 + 0j), DEFAULT_RING_CAP, {"pruned": True}),
        # πμ/σ = 94 and 79: both rings capped at 16
        ((30.0, 1.0, 25.0, 1.0, 3.0 - 4.0j), 16, {"G": (16, 16), "capped": 2}),
    ])
    def test_numpy_scalars_match_python_scalars(self, args, cap, expect):
        runs = []
        for real, cplx in ((float, complex), (np.float64, np.complex128)):
            counters, info = {}, {}
            mu, sigma = mdkr_cell(*(real(v) for v in args[:4]), cplx(args[4]),
                                  cap=cap, counters=counters, info=info)
            runs.append((mu.tobytes(), sigma.tobytes(), counters, info))
        assert runs[0] == runs[1]
        _, _, counters, info = runs[0]
        if "G" in expect:
            assert (info["G_speech"], info["G_noise"]) == expect["G"]
        if "pruned" in expect:
            assert counters.get("components_pruned", 0) > 0
        assert counters.get("ring_capped", 0) == expect.get("capped", 0)


class TestReferenceCell:
    """Hand-picked cells on which the package must give the bytes, counters
    and component counts of the plain per-cell evaluation in reference.py
    (every ring cell of a real run is compared in test_enhancer.py)."""

    @staticmethod
    def _run(cell, args, cap):
        counters, info = {}, {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mu, sigma = cell(*args, cap=cap, counters=counters, info=info)
        return mu.tobytes(), sigma.tobytes(), counters, info

    @pytest.mark.parametrize("args, cap, kept", [
        # both ratios below the gate: a 1×1 product
        ((0.3, 1.0, 0.4, 2.0, 0.8 + 0.33j), DEFAULT_RING_CAP, 1),
        # a narrow noise ring far from the origin: pruning leaves one of 13
        ((0.1, 0.01, 2.0, 0.25, -50.0 + 0j), DEFAULT_RING_CAP, 1),
        # πμ/σ = 94 and 79: both rings capped at 16
        ((30.0, 1.0, 25.0, 1.0, 3.0 - 4.0j), 16, 240),
        # the separation of test_total_underflow_warns_and_uniformizes: every
        # weight underflows, and the moments overflow to NaN on both sides
        ((0.0, 1.0, 0.0, 1.0, 1e200 + 0j), DEFAULT_RING_CAP, 1),
    ])
    def test_matches_reference(self, args, cap, kept):
        got = self._run(mdkr_cell, args, cap)
        assert got == self._run(reference.mdkr_cell, args, cap)
        _, _, counters, info = got
        assert info["G_speech"] * info["G_noise"] - counters.get("components_pruned", 0) == kept

