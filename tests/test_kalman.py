"""Tests for the state-space predict/update machinery."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkalm.kalman import KalmanState, predict, psd_project, tally, update
from reference import ModulationLpcModel, build_transition


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))


def make_models(p, q, speech_coeffs=None, noise_coeffs=None, sv=1.0, nv=1.0):
    sc = np.zeros(p) if speech_coeffs is None else np.asarray(speech_coeffs, float)
    nc = np.zeros(q) if noise_coeffs is None else np.asarray(noise_coeffs, float)
    speech = ModulationLpcModel(sc, sv, p)
    noise = ModulationLpcModel(nc, nv, q)
    return speech, noise


class TestBuildTransition:
    def test_copy_predictor(self):
        speech, noise = make_models(3, 0, speech_coeffs=[-1.0, 0.0, 0.0])
        F, Q, D = build_transition(speech, noise)
        assert F[0].tolist() == [1.0, 0.0, 0.0]
        c = np.array([2.5, 2.5, 2.5])
        assert F @ c == pytest.approx(c)

    def test_degenerate_noise_gives_speech_only_layout(self):
        speech, noise = make_models(3, 0, sv=0.7)
        F, Q, D = build_transition(speech, noise)
        assert F.shape == (3, 3)
        assert Q.shape == (1, 1) and Q[0, 0] == 0.7
        assert D.shape == (3, 1)
        assert D[:, 0].tolist() == [1.0, 0.0, 0.0]

    def test_shift_structure(self):
        rng = np.random.default_rng(11)
        p, q = 4, 3
        speech, noise = make_models(
            p, q, speech_coeffs=rng.uniform(-0.4, 0.4, p), noise_coeffs=rng.uniform(-0.4, 0.4, q)
        )
        F, Q, D = build_transition(speech, noise)
        x = rng.standard_normal(p + q)
        y = F @ x
        assert y[1:p] == pytest.approx(x[: p - 1])
        assert y[p + 1 :] == pytest.approx(x[p : p + q - 1])
        assert Q == pytest.approx(np.diag([1.0, 1.0]))
        assert D[0, 0] == 1.0 and D[p, 1] == 1.0 and D.sum() == 2.0

    def test_rejects_order_zero_speech(self):
        speech, noise = make_models(2, 2)
        bad = ModulationLpcModel(np.zeros(0), 1.0, 0)
        with pytest.raises(ValueError):
            build_transition(bad, noise)


class TestPredict:
    def test_deterministic_state(self):
        speech, noise = make_models(2, 1, speech_coeffs=[-0.9, 0.1], noise_coeffs=[-0.5])
        F, Q, D = build_transition(speech, noise)
        W0 = D @ np.zeros_like(Q) @ D.T
        st = KalmanState(np.array([1.0, 2.0, 3.0]), np.zeros((3, 3)), 2, 1)
        pred, mu, Sigma = predict(st, F, W0)
        assert pred.P == pytest.approx(np.zeros((3, 3)))
        assert Sigma == pytest.approx(np.zeros((2, 2)))
        fa = F @ st.a
        assert mu == pytest.approx(np.maximum(fa[[0, 2]], 0.0))

    def test_identity_transition_adds_unit_variance(self):
        rng = np.random.default_rng(3)
        p, q = 2, 2
        n = p + q
        P = random_spd(rng, n)
        st = KalmanState(np.abs(rng.standard_normal(n)), P, p, q)
        D = np.zeros((n, 2))
        D[0, 0] = D[p, 1] = 1.0
        _, _, Sigma = predict(st, np.eye(n), D @ np.eye(2) @ D.T)
        expected = P[np.ix_([0, p], [0, p])] + np.eye(2)
        assert Sigma == pytest.approx(expected, rel=1e-12)

    def test_prior_covariance_matches_sampling(self):
        rng = np.random.default_rng(17)
        p, q = 3, 2
        n = p + q
        speech, noise = make_models(
            p, q,
            speech_coeffs=rng.uniform(-0.3, 0.3, p),
            noise_coeffs=rng.uniform(-0.3, 0.3, q),
            sv=0.8, nv=1.7,
        )
        F, Q, D = build_transition(speech, noise)
        a = np.abs(rng.standard_normal(n)) + 1.0
        P = random_spd(rng, n, 0.5)
        st = KalmanState(a, P, p, q)
        _, mu, Sigma = predict(st, F, D @ Q @ D.T)

        m = 1_000_000
        x = rng.multivariate_normal(a, P, size=m)
        e = rng.standard_normal((m, 2)) * np.sqrt(np.diag(Q))
        y = x @ F.T + e @ D.T
        emp = np.cov(y[:, [0, p]], rowvar=False)
        scale = np.sqrt(np.outer(np.diag(emp), np.diag(emp)))
        assert np.all(np.abs(emp - Sigma) <= 0.01 * scale)
        assert y[:, [0, p]].mean(axis=0) == pytest.approx(mu, abs=0.01 * mu.max())

    def test_negative_mean_clamped_and_counted(self):
        speech, noise = make_models(1, 1, speech_coeffs=[0.9], noise_coeffs=[-0.5])
        F, Q, D = build_transition(speech, noise)
        st = KalmanState(np.array([1.0, 1.0]), np.eye(2), 1, 1)
        counters = {}
        pred, mu, _ = predict(st, F, D @ Q @ D.T, counters=counters)
        assert pred.a[0] == pytest.approx(-0.9)  # raw state keeps the sign
        assert mu[0] == 0.0
        assert mu[1] == pytest.approx(0.5)
        assert counters["prior_mean_clamped"] == 1

    def test_shape_mismatch_rejected(self):
        st = KalmanState(np.zeros(3), np.eye(3), 2, 1)
        with pytest.raises(ValueError):
            predict(st, np.eye(4), np.zeros((4, 4)))

    @pytest.mark.parametrize("q", [0, 4])
    def test_covariance_is_the_excitation_form_bitwise(self, q):
        # W = D Q Dᵀ is exact for a 0/1 excitation map and a diagonal Q, so
        # F P Fᵀ + W keeps every bit of F P Fᵀ + D Q Dᵀ
        rng = np.random.default_rng(q)
        p, n, rows = 3, 3 + q, 16
        F, Q, D = (np.stack(m) for m in zip(*(
            build_transition(*make_models(
                p, q, speech_coeffs=rng.uniform(-0.9, 0.9, p),
                noise_coeffs=rng.uniform(-0.9, 0.9, q),
                sv=rng.uniform(0.1, 2.0), nv=rng.uniform(0.1, 2.0)))
            for _ in range(rows))))
        P = np.stack([random_spd(rng, n, rng.uniform(0.1, 10.0)) for _ in range(rows)])
        st = KalmanState(rng.uniform(0.5, 2.0, (rows, n)), P, p, q)
        Dt = np.swapaxes(D, -1, -2)
        pred, _, _ = predict(st, F, D @ Q @ Dt)
        want = F @ P @ np.swapaxes(F, -1, -2) + D @ Q @ Dt
        want = 0.5 * (want + np.swapaxes(want, -1, -2))
        assert np.array_equal(pred.P, want)


ROW_KINDS = ("healthy", "ill", "indefinite", "zero")
# a 1x1 Σ has condition number 1, so the speech-only layout has no "ill" row
SPEECH_ONLY_KINDS = ("healthy", "indefinite", "zero", "nonfinite")


def mixed_row(rng, kind, p, q):
    """State a, P, prior (μ, Σ) and posterior (μ, Σ) of one update row:
    ``healthy``; ``ill`` (picked rows of P nearly parallel, cond(Σ) ~ 1e18,
    so q > 0 only); ``indefinite`` (indefinite posterior Σ, so the updated
    P is too); ``zero`` (prior Σ of zeros, which has no inverse);
    ``nonfinite`` (prior Σ of infinities)."""
    n = p + q
    sel = [0, p] if q else [0]
    d = len(sel)
    B = rng.standard_normal((n, n))
    if kind == "ill":
        B[p] = 0.7 * B[0] + 1e-9 * rng.standard_normal(n)
    P = B @ B.T + (0.0 if kind == "ill" else n) * np.eye(n)
    a = np.abs(rng.standard_normal(n)) + 1.0
    mu, Sigma = a[sel], P[np.ix_(sel, sel)]
    mu_post, Sigma_post = mu * rng.uniform(0.5, 1.2, d), 0.6 * Sigma
    if kind == "indefinite":
        Sigma_post = np.diag([1.0, -0.5][-d:]) * np.trace(Sigma)
    if kind == "zero":
        Sigma = np.zeros((d, d))
    if kind == "nonfinite":
        Sigma = np.full((d, d), np.inf)
    return a, P, mu, Sigma, mu_post, Sigma_post


def conditioned_on_sum(u, Sigma, y, R):
    """Posterior of u ~ N(u0, Sigma) given y = sum(u) + N(0, R): textbook form."""
    h = np.ones(len(u))
    S = h @ Sigma @ h + R
    K = Sigma @ h / S
    mu_post = u + K * (y - h @ u)
    Sigma_post = Sigma - np.outer(K, h @ Sigma)
    return mu_post, 0.5 * (Sigma_post + Sigma_post.T)


def classical_kalman(a, P, sel, y, R):
    """Gain-form update of the full state for the same scalar observation."""
    h = np.zeros(len(a))
    h[sel] = 1.0
    S = h @ P @ h + R
    K = P @ h / S
    a_post = a + K * (y - h @ a)
    P_post = P - np.outer(K, h @ P)
    return a_post, 0.5 * (P_post + P_post.T)


class TestUpdate:
    def test_posterior_equal_prior_is_identity(self):
        rng = np.random.default_rng(23)
        p, q = 3, 2
        n = p + q
        st = KalmanState(np.abs(rng.standard_normal(n)) + 0.5, random_spd(rng, n), p, q)
        speech, noise = make_models(p, q)
        F, Q, D = build_transition(speech, noise)
        pred, mu, Sigma = predict(st, F, D @ Q @ D.T)
        out = update(pred, Sigma, mu.copy(), Sigma.copy())
        assert out.a == pytest.approx(pred.a, abs=1e-12)
        assert out.P == pytest.approx(pred.P, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_classical_kalman(self, seed):
        rng = np.random.default_rng(seed)
        p, q = 3, 2
        n = p + q
        a = np.abs(rng.standard_normal(n)) + 1.0
        P = random_spd(rng, n, 0.4)
        st = KalmanState(a, P, p, q)
        sel = [0, p]
        R = float(rng.uniform(0.1, 2.0))
        y = float(a[sel].sum() + rng.standard_normal())

        mu_post, Sigma_post = conditioned_on_sum(a[sel], P[np.ix_(sel, sel)], y, R)
        out = update(st, P[np.ix_(sel, sel)], mu_post, Sigma_post)

        a_ref, P_ref = classical_kalman(a, P, sel, y, R)
        assert out.a == pytest.approx(a_ref, abs=1e-9)
        assert out.P == pytest.approx(P_ref, abs=1e-9)

    def test_matches_classical_kalman_speech_only(self):
        rng = np.random.default_rng(9)
        p = 4
        a = np.abs(rng.standard_normal(p)) + 1.0
        P = random_spd(rng, p, 0.3)
        st = KalmanState(a, P, p, 0)
        R = 0.6
        y = float(a[0] + 0.4)
        mu_post, Sigma_post = conditioned_on_sum(a[:1], P[:1, :1], y, R)
        out = update(st, P[:1, :1], mu_post, Sigma_post)
        a_ref, P_ref = classical_kalman(a, P, [0], y, R)
        assert out.a == pytest.approx(a_ref, abs=1e-9)
        assert out.P == pytest.approx(P_ref, abs=1e-9)

    @pytest.mark.parametrize("p, q, d", [(3, 2, 1), (3, 2, 3), (3, 0, 2)])
    def test_moment_dimension_must_match_the_layout(self, p, q, d):
        st = KalmanState(np.ones(p + q), np.eye(p + q), p, q)
        good = 2 if q else 1
        with pytest.raises(ValueError, match="moment dimension"):
            update(st, np.eye(good), np.ones(d), np.eye(d))
        with pytest.raises(ValueError, match="moment dimension"):
            update(st, np.eye(d), np.ones(good), np.eye(good))

    def test_speech_only_covariance_step_is_rank_one(self):
        rng = np.random.default_rng(31)
        p = 3
        st = KalmanState(np.abs(rng.standard_normal(p)) + 1.0, random_spd(rng, p), p, 0)
        Sigma = st.P[:1, :1]
        out = update(st, Sigma, st.a[:1] * 0.8, Sigma * 0.5)
        step = out.P - st.P
        assert np.linalg.matrix_rank(step, tol=1e-10) == 1

    def test_posterior_block_lands_in_state_covariance(self):
        rng = np.random.default_rng(41)
        p, q = 3, 2
        n = p + q
        st = KalmanState(np.abs(rng.standard_normal(n)) + 1.0, random_spd(rng, n), p, q)
        speech, noise = make_models(p, q)
        F, Q, D = build_transition(speech, noise)
        pred, mu, Sigma = predict(st, F, D @ Q @ D.T)
        Sigma_post = 0.5 * Sigma + 0.1 * np.eye(2)
        mu_post = mu * 0.9
        out = update(pred, Sigma, mu_post, Sigma_post)
        block = out.P[np.ix_([0, p], [0, p])]
        assert block == pytest.approx(Sigma_post, abs=1e-10)
        assert out.a[[0, p]] == pytest.approx(mu_post, abs=1e-12)

    def test_shrinking_posterior_never_inflates_picked_variances(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            p, q = 3, 2
            n = p + q
            st = KalmanState(np.abs(rng.standard_normal(n)) + 1.0, random_spd(rng, n), p, q)
            sel = [0, p]
            Sigma = st.P[np.ix_(sel, sel)]
            shrink = random_spd(rng, 2, 0.05)
            Sigma_post = Sigma - shrink
            if np.linalg.eigvalsh(Sigma_post).min() <= 0:
                continue
            out = update(st, Sigma, st.a[sel], Sigma_post)
            assert np.all(np.diag(out.P)[sel] <= np.diag(st.P)[sel] + 1e-12)

    def test_near_singular_prior_sigma_regularized(self):
        p, q = 2, 1
        n = p + q
        P = np.eye(n) * 1e-16
        P[0, 0] = 1.0
        st = KalmanState(np.ones(n), P, p, q)
        sel = [0, p]
        Sigma = P[np.ix_(sel, sel)]
        counters = {}
        out = update(st, Sigma, st.a[sel] * 1.1, Sigma, counters=counters)
        assert counters.get("sigma_regularized", 0) == 1
        assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.P))

    def test_no_spurious_projection_on_clean_input(self):
        rng = np.random.default_rng(67)
        p, q = 3, 2
        n = p + q
        st = KalmanState(np.abs(rng.standard_normal(n)) + 1.0, random_spd(rng, n), p, q)
        sel = [0, p]
        Sigma = st.P[np.ix_(sel, sel)]
        mu_post, Sigma_post = conditioned_on_sum(st.a[sel], Sigma, 3.0, 0.5)
        counters = {}
        update(st, Sigma, mu_post, Sigma_post, counters=counters)
        assert counters.get("psd_projected", 0) == 0

    @pytest.mark.parametrize("rel_eigmin", [-1e-12, -1e-7])
    def test_projection_decision_is_scale_free(self, rel_eigmin):
        # picked pair uncoupled from the rest, so the updated P is
        # blockdiag(Σ_post, P_rest) and its smallest eigenvalue is rel_eigmin
        # times its largest; P is in amplitude², so scaling it by c scales
        # the amplitudes by √c and must not change the decision
        p, q = 2, 1
        P = np.diag([1.0, 0.7, 0.5])
        sel = [0, p]
        mu = np.array([1.0, 0.5])
        mu_post, Sigma_post = mu * 0.9, np.diag([1.0, rel_eigmin])
        projected = []
        for c in (1e-4, 1.0, 1e4):
            counters = {}
            update(KalmanState(np.sqrt(c) * np.ones(3), c * P, p, q), c * P[np.ix_(sel, sel)],
                   np.sqrt(c) * mu_post, c * Sigma_post, counters)
            projected.append(counters.get("psd_projected", 0))
        assert projected in ([0, 0, 0], [1, 1, 1])

    @staticmethod
    def check_batched_matches_loop(p, q, kinds, seed):
        rng = np.random.default_rng(seed)
        a, P, _, Sigma, mu_post, Sigma_post = (
            np.stack(col) for col in zip(*(mixed_row(rng, kind, p, q) for kind in kinds)))
        counters = {}
        out = update(KalmanState(a, P, p, q), Sigma, mu_post, Sigma_post, counters)
        loop_counters = {}
        for b, kind in enumerate(kinds):
            single = update(KalmanState(a[b], P[b], p, q), Sigma[b], mu_post[b],
                            Sigma_post[b], loop_counters)
            if kind in ("zero", "nonfinite"):
                assert np.isnan(out.a[b]).all() and np.isnan(out.P[b]).all()
                assert np.isnan(single.a).all() and np.isnan(single.P).all()
                continue
            if kind == "ill":
                assert np.linalg.cond(Sigma[b]) > 1e12
            assert np.array_equal(out.a[b], single.a)
            assert np.array_equal(out.P[b], single.P)
            assert np.isfinite(out.a[b]).all() and np.isfinite(out.P[b]).all()
        assert counters == loop_counters
        assert counters.get("sigma_regularized", 0) == kinds.count("ill")
        assert counters.get("psd_projected", 0) >= kinds.count("indefinite")

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=6).flatmap(
               lambda extra: st.permutations(list(ROW_KINDS) + extra)),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_matches_loop(self, kinds, seed):
        # each row is updated as if it were alone, whatever its neighbours:
        # healthy rows next to an ill-conditioned Σ, an indefinite updated P
        # and a zero Σ, which comes back NaN instead of raising
        self.check_batched_matches_loop(3, 2, kinds, seed)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(kinds=st.lists(st.sampled_from(SPEECH_ONLY_KINDS), max_size=6).flatmap(
               lambda extra: st.permutations(list(SPEECH_ONLY_KINDS) + extra)),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_matches_loop_speech_only(self, kinds, seed):
        # the mdkm layout (q = 0, a 1x1 Σ): healthy rows next to a zero and
        # an infinite Σ, which come back NaN, and an indefinite updated P
        self.check_batched_matches_loop(3, 0, kinds, seed)


    @pytest.mark.parametrize("q", [0, 4])
    def test_state_stays_c_contiguous(self, q):
        # predict's einsum and matmul round by memory layout, so the state the
        # frame loop carries from update into the next predict keeps C order,
        # on dead (zero Σ) and PSD-projected rows too
        rng = np.random.default_rng(q)
        p, kinds = 3, ["healthy", "zero", "indefinite", "healthy"]
        a, P, _, Sigma, mu_post, Sigma_post = (
            np.stack(col) for col in zip(*(mixed_row(rng, kind, p, q) for kind in kinds)))
        n = p + q
        F = np.tile(0.9 * np.eye(n), (len(kinds), 1, 1))
        W = np.tile(0.1 * np.eye(n), (len(kinds), 1, 1))
        counters = {}
        out = update(KalmanState(a, P, p, q), Sigma, mu_post, Sigma_post, counters)
        pred, _, _ = predict(out, F, W)
        assert counters["psd_projected"] >= 1
        assert np.isnan(out.a[1]).all()
        for arr in (out.a, out.P, pred.a, pred.P):
            assert arr.flags.c_contiguous


class TestPsdCertificate:
    """The Cholesky certificate in ``update`` decides as ``eigvalsh`` alone."""

    LAYOUTS = {1: (1, 0), 3: (3, 0), 7: (3, 4)}
    KINDS = ("pd", "singular", "neg1e-9", "neg1e-11", "nan")
    # "overflow" is indefinite, but its factor overflows to inf and NaN
    # instead of failing (0·inf on a zero entry), so only a finite factor
    # may certify; it needs three unpicked indices, so n = 7 only
    KINDS_7 = KINDS + ("overflow",)
    # projected rows per three copies of each kind: "neg1e-9", plus
    # "neg1e-11" at n = 1 (a negative 1x1 row is indefinite at any scale)
    # and "overflow" at n = 7
    PROJECTED = {1: 6, 3: 3, 7: 6}

    @staticmethod
    def row(rng, n, kind):
        # a symmetric P with the given eigenvalue pattern; with the
        # posterior equal to the prior, update leaves P as it is
        if kind == "overflow":
            P = np.eye(n)
            P[1, 1], P[1, 4], P[4, 1] = 1e-300, 1e300, 1e300
            return P
        lam = rng.uniform(0.5, 2.0, n)
        if kind == "singular":
            lam[0] = 0.0
        elif kind.startswith("neg"):
            lam[0] = -float(kind[3:]) * lam.max()
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P = (V * lam) @ V.T
        P = 0.5 * (P + P.T)
        if kind == "nan":
            P[-1, -1] = np.nan
        return P

    def run(self, n, kinds, seed):
        p, q = self.LAYOUTS[n]
        rng = np.random.default_rng(seed)
        P = np.stack([self.row(rng, n, kind) for kind in kinds])
        a = rng.uniform(0.5, 2.0, (len(kinds), n))
        sel = [0, p] if q else [0]
        Sigma = P[:, sel][:, :, sel]
        counters = {}
        out = update(KalmanState(a, P, p, q), Sigma, a[:, sel], Sigma, counters)
        return out, counters.get("psd_projected", 0)

    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_result_as_eigvalsh_alone(self, n, seed, monkeypatch):
        kinds = self.KINDS_7 if n == 7 else self.KINDS
        kinds = list(np.random.default_rng(seed).permutation(kinds * 3))
        out, projected = self.run(n, kinds, seed)

        def refuse(P):
            raise np.linalg.LinAlgError("forced")
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        ref, ref_projected = self.run(n, kinds, seed)
        assert out.a.tobytes() == ref.a.tobytes()
        assert out.P.tobytes() == ref.P.tobytes()
        assert projected == ref_projected == self.PROJECTED[n]

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_certified_batch_skips_eigvalsh(self, n, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda P: calls.append(1) or eigvalsh(P))
        _, projected = self.run(n, ["pd", "nan", "pd", "pd"], 5)
        assert projected == 0 and not calls
        self.run(n, ["pd", "neg1e-9", "pd"], 5)
        assert calls

    def test_overflowing_factor_is_no_certificate(self):
        # the batch's one indefinite row factors without raising
        _, projected = self.run(7, ["pd", "overflow", "nan", "pd"], 5)
        assert projected == 1


class TestPsdProject:
    def test_clamps_negative_eigenvalue(self):
        P = np.array([[1.0, 0.0], [0.0, -0.5]])
        out = psd_project(P)
        assert np.linalg.eigvalsh(out).min() >= 0
        assert out == pytest.approx(np.diag([1.0, 0.0]))

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(5)
        P = random_spd(rng, 4)
        assert psd_project(P) == pytest.approx(P, rel=1e-12)


class TestContainers:
    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            KalmanState(np.zeros(3), np.eye(3), 2, 2)
        with pytest.raises(ValueError):
            KalmanState(np.zeros(4), np.eye(3), 2, 2)
        with pytest.raises(ValueError):
            KalmanState(np.zeros(2), np.eye(2), 0, 2)


class TestTally:
    def test_counts_and_masks_into_one_dict(self):
        counters = {}
        tally(counters, "a")
        tally(counters, "a", np.int64(4))        # numpy's count_nonzero type
        tally(counters, "b", np.array([[True, False], [True, True]]))
        tally(counters, "c", np.zeros(3, dtype=bool))
        tally(counters, "d", np.bool_(True))     # a 0-d comparison
        tally(None, "a", 7)
        assert counters == {"a": 5, "b": 3, "d": 1}

    def test_a_list_of_dicts_splits_the_rows_in_equal_shares(self):
        runs = [{}, {"b": 1}, {}]
        rows = np.array([[True, True], [False, False],    # run 0
                         [False, True], [True, True],     # run 1
                         [False, False], [False, False]])  # run 2
        tally(runs, "b", rows)
        tally(runs[:2], "c", np.array([False, True, True, True]))
        assert runs == [{"b": 2, "c": 1}, {"b": 4, "c": 2}, {}]
