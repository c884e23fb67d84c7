"""Tests for modulation-trajectory linear prediction."""
import numpy as np
import pytest
from scipy.signal import lfilter

from modkalm.lpc import (
    frame_model_index,
    levinson_grid,
    noise_lpc_grid,
    prediction_gain,
    speech_lpc_grid,
)
from reference import (
    ModulationLpcModel,
    autocorrelation,
    levinson,
    models_per_frame,
    noise_lpc_track,
    speech_lpc_track,
)

MOD_FRAMES = 8
# the reference noise track's own tests step it by two frames; the package
# steps by one
NOISE_HOP = 2


class TestAutocorrelation:
    def test_constant_sequence(self):
        c, n = 3.0, 16
        r = autocorrelation(np.full(n, c), 4)
        for l in range(5):
            assert r[l] == pytest.approx((n - l) / n * c * c, rel=1e-12)

    def test_unit_impulse(self):
        r = autocorrelation([1.0, 0.0, 0.0, 0.0], 3)
        assert r == pytest.approx([0.25, 0.0, 0.0, 0.0])

    def test_ar1_ratio_converges(self):
        rng = np.random.default_rng(1)
        x = lfilter([1.0], [1.0, -0.9], rng.standard_normal(10_000))
        r = autocorrelation(x, 1)
        assert r[1] / r[0] == pytest.approx(0.9, abs=0.02)

    def test_too_short(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], 2)


class TestLevinson:
    def test_white_sequence(self):
        model = levinson([1.0, 0.0, 0.0, 0.0], 3)
        assert model.coeffs == pytest.approx(np.zeros(3), abs=1e-9)
        assert model.residual_var == pytest.approx(1.0, rel=1e-9)

    def test_exact_ar1(self):
        # autocovariance of x_n = 0.5 x_{n-1} + e_n with unit-variance e
        r = np.array([0.5 ** l for l in range(2)]) / (1 - 0.25)
        model = levinson(r, 1)
        assert model.coeffs[0] == pytest.approx(-0.5, rel=1e-9)
        assert model.residual_var == pytest.approx(1.0, rel=1e-9)
        assert model.predict_next([2.0]) == pytest.approx(1.0, rel=1e-9)

    def test_order_zero(self):
        model = levinson([2.5], 0)
        assert model.coeffs.size == 0
        assert model.residual_var == 2.5

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            levinson([0.0, 0.0], 1)
        with pytest.raises(ValueError):
            levinson([-1.0, 0.0], 1)

    def test_residual_nonincreasing_with_order(self):
        rng = np.random.default_rng(2)
        x = lfilter([1.0], [1.0, -1.2, 0.5], rng.standard_normal(5000))
        r = autocorrelation(x, 6)
        residuals = [levinson(r, m).residual_var for m in range(7)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_order_reduction_on_singular_input(self):
        # perfectly predictable sinusoidal autocorrelation saturates at
        # order 2; the recursion must stop without blowing up
        r = np.cos(0.3 * np.arange(6))
        model = levinson(r, 5)
        assert np.all(np.isfinite(model.coeffs))
        assert model.residual_var >= 0.0

    def test_minimum_phase_on_valid_autocorrelation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(400)
            model = levinson(autocorrelation(x, 4), 4)
            roots = np.roots(np.concatenate([[1.0], model.coeffs]))
            assert np.all(np.abs(roots) < 1.0 + 1e-8)


class TestSpeechTrack:
    def test_constant_track_predicts_itself(self):
        track = speech_lpc_track(np.full(32, 4.2), MOD_FRAMES, 3)
        for tm in track:
            got = tm.model.predict_next([4.2, 4.2, 4.2])
            assert got == pytest.approx(4.2, rel=1e-6)

    def test_recovers_ar2_coefficients(self):
        rng = np.random.default_rng(4)
        b_true = np.array([1.2, -0.6])
        x = 0.0
        # long stationary AR(2) with positive offset, fitted on 64-frame windows
        drive = rng.standard_normal(4000) * 0.05
        x = lfilter([1.0], np.concatenate([[1.0], -b_true]), drive)
        track = speech_lpc_track(x, 64, 2, inc=64)
        recovered = np.median([tm.model.coeffs for tm in track], axis=0)
        assert np.max(np.abs(recovered - (-b_true))) < 0.1

    def test_zero_track_degenerate(self):
        track = speech_lpc_track(np.zeros(16), MOD_FRAMES, 3)
        assert all(tm.model.degenerate for tm in track)
        assert all(tm.model.residual_var == 0.0 for tm in track)

    def test_governing_ranges_tile_the_track(self):
        track = speech_lpc_track(np.arange(1.0, 21.0), MOD_FRAMES, 3)
        per_frame = models_per_frame(track, 20)
        assert len(per_frame) == 20
        assert track[0].first_frame == 0
        assert track[-1].last_frame == 19
        # each interior model governs exactly one frame at increment 1
        assert per_frame[7] is track[0].model
        assert per_frame[8] is track[1].model

    def test_too_short(self):
        with pytest.raises(ValueError):
            speech_lpc_track(np.ones(4), MOD_FRAMES, 3)


class TestNoiseTrack:
    def test_stationary_noise_residual_stabilizes(self):
        # With smoothing 0.9 each accepted window still moves the averaged
        # spectrum by ~10% of the deviation of a fresh 8-point magnitude
        # estimate, and the order-4 residual is a small remainder that
        # amplifies that wobble.  Check the initial transient dies away
        # (late residuals sit well below the flat-init value and wander less
        # than the early ones) rather than asserting a tiny absolute bound.
        rng = np.random.default_rng(5)
        amps = np.abs(rng.standard_normal(400) + 1j * rng.standard_normal(400))
        vad = np.ones(400, dtype=bool)
        track = noise_lpc_track(amps, vad, MOD_FRAMES, 4, inc=NOISE_HOP)
        resid = np.array([tm.model.residual_var for tm in track])
        late = resid[100:]
        assert late.max() < resid[0]
        spread_early = np.ptp(resid[:20]) / np.mean(resid[:20])
        spread_late = np.ptp(late) / np.mean(late)
        assert spread_late < spread_early
        rel_change = np.abs(np.diff(late)) / late[:-1]
        assert np.max(rel_change) < 1.0

    def test_heavier_smoothing_reduces_update_jitter(self):
        rng = np.random.default_rng(5)
        amps = np.abs(rng.standard_normal(400) + 1j * rng.standard_normal(400))
        vad = np.ones(400, dtype=bool)

        def late_jitter(smoothing):
            track = noise_lpc_track(amps, vad, MOD_FRAMES, 4, inc=NOISE_HOP,
                                    smoothing=smoothing)
            resid = np.array([tm.model.residual_var for tm in track])
            late = resid[100:]
            return np.max(np.abs(np.diff(late)) / late[:-1])

        loose, tight = late_jitter(0.9), late_jitter(0.99)
        assert tight < 0.2 * loose
        assert tight < 0.05

    def test_all_speech_freezes_initial_model(self):
        rng = np.random.default_rng(6)
        amps = np.abs(rng.standard_normal(64)) + 1.0
        track = noise_lpc_track(amps, np.zeros(64, dtype=bool), MOD_FRAMES, 4,
                                inc=NOISE_HOP)
        first = track[0].model
        assert all(tm.model is first for tm in track)

    def test_modulated_noise_rewards_higher_order(self):
        rng = np.random.default_rng(7)
        n = 2000
        t = np.arange(n)
        envelope = 1.0 + 0.8 * np.sin(2 * np.pi * t * 0.032)  # 4 Hz at 8 ms hop
        amps = envelope * np.abs(rng.standard_normal(n) * 0.1 + 1.0)
        vad = np.ones(n, dtype=bool)

        def mean_gain(order):
            track = noise_lpc_track(amps, vad, 64, order, inc=2)
            per = models_per_frame(track, n)
            preds = np.array([
                per[i].predict_next(amps[i - 1::-1][:order])
                for i in range(order, n)
            ])
            err = np.sum((amps[order:] - preds) ** 2)
            return np.sum(amps[order:] ** 2) / err

        assert mean_gain(4) > mean_gain(1)

    def test_scale_invariance_of_coefficients(self):
        rng = np.random.default_rng(8)
        amps = np.abs(rng.standard_normal(120)) + 0.5
        vad = np.ones(120, dtype=bool)
        base = noise_lpc_track(amps, vad, MOD_FRAMES, 4, inc=NOISE_HOP)
        scaled = noise_lpc_track(100.0 * amps, vad, MOD_FRAMES, 4, inc=NOISE_HOP)
        for tm_b, tm_s in zip(base, scaled):
            assert tm_s.model.coeffs == pytest.approx(tm_b.model.coeffs,
                                                      rel=1e-9, abs=1e-12)
            assert tm_s.model.residual_var == pytest.approx(
                1e4 * tm_b.model.residual_var, rel=1e-9)

    def test_vad_length_mismatch(self):
        with pytest.raises(ValueError):
            noise_lpc_track(np.ones(20), np.ones(10, dtype=bool), MOD_FRAMES, 4)


class TestPredictionGain:
    def test_exact_prediction_is_infinite(self):
        grid = np.abs(np.random.default_rng(9).standard_normal((50, 4))) + 0.1
        gain = prediction_gain(grid, grid)
        assert np.all(np.isinf(gain))

    def test_zero_prediction_is_zero_db(self):
        grid = np.abs(np.random.default_rng(10).standard_normal((50, 4))) + 0.1
        gain = prediction_gain(grid, np.zeros_like(grid))
        assert gain == pytest.approx(np.zeros(4), abs=1e-12)

    def test_known_error_power(self):
        rng = np.random.default_rng(11)
        clean = np.abs(rng.standard_normal((20000, 3))) + 1.0
        power = np.mean(clean ** 2, axis=0)
        noise = rng.standard_normal(clean.shape) * np.sqrt(power / 100.0)
        gain = prediction_gain(clean, clean + noise)
        assert np.all(np.abs(gain - 20.0) < 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            prediction_gain(np.ones((3, 2)), np.ones((2, 3)))


def test_model_predict_requires_enough_history():
    model = ModulationLpcModel(np.array([-0.5, 0.25]), 1.0, 2)
    with pytest.raises(ValueError):
        model.predict_next([1.0])


class TestGridFits:
    @staticmethod
    def random_grid(rng, n=60, k=7):
        base = np.abs(rng.standard_normal((n, k))) + 0.05
        # slow AR colouring down the frame axis so fits are non-trivial
        return np.abs(lfilter([1.0], [1.0, -0.7], base, axis=0))

    def test_levinson_grid_matches_scalar(self):
        rng = np.random.default_rng(31)
        rows = []
        for _ in range(40):
            x = rng.standard_normal(30)
            rows.append(autocorrelation(x, 4))
        rows.append(np.array([1.0, 0.999999, 0.999998, 0.999997, 0.999996]))
        r = np.array(rows)
        c, e = levinson_grid(r, 4)
        for i in range(r.shape[0]):
            m = levinson(r[i], 4)
            assert c[i] == pytest.approx(m.coeffs, rel=1e-10, abs=1e-12)
            assert e[i] == pytest.approx(m.residual_var, rel=1e-10, abs=1e-15)

    def test_levinson_grid_degenerate_rows(self):
        r = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
        c, e = levinson_grid(r, 2)
        assert np.all(c[0] == 0.0)
        assert e[0] == 0.0
        assert e[1] > 0

    def test_speech_grid_matches_per_bin_track(self):
        rng = np.random.default_rng(33)
        amps = self.random_grid(rng)
        amps[:, 3] = 0.0  # a silent bin
        coeffs, resvar = speech_lpc_grid(amps, MOD_FRAMES, 3)
        for k in range(amps.shape[1]):
            track = speech_lpc_track(amps[:, k], MOD_FRAMES, 3)
            assert len(track) == coeffs.shape[0]
            for j, tm in enumerate(track):
                assert coeffs[j, k] == pytest.approx(tm.model.coeffs,
                                                     rel=1e-10, abs=1e-12)
                assert resvar[j, k] == pytest.approx(tm.model.residual_var,
                                                     rel=1e-10, abs=1e-15)

    def test_noise_grid_matches_per_bin_track(self):
        rng = np.random.default_rng(34)
        amps = self.random_grid(rng, n=50, k=5)
        vad = rng.uniform(size=50) < 0.6
        coeffs, resvar = noise_lpc_grid(amps, vad, MOD_FRAMES, 4)
        for k in range(amps.shape[1]):
            track = noise_lpc_track(amps[:, k], vad, MOD_FRAMES, 4)
            assert len(track) == coeffs.shape[0]
            for j, tm in enumerate(track):
                assert coeffs[j, k] == pytest.approx(tm.model.coeffs,
                                                     rel=1e-10, abs=1e-12)
                assert resvar[j, k] == pytest.approx(tm.model.residual_var,
                                                     rel=1e-10, abs=1e-15)

    def test_frame_index_matches_track_ranges(self):
        rng = np.random.default_rng(35)
        for mlen in (MOD_FRAMES, 6, 3):
            n = 41
            amps = np.abs(rng.standard_normal(n)) + 0.1
            track = speech_lpc_track(amps, mlen, 2)
            per_frame = models_per_frame(track, n)
            idx = frame_model_index(n, mlen, len(track))
            for i in range(n):
                assert per_frame[i] is track[idx[i]].model

    def test_grids_reject_bad_framing(self):
        amps = np.ones((6, 3))
        vad = np.ones(6, dtype=bool)
        for mod_frames in (0, 7):
            with pytest.raises(ValueError, match="mod_frames"):
                speech_lpc_grid(amps, mod_frames, 2)
            with pytest.raises(ValueError, match="mod_frames"):
                noise_lpc_grid(amps, vad, mod_frames, 2)
        with pytest.raises(ValueError, match="grid"):
            speech_lpc_grid(np.ones(6), 4, 2)
        with pytest.raises(ValueError, match="vad"):
            noise_lpc_grid(amps, vad[:5], 4, 2)
        for order in (-1, 4):
            with pytest.raises(ValueError, match="order"):
                speech_lpc_grid(amps, 4, order)
            with pytest.raises(ValueError, match="order"):
                noise_lpc_grid(amps, vad, 4, order)
