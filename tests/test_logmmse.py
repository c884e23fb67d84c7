"""Tests for the noise tracker and log-spectral amplitude baseline."""
import numpy as np
import pytest
from scipy.ndimage import minimum_filter1d, uniform_filter1d
from scipy.signal import lfilter

from modkalm.logmmse import (
    GAIN_FLOOR,
    SMOOTH_ALPHA,
    NoiseTrack,
    _smooth_power,
    _trailing_min,
    logmmse_enhance,
    logmmse_gain,
    track_noise,
)
from modkalm.stft import FRAME_INC, FRAME_LEN, SAMPLE_RATE, analyze, periodic_hamming

WIN_POWER = (periodic_hamming(FRAME_LEN) ** 2).sum()


def exp_integral_series(x: float, terms: int = 60) -> float:
    """E1 by its alternating series; independent of scipy.special."""
    total = -np.euler_gamma - np.log(x)
    term = 1.0
    for k in range(1, terms + 1):
        term *= -x / k
        total -= term / k
    return total


def gapped_harmonics(n_samples: int, level: float, seed: int = 1) -> np.ndarray:
    """Harmonic stack with utterance-like bursts separated by pauses."""
    t = np.arange(n_samples) / SAMPLE_RATE
    rng = np.random.default_rng(seed)
    sig = np.zeros_like(t)
    for k in range(1, 30):
        sig += np.cos(2 * np.pi * 100 * k * t + rng.uniform(0, 2 * np.pi))
    gate = (np.mod(t, 1.2) < 0.55).astype(float)
    gate = uniform_filter1d(gate, 160)
    return sig * gate * level


class TestGain:
    def test_known_value_at_unit_snr(self):
        e1 = exp_integral_series(1.0)
        assert e1 == pytest.approx(0.21938, abs=1e-5)
        expected = 0.5 * np.exp(0.5 * e1)
        assert logmmse_gain(1.0, 2.0) == pytest.approx(expected, rel=1e-9)
        assert logmmse_gain(1.0, 2.0) == pytest.approx(0.5580, abs=2e-4)

    def test_series_matches_library_on_grid(self):
        # x kept above the point where the raw gain would exceed the clip
        for x in (0.3, 1.0, 2.5, 6.0):
            lib = logmmse_gain(1.0, 2.0 * x)  # v = x
            ours = 0.5 * np.exp(0.5 * exp_integral_series(x, terms=120))
            assert lib == pytest.approx(ours, rel=1e-8)

    def test_floor_engages_at_vanishing_prior_snr(self):
        assert logmmse_gain(0.0, 1.0) == pytest.approx(GAIN_FLOOR)
        assert logmmse_gain(1e-12, 5.0) == pytest.approx(GAIN_FLOOR)

    def test_high_snr_limit(self):
        g = logmmse_gain(1e8, 1e8)
        assert g <= 1.0
        assert g == pytest.approx(1.0, rel=1e-6)

    def test_monotone_in_prior_snr(self):
        xi = np.logspace(-6, 3, 200)
        for gamma in (0.5, 1.0, 2.0, 5.0):
            g = logmmse_gain(xi, np.full_like(xi, gamma))
            assert np.all(np.diff(g) >= -1e-12)

    def test_bounds_on_random_grid(self):
        rng = np.random.default_rng(4)
        g = logmmse_gain(rng.uniform(0, 50, 500), rng.uniform(0, 50, 500))
        assert np.all(g >= GAIN_FLOOR - 1e-15)
        assert np.all(g <= 1.0 + 1e-15)


class TestNoiseTrack:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseTrack(psd=np.ones(5), vad=np.zeros(5, bool))
        with pytest.raises(ValueError):
            NoiseTrack(psd=np.ones((5, 3)), vad=np.zeros(4, bool))
        with pytest.raises(ValueError):
            NoiseTrack(psd=np.zeros((5, 3)), vad=np.zeros(5, bool))

    def test_white_noise_calibration(self):
        rng = np.random.default_rng(0)
        sigma = 0.3
        trk = track_noise(analyze(rng.standard_normal(12 * SAMPLE_RATE) * sigma))
        rel = trk.psd[250:] / (sigma * sigma * WIN_POWER)
        assert abs(np.median(rel) - 1.0) < 0.10
        # the per-bin sliding minimum keeps a few percent of spread even
        # after long averaging
        per_bin = rel.mean(axis=0)
        assert per_bin.min() > 0.75
        assert per_bin.max() < 1.25
        assert trk.vad.mean() > 0.9

    def test_silence_hits_floor_and_flags_everything(self):
        trk = track_noise(analyze(np.zeros(SAMPLE_RATE)))
        assert np.all(trk.psd > 0)
        assert np.ptp(trk.psd) == 0.0
        assert trk.vad.all()

    def test_clean_speech_leakage_stays_low(self):
        sig = gapped_harmonics(4 * SAMPLE_RATE, 0.05)
        spec = analyze(sig)
        trk = track_noise(spec)
        p = spec.amplitude ** 2
        voiced = p.mean(axis=0) > 0.05 * p.mean()
        active = p.mean(axis=1) > 0.1 * p.mean()
        active_power = p[np.ix_(active, voiced)].mean(axis=0)
        leak = trk.psd[-1, voiced] / active_power
        assert leak.max() < 0.10

    def test_vad_separates_burst_from_noise(self):
        rng = np.random.default_rng(5)
        n = 3 * SAMPLE_RATE
        sig = rng.standard_normal(n) * 0.05
        sig[24000:32000] += rng.standard_normal(8000)
        trk = track_noise(analyze(sig))
        inc = FRAME_INC
        burst = np.arange((24000 + FRAME_LEN) // inc + 4, 32000 // inc - 1)
        quiet = np.arange(30, 24000 // inc - 4)
        assert trk.vad[burst].mean() == 0.0
        assert trk.vad[quiet].mean() > 0.9

    def test_tracks_noise_level_change_within_window(self):
        rng = np.random.default_rng(9)
        lo = rng.standard_normal(4 * SAMPLE_RATE) * 0.1
        hi = rng.standard_normal(4 * SAMPLE_RATE) * 1.0
        trk = track_noise(analyze(np.concatenate([lo, hi])))
        n_half = trk.psd.shape[0] // 2
        early = np.median(trk.psd[n_half - 30:n_half])
        late = np.median(trk.psd[-20:])
        assert late > 20 * early  # rises toward the new floor within ~1.5 s


def power_grids(seed):
    """(frames, bins) periodogram-like grids: exponential draws over a wide
    range of scales, some with runs of exact zeros (digital silence)."""
    rng = np.random.default_rng(seed)
    for trial in range(40):
        n = int(rng.integers(1, 420))
        grid = rng.exponential(1.0, (n, int(rng.integers(1, 12))))
        grid *= 10.0 ** rng.uniform(-300, 300)
        if trial % 4 == 0:
            grid[: n // 2] = 0.0
        yield grid


class TestScipyForms:
    """The tracker's numpy forms have the bits of the scipy calls they replace."""

    def test_smoothing_has_the_bits_of_lfilter(self):
        for power in power_grids(1):
            zi = SMOOTH_ALPHA * power[0]
            want, _ = lfilter([1.0 - SMOOTH_ALPHA], [1.0, -SMOOTH_ALPHA], power,
                              axis=0, zi=zi[None, :])
            assert np.array_equal(_smooth_power(power, zi), want)

    @pytest.mark.parametrize("width", [1, 3, 7, 187, 189, 421])
    def test_trailing_min_has_the_bits_of_minimum_filter1d(self, width):
        # origin width // 2 turns the centred window into the trailing one,
        # and 'nearest' padding restricts it to the frames there are
        for x in power_grids(width):
            want = minimum_filter1d(x, size=width, axis=0, mode="nearest", origin=width // 2)
            assert np.array_equal(_trailing_min(x, width), want)


class TestEnhance:
    def test_vanishing_noise_passes_signal_through(self):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        spec = analyze(np.sin(2 * np.pi * 440 * t))
        trk = NoiseTrack(
            psd=np.full(spec.values.shape, 1e-20),
            vad=np.zeros(spec.values.shape[0], bool),
        )
        out = logmmse_enhance(spec, trk)
        assert np.allclose(out, spec.amplitude, rtol=1e-9, atol=1e-12)

    def test_suppresses_noise_only_regions(self):
        rng = np.random.default_rng(3)
        spec = analyze(rng.standard_normal(3 * SAMPLE_RATE) * 0.1)
        trk = track_noise(spec)
        out = logmmse_enhance(spec, trk)
        # skip the final frames, which cover the zero back-padding
        amps = spec.amplitude[200:-8]
        live = amps > 1e-6 * np.median(amps)
        ratio = out[200:-8][live] / amps[live]
        assert np.median(ratio) < 0.5
        assert np.all(ratio <= 1.0 + 1e-12)
        assert np.all(ratio >= GAIN_FLOOR - 1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        spec = analyze(rng.standard_normal(SAMPLE_RATE))
        trk = NoiseTrack(
            psd=np.ones((3, spec.values.shape[1])), vad=np.zeros(3, bool)
        )
        with pytest.raises(ValueError):
            logmmse_enhance(spec, trk)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        sig = rng.standard_normal(SAMPLE_RATE)
        spec = analyze(sig)
        trk = track_noise(spec)
        a = logmmse_enhance(spec, trk)
        b = logmmse_enhance(analyze(sig), track_noise(analyze(sig)))
        assert np.array_equal(a, b)

    def test_keeps_modulated_signal_while_cutting_noise(self):
        # a stationary tone would (rightly) be absorbed into the noise
        # floor; bursty harmonics are what the tracker must let through
        rng = np.random.default_rng(21)
        n = 4 * SAMPLE_RATE
        speech = gapped_harmonics(n, 0.05, seed=21)
        noisy = speech + rng.standard_normal(n) * 0.02
        spec = analyze(noisy)
        out = logmmse_enhance(spec, track_noise(spec))
        p = analyze(speech).amplitude ** 2
        sl = slice(250, -8)  # converged region, clear of the back padding
        strong = p[sl] > 1e-2 * p[sl].max()
        quiet = p[sl] < 1e-8 * p[sl].max()
        gains = out[sl] / np.maximum(spec.amplitude[sl], 1e-30)
        assert np.median(gains[strong]) > 0.8
        assert np.median(gains[quiet]) < 0.3
