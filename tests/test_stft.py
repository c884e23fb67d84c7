"""Analysis/synthesis framing tests: round trips, energy bookkeeping, WAV I/O."""
import wave

import numpy as np
import pytest
from scipy.signal import get_window

from modkalm.stft import (
    FRAME_INC,
    FRAME_LEN,
    SAMPLE_RATE,
    analyze,
    periodic_hamming,
    read_wav,
    synthesize,
    write_wav,
)


class TestFrameConfig:
    """The framing constants and the window they rely on."""

    def test_defaults_match_standard_settings(self):
        assert SAMPLE_RATE == 16000
        assert FRAME_LEN == 512      # 32 ms
        assert FRAME_INC == 128      # 8 ms
        assert analyze(np.ones(FRAME_LEN)).shape[1] == 257
        # the one window: periodic Hamming
        n = np.arange(FRAME_LEN)
        hamming = 0.54 - 0.46 * np.cos(2 * np.pi * n / FRAME_LEN)
        assert periodic_hamming(FRAME_LEN) == pytest.approx(hamming, abs=1e-15)

    def test_window_has_the_bits_of_scipy(self):
        # the numpy form replaces scipy.signal's periodic Hamming window
        for n in range(1, 2049):
            assert np.array_equal(periodic_hamming(n), get_window("hamming", n, fftbins=True))

    def test_from_ms(self):
        # the paper's 32 ms frames every 8 ms, in samples at the package rate
        assert FRAME_LEN == round(32e-3 * SAMPLE_RATE)
        assert FRAME_INC == round(8e-3 * SAMPLE_RATE)

    def test_validation(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            analyze(np.ones(FRAME_LEN - 1))
        amps = np.ones((4, FRAME_LEN // 2))
        with pytest.raises(ValueError, match="the framing gives"):
            synthesize(amps, np.zeros_like(amps), n_samples=FRAME_LEN)

    def test_window_overlap_is_constant(self):
        # the squared periodic Hamming window sums to a constant at 75% overlap
        win2 = periodic_hamming(FRAME_LEN) ** 2
        total = np.zeros(FRAME_LEN * 8)
        for s in range(0, total.size - FRAME_LEN + 1, FRAME_INC):
            total[s:s + FRAME_LEN] += win2
        interior = total[FRAME_LEN:-FRAME_LEN]
        assert np.max(np.abs(interior / interior.mean() - 1.0)) < 1e-10


class TestAnalyze:
    def test_zero_signal(self):
        spect = analyze(np.zeros(4000))
        assert np.all(spect == 0)

    def test_sinusoid_peaks_at_expected_bin(self):
        t = np.arange(16000) / 16000.0
        spect = analyze(np.sin(2 * np.pi * 1000.0 * t))
        # 1 kHz at 512-sample frames -> bin 32; skip padding-dominated edges
        interior = np.abs(spect)[4:-4]
        assert np.all(np.argmax(interior, axis=1) == 32)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6000)
        spect = analyze(x)
        win = periodic_hamming(FRAME_LEN)
        flen, inc = FRAME_LEN, FRAME_INC
        xp = np.concatenate([np.zeros(flen), x,
                             np.zeros(flen + (-(x.size + flen)) % inc)])
        for n in [0, 5, 17, spect.shape[0] - 1]:
            seg = xp[n * inc:n * inc + flen] * win
            two_sided = (np.abs(spect[n, 0]) ** 2
                         + 2 * np.sum(np.abs(spect[n, 1:-1]) ** 2)
                         + np.abs(spect[n, -1]) ** 2)
            want = flen * np.sum(seg ** 2)
            assert two_sided == pytest.approx(want, rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        a, b = 0.7, -1.3
        combined = analyze(a * x + b * y)
        separate = a * analyze(x) + b * analyze(y)
        scale = np.max(np.abs(separate))
        assert np.max(np.abs(combined - separate)) < 1e-12 * scale

    def test_phase_in_principal_range(self):
        rng = np.random.default_rng(5)
        phase = np.angle(analyze(rng.standard_normal(2000)))
        assert np.all(phase > -np.pi - 1e-12)
        assert np.all(phase <= np.pi + 1e-12)

    def test_too_short_signal(self):
        with pytest.raises(ValueError):
            analyze(np.ones(100))
        with pytest.raises(ValueError):
            analyze(np.array([]))


class TestSynthesize:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal(5000)
            spect = analyze(x)
            y = synthesize(np.abs(spect), np.angle(spect), x.size)
            assert y.shape == x.shape
            assert np.max(np.abs(y - x)) < 1e-10

    def test_zero_amplitudes(self):
        spect = analyze(np.ones(3000))
        y = synthesize(np.zeros(spect.shape), np.angle(spect), 3000)
        assert np.all(y == 0)

    def test_halved_amplitudes_scale_output(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4000)
        spect = analyze(x)
        y = synthesize(np.abs(spect) / 2, np.angle(spect), x.size)
        assert np.max(np.abs(y - x / 2)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros((4, 257)), np.zeros((5, 257)), 100)
        with pytest.raises(ValueError):
            synthesize(np.zeros((4, 100)), np.zeros((4, 100)), 100)

    def test_n_samples_beyond_extent_rejected(self):
        spect = analyze(np.ones(3000))
        with pytest.raises(ValueError, match="n_samples"):
            synthesize(np.abs(spect), np.angle(spect), 3000 + 2 * FRAME_LEN)

    def test_negative_amplitude_rejected(self):
        grid = np.zeros((10, 257))
        grid[3, 5] = -1.0
        with pytest.raises(ValueError):
            synthesize(grid, np.zeros_like(grid), 100)


class TestWavIo:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.9, 0.9, 8000)
        path = tmp_path / "t.wav"
        clipped = write_wav(path, x, 16000)
        assert clipped == 0
        y, rate = read_wav(path)
        assert rate == 16000
        assert np.max(np.abs(y - x)) <= 2.0 ** -15

    def test_write_reports_saturation(self, tmp_path):
        x = np.array([0.0, 1.5, -2.0, 0.5])
        clipped = write_wav(tmp_path / "c.wav", x, 16000)
        assert clipped == 2

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(np.zeros(400, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)

    @pytest.mark.parametrize("content, why", [
        (b"", "too short"), (b"plain text, not audio\n", "does not start with RIFF id")])
    def test_not_a_wav_is_a_value_error_naming_the_path(self, tmp_path, content, why):
        path = tmp_path / "text.wav"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{path}: not a WAV file .*{why}"):
            read_wav(path)

    def test_rate_mismatch(self, tmp_path):
        path = tmp_path / "slow.wav"
        write_wav(path, np.zeros(100), 8000)
        with pytest.raises(ValueError, match="sample rate"):
            read_wav(path, expect_rate=16000)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

