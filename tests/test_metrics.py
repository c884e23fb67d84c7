"""Tests for the segmental SNR metric."""
import numpy as np
import pytest

from modkalm.metrics import SEG_SNR_MAX, SEG_SNR_MIN, SegSnrReport, seg_snr
from modkalm.stft import FRAME_INC, FRAME_LEN


@pytest.fixture
def voice_like():
    rng = np.random.default_rng(0)
    return rng.standard_normal(16000) * 0.3


class TestSegSnr:
    def test_identity_hits_upper_clamp(self, voice_like):
        rep = seg_snr(voice_like, voice_like)
        assert np.all(rep.per_frame == SEG_SNR_MAX)
        assert rep.mean == SEG_SNR_MAX

    def test_matched_noise_power_reads_zero_db(self):
        rng = np.random.default_rng(1)
        clean = rng.standard_normal(8192)
        noise = rng.standard_normal(8192)
        # every frame is whole hops, so matching the power hop by hop
        # matches it exactly in each frame
        assert FRAME_LEN % FRAME_INC == 0
        for s in range(0, 8192, FRAME_INC):
            blk = slice(s, s + FRAME_INC)
            noise[blk] *= np.sqrt((clean[blk] ** 2).sum() / (noise[blk] ** 2).sum())
        rep = seg_snr(clean, clean + noise)
        assert rep.frames_used == (8192 - FRAME_LEN) // FRAME_INC + 1
        assert np.abs(rep.per_frame).max() < 0.01

    def test_zeroed_output_reads_zero_db(self, voice_like):
        rep = seg_snr(voice_like, np.zeros_like(voice_like))
        assert np.abs(rep.per_frame).max() < 1e-9

    def test_scale_invariance(self, voice_like):
        rng = np.random.default_rng(2)
        test = voice_like + rng.standard_normal(voice_like.size) * 0.05
        a = seg_snr(voice_like, test)
        b = seg_snr(voice_like * 37.5, test * 37.5)
        assert b.per_frame == pytest.approx(a.per_frame, rel=1e-12)
        assert b.mean == pytest.approx(a.mean, rel=1e-12)

    def test_lower_clamp(self, voice_like):
        rng = np.random.default_rng(3)
        test = voice_like + rng.standard_normal(voice_like.size) * 1e3
        rep = seg_snr(voice_like, test)
        assert np.all(rep.per_frame == SEG_SNR_MIN)

    def test_silent_frames_excluded(self):
        rng = np.random.default_rng(4)
        clean = np.concatenate([rng.standard_normal(8000), np.zeros(8000)])
        test = clean + rng.standard_normal(16000) * 0.1
        rep = seg_snr(clean, test)
        all_frames = (16000 - FRAME_LEN) // FRAME_INC + 1
        assert rep.frames_used < all_frames
        assert rep.per_frame.size == rep.frames_used

    def test_all_silent_reference_rejected(self):
        with pytest.raises(ValueError):
            seg_snr(np.zeros(4096), np.ones(4096))

    def test_length_mismatch_warns_and_pads(self, voice_like):
        with pytest.warns(UserWarning):
            short = seg_snr(voice_like, voice_like[:-2000])
        with pytest.warns(UserWarning):
            long = seg_snr(voice_like, np.concatenate([voice_like, voice_like[:500]]))
        # matching head, zeros at the tail: early frames clamp high
        assert short.per_frame[0] == SEG_SNR_MAX
        assert short.per_frame[-1] < SEG_SNR_MAX
        assert long.mean == SEG_SNR_MAX

    def test_report_bounds(self, voice_like):
        rng = np.random.default_rng(5)
        test = voice_like + rng.standard_normal(voice_like.size) * 0.2
        rep = seg_snr(voice_like, test)
        assert isinstance(rep, SegSnrReport)
        assert np.all(rep.per_frame >= SEG_SNR_MIN)
        assert np.all(rep.per_frame <= SEG_SNR_MAX)
        assert rep.mean == pytest.approx(rep.per_frame.mean())

    def test_bad_framing_rejected(self, voice_like):
        # the framing is the STFT's; a reference shorter than one frame has
        # no frame to measure
        with pytest.raises(ValueError, match="shorter than one frame"):
            seg_snr(voice_like[:FRAME_LEN - 1], voice_like[:FRAME_LEN - 1])
        assert seg_snr(voice_like[:FRAME_LEN], voice_like[:FRAME_LEN]).frames_used == 1
        with pytest.raises(TypeError, match="frame_len"):
            seg_snr(voice_like, voice_like, frame_len=FRAME_LEN)
