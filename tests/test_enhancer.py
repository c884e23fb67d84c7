"""End-to-end tests for the modulation-domain Kalman enhancer."""
import warnings

import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d
from scipy.signal import lfilter

import modkalm.enhancer as enh
import modkalm.gamma_update as gamma_update
from modkalm.enhancer import (Diagnostics, EnhancerConfig, Mode, diagnose, diagnose_batch,
                              enhance)
from modkalm.gaussring import DEFAULT_RING_CAP
from modkalm.logmmse import logmmse_enhance, track_noise
from modkalm.metrics import seg_snr
from modkalm.stft import FRAME_LEN, analyze, synthesize
import reference

RATE = 16000


def voiced_babble(seed: int, dur: float = 1.4, depth: float = 0.55) -> np.ndarray:
    """Harmonic stack whose log-envelope follows a slow AR(3) walk.

    The envelope bandwidth sits in the few-hertz range where the
    modulation-domain speech model has real predictive traction, so the
    Kalman stages behave as they would on actual speech syllables.
    """
    rng = np.random.default_rng(seed)
    n = int(RATE * dur)
    t = np.arange(n) / RATE
    f0 = rng.uniform(90, 200)
    sig = np.zeros(n)
    for h in range(1, 40):
        freq = f0 * h
        if freq > 7000:
            break
        sig += rng.uniform(0.3, 1.0) / h * np.cos(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    n_env = n // 128 + 2
    walk = lfilter([1.0], [1.0, -1.6, 0.64, 0.09], rng.standard_normal(n_env))
    walk = walk / np.std(walk) * depth
    sig *= np.exp(np.interp(np.arange(n) / 128.0, np.arange(n_env), walk))
    return sig / np.sqrt(np.mean(sig**2))


def add_white(speech: np.ndarray, seed: int, snr_db: float) -> np.ndarray:
    rng = np.random.default_rng(seed + 99991)
    noise = rng.standard_normal(speech.size)
    noise *= np.sqrt(np.sum(speech**2) / np.sum(noise**2) / 10 ** (snr_db / 10))
    return speech + noise


def gated_utterance(seed: int, dur: float = 1.6) -> np.ndarray:
    """Clean harmonic phrase with hard pauses and a silent lead-in."""
    rng = np.random.default_rng(seed)
    n = int(RATE * dur)
    t = np.arange(n) / RATE
    f0 = rng.uniform(100, 180)
    sig = sum(
        np.cos(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi)) / h
        for h in range(1, 30)
        if f0 * h < 7600
    )
    env = np.clip(np.sin(2 * np.pi * 2.7 * t + rng.uniform(0, 2 * np.pi)), 0, None) ** 0.7
    gate = (np.sin(2 * np.pi * 0.9 * t + 1.0) > -0.55).astype(float)
    sig = sig * uniform_filter1d(env * gate, 400)
    sig[: int(0.3 * RATE)] = 0.0
    sig[-int(0.1 * RATE):] = 0.0
    return sig / np.sqrt(np.mean(sig**2))


def state_layouts(monkeypatch, mode) -> set:
    """The (p, q) of every state the frame loop predicts from in ``mode``."""
    real = enh.predict
    seen = set()

    def spy(state, *args, **kwargs):
        seen.add((state.p, state.q))
        return real(state, *args, **kwargs)

    monkeypatch.setattr(enh, "predict", spy)
    diagnose(add_white(voiced_babble(1, dur=0.3), 1, 5.0), RATE, EnhancerConfig(mode=mode))
    return seen


class TestConfig:
    def test_defaults(self, monkeypatch):
        cfg = EnhancerConfig()
        assert cfg.mode is Mode.MDKR
        assert (enh.MOD_FRAMES, enh.SPEECH_ORDER, enh.NOISE_ORDER) == (8, 3, 4)
        assert state_layouts(monkeypatch, cfg.mode) == {(3, 4)}

    def test_mdkm_has_no_noise_rows(self, monkeypatch):
        assert state_layouts(monkeypatch, Mode.MDKM) == {(3, 0)}

    # the orders are constants, so a config that asks for others is refused
    def test_mdkm_rejects_noise_rows(self):
        with pytest.raises(TypeError, match="noise_order"):
            EnhancerConfig(mode=Mode.MDKM, noise_order=4)

    def test_mdkr_rejects_zero_noise_rows(self):
        with pytest.raises(TypeError, match="noise_order"):
            EnhancerConfig(mode=Mode.MDKR, noise_order=0)

    def test_bad_orders(self):
        with pytest.raises(TypeError, match="speech_order"):
            EnhancerConfig(speech_order=0)
        with pytest.raises(TypeError, match="speech_order"):
            EnhancerConfig(speech_order=8, mod_frames=8)


class TestInputContract:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            enhance(np.array([]), RATE, EnhancerConfig())

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enhance(np.zeros(4000), 8000, EnhancerConfig())

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("fill", [0.0, 0.5], ids=["silent", "non-silent"])
    def test_shorter_than_one_frame_rejected(self, mode, fill):
        # silence is no exception: the all-zero shortcut comes after the check
        cfg = EnhancerConfig(mode=mode)
        for n in (1, 100, FRAME_LEN - 1):
            for run in (enhance, diagnose):
                with pytest.raises(ValueError, match=rf"^signal shorter than one frame "
                                                     rf"\({n} < {FRAME_LEN}\)$"):
                    run(np.full(n, fill), RATE, cfg)
        assert enhance(np.full(FRAME_LEN, fill), RATE, cfg).shape == (FRAME_LEN,)

    def test_zero_in_zero_out(self):
        out = enhance(np.zeros(12345), RATE, EnhancerConfig(mode=Mode.MDKR))
        assert out.shape == (12345,)
        assert not out.any()

    @pytest.mark.parametrize("mode", [Mode.LOGMMSE, Mode.MDKM, Mode.MDKR])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, mode, bad):
        x = np.random.default_rng(3).standard_normal(8000)
        x[1234] = bad
        for run in (enhance, diagnose):
            with pytest.raises(ValueError, match="1 non-finite samples.*index 1234"):
                run(x, RATE, EnhancerConfig(mode=mode))

    @pytest.mark.parametrize("bad", ["mdkr", "logmmse", None])
    def test_mode_must_be_a_mode_member(self, bad):
        # the pipeline tells modes apart by identity, so anything but a Mode
        # member would run as mdkm
        x = np.random.default_rng(3).standard_normal(8000)
        for run in (enhance, diagnose):
            with pytest.raises(ValueError, match="mode must be one of Mode.LOGMMSE, "
                                                 "Mode.MDKM, Mode.MDKR"):
                run(x, RATE, EnhancerConfig(mode=bad))

    @pytest.mark.parametrize("n", [4000, 12345, 31999])
    def test_length_preserved(self, n):
        rng = np.random.default_rng(n)
        out = enhance(rng.standard_normal(n), RATE, EnhancerConfig(mode=Mode.MDKM))
        assert out.shape == (n,)


class TestModes:
    def test_logmmse_mode_matches_direct_pipeline(self):
        y = add_white(voiced_babble(3, dur=0.8), 3, 5.0)
        out = enhance(y, RATE, EnhancerConfig(mode=Mode.LOGMMSE))
        X = analyze(y)
        amps = np.abs(X)
        psd, _ = track_noise(amps)
        ref = synthesize(logmmse_enhance(amps, psd), np.angle(X), n_samples=y.size)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("mode", [Mode.MDKM, Mode.MDKR])
    def test_deterministic(self, mode):
        y = add_white(voiced_babble(9, dur=0.7), 9, 0.0)
        a = enhance(y, RATE, EnhancerConfig(mode=mode))
        b = enhance(y, RATE, EnhancerConfig(mode=mode))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [Mode.LOGMMSE, Mode.MDKM, Mode.MDKR])
    def test_finite_on_rough_input(self, mode):
        rng = np.random.default_rng(17)
        x = np.zeros(int(0.9 * RATE))
        x[2000:6000] = rng.standard_normal(4000) * 1e-6
        x[8000:8010] = 1e4
        x[9000:] = rng.standard_normal(x.size - 9000)
        out = enhance(x, RATE, EnhancerConfig(mode=mode))
        assert np.isfinite(out).all()


class TestEnhancement:
    def test_clean_speech_passes_through(self):
        clean = gated_utterance(7)
        out = enhance(clean, RATE, EnhancerConfig(mode=Mode.MDKR))
        assert seg_snr(clean, out).mean >= 30.0

    def test_improves_noisy_speech(self):
        clean = voiced_babble(0)
        noisy = add_white(clean, 0, 0.0)
        base = seg_snr(clean, noisy).mean
        out = enhance(noisy, RATE, EnhancerConfig(mode=Mode.MDKR))
        assert seg_snr(clean, out).mean - base > 2.0


class TestDiagnostics:
    def test_noise_only_component_counts(self):
        rng = np.random.default_rng(5)
        diag = diagnose(rng.standard_normal(int(0.9 * RATE)), RATE, EnhancerConfig(mode=Mode.MDKR))
        assert isinstance(diag, Diagnostics)
        # pure noise: the speech ring collapses to one Gaussian nearly
        # everywhere, while the noise ring stays genuinely multimodal
        assert diag.g_speech.shape == diag.g_noise.shape
        assert np.mean(diag.g_speech == 1) > 0.6
        assert np.mean(diag.g_noise > 1) > 0.2
        assert diag.prediction_gain_db.shape == (257,)
        assert np.isfinite(diag.prediction_gain_db).all()

    def test_speech_ring_grows_with_snr(self):
        clean = voiced_babble(0)
        frac = []
        for snr in (-5.0, 5.0):
            diag = diagnose(add_white(clean, 0, snr), RATE, EnhancerConfig(mode=Mode.MDKR))
            frac.append(np.mean(diag.g_speech > 1))
        assert frac[1] > frac[0]

    def test_mdkm_has_no_ring_maps(self):
        y = add_white(voiced_babble(2, dur=0.6), 2, 5.0)
        diag = diagnose(y, RATE, EnhancerConfig(mode=Mode.MDKM))
        assert diag.g_speech is None and diag.g_noise is None
        assert diag.mode is Mode.MDKM
        assert "cell_faults" in diag.counters

    def test_diagnose_matches_enhance(self):
        y = add_white(voiced_babble(4, dur=0.6), 4, 0.0)
        cfg = EnhancerConfig(mode=Mode.MDKR)
        assert np.array_equal(diagnose(y, RATE, cfg).enhanced, enhance(y, RATE, cfg))


def batch_members(mode) -> list:
    """Utterances of different lengths at -5, 0 and +10 dB, the last with a
    digital-silence lead-in, and an all-zero one third; in mdkr, whose ring
    cells cost ~0.1 ms each and far more after silence, three short ones."""
    if mode is Mode.MDKR:
        spec = ((0.1, -5.0), (0.08, 10.0), (0.12, 0.0))
    else:
        spec = ((0.5, -5.0), (0.9, 0.0), (0.3, 10.0), (0.7, 0.0))
    members = [add_white(voiced_babble(20 + i, dur=dur), 20 + i, snr)
               for i, (dur, snr) in enumerate(spec)]
    members[-1][: members[-1].size // 3] = 0.0
    members.insert(2, np.zeros(int(0.2 * RATE)))
    return members


def same_bits(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype and a.shape == b.shape
        and a.tobytes() == b.tobytes())


class TestBatch:
    @pytest.mark.parametrize("mode", [Mode.LOGMMSE, Mode.MDKM, Mode.MDKR])
    def test_each_member_gets_its_solo_run(self, mode):
        cfg = EnhancerConfig(mode=mode)
        members = batch_members(mode)
        batch = diagnose_batch(iter(members), RATE, cfg)
        assert len(batch) == len(members)
        for x, got in zip(members, batch):
            alone = diagnose(x, RATE, cfg)
            assert got.mode is mode
            assert same_bits(got.enhanced, alone.enhanced)
            assert got.counters == alone.counters
            assert same_bits(got.g_speech, alone.g_speech)
            assert same_bits(got.g_noise, alone.g_noise)
            assert same_bits(got.prediction_gain_db, alone.prediction_gain_db)

    def test_longest_member_first_keeps_a_c_ordered_prefix(self, monkeypatch):
        # the frame loop carries the rows still running as a leading prefix
        real = enh.predict
        seen = []

        def spy(state, *args, **kwargs):
            seen.append((state.a.shape[0], state.a.flags.c_contiguous,
                         state.P.flags.c_contiguous))
            return real(state, *args, **kwargs)

        monkeypatch.setattr(enh, "predict", spy)
        members = [add_white(voiced_babble(30 + i, dur=d), 30 + i, 0.0)
                   for i, d in enumerate((0.2, 0.4, 0.3))]
        diagnose_batch(members, RATE, EnhancerConfig(mode=Mode.MDKM))
        rows = [r for r, *_ in seen]
        assert rows == sorted(rows, reverse=True)
        assert sorted(set(rows)) == [257, 2 * 257, 3 * 257]
        assert all(a and b for _, a, b in seen)

    def test_first_bad_member_raises_before_the_rest_are_read(self):
        read = []

        def signals():
            for x in (np.ones(4000), np.array([]), np.full(4000, np.nan)):
                read.append(x.size)
                yield x

        with pytest.raises(ValueError, match="signal is empty"):
            diagnose_batch(signals(), RATE, EnhancerConfig(mode=Mode.MDKM))
        assert read == [4000, 0]


class TestRingCellCall:
    def test_cells_get_python_scalars_and_keyword_settings(self, monkeypatch):
        # perfbench's tracer reads the five moments from args[:5] and the
        # settings from kwargs["cap"] and kwargs["counters"]
        real = enh.mdkr_cell
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(enh, "mdkr_cell", spy)
        y = add_white(voiced_babble(5, dur=0.3), 5, 0.0)
        diag = diagnose(y, RATE, EnhancerConfig(mode=Mode.MDKR))
        assert len(calls) == diag.g_speech.size
        for args, kwargs in calls:
            assert [type(a) for a in args] == [float] * 4 + [complex]
            assert set(kwargs) == {"cap", "counters", "info"}
            assert kwargs["cap"] == DEFAULT_RING_CAP
            assert kwargs["counters"] is diag.counters
            assert isinstance(kwargs["info"], dict)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0])
    def test_cells_match_the_reference_cell(self, monkeypatch, snr_db):
        # every ring cell of a real run gives the bytes, counters and
        # component counts of the plain per-cell evaluation in reference.py
        real = enh.mdkr_cell
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs["cap"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(enh, "mdkr_cell", spy)
        diagnose(add_white(voiced_babble(6, dur=0.3), 6, snr_db), RATE,
                 EnhancerConfig(mode=Mode.MDKR))
        single = []
        for args, cap in calls:
            runs = []
            for cell in (real, reference.mdkr_cell):
                counters, info = {}, {}
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    mu, sigma = cell(*args, cap=cap, counters=counters, info=info)
                runs.append((mu.tobytes(), sigma.tobytes(), counters, info))
            assert runs[0] == runs[1], args
            info = runs[0][3]
            single.append(info["G_speech"] * info["G_noise"] == 1)
        # the run reaches both sides of the single-component branch
        assert 0 < sum(single) < len(single)


class TestKummerCall:
    def test_kummer_function_runs_once_per_kalman_frame(self, monkeypatch):
        # perfbench's tracer times the Kummer function by patching
        # modkalm.gamma_update.kummer_m_log, so the mdkm posterior must look
        # it up there, once per frame, for the three shapes of every bin
        real_kummer, real_predict = gamma_update.kummer_m_log, enh.predict
        shapes, frames = [], []

        def kummer_spy(a, x):
            shapes.append(np.shape(a))
            return real_kummer(a, x)

        def predict_spy(state, *args):
            frames.append(state.a.shape[0])
            return real_predict(state, *args)

        monkeypatch.setattr(gamma_update, "kummer_m_log", kummer_spy)
        monkeypatch.setattr(enh, "predict", predict_spy)
        diagnose(add_white(voiced_babble(5, dur=0.3), 5, 0.0), RATE,
                 EnhancerConfig(mode=Mode.MDKM))
        assert len(frames) > 0
        assert shapes == [(3, rows) for rows in frames]


class TestFaultIsolation:
    def test_cell_fault_falls_back(self, monkeypatch):
        real = enh.mdkr_cell
        boom = {"left": 40}

        def flaky(*args, **kwargs):
            # the first 40 cells fail, half by raising, half with NaN moments
            if boom["left"] > 0:
                boom["left"] -= 1
                if boom["left"] % 2:
                    raise FloatingPointError("synthetic cell failure")
                mu, sigma = real(*args, **kwargs)
                return np.full_like(mu, np.nan), sigma
            return real(*args, **kwargs)

        monkeypatch.setattr(enh, "mdkr_cell", flaky)
        y = add_white(voiced_babble(11, dur=0.6), 11, 0.0)
        diag = diagnose(y, RATE, EnhancerConfig(mode=Mode.MDKR))
        assert diag.counters["cell_faults"] >= 40
        assert np.isfinite(diag.enhanced).all()

    @pytest.mark.parametrize("mode", [Mode.MDKM, Mode.MDKR])
    def test_non_finite_prior_rows_reset_per_member(self, monkeypatch, mode):
        # every prior row of frame 4 comes back NaN: each row restarts at
        # mean 0 and covariance I x its own utterance's mean power, and each
        # member of a batch still gets what the same fault gives it alone
        real_predict, real_update = enh.predict, enh.update
        calls, priors = [], []

        def nan_predict(*args, **kwargs):
            state, mu, Sigma = real_predict(*args, **kwargs)
            calls.append(mu)
            if len(calls) == 5:
                Sigma[:] = np.nan
            return state, mu, Sigma

        def spy_update(state, prior_sigma, *args, **kwargs):
            # the frame loop resets the prior mean and Σ that predict
            # returned in place, before the update
            if len(calls) == 5:
                priors.append((calls[-1].copy(), prior_sigma.copy()))
            return real_update(state, prior_sigma, *args, **kwargs)

        monkeypatch.setattr(enh, "predict", nan_predict)
        monkeypatch.setattr(enh, "update", spy_update)
        cfg = EnhancerConfig(mode=mode)
        dur = 0.1 if mode is Mode.MDKR else 0.4
        members = [add_white(voiced_babble(40 + i, dur=dur), 40 + i, 0.0)
                   for i in range(2)]
        members[1] *= 30.0
        batch = diagnose_batch(members, RATE, cfg)
        mu, sigma = priors[0]
        power = np.repeat([np.mean(np.abs(analyze(x)) ** 2) for x in members], 257)
        d = mu.shape[1]
        assert np.array_equal(mu, np.zeros_like(mu))
        assert np.array_equal(sigma, np.eye(d) * power[:, None, None])
        for x, got in zip(members, batch):
            calls.clear()
            alone = diagnose(x, RATE, cfg)
            assert np.isfinite(got.enhanced).all()
            assert same_bits(got.enhanced, alone.enhanced)
            assert got.counters == alone.counters

    @staticmethod
    def _amplitude_grid(monkeypatch, y, cfg, sigma_fault=None):
        """Run ``diagnose`` and return it with the amplitude grid handed to
        synthesis; ``sigma_fault`` edits bin 7's prior Σ (a copy) on its way
        into every update."""
        real_update, real_synth = enh.update, enh.synthesize
        grids = []

        def faulty_update(state, prior_sigma, post_mu, post_sigma, counters=None):
            sigma = prior_sigma.copy()
            sigma[7] = sigma_fault(sigma[7])
            return real_update(state, sigma, post_mu, post_sigma, counters)

        def spy_synth(amps, *args, **kwargs):
            grids.append(amps.copy())
            return real_synth(amps, *args, **kwargs)

        monkeypatch.setattr(enh, "synthesize", spy_synth)
        if sigma_fault is not None:
            monkeypatch.setattr(enh, "update", faulty_update)
        diag = diagnose(y, RATE, cfg)
        monkeypatch.undo()
        return diag, grids[0]

    def test_singular_update_isolates_rows(self, monkeypatch):
        # bin 7's prior Σ is zero on every frame, so the update cannot invert
        # it: that row alone comes back non-finite and is reset each frame
        y = add_white(voiced_babble(12, dur=0.4), 12, 5.0)
        cfg = EnhancerConfig(mode=Mode.MDKM)
        ref, ref_grid = self._amplitude_grid(monkeypatch, y, cfg)
        diag, grid = self._amplitude_grid(monkeypatch, y, cfg, np.zeros_like)
        assert ref.counters["cell_faults"] == 0
        assert diag.counters["cell_faults"] == grid.shape[0]
        assert np.isfinite(diag.enhanced).all()
        others = np.arange(grid.shape[1]) != 7
        assert np.array_equal(grid[:, others], ref_grid[:, others])

    def test_ill_conditioned_update_isolates_rows(self, monkeypatch):
        # bin 7's prior Σ is rank-one on every frame: only that row gets the
        # ridge, and every other bin is untouched by it
        def rank_one(s):
            c = np.sqrt(s[0, 0] * s[1, 1])
            return np.array([[s[0, 0], c], [c, s[1, 1]]])

        y = add_white(voiced_babble(13, dur=0.3), 13, 0.0)
        cfg = EnhancerConfig(mode=Mode.MDKR)
        ref, ref_grid = self._amplitude_grid(monkeypatch, y, cfg)
        diag, grid = self._amplitude_grid(monkeypatch, y, cfg, rank_one)
        assert "sigma_regularized" not in ref.counters
        assert diag.counters["sigma_regularized"] == grid.shape[0]
        assert diag.counters["cell_faults"] == 0
        others = np.arange(grid.shape[1]) != 7
        assert np.array_equal(grid[:, others], ref_grid[:, others])
