"""End-to-end pipeline: track noise, pre-clean, fit modulation models per
bin, run the per-bin amplitude Kalman filter, resynthesize with the noisy
phase.

Two update flavours share the machinery: the stationary-noise scalar update
(gamma-shaped amplitude prior against the tracked noise floor) and the joint
speech/noise update built on ring mixtures.  The plain log-spectral baseline
is the degenerate mode that skips the Kalman stage entirely.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .gamma_update import fit_gamma_prior, mdkm_posterior
from .gaussring import DEFAULT_RING_CAP, mdkr_cell
from .kalman import KalmanState, MomentPair, predict, tally, update
from .logmmse import NoiseTrack, logmmse_enhance, track_noise
from .lpc import frame_model_index, noise_lpc_grid, prediction_gain, speech_lpc_grid
from .stft import FrameConfig, analyze, synthesize

# Relative floors keeping degenerate cells solvable.  The speech floor is
# deliberately larger than the noise floor: when both priors have collapsed
# (no evidence either way, e.g. right after silence) the observation is
# attributed to speech rather than split, which keeps attacks intact.
_SPEECH_FLOOR_REL = 1e-10
_NOISE_FLOOR_REL = 1e-12
_ABS_FLOOR = 1e-300
# The noise branch models the tracked noise process; cap its amplitude
# prediction at this multiple of the tracker's Rayleigh mean (a true
# Rayleigh amplitude exceeds 4x its mean with probability ~3e-6) so that
# speech estimation residuals cannot masquerade as sudden noise bursts.
_NOISE_MEAN_CAP = 4.0
# the paper's operating point; the framing in milliseconds is set against it
SAMPLE_RATE = 16000


class Mode(enum.Enum):
    LOGMMSE = "logmmse"
    MDKM = "mdkm"
    MDKR = "mdkr"


@dataclass(frozen=True)
class EnhancerConfig:
    """Pipeline settings for :data:`SAMPLE_RATE` input; the defaults match
    the standard operating point (32 ms/8 ms acoustic frames, 64 ms
    modulation windows, speech order 3, noise order 4 for joint tracking)."""

    mode: Mode = Mode.MDKR
    frame_ms: float = 32.0
    inc_ms: float = 8.0
    mod_frames: int = 8           # modulation window length, in acoustic frames (hop 1)
    speech_order: int = 3
    noise_order: int | None = None  # None -> mode default (0 scalar, 4 joint)

    def __post_init__(self):
        self.frame_config()
        for name in ("speech_order", "noise_order", "mod_frames"):
            value = getattr(self, name)
            if value is None and name == "noise_order":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.speech_order < 1:
            raise ValueError("speech_order must be >= 1")
        if self.mod_frames <= self.speech_order:
            raise ValueError("modulation window must exceed the speech order")
        # unset takes the mode's default; mdkm treats the noise as stationary,
        # and like the speech model a noise model must fit its window
        lo, hi = {Mode.MDKM: (0, 0), Mode.MDKR: (1, self.mod_frames - 1)}.get(
            self.mode, (0, self.mod_frames - 1))
        if self.noise_order is not None and not lo <= self.noise_order <= hi:
            raise ValueError(f"{self.mode.value} needs noise_order in [{lo}, {hi}], "
                             f"got {self.noise_order}")

    def resolved_noise_order(self) -> int:
        if self.mode is Mode.MDKR:
            return 4 if self.noise_order is None else self.noise_order
        return 0

    def frame_config(self) -> FrameConfig:
        return FrameConfig.from_ms(SAMPLE_RATE, self.frame_ms, self.inc_ms)


@dataclass
class Diagnostics:
    """Everything the pipeline can report about one run."""

    enhanced: np.ndarray
    mode: Mode
    counters: dict
    g_speech: np.ndarray | None      # per-cell speech component counts
    g_noise: np.ndarray | None       # per-cell noise component counts
    prediction_gain_db: np.ndarray | None  # per-bin one-step model gain


def enhance(samples, rate: int, cfg: EnhancerConfig = EnhancerConfig()) -> np.ndarray:
    """Enhanced time-domain signal, same length as the input."""
    return diagnose(samples, rate, cfg).enhanced


def diagnose(samples, rate: int, cfg: EnhancerConfig = EnhancerConfig()) -> Diagnostics:
    """Run the pipeline while recording component counts, model gains and
    all clamp/fault counters."""
    return _run(samples, rate, cfg)


def _run(samples, rate: int, cfg: EnhancerConfig) -> Diagnostics:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("signal is empty")
    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(
            f"signal has {x.size - int(finite.sum())} non-finite samples "
            f"(NaN or Inf), the first at index {first}; the enhancer needs "
            "finite input")
    if rate != SAMPLE_RATE:
        raise ValueError(f"sample rate {rate} != the enhancer's {SAMPLE_RATE}")
    counters: dict = {"cell_faults": 0}
    if not np.any(x):
        return Diagnostics(np.zeros_like(x), cfg.mode, counters, None, None, None)

    fcfg = cfg.frame_config()
    spec = analyze(x, fcfg)
    noise = track_noise(spec)
    pre = logmmse_enhance(spec, noise)

    if cfg.mode is Mode.LOGMMSE:
        amps_hat = pre
        g_s = g_n = gains = None
    else:
        amps_hat, g_s, g_n, gains = _kalman_amplitudes(spec, noise, pre, cfg, counters)
    out = synthesize(amps_hat, spec.phase, fcfg, n_samples=x.size)
    return Diagnostics(out, cfg.mode, counters, g_s, g_n, gains)


def _init_rows(amp0, psd0, p: int, q: int, diffuse: float):
    """Fresh state rows seeded from an observed amplitude and noise power.

    Speech rows start diffuse (variance at overall signal-power scale) so the
    first observations dominate; noise rows carry the Rayleigh moments the
    stationary tracker implies.  ``amp0`` and ``psd0`` are matching 1-D rows.
    """
    k, dim = amp0.shape[0], p + q
    a = np.zeros((k, dim))
    P = np.zeros((k, dim, dim))
    a[:, :p] = amp0[:, None]
    ii = np.arange(p)
    P[:, ii, ii] = amp0[:, None] ** 2 + diffuse
    if q:
        a[:, p:] = np.sqrt(np.pi * psd0[:, None] / 4.0)
        jj = np.arange(p, dim)
        P[:, jj, jj] = (1.0 - np.pi / 4.0) * psd0[:, None] + _ABS_FLOOR
    return a, P


def _nonfinite_rows(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of a (k, d) ``v`` and a (k, d, d) ``M`` that hold a NaN or an
    infinity; the whole-array test first, since nearly every frame has none."""
    if np.isfinite(v).all() and np.isfinite(M).all():
        return np.zeros(v.shape[0], dtype=bool)
    return ~(np.isfinite(v).all(axis=1) & np.isfinite(M).all(axis=(1, 2)))


def _kalman_amplitudes(spec, noise: NoiseTrack, pre, cfg: EnhancerConfig,
                       counters: dict):
    amps = spec.amplitude
    zvals = spec.values
    n_frames, n_bins = amps.shape
    p = cfg.speech_order
    q = cfg.resolved_noise_order()
    dim = p + q

    sp_c, sp_v = speech_lpc_grid(pre, cfg.mod_frames, p)
    jmap = frame_model_index(n_frames, cfg.mod_frames, sp_c.shape[0])
    if q:
        nz_c, nz_v = noise_lpc_grid(amps, noise.vad, cfg.mod_frames, q)

    mean_power = float(np.mean(amps ** 2))
    sfloor = _SPEECH_FLOOR_REL * mean_power + _ABS_FLOOR
    nfloor = _NOISE_FLOOR_REL * mean_power + _ABS_FLOOR

    a0, P0 = _init_rows(amps[0], noise.psd[0], p, q, mean_power)
    state = KalmanState(a0, P0, p, q)

    F = np.zeros((n_bins, dim, dim))
    if p > 1:
        F[:, 1:p, : p - 1] = np.eye(p - 1)
    if q > 1:
        F[:, p + 1:, p: dim - 1] = np.eye(q - 1)
    # fresh excitation enters the current speech and noise amplitudes only
    W = np.zeros((n_bins, dim, dim))

    amps_hat = np.empty_like(amps)
    g_speech = np.zeros((n_frames, n_bins), dtype=np.int16) if q else None
    g_noise = np.zeros((n_frames, n_bins), dtype=np.int16) if q else None
    info: dict = {}

    for n in range(n_frames):
        j = jmap[n]
        F[:, 0, :p] = -sp_c[j]
        W[:, 0, 0] = sp_v[j]
        if q:
            F[:, p, p:] = -nz_c[j]
            W[:, p, p] = nz_v[j]

        state, prior = predict(state, F, W, counters)

        # keep the prior marginals strictly positive and finite
        mu = prior.mu
        Sigma = prior.sigma
        bad = _nonfinite_rows(mu, Sigma)
        if bad.any():
            mu[bad] = 0.0
            Sigma[bad] = np.eye(mu.shape[1]) * mean_power
        np.maximum(Sigma[:, 0, 0], sfloor, out=Sigma[:, 0, 0])
        if q:
            np.maximum(Sigma[:, 1, 1], nfloor, out=Sigma[:, 1, 1])
            mcap = _NOISE_MEAN_CAP * np.sqrt(np.pi * noise.psd[n] / 4.0)
            over = mu[:, 1] > mcap
            if over.any():
                mu[over, 1] = mcap[over]
                tally(counters, "noise_mean_clamped", np.count_nonzero(over))

        if q == 0:
            gprior = fit_gamma_prior(mu[:, 0], Sigma[:, 0, 0], counters)
            mean, var = mdkm_posterior(gprior, noise.psd[n], amps[n], counters)
            good = np.isfinite(mean) & np.isfinite(var) & (var > 0)
            bad |= ~good
            post_mu = np.where(good, mean, mu[:, 0])[:, None]
            post_sig = np.where(good, var, Sigma[:, 0, 0])[:, None, None]
        else:
            post_mu = mu.copy()
            post_sig = Sigma.copy()
            # Python floats into each cell: numpy-scalar arithmetic costs
            # more per operation and rounds the same
            mu_s, mu_n = mu[:, 0].tolist(), mu[:, 1].tolist()
            var_s, var_n = Sigma[:, 0, 0].tolist(), Sigma[:, 1, 1].tolist()
            z_n, skip = zvals[n].tolist(), bad.tolist()
            gs, gn = [0] * n_bins, [0] * n_bins
            for k in range(n_bins):
                if skip[k]:
                    continue
                try:
                    cmu, csig = mdkr_cell(mu_s[k], var_s[k], mu_n[k], var_n[k], z_n[k],
                                          cap=DEFAULT_RING_CAP, counters=counters, info=info)
                except (ValueError, FloatingPointError, ZeroDivisionError):
                    bad[k] = True
                    continue
                post_mu[k] = cmu
                post_sig[k] = csig
                gs[k], gn[k] = info["G_speech"], info["G_noise"]
            g_speech[n], g_noise[n] = gs, gn
        posterior = MomentPair(post_mu, post_sig)

        # a non-finite posterior or a row the update cannot invert comes back
        # non-finite and is reset here: the one per-cell fault path
        state = update(state, prior, posterior, counters)
        row_bad = bad | _nonfinite_rows(state.a, state.P)
        est = np.maximum(posterior.mu[:, 0], 0.0)
        if row_bad.any():
            est = est.copy()
            est[row_bad] = pre[n, row_bad]
            ra, rp = _init_rows(amps[n, row_bad], noise.psd[n, row_bad], p, q, mean_power)
            state.a[row_bad] = ra
            state.P[row_bad] = rp
            tally(counters, "cell_faults", np.count_nonzero(row_bad))
        amps_hat[n] = est

    preds = np.zeros_like(pre)
    for n in range(p, n_frames):
        hist = pre[n - p:n][::-1]           # newest history first
        preds[n] = -np.einsum("ki,ik->k", sp_c[jmap[n]], hist)
    gains = prediction_gain(pre[p:], preds[p:])
    return amps_hat, g_speech, g_noise, gains

