"""End-to-end pipeline: track noise, pre-clean, fit modulation models per
bin, run the per-bin amplitude Kalman filter, resynthesize with the noisy
phase.

Two update flavours share the machinery: the stationary-noise scalar update
(gamma-shaped amplitude prior against the tracked noise floor) and the joint
speech/noise update built on ring mixtures.  The plain log-spectral baseline
is the degenerate mode that skips the Kalman stage entirely.

The pipeline runs at one operating point, the framing of :mod:`.stft` and
the model constants below; :class:`EnhancerConfig` chooses only the mode.
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
from .stft import SAMPLE_RATE, analyze, synthesize

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
# the paper's model: 64 ms modulation windows (8 acoustic frames at hop 1),
# speech order 3, and noise order 4 in mdkr (mdkm treats the noise as
# stationary, q = 0)
MOD_FRAMES = 8
SPEECH_ORDER = 3
NOISE_ORDER = 4


class Mode(enum.Enum):
    LOGMMSE = "logmmse"
    MDKM = "mdkm"
    MDKR = "mdkr"


@dataclass(frozen=True)
class EnhancerConfig:
    """Which enhancer to run on :data:`SAMPLE_RATE` input; framing and model
    orders are the constants of :mod:`.stft` and this module."""

    mode: Mode = Mode.MDKR

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be one of {', '.join(map(str, Mode))}, "
                             f"got {self.mode!r}")


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

    spec = analyze(x)
    noise = track_noise(spec)
    pre = logmmse_enhance(spec, noise)

    if cfg.mode is Mode.LOGMMSE:
        amps_hat = pre
        g_s = g_n = gains = None
    else:
        amps_hat, g_s, g_n, gains = _kalman_amplitudes(spec, noise, pre, cfg.mode, counters)
    out = synthesize(amps_hat, spec.phase, n_samples=x.size)
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


def _kalman_amplitudes(spec, noise: NoiseTrack, pre, mode: Mode, counters: dict):
    amps = spec.amplitude
    zvals = spec.values
    n_frames, n_bins = amps.shape
    p = SPEECH_ORDER
    q = NOISE_ORDER if mode is Mode.MDKR else 0
    dim = p + q

    sp_c, sp_v = speech_lpc_grid(pre, MOD_FRAMES, p)
    jmap = frame_model_index(n_frames, MOD_FRAMES, sp_c.shape[0])
    if q:
        nz_c, nz_v = noise_lpc_grid(amps, noise.vad, MOD_FRAMES, q)

    mean_power = float(np.mean(amps ** 2))
    sfloor = _SPEECH_FLOOR_REL * mean_power + _ABS_FLOOR
    nfloor = _NOISE_FLOOR_REL * mean_power + _ABS_FLOOR

    a0, P0 = _init_rows(amps[0], noise.psd[0], p, q, mean_power)
    state = KalmanState(a0, P0, p, q)

    F = np.zeros((n_bins, dim, dim))
    F[:, 1:p, : p - 1] = np.eye(p - 1)
    if q:
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

