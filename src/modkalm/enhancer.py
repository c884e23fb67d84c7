"""End-to-end pipeline: track noise, pre-clean, fit modulation models per
bin, run the per-bin amplitude Kalman filter, resynthesize with the noisy
phase.

Two update flavours share the machinery: the stationary-noise scalar update
(gamma-shaped amplitude prior against the tracked noise floor) and the joint
speech/noise update built on ring mixtures.  The plain log-spectral baseline
is the degenerate mode that skips the Kalman stage entirely.

The pipeline runs at one operating point, the framing of :mod:`.stft` and
the model constants below; :class:`EnhancerConfig` chooses only the mode.
A signal shorter than one frame is refused, silent or not.  The stages pass
plain arrays, and the amplitude and phase of the STFT are taken once each.

:func:`diagnose_batch` is the one implementation.  It takes the stages up
to pre-cleaning (and, in ``mdkr``, the noise model grid) one utterance at a
time, then runs a single Kalman frame loop over the stacked bins of all its
utterances, and each result holds the bits that a run on its utterance
alone gives.  The speech model is fitted in that frame loop, a few
modulation windows at a time, so no utterance holds a grid of its models.
:func:`diagnose` and :func:`enhance` are the batch of one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .gamma_update import fit_gamma_prior, mdkm_posterior
from .gaussring import DEFAULT_RING_CAP, mdkr_cell
from .kalman import KalmanState, predict, tally, update
from .logmmse import logmmse_enhance, track_noise
from .lpc import frame_model_index, noise_lpc_grid, prediction_gain, speech_lpc_grid
from .stft import FRAME_LEN, SAMPLE_RATE, analyze, synthesize

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
# (row, window) pairs per speech-model fit in the frame loop, about 0.5 MB
# of the fit's transient arrays at some 130 bytes a pair.  Over 257 rows a
# fit of eight windows costs about twice one of one window (320 against
# 145 us), so a fit takes as many windows as this allows (fifteen for one
# utterance, two for six stacked ones), and its transient arrays do not
# grow with the batch
_FIT_PAIRS = 2 ** 12


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
    """One utterance: the batch of one."""
    return diagnose_batch([samples], rate, cfg)[0]


def diagnose_batch(signals, rate: int, cfg: EnhancerConfig = EnhancerConfig()) -> list:
    """:func:`diagnose` of each signal of ``signals``, in one pass.

    Each utterance is checked, analysed, noise-tracked, pre-cleaned and,
    in ``mdkr``, given its noise model grid on its own, in the order given,
    so the first bad one raises before any later one is read from
    ``signals`` (which may be an iterator).  The Kalman stage then runs one
    frame loop over the stacked bins of all of them, fitting the speech
    model as it goes.  Every per-utterance quantity stays per
    row (mean power, floors, model rows, counters), and every step of the
    loop acts on each row alone, so each :class:`Diagnostics` holds the
    bits that a run of its utterance alone gives.
    """
    results, members = [], []
    for samples in signals:
        x = _checked(samples, rate)
        counters: dict = {"cell_faults": 0}
        if not np.any(x):
            results.append(Diagnostics(np.zeros_like(x), cfg.mode, counters, None, None, None))
            continue
        X = analyze(x)
        amps, phase = np.abs(X), np.angle(X)
        psd, vad = track_noise(amps)
        pre = logmmse_enhance(amps, psd)
        if cfg.mode is Mode.LOGMMSE:
            out = synthesize(pre, phase, n_samples=x.size)
            results.append(Diagnostics(out, cfg.mode, counters, None, None, None))
            continue
        members.append((len(results), _Member(x.size, X, amps, phase, psd, vad, pre,
                                              cfg.mode, counters)))
        results.append(None)
    if members:
        _kalman_frames([m for _, m in members], NOISE_ORDER if cfg.mode is Mode.MDKR else 0)
    for i, m in members:
        out = synthesize(m.amps_hat, m.phase, n_samples=m.n_samples)
        results[i] = Diagnostics(out, cfg.mode, m.counters, m.g_speech, m.g_noise, m.gains)
    return results


def _checked(samples, rate: int) -> np.ndarray:
    """The signal as a flat float array, or ``ValueError`` saying why not."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("signal is empty")
    if x.size < FRAME_LEN:
        raise ValueError(f"signal shorter than one frame ({x.size} < {FRAME_LEN})")
    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(
            f"signal has {x.size - int(finite.sum())} non-finite samples "
            f"(NaN or Inf), the first at index {first}; the enhancer needs "
            "finite input")
    if rate != SAMPLE_RATE:
        raise ValueError(f"sample rate {rate} != the enhancer's {SAMPLE_RATE}")
    return x


class _Member:
    """One utterance of a Kalman batch: what the frame loop reads of it and
    what it writes for it.  Its noise grid (mdkr) is fitted here on its own;
    its speech model is fitted in the frame loop."""

    def __init__(self, n_samples: int, X, amps, phase, psd, vad, pre, mode: Mode,
                 counters: dict):
        ring = mode is Mode.MDKR
        self.n_samples, self.counters = n_samples, counters
        self.amps, self.phase, self.psd = amps, phase, psd
        self.values = X if ring else None
        n_frames, n_bins = self.amps.shape
        if ring:
            self.nz_c, self.nz_v = noise_lpc_grid(amps, vad, MOD_FRAMES, NOISE_ORDER)
        self.mean_power = float(np.mean(self.amps ** 2))
        self.g_speech = np.zeros((n_frames, n_bins), dtype=np.int16) if ring else None
        self.g_noise = np.zeros((n_frames, n_bins), dtype=np.int16) if ring else None
        self.gains = None  # per-bin prediction gain, set by the frame loop
        # the estimates overwrite the pre-cleaned grid frame by frame; the
        # frame loop reads each row before that
        self.amps_hat = pre

def _init_rows(amp0, psd0, p: int, q: int, diffuse):
    """Fresh state rows seeded from an observed amplitude and noise power.

    Speech rows start diffuse (variance at the row's signal-power scale
    ``diffuse``) so the first observations dominate; noise rows carry the
    Rayleigh moments the stationary tracker implies.  ``amp0``, ``psd0``
    and ``diffuse`` are matching 1-D rows.
    """
    k, dim = amp0.shape[0], p + q
    a = np.zeros((k, dim))
    P = np.zeros((k, dim, dim))
    a[:, :p] = amp0[:, None]
    ii = np.arange(p)
    P[:, ii, ii] = amp0[:, None] ** 2 + diffuse[:, None]
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


def _fit_speech(live: list, held: np.ndarray, n: int, j: int, w: int):
    """Speech models of modulation windows j .. j + w - 1 over the stacked
    rows of ``live``, fitted at frame n >= j: the pre-cleaned rows before
    frame n come from ``held`` (row t at t % MOD_FRAMES), the rest from the
    members' grids, which the estimates have not reached yet."""
    n_bins = live[0].amps.shape[1]
    seg = np.empty((w + MOD_FRAMES - 1, len(live) * n_bins))
    seg[:n - j] = held[[t % MOD_FRAMES for t in range(j, n)], :seg.shape[1]]
    for i, m in enumerate(live):
        seg[n - j:, i * n_bins:(i + 1) * n_bins] = m.amps_hat[n:j + w + MOD_FRAMES - 1]
    return speech_lpc_grid(seg, MOD_FRAMES, SPEECH_ORDER)


def _kalman_frames(members: list, q: int) -> None:
    """The one Kalman frame loop, over the stacked bins of ``members``.

    The members are taken longest first (ties in the order given), so the
    rows still running at frame n, each member's bins side by side, are a
    leading prefix of the stacked rows, and the carried state is cut to
    that prefix: a slice that keeps its C order.  Counters go to
    :func:`tally` as the live members' dicts, which split each row mask in
    equal consecutive shares; a ring cell gets its own member's dict.

    The speech model is fitted here.  When frame n's modulation window is
    past the fitted ones, one :func:`speech_lpc_grid` call over the live
    rows fits the next windows, as many as ``_FIT_PAIRS`` allows and fewer
    where the shortest live member ends; each window's fit has the bits of
    the whole grid's.  ``held`` keeps the last ``MOD_FRAMES`` pre-cleaned
    rows, which the estimates overwrite in the members' grids.  The
    prediction-gain sums run per row as the frames go, adding the frames
    in order as a sum down the whole grid would.
    """
    members = sorted(members, key=lambda m: -m.amps.shape[0])
    n_frames, n_bins = members[0].amps.shape
    p = SPEECH_ORDER
    dim = p + q
    mean_power = np.repeat([m.mean_power for m in members], n_bins)
    sfloor = _SPEECH_FLOOR_REL * mean_power + _ABS_FLOOR
    nfloor = _NOISE_FLOOR_REL * mean_power + _ABS_FLOOR
    state = KalmanState(*_init_rows(np.concatenate([m.amps[0] for m in members]),
                                    np.concatenate([m.psd[0] for m in members]), p, q,
                                    mean_power), p, q)

    rows = len(members) * n_bins
    F = np.zeros((rows, dim, dim))
    F[:, 1:p, : p - 1] = np.eye(p - 1)
    if q:
        F[:, p + 1:, p: dim - 1] = np.eye(q - 1)
    # fresh excitation enters the current speech and noise amplitudes only
    W = np.zeros((rows, dim, dim))
    cell_counters = [m.counters for m in members for _ in range(n_bins)]
    info: dict = {}
    # a live member has more than n frames, so frame n's window exists in
    # each of them: one index serves them all
    jmap = frame_model_index(n_frames, MOD_FRAMES, n_frames - MOD_FRAMES + 1)
    held = np.empty((MOD_FRAMES, rows))  # pre-cleaned row n at n % MOD_FRAMES
    power, err_power = np.zeros(rows), np.zeros(rows)
    j0, sp_c, sp_v = 0, np.empty((0, rows, p)), np.empty((0, rows))  # windows j0, j0 + 1, ...

    for n in range(n_frames):
        live = [m for m in members if m.amps.shape[0] > n]
        L = len(live) * n_bins
        if L < state.a.shape[0]:
            state = KalmanState(state.a[:L], state.P[:L], p, q)
        split = [m.counters for m in live]
        pre = np.concatenate([m.amps_hat[n] for m in live])
        held[n % MOD_FRAMES, :L] = pre
        j = jmap[n]
        if j >= j0 + sp_c.shape[0]:
            w = min(max(_FIT_PAIRS // L, 1), live[-1].amps.shape[0] - MOD_FRAMES + 1 - j)
            del sp_c, sp_v  # so the fit does not hold the last windows beside its own
            sp_c, sp_v = _fit_speech(live, held, n, j, w)
            j0 = j
        np.negative(sp_c[j - j0, :L], out=F[:L, 0, :p])
        W[:L, 0, 0] = sp_v[j - j0, :L]
        if n >= p:
            hist = held[[t % MOD_FRAMES for t in range(n - p, n)], :L][::-1]  # newest first
            pred = -np.einsum("ki,ik->k", sp_c[j - j0, :L], hist)
            power[:L] += pre ** 2
            err_power[:L] += (pre - pred) ** 2
        if q:
            np.negative(np.concatenate([m.nz_c[j] for m in live]), out=F[:L, p, p:])
            W[:L, p, p] = np.concatenate([m.nz_v[j] for m in live])
        amps = np.concatenate([m.amps[n] for m in live])
        psd = np.concatenate([m.psd[n] for m in live])

        state, mu, Sigma = predict(state, F[:L], W[:L], split)

        # keep the prior marginals strictly positive and finite; update reads
        # this Σ, floored in place
        bad = _nonfinite_rows(mu, Sigma)
        if bad.any():
            mu[bad] = 0.0
            Sigma[bad] = np.eye(mu.shape[1]) * mean_power[:L][bad, None, None]
        np.maximum(Sigma[:, 0, 0], sfloor[:L], out=Sigma[:, 0, 0])
        if q:
            np.maximum(Sigma[:, 1, 1], nfloor[:L], out=Sigma[:, 1, 1])
            mcap = _NOISE_MEAN_CAP * np.sqrt(np.pi * psd / 4.0)
            over = mu[:, 1] > mcap
            if over.any():
                mu[over, 1] = mcap[over]
                tally(split, "noise_mean_clamped", over)

        if q == 0:
            gprior = fit_gamma_prior(mu[:, 0], Sigma[:, 0, 0], split)
            mean, var = mdkm_posterior(gprior, psd, amps, split)
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
            z_n = np.concatenate([m.values[n] for m in live]).tolist()
            skip = bad.tolist()
            gs, gn = [0] * L, [0] * L
            for k in range(L):
                if skip[k]:
                    continue
                try:
                    cmu, csig = mdkr_cell(mu_s[k], var_s[k], mu_n[k], var_n[k], z_n[k],
                                          cap=DEFAULT_RING_CAP, counters=cell_counters[k],
                                          info=info)
                except (ValueError, FloatingPointError, ZeroDivisionError):
                    bad[k] = True
                    continue
                post_mu[k] = cmu
                post_sig[k] = csig
                gs[k], gn[k] = info["G_speech"], info["G_noise"]
            for i, m in enumerate(live):
                m.g_speech[n] = gs[i * n_bins:(i + 1) * n_bins]
                m.g_noise[n] = gn[i * n_bins:(i + 1) * n_bins]

        # a non-finite posterior or a row the update cannot invert comes back
        # non-finite and is reset here: the one per-cell fault path
        state = update(state, Sigma, post_mu, post_sig, split)
        row_bad = bad | _nonfinite_rows(state.a, state.P)
        est = np.maximum(post_mu[:, 0], 0.0)
        if row_bad.any():
            est[row_bad] = pre[row_bad]
            ra, rp = _init_rows(amps[row_bad], psd[row_bad], p, q, mean_power[:L][row_bad])
            state.a[row_bad] = ra
            state.P[row_bad] = rp
            tally(split, "cell_faults", row_bad)
        for i, m in enumerate(live):
            m.amps_hat[n] = est[i * n_bins:(i + 1) * n_bins]
    for i, m in enumerate(members):
        own = slice(i * n_bins, (i + 1) * n_bins)
        m.gains = prediction_gain(sums=(power[own], err_power[own]))
