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

:func:`diagnose_batch` is the one implementation.  It takes analysis and
noise tracking (and, in ``mdkr``, the noise model grid) one utterance at a
time, then stacks its utterances' grids once, longest first, into one row
per frame of the bins still running (:func:`_stacked`).  One log-MMSE
frame loop pre-cleans those rows and a single Kalman frame loop steps
them, and each result holds the bits that a run on its utterance alone
gives.  The speech model is fitted in that frame loop, a few
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
# the largest sample magnitude the enhancer takes.  On a 0.15 s utterance
# scaled to a peak of 10^k, mdkr's ring cells start to fault from k = 76
# (10 of 6,168 cells; all from k = 78), mdkm refuses its posterior from
# k = 152 and logmmse's output is non-finite by k = 155; at k = 60 none of
# them faults
MAX_PEAK = 1e60
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

    Each utterance is checked, analysed, noise-tracked and, in ``mdkr``,
    given its noise model grid on its own, in the order given, so the first
    bad one raises before any later one is read from ``signals`` (which
    may be an iterator).  Their grids are then stacked longest first
    (:func:`_stacked`); one :func:`logmmse_enhance` frame loop pre-cleans
    the rows and one Kalman frame loop steps them, fitting the speech model
    as it goes, and each utterance's grid is cut from the rows for
    synthesis.  Every per-utterance quantity stays per row (mean power,
    floors, model rows, counters), and every step of either loop acts on
    each row alone, so each :class:`Diagnostics` holds the bits that a run
    of its utterance alone gives.
    """
    results, batch = [], []
    for samples in signals:
        x = _checked(samples, rate)
        counters: dict = {"cell_faults": 0}
        if not np.any(x):
            results.append(Diagnostics(np.zeros_like(x), cfg.mode, counters, None, None, None))
            continue
        batch.append(_Member(len(results), x.size, analyze(x), cfg.mode, counters))
        results.append(None)
    batch.sort(key=lambda m: -m.phase.shape[0])  # ties stay in the order given
    amps, psd = _stacked(batch, "amps"), _stacked(batch, "psd")
    rows = logmmse_enhance(amps, psd)
    if batch and cfg.mode is not Mode.LOGMMSE:
        ring = cfg.mode is Mode.MDKR
        values = _stacked(batch, "values") if ring else None
        rows = _kalman_frames(batch, amps, psd, rows, values, NOISE_ORDER if ring else 0)
    del amps, psd
    for i, m in enumerate(batch):
        out = synthesize(_unstacked(rows, i, m.phase.shape), m.phase, n_samples=m.n_samples)
        results[m.index] = Diagnostics(out, cfg.mode, m.counters, m.g_speech, m.g_noise, m.gains)
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
    peak = _over_peak(x)
    if peak is not None:
        raise ValueError(f"signal peaks at {peak:.4g}, above the enhancer's bound "
                         f"of {MAX_PEAK:.0e}")
    if rate != SAMPLE_RATE:
        raise ValueError(f"sample rate {rate} != the enhancer's {SAMPLE_RATE}")
    return x


def _over_peak(x: np.ndarray):
    """The peak magnitude of ``x`` if it is above :data:`MAX_PEAK`, else
    None."""
    peak = max(x.max(), -x.min())
    return peak if peak > MAX_PEAK else None


class _Member:
    """Result ``index`` of a batch: its spectra, noise track and noise grid
    (mdkr), taken here on their own until :func:`_stacked` takes the grids,
    and what the Kalman frame loop reports for it."""

    def __init__(self, index: int, n_samples: int, X, mode: Mode, counters: dict):
        ring = mode is Mode.MDKR
        self.index, self.n_samples, self.counters = index, n_samples, counters
        self.amps, self.phase = np.abs(X), np.angle(X)
        self.psd, vad = track_noise(self.amps)
        self.values = X if ring else None
        self.mean_power = np.mean(self.amps ** 2)
        if ring:
            self.nz_c, self.nz_v = noise_lpc_grid(self.amps, vad, MOD_FRAMES, NOISE_ORDER)
        self.g_speech = self.g_noise = self.gains = None  # set by the Kalman loop


def _stacked(members: list, name: str) -> list:
    """The ``name`` grids of ``members``, (frames, bins) each and longest
    first, as one 1-D row per frame: the frame's bins of the members still
    running at it, side by side, so each row is a leading part of the row
    before it.  The members drop the grids, each freed once copied."""
    grids = [vars(m).pop(name) for m in members]
    rows = []
    for n in range(grids[0].shape[0] if grids else 0):
        while grids[-1].shape[0] <= n:
            grids.pop()
        rows.append(np.concatenate([g[n] for g in grids]))
    return rows


def _unstacked(rows: list, i: int, shape) -> np.ndarray:
    """The (frames, bins) ``shape`` grid that member ``i`` of a
    :func:`_stacked` batch has in ``rows``."""
    n_frames, n_bins = shape
    return np.array([row[i * n_bins:(i + 1) * n_bins] for row in rows[:n_frames]])


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


def _kalman_frames(members: list, amps: list, psd: list, pre: list, values, q: int) -> list:
    """The one Kalman frame loop over the :func:`_stacked` rows of
    ``members`` (amplitudes, noise powers, pre-cleaned amplitudes and, in
    ``mdkr``, complex values): the rows of the estimates, one per frame.
    The carried state is cut to frame n's row length, a slice that keeps
    its C order.  Counters go to :func:`tally` as the live members' dicts,
    which split each row mask in equal consecutive shares; a ring cell gets
    its own member's dict.  An input row is dropped once nothing reads it.

    When frame n's modulation window is past the fitted ones, one
    :func:`speech_lpc_grid` call over the live part of the ``pre`` rows
    fits the next windows, as many as ``_FIT_PAIRS`` allows and fewer where
    the shortest live member ends; each window's fit has the bits of the
    whole grid's.  The prediction-gain sums run per row, adding the frames
    in order as a sum down the whole grid would.
    """
    n_frames, n_bins = len(amps), members[0].phase.shape[1]
    ends = [m.phase.shape[0] for m in members]
    counters = [m.counters for m in members]
    p = SPEECH_ORDER
    dim = p + q
    mean_power = np.repeat([m.mean_power for m in members], n_bins)
    sfloor = _SPEECH_FLOOR_REL * mean_power + _ABS_FLOOR
    nfloor = _NOISE_FLOOR_REL * mean_power + _ABS_FLOOR
    state = KalmanState(*_init_rows(amps[0], psd[0], p, q, mean_power), p, q)

    rows = len(members) * n_bins
    F = np.zeros((rows, dim, dim))
    F[:, 1:p, : p - 1] = np.eye(p - 1)
    if q:
        F[:, p + 1:, p: dim - 1] = np.eye(q - 1)
    # fresh excitation enters the current speech and noise amplitudes only
    W = np.zeros((rows, dim, dim))
    cell_counters = [c for c in counters for _ in range(n_bins)]
    info: dict = {}
    # a live member has more than n frames, so frame n's window exists in
    # each of them: one index serves them all
    jmap = frame_model_index(n_frames, MOD_FRAMES, n_frames - MOD_FRAMES + 1)
    power, err_power = np.zeros(rows), np.zeros(rows)
    j0, sp_c, sp_v = 0, np.empty((0, rows, p)), np.empty((0, rows))  # windows j0, j0 + 1, ...
    est_rows, gs_rows, gn_rows = [], [], []

    for n in range(n_frames):
        y, nu2, pre_n = amps[n], psd[n], pre[n]
        L = y.size
        live = L // n_bins
        if L < state.a.shape[0]:
            state = KalmanState(state.a[:L], state.P[:L], p, q)
        split = counters[:live]
        j = jmap[n]
        if j >= j0 + sp_c.shape[0]:
            w = min(max(_FIT_PAIRS // L, 1), ends[live - 1] - MOD_FRAMES + 1 - j)
            del sp_c, sp_v  # so the fit does not hold the last windows beside its own
            sp_c, sp_v = speech_lpc_grid([row[:L] for row in pre[j:j + w + MOD_FRAMES - 1]],
                                         MOD_FRAMES, SPEECH_ORDER)
            j0 = j
        np.negative(sp_c[j - j0, :L], out=F[:L, 0, :p])
        W[:L, 0, 0] = sp_v[j - j0, :L]
        if n >= p:
            hist = np.array([row[:L] for row in pre[n - p:n]])[::-1]  # newest first
            pred = -np.einsum("ki,ik->k", sp_c[j - j0, :L], hist)
            power[:L] += pre_n ** 2
            err_power[:L] += (pre_n - pred) ** 2
        if q:
            np.negative(np.concatenate([m.nz_c[j] for m in members[:live]]), out=F[:L, p, p:])
            W[:L, p, p] = np.concatenate([m.nz_v[j] for m in members[:live]])

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
            mcap = _NOISE_MEAN_CAP * np.sqrt(np.pi * nu2 / 4.0)
            over = mu[:, 1] > mcap
            if over.any():
                mu[over, 1] = mcap[over]
                tally(split, "noise_mean_clamped", over)

        if q == 0:
            gprior = fit_gamma_prior(mu[:, 0], Sigma[:, 0, 0], split)
            mean, var = mdkm_posterior(gprior, nu2, y, split)
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
            z_n, values[n] = values[n].tolist(), None
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
            gs_rows.append(np.array(gs, dtype=np.int16))
            gn_rows.append(np.array(gn, dtype=np.int16))

        # a non-finite posterior or a row the update cannot invert comes back
        # non-finite and is reset here: the one per-cell fault path
        state = update(state, Sigma, post_mu, post_sig, split)
        row_bad = bad | _nonfinite_rows(state.a, state.P)
        est = np.maximum(post_mu[:, 0], 0.0)
        if row_bad.any():
            est[row_bad] = pre_n[row_bad]
            ra, rp = _init_rows(y[row_bad], nu2[row_bad], p, q, mean_power[:L][row_bad])
            state.a[row_bad] = ra
            state.P[row_bad] = rp
            tally(split, "cell_faults", row_bad)
        est_rows.append(est)
        amps[n] = psd[n] = None
        if n >= MOD_FRAMES - 1:
            pre[n - MOD_FRAMES + 1] = None
    for i, m in enumerate(members):
        own = slice(i * n_bins, (i + 1) * n_bins)
        m.gains = prediction_gain(sums=(power[own], err_power[own]))
        if q:
            m.g_speech = _unstacked(gs_rows, i, m.phase.shape)
            m.g_noise = _unstacked(gn_rows, i, m.phase.shape)
    return est_rows
