"""Log-spectral amplitude baseline enhancer and its noise power tracker.

The tracker takes the noisy amplitude grid, the enhancer its rows, one per
frame.  The tracker's noise power and per-frame noise-only flags feed the
baseline enhancer itself, the pre-cleaner in front of the speech model
estimator and, the flags, the noise model estimator.
"""
import numpy as np
from scipy.special import exp1

from .stft import FRAME_INC, FRAME_LEN, SAMPLE_RATE

SMOOTH_ALPHA = 0.96           # recursive periodogram smoothing; calibrated so
                              # the fixed bias factor centres the estimate on
                              # stationary noise under the stft framing
MIN_TRACK_SECONDS = 1.5       # sliding-minimum span
MIN_TRACK_BIAS = 1.5          # compensates the downward bias of the minimum
WARMUP_SECONDS = 0.2          # seed span for the smoother's initial state
PSD_FLOOR_REL = 1e-10         # relative to the overall mean power
VAD_SNR_LIMIT = 10.0 ** 0.3   # 3 dB a-posteriori SNR
VAD_BIN_FRACTION = 0.8
DD_ALPHA = 0.98               # decision-directed smoothing
XI_MIN = 1e-8
V_MIN = 1e-50
GAIN_FLOOR = 10.0 ** (-30.0 / 20.0)


def track_noise(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-statistics noise PSD and a crude frame activity flag: ``(psd, vad)``.

    Periodograms are smoothed recursively (weight ``SMOOTH_ALPHA`` on the
    running value), a causal sliding minimum over roughly 1.5 s picks out
    the noise floor in each bin, and the minimum's downward bias is undone
    by a fixed factor.  A frame is flagged noise-only when at least 80% of
    its bins sit below 3 dB a-posteriori SNR.
    """
    power = amps ** 2

    # frames overlapping the analysis padding at either end carry partial
    # signal; keep them out of the noise-floor search
    guard = -(-FRAME_LEN // FRAME_INC)
    if power.shape[0] > 2 * guard + 1:
        body = power[guard:]
        seed_n = min(int(round(WARMUP_SECONDS * SAMPLE_RATE / FRAME_INC)), body.shape[0])
        seed = body[:seed_n].mean(axis=0)
        # the recursion starts from the seed average
        core = _smooth_power(body, SMOOTH_ALPHA * seed)
        smooth = np.concatenate([np.repeat(core[:1], guard, axis=0), core])
        smooth[-guard:] = smooth[-guard - 1]
    else:
        smooth = _smooth_power(power, SMOOTH_ALPHA * power[0])

    width = int(round(MIN_TRACK_SECONDS * SAMPLE_RATE / FRAME_INC))
    if width % 2 == 0:
        width -= 1
    floor_track = _trailing_min(smooth, width)

    floor = PSD_FLOOR_REL * power.mean()
    if floor <= 0.0:
        floor = np.finfo(float).tiny
    psd = np.maximum(MIN_TRACK_BIAS * floor_track, floor)

    quiet = power < VAD_SNR_LIMIT * psd
    vad = quiet.mean(axis=1) >= VAD_BIN_FRACTION
    return psd, vad


def _smooth_power(power: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """y[n] = a·y[n-1] + (1-a)·power[n] down axis 0 with a = SMOOTH_ALPHA,
    where ``carry`` stands for a·y[-1].  Each step is the operation of the
    first-order ``scipy.signal.lfilter([1-a], [1, -a], zi=carry)``, which
    forms carry + (1-a)·x and then carries a·y, so the bits are its bits."""
    scaled = (1.0 - SMOOTH_ALPHA) * power
    out = np.empty_like(power)
    for n in range(power.shape[0]):
        np.add(carry, scaled[n], out=out[n])
        carry = SMOOTH_ALPHA * out[n]
    return out


def _trailing_min(x: np.ndarray, width: int) -> np.ndarray:
    """out[n] = min(x[max(0, n-width+1) : n+1]) down axis 0.

    The window doubles each pass, so it takes ⌈log₂ width⌉ passes of one
    ``np.minimum`` each; a minimum needs no rounding, so the result is that
    of any other order, ``scipy.ndimage.minimum_filter1d`` included.
    """
    out = x.copy()
    span = 1  # out[n] holds the minimum over the last `span` frames
    while span < width:
        step = min(span, width - span)
        out[step:] = np.minimum(out[step:], out[:-step])
        span += step
    return out


def logmmse_gain(xi, gamma_post):
    """Log-spectral amplitude gain for a-priori SNR ``xi``, a-posteriori
    SNR ``gamma_post``; clipped to [GAIN_FLOOR, 1]."""
    xi = np.maximum(np.asarray(xi, dtype=float), XI_MIN)
    gamma_post = np.asarray(gamma_post, dtype=float)
    v = np.maximum(xi * gamma_post / (1.0 + xi), V_MIN)
    return np.clip(xi / (1.0 + xi) * np.exp(0.5 * exp1(v)), GAIN_FLOOR, 1.0)


def logmmse_enhance(amps: list, psd: list) -> list:
    """The amplitude rows of ``amps`` after log-spectral amplitude gains
    against the matching noise power rows of ``psd``, one 1-D row per frame.

    A-priori SNR follows the decision-directed recursion: a weighted blend
    of the previous frame's cleaned power over the noise estimate and the
    instantaneous ``max(gamma-1, 0)``.

    A row may hold the bins of several utterances side by side, as long as
    it is a leading part of the row before it: those bins carry on from
    that row's, and the rest have ended.  Every step acts on each bin
    alone, so each utterance gets the bits of a call on its rows alone.
    """
    if len(amps) != len(psd) or any(np.ndim(y) != 1 or np.shape(y) != np.shape(v)
                                    for y, v in zip(amps, psd)):
        raise ValueError("noise tracks do not match the spectrograms")
    out = []
    for n, (y, nu2) in enumerate(zip(amps, psd)):
        gamma = y ** 2 / nu2
        inst = np.maximum(gamma - 1.0, 0.0)
        if n == 0:
            xi = inst
        elif y.size > prev_psd.size:
            raise ValueError(f"row {n} is longer than the row before it")
        else:
            xi = DD_ALPHA * prev_power[:y.size] / prev_psd[:y.size] + (1.0 - DD_ALPHA) * inst
        est = logmmse_gain(xi, gamma) * y
        out.append(est)
        prev_power, prev_psd = est ** 2, nu2
    return out
