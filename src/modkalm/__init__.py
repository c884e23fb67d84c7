"""Modulation-domain Kalman filter speech enhancement.

The package tracks short-time spectral amplitude trajectories per
frequency bin with a Kalman filter whose speech and noise rows carry
linear-prediction models of the modulation dynamics, and replaces the
Gaussian measurement step with amplitude-domain posteriors: a
Gamma-prior closed form (``mdkm``) or a ring-mixture joint prior over
speech and noise (``mdkr``). A log-spectral MMSE stage supplies the
pre-cleaned amplitudes and the noise tracker.

Typical use::

    from modkalm import EnhancerConfig, Mode, enhance, read_wav, write_wav

    samples, rate = read_wav("noisy.wav", expect_rate=16000)
    write_wav("out.wav", enhance(samples, rate, EnhancerConfig(mode=Mode.MDKR)), rate)

or from the shell: ``modkalm enhance --mode mdkr noisy.wav -o out/``.
"""
from .enhancer import Diagnostics, EnhancerConfig, Mode, diagnose, enhance
from .metrics import SegSnrReport, seg_snr
from .stft import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "Diagnostics",
    "EnhancerConfig",
    "Mode",
    "SegSnrReport",
    "diagnose",
    "enhance",
    "read_wav",
    "seg_snr",
    "write_wav",
    "__version__",
]
