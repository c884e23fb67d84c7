"""Properties every enhancer mode must have, checked with hypothesis on
short signals: scale equivariance, output length, finite output and
bit-identical repeat runs.

The inputs are ``bench_signal`` excerpts of at most 0.3 s in white noise,
at a random level, SNR and seed.  Examples are derandomized, so a run is
reproducible; the per-mode example counts keep the suite to ~20 s.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkalm.enhancer import EnhancerConfig, Mode, enhance
from test_acceptance import RATE, add_white, bench_signal

SCALE = 3.7
EQUIVARIANCE_TOL = 1e-9

signals = st.builds(
    lambda seed, dur, snr_db, log_level: (
        10.0 ** log_level * add_white(bench_signal(seed, dur=dur), seed, snr_db)),
    seed=st.integers(0, 2 ** 16),
    dur=st.floats(0.05, 0.3),
    snr_db=st.floats(-5.0, 10.0),
    log_level=st.floats(-3.0, 3.0),
)


@pytest.mark.parametrize("mode, examples", [
    (Mode.LOGMMSE, 50),
    (Mode.MDKM, 25),
    (Mode.MDKR, 4),
])
def test_enhancer_properties(mode, examples):
    cfg = EnhancerConfig(mode=mode)

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(signals)
    def check(x):
        y = enhance(x, RATE, cfg)
        assert y.shape == x.shape
        assert np.isfinite(y).all()
        assert np.array_equal(enhance(x, RATE, cfg), y), "repeat run differs"
        ref = SCALE * y
        err = np.max(np.abs(enhance(SCALE * x, RATE, cfg) - ref)) / np.max(np.abs(ref))
        assert err <= EQUIVARIANCE_TOL, f"enhance({SCALE}x) off by {err:.3g} relative"

    check()
