"""Set-up time of one fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/probe.py WORKLOAD WORKDIR

Prints the seconds from before ``import modkalm`` to the end of a first
enhancement of 0.05 s of noisy speech, made the way the workload makes its
first one: ``enhance(..., mdkr)`` for the ring workloads, and the
``modkalm enhance --mode logmmse`` CLI on one WAV in WORKDIR for
``files-scalar``.  Lazy imports and first-call work therefore count as
set-up, as they do for a user.
"""
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import modkalm  # noqa: E402
import modkalm.cli  # noqa: E402
import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import synth  # noqa: E402

PROBE_SECONDS = 0.05


def main() -> None:
    workload, work = sys.argv[1], Path(sys.argv[2])
    rng = np.random.default_rng(0)
    clean = synth.speech(rng, PROBE_SECONDS)
    noisy = synth.mix(clean, synth.white(rng, clean.size), 0.0)
    if workload == "files-scalar":
        path = work / f"probe-{os.getpid()}.wav"
        synth.write_wav(path, 0.5 * noisy / np.max(np.abs(noisy)))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = modkalm.cli.main(["enhance", "--mode", "logmmse", str(path),
                                     "-o", str(work / "probe-out")])
        if code != 0:
            raise SystemExit(f"probe enhancement exited with {code}")
    else:
        modkalm.enhance(noisy, synth.RATE, modkalm.EnhancerConfig(mode=modkalm.Mode.MDKR))
    print(f"{time.perf_counter() - T0:.6f}")


if __name__ == "__main__":
    main()
