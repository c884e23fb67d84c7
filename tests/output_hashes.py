"""Print the bit-identity fingerprint of the enhancer's output.

For each mode (``logmmse``, ``mdkm``, ``mdkr``) and each ``bench_signal``
seed 0-4 at 0 dB white noise (``add_white``, both from
``tests/test_acceptance.py``), prints one line::

    mode/seed <sha256 of the float64 enhance output> <counters dict>

and then, for each mode on seed 0, the same signal scaled to a peak of 0.5,
written as a 16-bit WAV and passed through
``modkalm.cli.main(["enhance", "--mode", mode, ...])``::

    cli/mode/0 <sha256 of the WAV file the command writes>

and last, for each mode, seed 0's noisy signal with its first
``SILENT_SECONDS`` set to exact zeros (digital silence, which sends
all-zero rows through the LPC fits)::

    silent/mode/0 <sha256 of the float64 enhance output> <counters dict>

and, for each mode, seed 0 at ``HISNR_DB`` white noise, where some calls of
the Kummer function mix its series and large-x routes (at 0 dB every call
takes the series alone)::

    hisnr/mode/0 <sha256 of the float64 enhance output> <counters dict>

and, for each mode, seed 0 at ``LOWSNR_DB`` white noise, the other SNR of
the ``ring-white`` benchmark workload.  There 31.1% of ``mdkr``'s ring
cells are a product of two single Gaussians (30.6% at 0 dB), the cells
that skip the mixture weights::

    lowsnr/mode/0 <sha256 of the float64 enhance output> <counters dict>

and, for each mode, one ``modkalm enhance --mode mode`` call over the
``BATCH_FILES`` WAVs (slices of different lengths and SNRs, and an
all-zero file), which the command enhances in batches in ``logmmse`` and
``mdkm``::

    batch/mode <sha256 of each written WAV, in input order> <sha256 of the printed lines>

The printed lines are hashed with the output directory written as OUT.
Two checkouts whose outputs and counters are identical print identical
lines, so a change that must keep the output bit-identical is checked by
running this before and after it::

    python3 tests/output_hashes.py > after.txt && diff before.txt after.txt

The package is imported from the ``src`` directory next to this file.  The
file name does not match ``test_*.py``, so pytest does not collect it.  A
run takes about a minute and a half on a 2-core x86-64 host, most of it in ``mdkr``.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from modkalm.cli import main as cli_main  # noqa: E402
from modkalm.enhancer import EnhancerConfig, Mode, diagnose  # noqa: E402
from modkalm.stft import write_wav  # noqa: E402
from test_acceptance import RATE, add_white, bench_signal  # noqa: E402

MODES = ("logmmse", "mdkm", "mdkr")
SEEDS = range(5)
SILENT_SECONDS = 0.3
HISNR_DB = 20.0
LOWSNR_DB = -5.0
# (seed, seconds, SNR dB) of each batch file; seconds 0 is an all-zero file
BATCH_FILES = ((1, 0.8, 0.0), (2, 0.3, -5.0), (0, 0.2, None), (3, 0.6, 10.0), (4, 0.45, 0.0))


def _print_run(tag: str, noisy: np.ndarray, mode: str) -> None:
    diag = diagnose(noisy, RATE, EnhancerConfig(mode=Mode(mode)))
    out = np.ascontiguousarray(diag.enhanced, dtype=np.float64)
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    print(f"{tag} {digest} {dict(sorted(diag.counters.items()))}", flush=True)


def main() -> int:
    for mode in MODES:
        for seed in SEEDS:
            _print_run(f"{mode}/{seed}", add_white(bench_signal(seed), seed, 0.0), mode)
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "noisy.wav"
        noisy = add_white(bench_signal(0), 0, 0.0)
        write_wav(wav, 0.5 * noisy / np.max(np.abs(noisy)), RATE)
        for mode in MODES:
            out = Path(tmp) / mode
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["enhance", "--mode", mode, str(wav), "-o", str(out)])
            if code != 0:
                raise SystemExit(f"modkalm enhance --mode {mode} exited with {code}")
            digest = hashlib.sha256((out / "noisy.enhanced.wav").read_bytes()).hexdigest()
            print(f"cli/{mode}/0 {digest}", flush=True)
    silent = add_white(bench_signal(0), 0, 0.0)
    silent[: int(SILENT_SECONDS * RATE)] = 0.0
    for mode in MODES:
        _print_run(f"silent/{mode}/0", silent, mode)
    for mode in MODES:
        _print_run(f"hisnr/{mode}/0", add_white(bench_signal(0), 0, HISNR_DB), mode)
    for mode in MODES:
        _print_run(f"lowsnr/{mode}/0", add_white(bench_signal(0), 0, LOWSNR_DB), mode)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (seed, seconds, snr) in enumerate(BATCH_FILES):
            x = bench_signal(seed)[: int(seconds * RATE)]
            x = np.zeros_like(x) if snr is None else add_white(x, seed, snr)
            peak = np.max(np.abs(x))
            paths.append(Path(tmp) / f"in{i}.wav")
            write_wav(paths[-1], 0.5 * x / peak if peak else x, RATE)
        for mode in MODES:
            out, printed = Path(tmp) / f"batch-{mode}", io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main(["enhance", "--mode", mode, *map(str, paths), "-o", str(out)])
            if code != 0:
                raise SystemExit(f"modkalm enhance --mode {mode} exited with {code}")
            digests = [hashlib.sha256((out / f"{p.stem}.enhanced.wav").read_bytes()).hexdigest()
                       for p in paths]
            lines = printed.getvalue().replace(str(out), "OUT").replace(tmp, "TMP")
            digests.append(hashlib.sha256(lines.encode()).hexdigest())
            print(f"batch/{mode} {' '.join(digests)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
