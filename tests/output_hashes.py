"""Print the bit-identity fingerprint of the enhancer's output.

For each mode (``logmmse``, ``mdkm``, ``mdkr``) and each ``bench_signal``
seed 0-4 at 0 dB white noise (``add_white``, both from
``tests/test_acceptance.py``), prints one line::

    mode/seed <sha256 of the float64 enhance output> <counters dict>

Two checkouts whose outputs and counters are identical print identical
lines, so a change that must keep the output bit-identical is checked by
running this before and after it::

    python3 tests/output_hashes.py > after.txt && diff before.txt after.txt

The package is imported from the ``src`` directory next to this file.  The
file name does not match ``test_*.py``, so pytest does not collect it.  A
run takes about a minute on a 2-core x86-64 host, most of it in ``mdkr``.
"""
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from modkalm.enhancer import EnhancerConfig, Mode, diagnose  # noqa: E402
from test_acceptance import RATE, add_white, bench_signal  # noqa: E402

MODES = ("logmmse", "mdkm", "mdkr")
SEEDS = range(5)


def main() -> int:
    for mode in MODES:
        cfg = EnhancerConfig(mode=Mode.parse(mode))
        for seed in SEEDS:
            noisy = add_white(bench_signal(seed), seed, 0.0)
            diag = diagnose(noisy, RATE, cfg)
            out = np.ascontiguousarray(diag.enhanced, dtype=np.float64)
            digest = hashlib.sha256(out.tobytes()).hexdigest()
            print(f"{mode}/{seed} {digest} {dict(sorted(diag.counters.items()))}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
