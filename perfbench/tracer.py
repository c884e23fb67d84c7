"""Per-module spans and counts, taken from outside the package.

:class:`Tracer` replaces, for the duration of a ``with`` block, the names
through which ``modkalm.enhancer`` and ``modkalm.cli`` call into the other
modules (plus two inner hot spots: the Kummer series behind the Gamma
posterior and the per-component ring moments) with timing wrappers.  Each
wrapper records the inclusive time of its span and hands it to the
enclosing span, so self time is a span's time minus its children's.  The
package itself is not changed.

While ``sampling`` is set, the wrappers of ``mdkr_cell`` and
``mdkm_posterior`` also keep a seeded reservoir sample of the real cells
they see (arguments and outputs), for the oracles in :mod:`oracles`.
"""
from __future__ import annotations

import functools
import random
import time
from collections import defaultdict

import numpy as np

import modkalm.cli
import modkalm.enhancer
import modkalm.gamma_update
import modkalm.gaussring

# (module, attribute, span name); the attribute is the name the caller
# looks up at call time, so patching it reaches every call
_SPANS = (
    (modkalm.enhancer, "_run", "enhancer"),
    (modkalm.enhancer, "analyze", "stft.analyze"),
    (modkalm.enhancer, "synthesize", "stft.synthesize"),
    (modkalm.cli, "read_wav", "stft.wav_io"),
    (modkalm.cli, "write_wav", "stft.wav_io"),
    (modkalm.enhancer, "track_noise", "logmmse.track_noise"),
    (modkalm.enhancer, "logmmse_enhance", "logmmse.enhance"),
    (modkalm.enhancer, "speech_lpc_grid", "lpc.speech_grid"),
    (modkalm.enhancer, "noise_lpc_grid", "lpc.noise_grid"),
    (modkalm.enhancer, "predict", "kalman.predict"),
    (modkalm.enhancer, "update", "kalman.update"),
    (modkalm.enhancer, "fit_gamma_prior", "gamma_update.fit"),
    (modkalm.enhancer, "mdkm_posterior", "gamma_update.posterior"),
    (modkalm.gamma_update, "kummer_m_log", "specfun.kummer"),
    (modkalm.enhancer, "mdkr_cell", "gaussring.posterior"),
    (modkalm.gaussring, "amplitude_moments", "gaussring.moments"),
)

# real cells kept for the oracles: each ring check costs up to ~0.1 s of
# quadrature, each Gamma check ~10 ms
RING_SAMPLES = 4
GAMMA_SAMPLES = 8

# counters of the package's Diagnostics that the per-layer report reads
COUNTERS = ("cell_faults", "prior_mean_clamped", "sigma_regularized",
            "psd_projected", "gamma_clamped_low", "posterior_var_floored",
            "components_pruned", "ring_capped")


class Reservoir:
    """Uniform sample of at most ``k`` items from a stream (algorithm R)."""

    def __init__(self, k: int, rng: random.Random):
        self.k, self.rng, self.seen, self.items = k, rng, 0, []

    def offer(self, make_item) -> None:
        """``make_item`` is called only when the item is kept."""
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append(make_item())
        else:
            j = self.rng.randrange(self.seen)
            if j < self.k:
                self.items[j] = make_item()


class Tracer:
    def __init__(self, rng: random.Random):
        self.total = defaultdict(float)      # inclusive seconds per span
        self.self_time = defaultdict(float)  # minus child spans
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.cells = 0                       # Kalman cells (predict rows)
        self.components = 0                  # ring product components
        self.fallback_cells = 0              # 1x1 products
        self.frame_gaps = []                 # seconds between predict calls
        self.sampling = False
        self.ring_cells = Reservoir(RING_SAMPLES, rng)
        self.gamma_cells = Reservoir(GAMMA_SAMPLES, rng)
        self.cli_files = 0                   # enhancements inside a cli span
        self._stack: list[float] = []        # child seconds per open span
        self._names: list[str] = []          # names of the open spans
        self._last_predict = None
        self._kept = 0
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._stack.append(0.0)
        self._names.append(name)
        return time.perf_counter()

    def _leave(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self._names.pop()
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        t0 = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, t0)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if after:
                after(args, kwargs, result, token)
            return result
        return wrapper

    def __enter__(self):
        for module, attr, name in _SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    # -- observations at the span boundaries --------------------------------

    def _before_enhancer(self, args, kwargs):
        self._last_predict = None
        self.cli_files += "cli" in self._names

    def _after_enhancer(self, args, kwargs, diag, token):
        for key in COUNTERS:
            self.counters[key] += int(diag.counters.get(key, 0))

    def _before_kalman_predict(self, args, kwargs):
        now = time.perf_counter()
        if self._last_predict is not None:
            self.frame_gaps.append(now - self._last_predict)
        self._last_predict = now
        self.cells += args[0].a.shape[0]

    def _after_gaussring_moments(self, args, kwargs, result, token):
        self._kept = len(args[0])

    def _before_gaussring_posterior(self, args, kwargs):
        return kwargs["counters"].get("components_pruned", 0)

    def _after_gaussring_posterior(self, args, kwargs, result, pruned_before):
        n = self._kept + kwargs["counters"].get("components_pruned", 0) - pruned_before
        self.components += n
        self.fallback_cells += n == 1
        if self.sampling:
            mu, sigma = result
            self.ring_cells.offer(lambda: dict(
                args=tuple(float(v) for v in args[:4]) + (complex(args[4]),),
                cap=int(kwargs["cap"]), mu=np.array(mu), sigma=np.array(sigma)))

    def _after_gamma_update_posterior(self, args, kwargs, result, token):
        if not self.sampling:
            return
        prior, nu2, y = args[:3]
        mean, var = result

        def pick():
            k = self.gamma_cells.rng.randrange(np.size(mean))
            return dict(gamma=float(prior.gamma[k]), beta=float(prior.beta[k]),
                        nu2=float(nu2[k]), y=float(y[k]),
                        mean=float(mean[k]), var=float(var[k]))
        self.gamma_cells.offer(pick)

    # -- report ---------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round; rates per Kalman cell."""
        cells = max(self.cells, 1)
        ring_calls = self.calls["gaussring.posterior"]
        gaps_ms = 1e3 * np.asarray(self.frame_gaps) if self.frame_gaps else np.zeros(1)

        m = {name + "_s": (self.total[name] / rounds, "s") for name in (
            "stft.analyze", "stft.synthesize", "stft.wav_io",
            "logmmse.track_noise", "logmmse.enhance",
            "lpc.speech_grid", "lpc.noise_grid",
            "kalman.predict", "kalman.update",
            "gamma_update.fit", "gamma_update.posterior", "specfun.kummer",
            "gaussring.posterior", "gaussring.moments")}
        m.update({
            "kalman.sigma_regularized": (self.counters["sigma_regularized"] / rounds, "count"),
            "kalman.psd_projected": (self.counters["psd_projected"] / rounds, "count"),
            "kalman.prior_mean_clamped_rate": (self.counters["prior_mean_clamped"] / cells, "1/cell"),
            "gamma_update.clamped_low_rate": (self.counters["gamma_clamped_low"] / cells, "1/cell"),
            "gamma_update.var_floored_rate": (self.counters["posterior_var_floored"] / cells, "1/cell"),
            "gaussring.calls": (ring_calls / rounds, "count"),
            "gaussring.us_per_call": (1e6 * self.total["gaussring.posterior"] / max(ring_calls, 1), "us"),
            "gaussring.components": (self.components / rounds, "count"),
            "gaussring.components_per_cell": (self.components / max(ring_calls, 1), "comp/cell"),
            "gaussring.pruned_rate": (self.counters["components_pruned"] / max(self.components, 1), "share"),
            "gaussring.fallback_1x1_rate": (self.fallback_cells / max(ring_calls, 1), "share"),
            "gaussring.ring_capped": (self.counters["ring_capped"] / rounds, "count"),
            "enhancer.self_s": (self.self_time["enhancer"] / rounds, "s"),
            "enhancer.cells": (self.cells / rounds, "count"),
            "enhancer.frame_p50_ms": (float(np.percentile(gaps_ms, 50)), "ms"),
            "enhancer.frame_p99_ms": (float(np.percentile(gaps_ms, 99)), "ms"),
            "enhancer.cell_faults": (self.counters["cell_faults"] / rounds, "count"),
            "cli.self_s": (self.self_time["cli"] / rounds, "s"),
            "cli.files": (self.cli_files / rounds, "count"),
        })
        return m
