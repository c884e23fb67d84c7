"""The benchmark's own checks: each oracle accepts the program and rejects
a planted error, and a failing check becomes a failed operation.

    python3 -m pytest perfbench
"""
import json
import random
from pathlib import Path

import numpy as np
import pytest

import checks
import oracles
import synth
import workloads
from tracer import Tracer

import modkalm.enhancer
from modkalm.enhancer import EnhancerConfig, Mode, diagnose
from modkalm.gamma_update import GammaPrior, mdkm_posterior
from modkalm.gaussring import mdkr_cell
from modkalm.metrics import seg_snr as package_seg_snr


def ring_cell(mu_s, var_s, mu_n, var_n, z, cap=64):
    mu, sigma = mdkr_cell(mu_s, var_s, mu_n, var_n, z, cap=cap)
    return dict(args=(mu_s, var_s, mu_n, var_n, z), cap=cap, mu=mu, sigma=sigma)


def gamma_cell(gamma, beta, nu2, y):
    mean, var = mdkm_posterior(GammaPrior(np.array([gamma]), np.array([beta])),
                               np.array([nu2]), np.array([y]))
    return dict(gamma=gamma, beta=beta, nu2=nu2, y=y, mean=float(mean[0]), var=float(var[0]))


RING_CELLS = [
    (3.0, 0.5, 2.0, 0.4, 2.5 + 1.0j),     # two proper rings
    (0.2, 1.0, 0.3, 1.0, 1.5j),           # both below the Rayleigh gate (1x1)
    (40.0, 0.3, 1.0, 0.2, 38.0 + 5.0j),   # capped speech ring
]
GAMMA_CELLS = [
    (2.0, 0.7, 1.0, 1.3),
    (1e-3, 30.0, 0.5, 0.8),               # shape at the low clamp
    (49.0, 0.2, 2.0, 4.0),                # shape at the high clamp
    (0.8, 3.0, 1e-2, 9.0),                # narrow high-SNR posterior
]


@pytest.mark.parametrize("args", RING_CELLS)
def test_ring_oracle_accepts_the_program(args):
    assert oracles.ring_cell_fault(ring_cell(*args)) is None


@pytest.mark.parametrize("args", RING_CELLS)
def test_ring_oracle_rejects_planted_errors(args):
    cell = ring_cell(*args)
    assert oracles.ring_cell_fault(dict(cell, mu=cell["mu"] * [1.05, 1.0])) is not None
    sigma = cell["sigma"].copy()
    sigma[0, 1] = sigma[1, 0] = sigma[0, 1] + 0.1 * np.sqrt(sigma[0, 0] * sigma[1, 1])
    assert oracles.ring_cell_fault(dict(cell, sigma=sigma)) is not None


@pytest.mark.parametrize("args", GAMMA_CELLS)
def test_gamma_oracle_accepts_the_program(args):
    assert oracles.gamma_cell_fault(gamma_cell(*args)) is None


@pytest.mark.parametrize("args", GAMMA_CELLS)
def test_gamma_oracle_rejects_planted_errors(args):
    cell = gamma_cell(*args)
    assert oracles.gamma_cell_fault(dict(cell, mean=cell["mean"] * 1.05)) is not None
    assert oracles.gamma_cell_fault(dict(cell, var=cell["var"] * 1.01)) is not None


def test_seg_snr_matches_the_package_definition():
    rng = np.random.default_rng(3)
    clean = synth.speech(rng, 0.5)
    noisy = synth.mix(clean, synth.white(rng, clean.size), 0.0)
    assert checks.seg_snr(clean, noisy) == pytest.approx(
        package_seg_snr(clean, noisy).mean, abs=1e-12)
    assert checks.seg_snr(clean, clean) == checks.SEG_CLAMP[1]


@pytest.mark.parametrize("bad", [
    lambda x: x[:-1],                              # wrong length
    lambda x: np.where(np.arange(x.size) == 7, np.nan, x),
    lambda x: 1 / 0,                               # raises
])
def test_failing_check_is_a_failed_operation(bad):
    tally = checks.Tally()
    x = np.ones(100)
    assert tally.timed(lambda v: v, x)[1] is not None
    seconds, out = tally.timed(bad, x)
    assert out is None and seconds >= 0.0
    assert (tally.attempted, tally.failed, len(tally.reasons)) == (2, 1, 1)


def test_cli_faults_fail_each_bad_file(tmp_path):
    noisy = [np.zeros(800), np.zeros(800), np.zeros(800)]
    paths = [str(tmp_path / f"u{i}.wav") for i in range(3)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    synth.write_wav(out_dir / "u0.enhanced.wav", np.zeros(800))
    synth.write_wav(out_dir / "u1.enhanced.wav", np.zeros(800))
    lines = [f"{paths[0]} -> {out_dir / 'u0.enhanced.wav'}  cell_faults=0 saturated=0",
             f"{paths[1]} -> {out_dir / 'u1.enhanced.wav'}  cell_faults=0 saturated=3"]
    faults, outputs = workloads.cli_faults(0, lines, paths, noisy, out_dir)
    assert faults[0] is None and outputs[0].size == 800
    assert "saturated=3" in faults[1] and "no output line" in faults[2]
    faults, _ = workloads.cli_faults(1, lines, paths, noisy, out_dir)
    assert faults == ["exit code 1"] * 3


def test_equivariance_check_sees_a_non_homogeneous_enhancer():
    x = np.random.default_rng(0).standard_normal(1000)
    assert checks.equivariance_error(lambda v: 2 * v, x, 2 * x, 3.7) < 1e-15
    offset = lambda v: v + 1e-3   # noqa: E731
    assert checks.equivariance_error(offset, x, offset(x), 3.7) > 1e-4


def test_tracer_counts_match_the_package_and_restore_it():
    rng = np.random.default_rng(5)
    clean = synth.speech(rng, 0.1)
    noisy = synth.mix(clean, synth.white(rng, clean.size), 0.0)
    original = modkalm.enhancer.mdkr_cell
    with Tracer(random.Random(0)) as tracer:
        tracer.sampling = True
        diag = diagnose(noisy, synth.RATE, EnhancerConfig(mode=Mode.MDKR))
    assert modkalm.enhancer.mdkr_cell is original
    cells = diag.g_speech.size
    assert tracer.cells == cells == tracer.calls["gaussring.posterior"]
    assert tracer.components == int(np.sum(diag.g_speech.astype(int) * diag.g_noise))
    assert tracer.fallback_cells == int(np.sum((diag.g_speech == 1) & (diag.g_noise == 1)))
    assert len(tracer.ring_cells.items) == 4
    assert all(oracles.ring_cell_fault(c) is None for c in tracer.ring_cells.items)
    m = tracer.metrics(rounds=1)
    assert m["enhancer.self_s"][0] > 0 and m["cli.files"][0] == 0


def test_rounds_are_whole_and_at_least_one():
    done = []
    assert workloads.rounds_until(0.0, done.append) == 1 and done == [0]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    traced = {k: u for k, (_, u) in Tracer(random.Random(0)).metrics(rounds=1).items()}
    traced["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["rtf", "setup_s", "peak_mem_mb",
                                                       "segsnr_gain_db"]
