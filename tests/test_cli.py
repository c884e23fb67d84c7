"""Tests for the batch command-line front end."""
import concurrent.futures
import json
import logging
import multiprocessing
import os
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import modkalm.cli
from modkalm.cli import _mix_at_snr, main
from modkalm.enhancer import EnhancerConfig, Mode, enhance
from modkalm.stft import read_wav, write_wav
import reference

RATE = 16000


def burst_tone(dur: float = 0.45, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(int(dur * RATE)) / RATE
    sig = sum(np.cos(2 * np.pi * 180 * h * t + rng.uniform(0, 2 * np.pi)) / h
              for h in range(1, 12))
    return sig / np.max(np.abs(sig)) * 0.6 * (0.4 + 0.6 * np.sin(2 * np.pi * 3 * t) ** 2)


@pytest.fixture(scope="module")
def wavs(tmp_path_factory):
    root = tmp_path_factory.mktemp("audio")
    rng = np.random.default_rng(42)
    clean = burst_tone()
    write_wav(root / "in.wav", clean, RATE)
    write_wav(root / "second.wav", burst_tone(seed=5), RATE)
    write_wav(root / "noise_short.wav", rng.standard_normal(3000) * 0.1, RATE)
    write_wav(root / "noise_long.wav", rng.standard_normal(clean.size * 3) * 0.1, RATE)
    write_wav(root / "slow.wav", np.zeros(4000), 8000)
    return root


class TestEnhanceCommand:
    def test_writes_named_output(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                   "-o", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "in.enhanced.wav"
        assert out.exists()
        samples, rate = read_wav(out)
        assert rate == RATE and samples.size == burst_tone().size
        line = capsys.readouterr().out
        assert "in.enhanced.wav" in line and "cell_faults=" in line

    def test_glob_inputs(self, wavs, tmp_path):
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "*.wav"),
                   "-o", str(tmp_path)])
        # the 8 kHz file in the directory is a runtime failure, not usage
        assert rc == 1

    def test_two_files(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                   str(wavs / "second.wav"), "-o", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "in.enhanced.wav").exists()
        assert (tmp_path / "second.enhanced.wav").exists()
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_unknown_mode_is_usage_error(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--mode", "wiener", str(wavs / "in.wav"),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert "logmmse" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--p", "--q", "--frame-ms", "--inc-ms",
                                      "--mod-frame-ms"])
    def test_framing_and_order_flags_are_gone(self, wavs, tmp_path, capsys, flag):
        # the framing and model orders are constants of the package
        rc = main(["enhance", "--mode", "mdkm", flag, "4", str(wavs / "in.wav"),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    def test_mdkm_noise_order_conflict(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--mode", "mdkm", "--q", "4",
                   str(wavs / "in.wav"), "-o", str(tmp_path)])
        assert rc == 2
        assert "--q" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["9", "8", "-1"])
    def test_mdkr_noise_order_beyond_window(self, wavs, tmp_path, capsys, q):
        rc = main(["enhance", "--mode", "mdkr", "--q", q,
                   str(wavs / "in.wav"), "-o", str(tmp_path)])
        assert rc == 2
        assert "--q" in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    @pytest.mark.parametrize("flag, value, extra", [
        ("--frame-ms", "0", []), ("--frame-ms", "nan", []), ("--frame-ms", "-32", []),
        ("--frame-ms", "inf", []), ("--frame-ms", "0.01", []),
        ("--inc-ms", "0", []), ("--inc-ms", "-8", []), ("--inc-ms", "nan", []),
        ("--inc-ms", "64", []),
        ("--mod-frame-ms", "inf", []), ("--mod-frame-ms", "0", []),
        ("--mod-frame-ms", "nan", []), ("--mod-frame-ms", "1e308", ["--inc-ms", "0.05"]),
    ])
    def test_bad_framing_flag_is_usage_error(self, wavs, tmp_path, capsys, flag, value,
                                             extra):
        # no framing value, good or bad, gets past the parser
        rc = main(["enhance", "--mode", "mdkm", flag, value, *extra,
                   str(wavs / "in.wav"), "-o", str(tmp_path)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    def test_seed_flag_belongs_to_bench(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--seed", "3", str(wavs / "in.wav"), "-o", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    def test_ring_cap_flag_is_gone(self, wavs, tmp_path, capsys):
        rc = main(["enhance", "--ring-cap", "32", str(wavs / "in.wav"),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert "--ring-cap" in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    def test_config_flag_is_gone(self, wavs, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = logmmse\n")
        for argv in (["enhance"], ["bench", "--noise", str(wavs / "noise_long.wav")]):
            rc = main([*argv, "--config", str(cfg), str(wavs / "in.wav"),
                       "-o", str(tmp_path / "out")])
            assert rc == 2
            assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("same_path", [False, True], ids=["same-stem", "same-path"])
    def test_inputs_sharing_an_output_are_a_usage_error(self, tmp_path, capsys, same_path):
        # the inputs are not audio, so an input read would fail with exit 1
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "a.wav").write_text("not audio\n")
        first, second = str(tmp_path / "x" / "a.wav"), str(tmp_path / "y" / "a.wav")
        inputs = [str(tmp_path / "x" / "*.wav"), first] if same_path else [first, second]
        rc = main(["enhance", *inputs, "-o", str(tmp_path / "out"), "--workers", "2"])
        assert rc == 2
        shared = tmp_path / "out" / "a.enhanced.wav"
        assert capsys.readouterr().err == (
            f"error: {first} and {first if same_path else second} would both write {shared}\n")
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc = main(["enhance", str(tmp_path / "absent.wav"), "-o", str(tmp_path)])
        assert rc == 1
        assert "absent" in capsys.readouterr().err

    def test_rate_mismatch_is_runtime_error(self, wavs, tmp_path):
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "slow.wav"),
                   "-o", str(tmp_path)])
        assert rc == 1

    def test_defaults_are_the_library_defaults(self, tmp_path):
        write_wav(tmp_path / "short.wav", burst_tone(dur=0.3, seed=3), RATE)
        x, _ = read_wav(tmp_path / "short.wav")
        assert main(["enhance", str(tmp_path / "short.wav"), "-o", str(tmp_path / "out")]) == 0
        write_wav(tmp_path / "ref.wav", enhance(x, RATE, EnhancerConfig()), RATE)
        out = (tmp_path / "out" / "short.enhanced.wav").read_bytes()
        assert out == (tmp_path / "ref.wav").read_bytes()


@pytest.fixture(scope="module")
def batch_wavs(tmp_path_factory):
    """Per mode, WAVs of the members of ``test_enhancer.batch_members``
    (four lengths at -5/0/+10 dB, digital silence, all zeros)."""
    from test_enhancer import batch_members
    root = tmp_path_factory.mktemp("batch")
    paths = {}
    for mode in Mode:
        paths[mode] = []
        for i, x in enumerate(batch_members(mode)):
            path = root / f"{mode.value}{i}.wav"
            peak = np.max(np.abs(x))
            write_wav(path, 0.5 * x / peak if peak else x, RATE)
            paths[mode].append(str(path))
    return paths


def enhance_call(mode, paths, out_dir, capsys, *flags):
    """Exit code, output bytes per input and printed lines of one
    ``modkalm enhance`` call, with ``out_dir`` in the lines written as OUT."""
    rc = main(["enhance", "--mode", mode.value, *paths, "-o", str(out_dir), *flags])
    lines = capsys.readouterr().out.replace(str(out_dir), "OUT").splitlines()
    outputs = [(out_dir / (os.path.basename(p)[:-4] + ".enhanced.wav")).read_bytes()
               for p in paths]
    return rc, outputs, lines


class TestEnhanceBatches:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_batches_write_and_print_what_single_files_do(self, batch_wavs, tmp_path,
                                                          capsys, monkeypatch, mode):
        paths = batch_wavs[mode]
        # a budget that splits the files into two batches for one process
        sizes = [os.path.getsize(p) for p in paths]
        monkeypatch.setattr(modkalm.cli, "BATCH_BYTES", sum(sizes[:3]))
        assert [len(b) for b in modkalm.cli._batches(paths, 1)] == [2, len(paths) - 2]
        alone = [enhance_call(mode, [p], tmp_path / "alone", capsys) for p in paths]
        assert all(rc == 0 for rc, _, _ in alone)
        expect = ([out for _, (out,), _ in alone], [line for _, _, (line,) in alone])
        for flags in (["--workers", "1"], ["--workers", "2"], ["--workers", "3"], []):
            rc, outputs, lines = enhance_call(mode, paths, tmp_path / "-".join(flags),
                                              capsys, *flags)
            assert rc == 0
            assert (outputs, lines) == expect

    @pytest.mark.parametrize("mode", list(Mode))
    def test_only_mdkm_files_are_batched(self, batch_wavs, tmp_path, monkeypatch, mode):
        sizes = []

        def spy(signals, rate, cfg):
            xs = list(signals)
            sizes.append(len(xs))
            return [SimpleNamespace(enhanced=x, counters={}) for x in xs]

        monkeypatch.setattr(modkalm.cli, "diagnose_batch", spy)
        paths = batch_wavs[Mode.MDKM]
        # in this process only: a forked worker's spy records nothing here
        assert main(["enhance", "--mode", mode.value, *paths, "-o", str(tmp_path),
                     "--workers", "1"]) == 0
        batched = [len(b) for b in modkalm.cli._batches(paths, 1)]
        assert max(batched) > 1
        assert sizes == (batched if mode is Mode.MDKM else [1] * len(paths))

    @pytest.mark.parametrize("files, workers, sizes", [
        (9, 1, [5, 4]), (4, 4, [1, 1, 1, 1]), (12, 4, [3, 3, 3, 3]), (5, 2, [3, 2]),
        (2, 4, [1, 1]), (12, 2, [6, 6]), (4, 1, [4]), (8, 1, [8])])
    def test_budget_takes_eight_half_second_files_and_every_worker_a_batch(
            self, tmp_path, files, workers, sizes):
        path = tmp_path / "half.wav"
        write_wav(path, np.zeros(RATE // 2), RATE)
        batches = modkalm.cli._batches([str(path)] * files, workers)
        assert [len(b) for b in batches] == sizes

    def test_unreadable_file_fails_the_run_as_before(self, wavs, batch_wavs, tmp_path,
                                                     capsys):
        # the 8 kHz file sits in the one batch of one process: exit 1 with
        # read_wav's message, and no output of that batch is written
        paths = [batch_wavs[Mode.MDKM][0], str(wavs / "slow.wav"), batch_wavs[Mode.MDKM][1]]
        assert len(modkalm.cli._batches(paths, 1)) == 1
        rc = main(["enhance", "--mode", "mdkm", *paths, "-o", str(tmp_path),
                   "--workers", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {wavs / 'slow.wav'}: sample rate 8000 != expected 16000\n"
        assert list(tmp_path.iterdir()) == []


class InlineExecutor(concurrent.futures.Executor):
    """Stands in for the process pool: records the pool size asked for and
    runs each job at submit, in this process, so nothing is started."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        return future


def process_bytes(batches, workers: int) -> list:
    """Bytes each of ``workers`` processes runs when the first one free
    takes the next batch, each batch taking time in proportion to its
    bytes."""
    loads = [0] * workers
    for batch in batches:
        loads[loads.index(min(loads))] += sum(os.path.getsize(p) for p in batch)
    return loads


def failing_job(job):
    """Job ``bad`` raises at once; the others sleep ``nap`` s, then leave a
    mark in ``marks``."""
    index, bad, nap, marks = job
    if index == bad:
        raise ValueError(f"job {index} fails")
    time.sleep(nap)
    (Path(marks) / str(index)).touch()
    return index


CALLER = os.getpid()


def dies_in_a_started_process(job):
    """Stands in for ``cli._enhance_files``: a process started for the run
    ends at once, with no cleanup; the calling process runs its job."""
    if os.getpid() != CALLER:
        os._exit(3)
    return []


@pytest.fixture
def not_wav(tmp_path):
    path = tmp_path / "in" / "text.wav"
    path.parent.mkdir()
    path.write_text("plain text, not audio\n")
    return path


class TestWorkers:
    def test_default_is_the_usable_cores(self, monkeypatch):
        def parse(argv):
            return modkalm.cli._build_parser().parse_args(argv)
        assert parse(["enhance", "x.wav"]).workers == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert parse(["bench", "x.wav", "--noise", "n.wav"]).workers == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert parse(["enhance", "x.wav"]).workers == 7

    @pytest.mark.parametrize("files, flags, sizes", [
        (2, ["--workers", "5000"], [1]), (3, ["--workers", "2"], [1]),
        (3, ["--workers", "1"], []), (1, ["--workers", "5000"], [])])
    def test_pool_forks_one_fewer_than_the_jobs_at_most(self, wavs, tmp_path, capsys,
                                                          monkeypatch, files, flags, sizes):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "sizes", [])
        paths = [str(wavs / "in.wav"), str(wavs / "second.wav"), str(wavs / "noise_long.wav")]
        assert main(["enhance", "--mode", "logmmse", *paths[:files], "-o", str(tmp_path),
                     *flags]) == 0
        assert InlineExecutor.sizes == sizes
        assert len(capsys.readouterr().out.splitlines()) == files

    @pytest.mark.parametrize("files, workers", [
        (12, 1), (12, 2), (12, 3), (12, 4), (6, 3), (8, 2), (16, 4), (24, 2), (24, 3)])
    def test_equal_files_give_equal_bytes_per_process(self, tmp_path, files, workers):
        path = tmp_path / "half.wav"
        write_wav(path, np.zeros(RATE // 2), RATE)
        batches = modkalm.cli._batches([str(path)] * files, workers)
        assert len(batches) % workers == 0
        loads = process_bytes(batches, workers)
        assert loads == [loads[0]] * workers

    def test_busiest_process_runs_at_most_its_share_of_equal_files(self, tmp_path):
        path = tmp_path / "half.wav"
        write_wav(path, np.zeros(RATE // 2), RATE)
        size = os.path.getsize(path)
        for files in range(1, 41):
            for workers in range(1, 9):
                batches = modkalm.cli._batches([str(path)] * files, workers)
                busiest = max(process_bytes(batches, workers)) // size
                assert busiest <= -(-files // workers), (files, workers)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_lengths_keep_each_process_within_a_file_of_its_share(self, tmp_path,
                                                                       seed):
        rng = np.random.default_rng(seed)
        workers = 2 + seed % 3
        sizes = [44 + 2 * int(RATE * s) for s in rng.uniform(0.3, 2.0, 6 + 3 * seed)]
        paths = []
        for i, size in enumerate(sizes):
            paths.append(str(tmp_path / f"{i}.wav"))
            Path(paths[-1]).write_bytes(bytes(size))
        batches = modkalm.cli._batches(paths, workers)
        assert sum(batches, []) == paths
        assert all(len(b) == 1 or sum(os.path.getsize(p) for p in b)
                   <= modkalm.cli.BATCH_BYTES for b in batches)
        share = sum(sizes) / workers
        assert all(abs(n - share) <= max(sizes)
                   for n in process_bytes(batches, workers))

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_non_wav_exits_1_naming_it_in_either_share(self, wavs, not_wav, tmp_path,
                                                       capsys, workers, bad_first):
        # with two processes the forked one takes the first file and this
        # one the second, so the error is raised in each share in turn
        good = str(wavs / "in.wav")
        paths = [str(not_wav), good] if bad_first else [good, str(not_wav)]
        rc = main(["enhance", "--mode", "logmmse", *paths, "-o", str(tmp_path / "out"),
                   "--workers", workers])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {not_wav}: not a WAV file (file does not start with RIFF id)\n")
        assert multiprocessing.active_children() == []
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        # the good file ran, or was running, when the bad one failed, unless
        # it comes after the bad one in a single process
        assert written == ([] if bad_first and workers == "1" else ["in.enhanced.wav"])

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("samples, why", [
        (100, "signal shorter than one frame (100 < 512)"), (0, "signal is empty")],
        ids=["short", "empty"])
    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_unusable_signal_exits_1_naming_it_in_either_share(self, wavs, tmp_path, capsys,
                                                               mode, samples, why, bad_first):
        # the forked process takes the first file and this one the second;
        # the enhancer's message does not name the file, so the CLI does
        bad = tmp_path / "bad.wav"
        write_wav(bad, np.full(samples, 0.1), RATE)
        good = str(wavs / "in.wav")
        paths = [str(bad), good] if bad_first else [good, str(bad)]
        rc = main(["enhance", "--mode", mode.value, *paths, "-o", str(tmp_path / "out"),
                   "--workers", "2"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: {why}\n"
        assert multiprocessing.active_children() == []

    def test_cuts_match_the_planner_with_a_load_for_every_process(self, monkeypatch):
        # the planner keeps a load only for each process that took a batch;
        # with one for each of the workers asked for it cut the same
        rng = np.random.default_rng(19)
        scales = [0, 300, 4_000, 16_044, 40_000, 70_000]
        sizes = []
        monkeypatch.setattr(os.path, "getsize", lambda path: sizes[int(path)])
        for _ in range(1200):
            n = int(rng.integers(1, 13))
            sizes[:] = [int(rng.integers(0, s + 1)) for s in rng.choice(scales, n)]
            workers = int(rng.integers(1, 4 * n + 1))
            batches = modkalm.cli._batches([str(i) for i in range(n)], workers)
            assert [len(b) for b in batches] == reference.batch_cuts(
                sizes, workers, modkalm.cli.BATCH_BYTES), (sizes, workers)
            assert sum(batches, []) == [str(i) for i in range(n)]

    def test_planner_cost_does_not_grow_with_workers(self, wavs):
        # a million workers asked for made lists of a million loads each
        paths = [str(wavs / name) for name in ("in.wav", "second.wav", "noise_long.wav")]
        tracemalloc.start()
        try:
            batches = modkalm.cli._batches(paths, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert batches == [[path] for path in paths]
        start = time.perf_counter()
        assert modkalm.cli._batches(paths, 10 ** 12) == batches
        assert time.perf_counter() - start < 0.5

    def test_first_failing_file_in_input_order_is_reported(self, wavs, not_wav,
                                                           tmp_path, capsys):
        # both fail at once, the second here and the first in the started
        # process, whose error comes back later through the pool
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "slow.wav"), str(not_wav),
                   "-o", str(tmp_path / "out"), "--workers", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {wavs / 'slow.wav'}: sample rate 8000 != expected 16000\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [0, 1], ids=["in-worker", "in-caller"])
    def test_jobs_not_started_are_cancelled(self, tmp_path, bad):
        # job 0 goes to the forked process and job 1 to this one; the other
        # one of the two runs 0.5 s, long after the bad one has failed
        jobs = [(i, bad, 0.5, str(tmp_path)) for i in range(6)]
        with pytest.raises(ValueError, match=f"job {bad} fails"):
            modkalm.cli._run_jobs(failing_job, jobs, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [str(1 - bad)]
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_fails_the_run(self, wavs, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(modkalm.cli, "_enhance_files", dies_in_a_started_process)
        rc = main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                   str(wavs / "second.wav"), "-o", str(tmp_path), "--workers", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: a worker process ended abruptly\n"
        assert multiprocessing.active_children() == []

    def test_no_process_is_left_after_a_run(self, wavs, tmp_path):
        jobs = [(i, -1, 0.0, str(tmp_path)) for i in range(5)]
        assert modkalm.cli._run_jobs(failing_job, jobs, 3) == list(range(5))
        assert multiprocessing.active_children() == []
        assert main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                     str(wavs / "second.wav"), "-o", str(tmp_path / "out"),
                     "--workers", "2"]) == 0
        assert multiprocessing.active_children() == []


class TestBenchCommand:
    def test_grid_shape(self, wavs, tmp_path):
        rc = main(["bench", str(wavs / "in.wav"),
                   "--noise", str(wavs / "noise_long.wav"),
                   "--snr", "0", "5", "-o", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "file,enhancer,snr_db,segsnr_db"
        assert len(lines) == 1 + 2 * 3  # two SNRs x {logmmse, mdkm, mdkr}
        scores = [float(row.split(",")[3]) for row in lines[1:]]
        assert all(np.isfinite(scores))
        bundle = json.loads((tmp_path / "bench_diagnostics.json").read_text())
        assert len(bundle) == 6
        assert all("counters" in entry for entry in bundle.values())

    def test_seeded_runs_repeat_exactly(self, wavs, tmp_path):
        args = [str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                "--snr", "3", "--mode", "logmmse", "--seed", "11"]
        assert main(["bench", *args, "-o", str(tmp_path / "a")]) == 0
        assert main(["bench", *args, "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "bench.csv").read_bytes()
        assert a == (tmp_path / "b" / "bench.csv").read_bytes()

    def test_seed_moves_noise_excerpt(self, wavs, tmp_path):
        base = [str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                "--snr", "3", "--mode", "logmmse"]
        assert main(["bench", *base, "--seed", "1", "-o", str(tmp_path / "a")]) == 0
        assert main(["bench", *base, "--seed", "2", "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "bench.csv").read_bytes()
        assert a != (tmp_path / "b" / "bench.csv").read_bytes()

    def test_workers_do_not_change_results(self, wavs, tmp_path):
        base = [str(wavs / "in.wav"), str(wavs / "second.wav"),
                "--noise", str(wavs / "noise_long.wav"),
                "--snr", "0", "5", "--mode", "logmmse"]
        assert main(["bench", *base, "-o", str(tmp_path / "s")]) == 0
        assert main(["bench", *base, "--workers", "2", "-o", str(tmp_path / "p")]) == 0
        serial = (tmp_path / "s" / "bench.csv").read_bytes()
        assert serial == (tmp_path / "p" / "bench.csv").read_bytes()

    @staticmethod
    def row_and_entry_keys(out: Path) -> tuple[list, list]:
        """The file|enhancer|SNR text of each ``bench.csv`` row, and the keys
        of ``bench_diagnostics.json``."""
        rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
        keys = ["|".join(row.split(",")[:3]) for row in rows]
        return keys, sorted(json.loads((out / "bench_diagnostics.json").read_text()))

    def test_repeated_snr_or_clean_file_runs_once(self, wavs, tmp_path):
        clean = str(wavs / "in.wav")
        assert main(["bench", clean, clean, "--noise", str(wavs / "noise_long.wav"),
                     "--snr", "0", "5", "0", "--mode", "logmmse", "-o", str(tmp_path)]) == 0
        keys, entries = self.row_and_entry_keys(tmp_path)
        assert keys == [f"{clean}|logmmse|0.0", f"{clean}|logmmse|5.0"]
        assert sorted(keys) == entries

    def test_snrs_alike_to_six_digits_keep_an_entry_each(self, wavs, tmp_path):
        clean = str(wavs / "in.wav")
        assert main(["bench", clean, "--noise", str(wavs / "noise_long.wav"),
                     "--snr", "1.0000001", "1.0000002", "--mode", "logmmse",
                     "-o", str(tmp_path)]) == 0
        keys, entries = self.row_and_entry_keys(tmp_path)
        assert keys == [f"{clean}|logmmse|1.0000001", f"{clean}|logmmse|1.0000002"]
        assert sorted(keys) == entries

    def test_short_noise_tiles_with_warning(self, wavs, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="modkalm.cli"):
            rc = main(["bench", str(wavs / "in.wav"),
                       "--noise", str(wavs / "noise_short.wav"),
                       "--snr", "0", "--mode", "logmmse", "-o", str(tmp_path)])
        assert rc == 0
        assert any("tiling" in rec.message for rec in caplog.records)

    def test_missing_noise_is_usage_error(self, wavs, tmp_path, capsys):
        rc = main(["bench", str(wavs / "in.wav"), "--mode", "logmmse", "-o", str(tmp_path)])
        assert rc == 2
        assert "--noise" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("noise", ["noise_long.wav", "noise_short.wav"])
    def test_negative_seed_is_usage_error(self, wavs, tmp_path, capsys, noise):
        rc = main(["bench", str(wavs / "in.wav"), "--noise", str(wavs / noise),
                   "--snr", "0", "--mode", "logmmse", "--seed", "-1", "-o", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_nonfinite_snr_is_usage_error(self, wavs, tmp_path, capsys):
        # ±4000 dB are finite, but their power ratios overflow and underflow
        for snr in ("nan", "4000", "-4000"):
            rc = main(["bench", str(wavs / "in.wav"),
                       "--noise", str(wavs / "noise_long.wav"),
                       "--snr", "0", snr, "-o", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "finite" in err and "--snr" in err
            assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_snr_whose_noise_scale_overflows_is_usage_error(self, wavs, tmp_path, capsys,
                                                            workers):
        # -3200 dB passes as a power ratio (1e-320 is subnormal), but the
        # noise scale that the mix forms from it overflows
        rc = main(["bench", str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                   "--snr", "0", "-3200", "--mode", "logmmse", "--workers", workers,
                   "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: --snr -3200.0 dB gives no finite noise scale for these signals\n"
        assert not (tmp_path / "bench.csv").exists()

    def test_empty_clean_file_exits_1_naming_it(self, wavs, tmp_path, capsys):
        # checked before the mix, which would refuse its empty noise excerpt
        # as silent
        empty = tmp_path / "empty.wav"
        write_wav(empty, np.zeros(0), RATE)
        rc = main(["bench", str(empty), "--noise", str(wavs / "noise_long.wav"),
                   "--mode", "logmmse", "--workers", "1", "-o", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {empty}: signal is empty\n"

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_short_clean_file_exits_1_naming_it_in_either_share(self, wavs, tmp_path,
                                                                capsys, bad_first):
        bad = tmp_path / "short.wav"
        write_wav(bad, np.full(100, 0.1), RATE)
        good = str(wavs / "in.wav")
        paths = [str(bad), good] if bad_first else [good, str(bad)]
        rc = main(["bench", *paths, "--noise", str(wavs / "noise_long.wav"),
                   "--mode", "logmmse", "--workers", "2", "-o", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: signal shorter than one frame (100 < 512)\n")
        assert multiprocessing.active_children() == []


class TestMixing:
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 7.5, 15.0])
    def test_global_snr_exact(self, snr_db):
        rng = np.random.default_rng(3)
        clean = burst_tone()
        noise = rng.standard_normal(clean.size * 2)
        mixed = _mix_at_snr(clean, noise, snr_db, seed=1, tag=4)
        measured = 10 * np.log10(np.sum(clean**2) / np.sum((mixed - clean) ** 2))
        assert measured == pytest.approx(snr_db, abs=1e-9)

    def test_silent_noise_rejected(self):
        with pytest.raises(ValueError):
            _mix_at_snr(burst_tone(), np.zeros(20000), 0.0)


class TestLogging:
    def test_env_var_raises_verbosity(self, wavs, tmp_path, caplog, monkeypatch):
        monkeypatch.setenv("MODKALM_LOG", "DEBUG")
        with caplog.at_level(logging.DEBUG):
            main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                  "-o", str(tmp_path)])
        assert any(rec.levelno == logging.DEBUG for rec in caplog.records)

    def test_quiet_by_default(self, wavs, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("MODKALM_LOG", raising=False)
        with caplog.at_level(logging.DEBUG):
            main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                  "-o", str(tmp_path)])
        assert not any(rec.levelno == logging.DEBUG for rec in caplog.records)
