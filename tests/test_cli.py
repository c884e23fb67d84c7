"""Tests for the batch command-line front end."""
import json
import logging
import os
from types import SimpleNamespace

import numpy as np
import pytest

import modkalm.cli
from modkalm.cli import _mix_at_snr, main
from modkalm.enhancer import EnhancerConfig, Mode, enhance
from modkalm.stft import read_wav, write_wav

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
        # a budget that splits the files into batches of several sizes
        sizes = [os.path.getsize(p) for p in paths]
        monkeypatch.setattr(modkalm.cli, "BATCH_BYTES", sum(sizes[:3]))
        assert [len(b) for b in modkalm.cli._batches(paths, 1)] == [3, len(paths) - 3]
        alone = [enhance_call(mode, [p], tmp_path / "alone", capsys) for p in paths]
        assert all(rc == 0 for rc, _, _ in alone)
        expect = ([out for _, (out,), _ in alone], [line for _, _, (line,) in alone])
        for workers in ("1", "2"):
            rc, outputs, lines = enhance_call(mode, paths, tmp_path / workers, capsys,
                                              "--workers", workers)
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
        assert main(["enhance", "--mode", mode.value, *paths, "-o", str(tmp_path)]) == 0
        batched = [len(b) for b in modkalm.cli._batches(paths, 1)]
        assert max(batched) > 1
        assert sizes == (batched if mode is Mode.MDKM else [1] * len(paths))

    @pytest.mark.parametrize("files, workers, sizes", [
        (9, 1, [4, 4, 1]), (4, 4, [1, 1, 1, 1]), (12, 4, [3, 3, 3, 3]), (5, 2, [2, 2, 1]),
        (2, 4, [1, 1])])
    def test_budget_takes_four_half_second_files_and_every_worker_a_batch(
            self, tmp_path, files, workers, sizes):
        path = tmp_path / "half.wav"
        write_wav(path, np.zeros(RATE // 2), RATE)
        batches = modkalm.cli._batches([str(path)] * files, workers)
        assert [len(b) for b in batches] == sizes

    def test_unreadable_file_fails_the_run_as_before(self, wavs, batch_wavs, tmp_path,
                                                     capsys):
        # the 8 kHz file sits in the first batch: exit 1 with read_wav's
        # message, and no output of that batch is written
        paths = [batch_wavs[Mode.MDKM][0], str(wavs / "slow.wav"), batch_wavs[Mode.MDKM][1]]
        assert len(modkalm.cli._batches(paths, 1)) == 1
        rc = main(["enhance", "--mode", "mdkm", *paths, "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {wavs / 'slow.wav'}: sample rate 8000 != expected 16000\n"
        assert list(tmp_path.iterdir()) == []


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
        rc = main(["bench", str(wavs / "in.wav"),
                   "--noise", str(wavs / "noise_long.wav"),
                   "--snr", "nan", "-o", str(tmp_path)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


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


class TestConfigFile:
    def test_file_supplies_defaults(self, wavs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults for this batch\nmode = logmmse\n")
        assert main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                     "-o", str(tmp_path / "a")]) == 0
        assert main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                     "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "in.enhanced.wav").read_bytes()
        assert a == (tmp_path / "b" / "in.enhanced.wav").read_bytes()

    def test_flag_beats_file(self, wavs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = mdkm\n")
        assert main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                     "--config", str(cfg), "-o", str(tmp_path / "a")]) == 0
        assert main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                     "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "in.enhanced.wav").read_bytes()
        assert a == (tmp_path / "b" / "in.enhanced.wav").read_bytes()

    def test_unknown_key_is_usage_error(self, wavs, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gain = 3\n")
        rc = main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert "gain" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p", "q", "frame_ms", "inc_ms", "mod_frame_ms"])
    def test_framing_and_order_keys_are_unknown(self, wavs, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 4\n")
        rc = main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "in.enhanced.wav").exists()

    def test_ring_cap_key_is_unknown(self, wavs, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ring_cap = 32\n")
        rc = main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                   "-o", str(tmp_path)])
        assert rc == 2
        assert "unknown key 'ring_cap'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, flags, modes", [
        ("mode = mdkm\n", ["--mode", "logmmse"], ["logmmse"]),
        ("mode = logmmse\n", [], ["logmmse"]),
        ("mode = logmmse\nmode = mdkm\n", [], ["logmmse", "mdkm"]),
    ], ids=["flag-replaces-file", "file-only", "repeated-key"])
    def test_bench_modes_from_file_and_flags(self, wavs, tmp_path, lines, flags, modes):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert main(["bench", str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                     "--config", str(cfg), *flags, "-o", str(tmp_path)]) == 0
        rows = (tmp_path / "bench.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == modes

    def test_noise_from_file(self, wavs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"noise = {wavs / 'noise_long.wav'}\nsnr = 0 5\nmode = logmmse\n")
        assert main(["bench", str(wavs / "in.wav"), "--config", str(cfg),
                     "-o", str(tmp_path / "a")]) == 0
        assert main(["bench", str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                     "--snr", "0", "5", "--mode", "logmmse", "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "bench.csv").read_bytes()
        assert a == (tmp_path / "b" / "bench.csv").read_bytes()
        # keys that only bench has are ignored by enhance, so one file serves both
        assert main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                     "-o", str(tmp_path / "c")]) == 0

    def test_seed_key_is_ignored_by_enhance(self, wavs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nmode = logmmse\n")
        assert main(["enhance", str(wavs / "in.wav"), "--config", str(cfg),
                     "-o", str(tmp_path / "a")]) == 0
        assert main(["enhance", "--mode", "logmmse", str(wavs / "in.wav"),
                     "-o", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "in.enhanced.wav").read_bytes()
        assert a == (tmp_path / "b" / "in.enhanced.wav").read_bytes()

    @pytest.mark.parametrize("line, flag", [
        ("mode = wiener", "--mode"), ("mode = MDKM", "--mode"), ("workers = x", "--workers"),
        ("snr = 0 abc", "--snr"), ("snr =", "snr"),
    ], ids=["unknown-mode", "upper-case-mode", "p-not-int", "snr-not-float", "snr-empty"])
    def test_bad_value_names_file_and_line(self, wavs, tmp_path, capsys, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# batch defaults\n{line}\n")
        rc = main(["bench", str(wavs / "in.wav"), "--noise", str(wavs / "noise_long.wav"),
                   "--config", str(cfg), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and flag in err
        assert not (tmp_path / "bench.csv").exists()


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
