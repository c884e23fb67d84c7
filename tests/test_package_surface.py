"""Guard for the package surface: every function and method that
``src/modkalm`` defines must run when the package is used as shipped.

The run below uses only public entry points: ``diagnose`` in each mode,
``enhance`` once, and ``modkalm.cli.main`` for ``enhance`` (on two
processes) and for ``bench``.  It is recorded with ``sys.setprofile``, and
``threading.setprofile`` for the threads that the command starts to feed
its second process.  A function that none of them enters is reached only
from the tests, so it belongs under ``tests/`` or nowhere.
"""
import argparse
import importlib
import inspect
import dataclasses
import os
import pkgutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np

import modkalm
import modkalm.cli
from modkalm.enhancer import EnhancerConfig, Mode, diagnose, enhance
from modkalm.stft import write_wav

RATE = 16000

# Functions that no ordinary run enters, each with the test that covers it.
ALLOWED_UNREACHED = {
    # runs once at import, to build the fixed quadrature rule; covered by
    # test_gaussring.py::TestAmplitudeMoments::test_fixed_rule_matches_adaptive_quadrature
    "modkalm.gaussring._cross_rule",
}


def _package_modules():
    for info in pkgutil.iter_modules(modkalm.__path__, "modkalm."):
        yield importlib.import_module(info.name)


def defined_functions() -> dict:
    """Code objects of every function, method, property and nested function
    defined in the package's source files, keyed by qualified name."""
    found = {}

    def add(module, code):
        if code.co_filename != module.__file__ or code.co_name.startswith("<"):
            return
        found[f"{module.__name__}.{code.co_qualname}"] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(module, const)

    def visit(module, namespace):
        for value in vars(namespace).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                for fn in (value.fget, value.fset, value.fdel):
                    if fn is not None:
                        add(module, fn.__code__)
            elif inspect.isfunction(value):
                add(module, value.__code__)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                visit(module, value)

    for module in _package_modules():
        visit(module, module)
    return found


def _speech_in_noise(dur: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(int(dur * RATE)) / RATE
    sig = sum(np.cos(2 * np.pi * 140 * h * t + rng.uniform(0, 2 * np.pi)) / h
              for h in range(1, 20))
    sig = sig * (0.3 + np.sin(2 * np.pi * 4 * t) ** 2)
    return sig / np.std(sig) * 0.5 + rng.standard_normal(t.size) * 0.05


def _use_the_package(tmp_path) -> None:
    x = _speech_in_noise(0.5, 0)
    for mode in Mode:
        diagnose(x, RATE, EnhancerConfig(mode=mode))
    enhance(x, RATE, EnhancerConfig(mode=Mode.MDKM))

    write_wav(tmp_path / "a.wav", _speech_in_noise(0.3, 1), RATE)
    write_wav(tmp_path / "b.wav", _speech_in_noise(0.3, 3), RATE)
    write_wav(tmp_path / "noise.wav", np.random.default_rng(2).standard_normal(6000) * 0.1,
              RATE)
    out = tmp_path / "out"
    assert modkalm.cli.main(["enhance", "--mode", "mdkm", str(tmp_path / "a.wav"),
                             str(tmp_path / "b.wav"), "-o", str(out), "--workers", "2"]) == 0
    assert modkalm.cli.main(["bench", str(tmp_path / "a.wav"), "--noise",
                             str(tmp_path / "noise.wav"), "--mode", "logmmse",
                             "--snr", "0", "-o", str(out), "--workers", "1"]) == 0


def test_every_package_function_runs_in_real_use(tmp_path, capsys):
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        _use_the_package(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()

    unreached = sorted(name for name, code in functions.items()
                       if code not in entered and name not in ALLOWED_UNREACHED)
    assert not unreached, "defined in src/modkalm but reached only from tests: " + ", ".join(
        unreached)
    stale = sorted(name for name in ALLOWED_UNREACHED
                   if name not in functions or functions[name] in entered)
    assert not stale, "allow-list entries that are gone or reached: " + ", ".join(stale)


def test_settable_surface_is_this_list():
    # the framing and model orders are constants; a new knob is added here
    # on purpose or not at all
    assert {f.name for f in dataclasses.fields(EnhancerConfig)} == {"mode"}
    [subparsers] = [a.choices for a in modkalm.cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
             for name, sp in subparsers.items()}
    assert dests == {
        "enhance": {"mode", "out_dir", "workers"},
        "bench": {"noise", "snr", "mode", "seed", "out_dir", "workers"},
    }


def test_cli_import_leaves_out_scipy_signal_and_ndimage():
    # they cost most of a fresh `import modkalm.cli`, and the package
    # needs nothing from them
    src = str(Path(modkalm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, modkalm.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.ndimage'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
