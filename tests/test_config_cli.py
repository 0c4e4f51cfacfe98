"""Tests for the JSON config parser and the command-line interface.

CLI commands are exercised in process through ``main(argv)``; exit
codes follow the documented contract (0 ok, 1 usage/config, 2 numeric
abort, 3 I/O).
"""

import json
import logging
import os
import platform
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import euler_spectra
from euler_spectra.cli import (
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from euler_spectra.config import InitSpec, RunConfig, parse_config
from euler_spectra.diagnostics import classify_and_record, compute_record
from euler_spectra.envelopes import vorticity_transport_residual
from euler_spectra.errors import ConfigurationError
from euler_spectra.fields import fft_forward, fft_inverse
from euler_spectra.grid import Grid
from euler_spectra.initial import random_solenoidal, taylor_green
from euler_spectra.snapshot import load_snapshot, write_snapshot
from euler_spectra.solver import SolverConfig, run as solver_run, step_threads
import euler_spectra.workers as workers_module

from conftest import (
    UNCARVED_PER_THREAD,
    fresh_worker,
    scatter,
    series_on_band,
    traced_peak_fields,
    whole_field_record,
)


MINIMAL = {
    "n": 16,
    "initial": {"kind": "taylor_green"},
    "solver": {"t_final": 0.01},
}


def config_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config(config_text())
        assert cfg.n == 16
        assert cfg.initial.kind == "taylor_green"
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.nu == 0.0
        assert cfg.solver.dealias is True
        assert cfg.output_dir == "out"
        assert cfg.output_every == 10
        assert cfg.snapshot_every == 0
        assert cfg.class_tolerance is None
        assert cfg.eps_floor is None

    def test_rejects_malformed_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            parse_config("{not json")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError, match=r"\$\.n"):
            parse_config(config_text(n=24))
        with pytest.raises(ConfigurationError, match=r"\$\.n"):
            parse_config(config_text(n=256))

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError,
                           match=r"\$\.viscosity: unknown key"):
            parse_config(config_text(viscosity=0.1))

    def test_rejects_unknown_solver_key(self):
        # A typo like "viscocity" must fail, not silently use nu = 0.
        with pytest.raises(ConfigurationError,
                           match=r"\$\.solver\.viscocity: unknown key"):
            parse_config(config_text(solver={"t_final": 0.01,
                                             "viscocity": 0.1}))

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigurationError,
                           match=r"\$\.solver\.dt: expected a number"):
            parse_config(config_text(solver={"t_final": 0.01, "dt": True}))
        with pytest.raises(ConfigurationError,
                           match=r"\$\.n: expected an integer"):
            parse_config(config_text(n=16.0))
        with pytest.raises(ConfigurationError,
                           match=r"\$\.solver\.dealias: expected a boolean"):
            parse_config(config_text(solver={"t_final": 0.01, "dealias": 1}))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError,
                           match=r"\$\.solver\.t_final: required"):
            parse_config(json.dumps({"n": 16,
                                     "initial": {"kind": "shear"},
                                     "solver": {}}))
        with pytest.raises(ConfigurationError, match=r"\$\.n: required"):
            parse_config(json.dumps({"initial": {"kind": "shear"},
                                     "solver": {"t_final": 0.0}}))

    def test_solver_validation_carries_path(self):
        with pytest.raises(ConfigurationError, match=r"\$\.solver: dt"):
            parse_config(config_text(solver={"t_final": 0.01, "dt": -1.0}))

    def test_unknown_initial_kind(self):
        with pytest.raises(ConfigurationError, match="unknown initial kind"):
            parse_config(config_text(initial={"kind": "vortex_ring"}))

    def test_from_file_requires_path(self):
        with pytest.raises(ConfigurationError,
                           match=r"\$\.initial\.path: required"):
            parse_config(config_text(initial={"kind": "from_file"}))

    def test_random_kind_parameters(self):
        cfg = parse_config(config_text(
            initial={"kind": "random_solenoidal", "seed": 42,
                     "peak_k": 3.0, "amplitude": 2.0}))
        assert cfg.initial.seed == 42
        assert cfg.initial.peak_k == 3.0
        assert cfg.initial.amplitude == 2.0
        assert cfg.initial.slope == 2.0

    def test_abc_parameters_rejected_for_other_kinds(self):
        with pytest.raises(ConfigurationError,
                           match=r"\$\.initial\.a: unknown key"):
            parse_config(config_text(initial={"kind": "shear", "a": 2.0}))

    def test_output_cadence_bounds(self):
        with pytest.raises(ConfigurationError, match=r"\$\.output_every"):
            parse_config(config_text(output_every=0))
        with pytest.raises(ConfigurationError, match=r"\$\.snapshot_every"):
            parse_config(config_text(snapshot_every=-1))

    def test_null_tolerances_allowed(self):
        cfg = parse_config(config_text(class_tolerance=None, eps_floor=None))
        assert cfg.class_tolerance is None
        cfg = parse_config(config_text(class_tolerance=1e-8))
        assert cfg.class_tolerance == 1e-8


_ABSENT = object()

# The initial object that a key of "$.initial" is set in.
_INITIAL_BASES = {
    "kind": {"kind": "taylor_green"},
    "a": {"kind": "abc"}, "b": {"kind": "abc"}, "c": {"kind": "abc"},
    "seed": {"kind": "random_solenoidal"},
    "peak_k": {"kind": "random_solenoidal"},
    "slope": {"kind": "random_solenoidal"},
    "amplitude": {"kind": "random_solenoidal"},
    "path": {"kind": "from_file", "path": "ic.bin"},
}


def config_with(path, key, value):
    """MINIMAL with ``key`` of the section at ``path`` set to ``value``,
    or removed when ``value`` is _ABSENT; a key of "$.initial" is set in
    an initial object of a kind that reads it."""
    doc = json.loads(json.dumps(MINIMAL))
    if path == "$.initial":
        doc["initial"] = dict(_INITIAL_BASES[key])
    section = {"$": doc, "$.solver": doc["solver"],
               "$.initial": doc["initial"]}[path]
    if value is _ABSENT:
        del section[key]
    else:
        section[key] = value
    return json.dumps(doc)


# Every key of every section, with the JSON type it must have.
_TYPED_KEYS = [
    ("$", "n", "integer"), ("$", "output_dir", "string"),
    ("$", "output_every", "integer"), ("$", "snapshot_every", "integer"),
    ("$", "class_tolerance", "number"), ("$", "eps_floor", "number"),
    ("$.solver", "dt", "number"), ("$.solver", "t_final", "number"),
    ("$.solver", "nu", "number"), ("$.solver", "dealias", "boolean"),
    ("$.solver", "cfl_warning", "number"),
    ("$.initial", "kind", "string"), ("$.initial", "a", "number"),
    ("$.initial", "b", "number"), ("$.initial", "c", "number"),
    ("$.initial", "seed", "integer"), ("$.initial", "peak_k", "number"),
    ("$.initial", "slope", "number"), ("$.initial", "amplitude", "number"),
    ("$.initial", "path", "string"),
]
_WRONG_VALUES = [(None, "null"), (True, "boolean"), ("x", "string"),
                 (1, "integer"), (1.5, "number"), ([], "array")]
_ACCEPTED = {"integer": ("integer",), "number": ("integer", "number"),
             "string": ("string",), "boolean": ("boolean",)}
_NULLABLE = ("class_tolerance", "eps_floor")


def _wrong_type_cases():
    for path, key, kind in _TYPED_KEYS:
        for value, got in _WRONG_VALUES:
            if got in _ACCEPTED[kind] or (value is None and key in _NULLABLE):
                continue
            article = "an" if kind == "integer" else "a"
            yield (f"{path}.{key}={got}", config_with(path, key, value),
                   f"{path}.{key}: expected {article} {kind}, got {got}")


# JSON texts of numbers that are not finite floats, with how the error
# names them: json.loads reads NaN, Infinity and an exponent beyond the
# float range as non-finite floats, and keeps a long integer exact.
_NON_FINITE = [("NaN", "NaN"), ("Infinity", "Infinity"),
               ("-Infinity", "-Infinity"), ("1e999", "Infinity"),
               ("-1e999", "-Infinity"),
               ("1" + "0" * 400, "an integer of 401 digits"),
               ("-1" + "0" * 400, "an integer of 401 digits")]


def _non_finite_cases():
    for path, key, kind in _TYPED_KEYS:
        if kind != "number":
            continue
        for text, got in _NON_FINITE:
            yield (f"{path}.{key}={text[:12]}",
                   config_with(path, key, 0.125).replace("0.125", text),
                   f"{path}.{key}: expected a finite number, got {got}")


_KINDS = "taylor_green, abc, shear, random_solenoidal, from_file"
_CONFIG_ERRORS = [
    *_wrong_type_cases(),
    *_non_finite_cases(),
    # A missing required key.
    ("missing $.n", config_with("$", "n", _ABSENT),
     "$.n: required key is missing"),
    ("missing $.initial", config_with("$", "initial", _ABSENT),
     "$.initial: required key is missing"),
    ("missing $.solver", config_with("$", "solver", _ABSENT),
     "$.solver: required key is missing"),
    ("missing $.solver.t_final", config_with("$.solver", "t_final", _ABSENT),
     "$.solver.t_final: required key is missing"),
    ("missing $.initial.kind", config_with("$.initial", "kind", _ABSENT),
     "$.initial.kind: required key is missing"),
    ("missing $.initial.path", config_with("$.initial", "path", _ABSENT),
     "$.initial.path: required key is missing"),
    # A value below its minimum, or otherwise out of range.
    ("$.n=4", config_with("$", "n", 4), "$.n: must be >= 8, got 4"),
    ("$.n=24", config_with("$", "n", 24),
     "$.n: must be a power of two in [8, 128], got 24"),
    ("$.n=256", config_with("$", "n", 256),
     "$.n: must be a power of two in [8, 128], got 256"),
    ("$.output_every=0", config_with("$", "output_every", 0),
     "$.output_every: must be >= 1, got 0"),
    ("$.snapshot_every=-1", config_with("$", "snapshot_every", -1),
     "$.snapshot_every: must be >= 0, got -1"),
    ("$.class_tolerance=-1", config_with("$", "class_tolerance", -1),
     "$.class_tolerance: must be >= 0.0, got -1.0"),
    ("$.eps_floor=-0.5", config_with("$", "eps_floor", -0.5),
     "$.eps_floor: must be >= 0.0, got -0.5"),
    ("$.initial.seed=-1", config_with("$.initial", "seed", -1),
     "$.initial.seed: must be >= 0, got -1"),
    ("$.initial.path=''", config_with("$.initial", "path", ""),
     "$.initial: initial kind 'from_file' needs a 'path'"),
    ("$.solver.dt=0", config_with("$.solver", "dt", 0),
     "$.solver: dt must be positive, got 0.0"),
    ("$.solver.t_final=-1", config_with("$.solver", "t_final", -1),
     "$.solver: t_final must be >= 0, got -1.0"),
    ("$.solver.nu=-0.1", config_with("$.solver", "nu", -0.1),
     "$.solver: nu must be >= 0, got -0.1"),
    ("$.solver.cfl_warning=0", config_with("$.solver", "cfl_warning", 0),
     "$.solver: cfl_warning must be positive, got 0.0"),
    ("$.solver.t_final off the step",
     config_text(solver={"t_final": 1.0, "dt": 0.3}),
     "$.solver: t_final=1.0 is not an integer multiple of dt=0.3"),
    ("$.solver.dt too small to count", config_with("$.solver", "dt", 1e-320),
     "$.solver: t_final=0.01 is not an integer multiple of dt=1e-320"),
    # An unknown key; the first in sorted order is named.
    ("unknown in $", config_with("$", "viscosity", 0.1),
     "$.viscosity: unknown key"),
    ("two unknown in $", config_text(zeta=1, alpha=1),
     "$.alpha: unknown key"),
    ("unknown in $.solver", config_with("$.solver", "viscocity", 0.1),
     "$.solver.viscocity: unknown key"),
    ("unknown in $.initial",
     config_text(initial={"kind": "taylor_green", "seed": 1}),
     "$.initial.seed: unknown key"),
    ("abc key for shear", config_text(initial={"kind": "shear", "a": 2.0}),
     "$.initial.a: unknown key"),
    ("random key for abc", config_text(initial={"kind": "abc", "seed": 1}),
     "$.initial.seed: unknown key"),
    ("abc key for from_file",
     config_text(initial={"kind": "from_file", "path": "ic.bin", "a": 1}),
     "$.initial.a: unknown key"),
    # An unknown kind.
    ("unknown kind", config_text(initial={"kind": "vortex_ring"}),
     f"$.initial: unknown initial kind 'vortex_ring'; choose one of "
     f"{_KINDS}"),
    ("unknown kind with a key",
     config_text(initial={"kind": "vortex_ring", "a": 1.0}),
     "$.initial.a: unknown key"),
    # A section that is not an object.
    ("$.initial array", config_with("$", "initial", []),
     "$.initial: expected an object, got array"),
    ("$.initial string", config_with("$", "initial", "abc"),
     "$.initial: expected an object, got string"),
    ("$.solver null", config_with("$", "solver", None),
     "$.solver: expected an object, got null"),
    ("$.solver number", config_with("$", "solver", 0.01),
     "$.solver: expected an object, got number"),
    ("$ array", "[]", "$: expected an object, got array"),
    ("$ null", "null", "$: expected an object, got null"),
    ("not JSON", "{not json",
     "configuration is not valid JSON: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
    ("integer beyond the digit limit",
     config_text(n=16).replace("16", "1" + "0" * 5000),
     "configuration is not valid JSON: Exceeds the limit (4300 digits) "
     "for integer string conversion: value has 5001 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
    # Precedence: n, then $.initial, then $.solver, then the rest of $;
    # in a section, its keys before its unknown keys.
    ("n before initial", json.dumps({"n": "16", "initial": 5}),
     "$.n: expected an integer, got string"),
    ("initial before solver",
     json.dumps({"n": 16, "initial": {"kind": "vortex_ring"}}),
     f"$.initial: unknown initial kind 'vortex_ring'; choose one of "
     f"{_KINDS}"),
    ("solver before the rest of $",
     config_text(solver={"t_final": 0.01, "dt": -1.0}, output_every=0,
                 viscosity=1),
     "$.solver: dt must be positive, got -1.0"),
    ("keys before unknown keys",
     config_text(solver={"t_final": 0.01, "dt": "x", "viscocity": 1}),
     "$.solver.dt: expected a number, got string"),
    ("kind keys before unknown keys",
     config_text(initial={"kind": "abc", "b": [], "alpha": 1}),
     "$.initial.b: expected a number, got array"),
]


@pytest.mark.parametrize("text, message",
                         [case[1:] for case in _CONFIG_ERRORS],
                         ids=[case[0] for case in _CONFIG_ERRORS])
def test_configuration_error_message(text, message):
    with pytest.raises(ConfigurationError) as raised:
        parse_config(text)
    assert str(raised.value) == message


class TestInitSpecBuild:
    def test_generator_dispatch(self, grid16):
        spec = InitSpec(kind="taylor_green")
        built = spec.build(grid16)
        direct = taylor_green(grid16)
        for a, b in zip(built, direct):
            assert np.array_equal(a, b)

    def test_from_file_round_trip(self, grid16, tmp_path):
        path = tmp_path / "ic.bin"
        write_snapshot(path, grid16, taylor_green(grid16), time=0.0)
        built = InitSpec(kind="from_file", path=str(path)).build(grid16)
        direct = taylor_green(grid16)
        for a, b in zip(built, direct):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_from_file_grid_mismatch(self, grid16, tmp_path):
        path = tmp_path / "ic.bin"
        write_snapshot(path, grid16, taylor_green(grid16), time=0.0)
        with pytest.raises(ConfigurationError, match="does not match"):
            InitSpec(kind="from_file", path=str(path)).build(Grid(8))

    def test_run_config_validates_n(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            RunConfig(n=24, initial=InitSpec(kind="shear"),
                      solver=SolverConfig(dt=1e-3, t_final=0.0))


def write_config(tmp_path, **overrides):
    path = tmp_path / "run.json"
    path.write_text(config_text(**overrides))
    return str(path)


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started from here on, with the
    process's worker made afresh at its next use, as in a new process;
    :func:`fresh_worker` makes it afresh again."""
    started = []
    thread_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    fresh_worker(monkeypatch)
    return started


class TestCmdRun:
    def test_successful_run_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           output_every=2,
                           snapshot_every=5,
                           solver={"t_final": 0.01, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (out / "timeseries.csv").exists()
        assert (out / "final.bin").exists()
        assert (out / "snapshot_00000000.bin").exists()
        assert (out / "snapshot_00000005.bin").exists()
        assert (out / "snapshot_00000010.bin").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is False
        assert summary["run"]["steps_completed"] == 10
        assert summary["class"] == "Neither"
        assert summary["envelope_containment"]["satisfied"] is True
        assert summary["stretching_exponential_bound"]["satisfied"] is True
        assert summary["epsilon_decay_bound"]["verdict"] == "inapplicable"
        assert "moment_balance_max_normalized_residual" in summary
        with open(out / "timeseries.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["t", "E", "H"]
        assert header[-5:] == ["env_lower", "env_upper", "bkm_integral",
                               "class_env_lower", "class_env_upper"]

    def test_summary_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           solver={"t_final": 0.002, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        manifest = json.loads((out / "summary.json").read_text())["manifest"]
        assert manifest == {
            "euler_spectra": euler_spectra.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "fft_backend": "numpy.fft",
            "solver_threads": 1,
        }

    def test_worker_thread_only_for_large_band_runs(self, tmp_path,
                                                    monkeypatch,
                                                    thread_starts):
        # A process starts one worker thread at most, and only for an
        # n >= 64 grid when it may run on two CPUs: every band step and
        # diagnostics record of its runs shares it, and so does a later
        # diagnose.  The manifest counts the step's threads.
        # Two steps and three records.  With dealias off the steps run
        # on the Nyquist-free band, on two threads alike.
        for cpus, n, threads, starts, dealias in [
                (2, 32, 1, 0, True), (1, 64, 1, 0, True),
                (2, 64, 2, 1, True), (2, 64, 2, 1, False)]:
            monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
            fresh_worker(monkeypatch)
            out = tmp_path / f"out_{cpus}_{n}_{dealias}"
            cfg = write_config(tmp_path, n=n, output_dir=str(out),
                               output_every=1, snapshot_every=1,
                               solver={"t_final": 0.002, "dt": 1e-3,
                                       "dealias": dealias})
            thread_starts.clear()
            assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
            assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
            assert main(["diagnose", *map(str, sorted(
                out.glob("snapshot_*.bin")))]) == EXIT_OK
            assert thread_starts == ["euler_spectra_0"] * starts
            summary = json.loads((out / "summary.json").read_text())
            assert summary["manifest"]["solver_threads"] == threads
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
        assert step_threads(Grid(64)) == 2

    def test_import_diagnose_and_classify_start_no_thread(self, tmp_path):
        for step in range(5):
            write_snapshot(tmp_path / f"s{step}.bin", Grid(16),
                           taylor_green(Grid(16)), 1e-3 * step)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        snapshots = sorted(str(p) for p in tmp_path.glob("s*.bin"))
        code = ("import sys, threading; before = threading.active_count(); "
                "started = []; start = threading.Thread.start; "
                "threading.Thread.start = "
                "lambda t: (started.append(t.name), start(t)); "
                "from euler_spectra.cli import main; "
                f"main(['diagnose', *{snapshots!r}]); "
                f"main(['classify', {snapshots[0]!r}]); "
                "print(threading.active_count() - before, started, "
                "file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stderr.strip().splitlines()[-1] == "0 []"

    def test_import_does_not_load_scipy(self):
        # The transforms run on numpy.fft alone; importing scipy.fft
        # would add a third of a second to every command.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        code = ("import sys, euler_spectra.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_import_does_not_load_hashlib(self):
        # hashlib loads OpenSSL (3.5 MiB); only a snapshot checksum
        # needs it, so a command imports it when it takes one.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        code = ("import sys, euler_spectra.cli; "
                "print('hashlib' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("dealias", [True, False])
    def test_snapshots_have_the_half_spectrum_bytes(self, tmp_path,
                                                    dealias):
        # A run writes its snapshots from the state on its band, the
        # Nyquist-free one with dealias off; they have the bytes of
        # write_snapshot on the half spectrum, and so does final.bin.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output_dir=str(out), snapshot_every=1,
                           initial={"kind": "random_solenoidal", "seed": 3},
                           solver={"t_final": 0.003, "dt": 1e-3,
                                   "dealias": dealias})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        config = parse_config(Path(cfg).read_text())
        grid = Grid(config.n)
        reference = tmp_path / "reference.bin"
        on_band = []

        def compare(state):
            on_band.append(state.band is not None)
            write_snapshot(reference, grid, scatter(state.band, state.v),
                           state.t)
            written = out / f"snapshot_{state.step_index:08d}.bin"
            assert written.read_bytes() == reference.read_bytes()

        final = solver_run(grid, config.initial.build(grid), config.solver,
                           [compare])
        assert on_band == [True] * 4
        write_snapshot(reference, grid, scatter(final.band, final.v), final.t)
        assert (out / "final.bin").read_bytes() == reference.read_bytes()

    def unmasked_identity_run(self, tmp_path, dealias=False):
        """The summary of a run of a random n=16 field with a record
        every ten steps.  With dealias off it steps on the band without
        the Nyquist planes, whose modes every derivative zeroes, so the
        deformation tensor of its state has no trace."""
        out = tmp_path / f"out_{dealias}"
        cfg = write_config(tmp_path, n=16, output_dir=str(out),
                           output_every=10,
                           initial={"kind": "random_solenoidal", "seed": 1},
                           solver={"t_final": 0.05, "dt": 1e-3,
                                   "dealias": dealias})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        return json.loads((out / "summary.json").read_text())

    def test_unmasked_run_logs_no_trace_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, "euler_spectra"):
            summary = self.unmasked_identity_run(tmp_path)
        assert summary["run"]["steps_completed"] == 50
        assert not [r for r in caplog.records if "trace RMS" in r.message]

    def test_unmasked_run_keeps_the_identities_of_the_trace(self,
                                                          tmp_path):
        # The identities that integration by parts gives hold to
        # rounding.  W = -(4/3) C3 also needs an alias-free cubic
        # product, so it keeps the aliasing error that such a run
        # exists to show, against rounding on the dealiased run.
        unmasked = self.unmasked_identity_run(tmp_path)["identity_residuals"]
        dealiased = self.unmasked_identity_run(
            tmp_path, dealias=True)["identity_residuals"]
        assert unmasked["enstrophy_moment"] <= 1e-12
        assert unmasked["cubic_product"] <= 1e-12
        assert dealiased["stretching_cubic"] <= 1e-12
        assert unmasked["stretching_cubic"] > 1e-2

    def test_output_dir_override(self, tmp_path):
        cfg = write_config(tmp_path, n=8, output_dir=str(tmp_path / "a"),
                           solver={"t_final": 0.002, "dt": 1e-3})
        override = tmp_path / "b"
        assert main(["run", "--config", cfg, "--quiet",
                     "--output-dir", str(override)]) == EXIT_OK
        assert (override / "summary.json").exists()
        assert not (tmp_path / "a").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--quiet"]) == EXIT_IO

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(config_text(n=24))
        assert main(["run", "--config", str(path), "--quiet"]) == EXIT_USAGE
        assert "$.n" in capsys.readouterr().err

    def test_horizon_off_the_step_is_caught_by_the_parser(self, tmp_path,
                                                          capsys):
        # t_final must be a whole number of steps: the parser says so
        # (test_configuration_error_message), before run makes its
        # output directory or classify builds the field.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           solver={"t_final": 1.0, "dt": 0.3})
        message = ("$.solver: t_final=1.0 is not an integer multiple of "
                   "dt=0.3")
        for argv in (["run", "--config", cfg, "--quiet"],
                     ["classify", "--config", cfg]):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
        assert not out.exists()

    def test_number_beyond_float_range_is_usage_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "huge.json"
        path.write_text(config_text(solver={"t_final": 0.01, "nu": 0.125})
                        .replace("0.125", "1" + "0" * 400))
        assert main(["run", "--config", str(path), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert ("$.solver.nu: expected a finite number, got an integer of "
                "401 digits") in err
        assert "Traceback" not in err

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, n=8,
                           output_dir=str(blocker / "sub"),
                           solver={"t_final": 0.002, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_code_and_partial_outputs(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           output_every=1,
                           solver={"t_final": 200.0, "dt": 20.0})
        code = main(["run", "--config", cfg, "--quiet"])
        assert code == EXIT_NUMERIC
        assert "numeric abort" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["abort"]["step_index"] >= 1
        # The CSV retains every record up to the failure.
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) >= 2

    def test_non_finite_start_names_the_initial_velocity(self, tmp_path,
                                                         capsys):
        # A start that holds a NaN aborts before the first step, and the
        # message names the initial velocity, not a step.
        grid = Grid(8)
        v = taylor_green(grid)
        v[0, 1, 2, 3] = np.nan
        write_snapshot(tmp_path / "ic.bin", grid, v, 0.0)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           initial={"kind": "from_file",
                                    "path": str(tmp_path / "ic.bin")},
                           solver={"t_final": 0.002, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_NUMERIC
        message = "non-finite initial velocity component v1"
        assert capsys.readouterr().err == f"error: numeric abort: {message}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["abort"] == {
            "step_index": 0, "time": 0.0, "message": message}

    def test_io_abort_still_writes_summary(self, tmp_path,
                                           monkeypatch, capsys):
        # The third snapshot write fails as on a full disk: the run stops
        # with exit code 3 but leaves a summary with an abort block.
        import errno
        import euler_spectra.cli as cli_module
        calls = []

        def failing_write(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_snapshot(*args, **kwargs)

        monkeypatch.setattr(cli_module, "write_snapshot", failing_write)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           output_every=1, snapshot_every=1,
                           solver={"t_final": 0.005, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["abort"]["step_index"] == 2
        assert "No space left on device" in summary["run"]["abort"]["message"]
        assert "steps_completed" not in summary["run"]
        assert summary["class"] == "Neither"
        assert len(list(out.glob("snapshot_*.bin"))) == 2
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_interrupt_still_writes_summary(self, tmp_path,
                                            monkeypatch, capsys):
        # Ctrl-C during the third snapshot write: the run stops with
        # exit code 130 and still leaves a summary with an abort block.
        import euler_spectra.cli as cli_module
        calls = []

        def interrupted_write(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return write_snapshot(*args, **kwargs)

        monkeypatch.setattr(cli_module, "write_snapshot", interrupted_write)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           output_every=1, snapshot_every=1,
                           solver={"t_final": 0.005, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["abort"] == {
            "step_index": 2, "time": pytest.approx(2e-3),
            "message": "interrupted"}
        assert "steps_completed" not in summary["run"]
        assert summary["class"] == "Neither"
        assert len(list(out.glob("snapshot_*.bin"))) == 2
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_interrupt_in_the_first_record_still_writes_summary(
            self, tmp_path, monkeypatch, capsys):
        # Ctrl-C while the first record's tail fraction is taken: the
        # record is in the series, but has no CSV row.
        import euler_spectra.diagnostics as diagnostics_module
        calls = []
        tail_fraction = diagnostics_module.resolution_tail_fraction

        def interrupted_tail_fraction(*args):
            calls.append(args)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return tail_fraction(*args)

        monkeypatch.setattr(diagnostics_module, "resolution_tail_fraction",
                            interrupted_tail_fraction)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, n=8, output_dir=str(out),
                           output_every=1)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["abort"] == {
            "step_index": 0, "time": 0.0, "message": "interrupted"}
        assert summary["class"] == "Neither"
        assert summary["envelope_containment"]["satisfied"] is True
        health = summary["resolution_health"]
        assert health["tail_enstrophy_fraction_initial"] is None
        assert health["tail_enstrophy_fraction_final"] == tail_fraction(
            *calls[0])

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE


def write_series16(directory, times):
    """Paths of snapshots of a random n=16 field at ``times``, the m-th
    scaled by 1 + 0.01 m, so that no two of them are alike."""
    grid = Grid(16)
    v = random_solenoidal(grid, seed=2)
    paths = []
    for m, t in enumerate(times):
        paths.append(str(directory / f"s{m}.bin"))
        write_snapshot(paths[-1], grid, v * (1.0 + 0.01 * m), t)
    return paths


class TestCmdDiagnose:
    @pytest.fixture
    def snapshot_dir(self, tmp_path):
        out = tmp_path / "snapout"
        cfg = write_config(tmp_path, n=8,
                           initial={"kind": "abc"},
                           output_dir=str(out),
                           snapshot_every=1,
                           solver={"t_final": 0.016, "dt": 2e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        paths = sorted(str(p) for p in out.glob("snapshot_*.bin"))
        assert len(paths) == 9
        return paths

    def test_record_csv_and_verdicts(self, snapshot_dir, capsys):
        assert main(["diagnose", *snapshot_dir]) == EXIT_OK
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0].split(",")[:4] == ["t", "E", "H", "Z"]
        assert len(rows) == 1 + len(snapshot_dir)
        assert "identity Z = 2Q: pass" in captured.err
        assert "identity W = -(4/3) C3: pass" in captured.err
        assert "identity C3 = 3P: pass" in captured.err
        assert "moment balance" in captured.err
        assert "vorticity transport" in captured.err

    @pytest.mark.parametrize("n, initial, dealias", [
        pytest.param(16, lambda grid: random_solenoidal(grid, 3), True,
                     id="initial0"),
        pytest.param(16, taylor_green, True, id="initial1"),
        pytest.param(16, lambda grid: random_solenoidal(grid, 3), False,
                     id="undealiased"),
        pytest.param(26, lambda grid: random_solenoidal(grid, 3), True,
                     id="uneven-slabs"),
    ])
    def test_matches_the_public_functions(self, tmp_path, capsys, n,
                                          initial, dealias):
        # diagnose shares each snapshot's transforms between its records
        # and the transport residual; both must come out as the public
        # functions give them on their own.  On dealiased snapshots the
        # transport residual sits at rounding level, so its printed
        # digits would show a mixed-up field; the snapshots of a
        # dealias: false run show the aliased part of their products
        # (0.28 for this field, as the README says).  At n=26, which a
        # Grid and the snapshot format allow but a config does not, the
        # x-slabs are 13 planes; the slab buffers once took 24, and the
        # last slab of 2 planes did not fit them.
        grid = Grid(n)
        paths = []

        def write(state):
            paths.append(str(tmp_path / f"s{state.step_index}.bin"))
            write_snapshot(paths[-1], grid, state.physical(), state.t)

        solver_run(grid, initial(grid),
                   SolverConfig(dt=1e-3, t_final=0.004, dealias=dealias),
                   observers=[write])
        assert len(paths) == 5
        capsys.readouterr()
        assert main(["diagnose", *paths]) == EXIT_OK
        captured = capsys.readouterr()

        loaded = [load_snapshot(p) for p in paths]
        grid = loaded[0][2]
        times = [t for _, t, _ in loaded]
        band, spectra = series_on_band(
            grid, [fft_forward(v) for v, _, _ in loaded])
        assert band.m == (n // 3 if dealias else n // 2 - 1)
        classification, first = classify_and_record(band, times[0],
                                                    spectra[0])
        records = [first] + [
            compute_record(band, t, v, classification=classification)
            for v, t in zip(spectra[1:], times[1:])]
        rows = captured.out.strip().splitlines()[1:]
        assert rows == [",".join(repr(float(x)) for x in r.as_tuple())
                        for r in records]
        raw, _ = vorticity_transport_residual(
            grid, times, [v for v, _, _ in loaded])
        residual = float(np.max(raw))
        assert captured.err.splitlines()[-1] == (
            f"vorticity transport: max residual {residual:.3e}")
        if dealias:
            assert residual < 1e-10
        else:
            assert 0.1 < residual < 1.0

    @pytest.mark.parametrize("dealias, bound", [(True, 1.1e-14),
                                                 (False, 3.5e-14)])
    def test_rows_near_the_whole_field(self, tmp_path, capsys, dealias,
                                       bound):
        # diagnose records a series on one band: the 2/3-rule band when
        # no snapshot holds more than rounding noise outside it, as
        # those of a dealiased run do, else the band without the Nyquist
        # planes, which those of a dealias: false run leave empty to
        # rounding too.  What the band drops moves no printed value of
        # the record of the whole half spectrum by more than the
        # relative bound measured on such series: on these, 1.09e-14
        # and 5.3e-15.
        grid = Grid(16)
        paths = []

        def write(state):
            paths.append(str(tmp_path / f"s{state.step_index}.bin"))
            write_snapshot(paths[-1], grid, state.physical(), state.t)

        solver_run(grid, random_solenoidal(grid, 1),
                   SolverConfig(dt=1e-3, t_final=0.004, dealias=dealias),
                   observers=[write])
        capsys.readouterr()
        assert main(["diagnose", *paths]) == EXIT_OK
        rows = np.array([[float(x) for x in row.split(",")] for row in
                         capsys.readouterr().out.splitlines()[1:]])
        whole = np.array([
            whole_field_record(grid, t, fft_forward(v)).as_tuple()
            for v, t, _ in map(load_snapshot, paths)])
        assert np.all(np.isnan(rows[:, 14]) & np.isnan(whole[:, 14]))
        rows, whole = np.delete(rows, 14, 1), np.delete(whole, 14, 1)
        zero = whole == 0.0  # inf_l2p and inf_l2m_abs of a Neither field
        assert np.array_equal(rows[zero], whole[zero])
        difference = np.max(np.abs(rows - whole)[~zero]
                            / np.abs(whole[~zero]))
        assert 0.0 < difference <= bound

    def test_undealiased_series_takes_the_nyquist_free_band(self, tmp_path,
                                                            capsys):
        # One snapshot with power outside the 2/3-rule band puts the
        # whole series on the band without the Nyquist planes, whose
        # dropped share of power is reported; diagnose and classify say
        # so alike, and a dealiased series says nothing.
        paths = write_series16(tmp_path, [1e-3 * m for m in range(5)])
        assert main(["diagnose", *paths]) == EXIT_OK
        assert "band" not in capsys.readouterr().err
        grid = Grid(16)
        v, t, _ = load_snapshot(paths[2])
        rng = np.random.default_rng(16)
        write_snapshot(paths[2], grid, v + 1e-6 * rng.standard_normal(
            v.shape), t)
        spectrum = fft_forward(load_snapshot(paths[2])[0])
        nyquist = np.zeros(spectrum.shape[1:], bool)
        nyquist[8] = nyquist[:, 8] = nyquist[..., 8] = True
        power = grid.parseval_weight * np.sum(np.abs(spectrum) ** 2, axis=0)
        share = np.sum(power[nyquist]) / np.sum(power)
        line = (f"band: 2/3 rule exceeded, recorded without the Nyquist "
                f"planes (dropped Nyquist power fraction {share:.3e})")
        assert main(["diagnose", *paths]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == line
        band, spectra = series_on_band(
            grid, [fft_forward(load_snapshot(p)[0]) for p in paths])
        assert band.m == 7
        classification, first = classify_and_record(band, 0.0, spectra[0])
        assert captured.out.splitlines()[1] == ",".join(
            repr(float(x)) for x in first.as_tuple())
        assert main(["classify", paths[2]]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        classification, _ = classify_and_record(band, t, spectra[2])
        assert captured.out.splitlines()[0] == (
            f"class: {classification.label.value}")
        assert (f"min_lambda2: {classification.min_lambda2!r}"
                in captured.out)

    def test_peak_grows_by_two_rows_per_snapshot(self, tmp_path, capsys,
                                                 monkeypatch):
        # Past the load, a snapshot keeps its omega row and its
        # transport row, both compact on the 2/3-rule band (3, 11, 11,
        # 6) at n=16, where its physical omega row took 3 fields; the
        # peak grows by those two rows per snapshot and the record, the
        # printed row and the lists that hold them, under 4 KiB.  It
        # measured 2.14 fields of the grid per snapshot from 5 to 9
        # snapshots (515 bytes above the two rows), against 4.06 with
        # physical omega rows.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        grid = Grid(16)
        paths = write_series16(tmp_path, [1e-3 * m for m in range(9)])
        peaks = []
        for count in (5, 9):
            peaks.append(traced_peak_fields(
                grid, lambda: main(["diagnose", *paths[:count]])))
        capsys.readouterr()
        rows = 2 * 3 * 11 * 11 * 6 * 16
        growth = (peaks[1] - peaks[0]) * 8 * 16 ** 3 / 4
        assert rows < growth < rows + 4096

    def test_same_output_on_one_thread_or_two(self, snapshot_series64,
                                              capsys, monkeypatch,
                                              thread_starts):
        # On n=64 snapshots, the records and the per-snapshot transforms
        # of diagnose share their work with the worker thread when two
        # CPUs are available; the output must be the same bytes.  The
        # first threaded pass starts the process's worker, and a second
        # pass uses it again.
        outputs = []
        for cpus in (1, 2, 2):
            monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
            thread_starts.clear()
            assert main(["diagnose", *snapshot_series64]) == EXIT_OK
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err, len(thread_starts)))
        assert outputs[0][:2] == outputs[1][:2] == outputs[2][:2]
        assert [starts for _, _, starts in outputs] == [0, 1, 0]

    def test_peak_memory(self, snapshot_series64, capsys, monkeypatch):
        # diagnose keeps only the compact spectra of the loaded
        # snapshots on the 2/3-rule band, and per processed snapshot a
        # compact omega row and a compact transport row.  Its records
        # take their tensor and scratch from the pass's block, whose
        # physical v is the tensor's first half, and the last snapshot's
        # spectrum is released before its transport row is formed.  One
        # thread, so that the peak does not depend on the host: it
        # measured 19.77 fields of the grid at the last record, against
        # 32.47 when the records ran on the half spectrum beside five
        # physical omega rows, 36.73 with a scratch region of each
        # record's own, whole-component product scratch and the stale
        # Grid, and 46.8 when each transport row was a physical field of
        # 3.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        codes = []
        peak = traced_peak_fields(Grid(64), lambda: codes.append(
            main(["diagnose", *snapshot_series64])))
        assert codes == [EXIT_OK]
        assert peak < 20.0

    def test_peak_memory_of_a_wider_band(self, tmp_path, capsys,
                                         monkeypatch):
        # Snapshots with power outside the 2/3-rule band are recorded on
        # the band without the Nyquist planes, whose spectra and omega
        # rows are 2.91 fields each at n=64; each released spectrum
        # takes the next omega row.  One thread: it measured 31.64
        # fields of the grid, against 32.47 when the records ran on the
        # half spectrum beside physical omega rows.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        grid = Grid(64)
        v = fft_inverse(random_solenoidal(grid, seed=1))
        v += 1e-3 * np.random.default_rng(64).standard_normal(v.shape)
        paths = []
        for m in range(5):
            paths.append(str(tmp_path / f"s{m}.bin"))
            write_snapshot(paths[-1], grid, v * (1.0 + 0.01 * m), 1e-3 * m)
        codes = []
        peak = traced_peak_fields(grid, lambda: codes.append(
            main(["diagnose", *paths])))
        assert codes == [EXIT_OK]
        assert "without the Nyquist planes" in capsys.readouterr().err
        assert peak < 31.9

    def test_peak_memory_on_two_lanes(self, snapshot_series64, capsys,
                                      monkeypatch):
        # The same on two threads, whose lane buffers make the pass's
        # region larger.  It measured 20.58 fields, against 34.67-34.75
        # with the records on the half spectrum; a two-thread peak also
        # holds what numpy's FFTs allocate on both threads, which varies
        # from call to call (UNCARVED_PER_THREAD).
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
        codes = []
        job = lambda: codes.append(main(["diagnose", *snapshot_series64]))
        job()
        peak = traced_peak_fields(Grid(64), job)
        assert codes == [EXIT_OK, EXIT_OK]
        assert peak < 20.58 + 2 * UNCARVED_PER_THREAD

    @pytest.mark.parametrize("last", ["corrupt", "other grid"])
    def test_every_snapshot_checked_before_any_record(self, tmp_path,
                                                      capsys, last):
        # A bad last snapshot fails the command before the first row.
        paths = write_series16(tmp_path, [1e-3 * m for m in range(5)])
        if last == "corrupt":
            raw = bytearray(Path(paths[-1]).read_bytes())
            raw[-1] ^= 0xFF  # a payload byte
            Path(paths[-1]).write_bytes(bytes(raw))
            expected = EXIT_IO
        else:
            write_snapshot(paths[-1], Grid(8), taylor_green(Grid(8)), 4e-3)
            expected = EXIT_USAGE
        assert main(["diagnose", *paths]) == expected
        assert capsys.readouterr().out == ""

    def test_few_snapshots_skip_series_residuals(self, snapshot_dir, capsys):
        assert main(["diagnose", *snapshot_dir[:3]]) == EXIT_OK
        err = capsys.readouterr().err
        assert "identity Z = 2Q" in err
        assert "moment balance" not in err

    def test_non_uniform_times_skip_series_residuals(self, tmp_path,
                                                     capsys):
        # Without the series residuals every snapshot's fields go into
        # one reused buffer; the records must not see another's fields.
        paths = write_series16(tmp_path, [0.0, 1e-3, 2e-3, 4e-3, 8e-3])
        assert main(["diagnose", *paths]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "series residuals skipped: non-uniform snapshot times")
        loaded = [load_snapshot(p) for p in paths]
        band, spectra = series_on_band(
            loaded[0][2], [fft_forward(v) for v, _, _ in loaded])
        classification, first = classify_and_record(band, loaded[0][1],
                                                    spectra[0])
        records = [first] + [
            compute_record(band, t, v, classification=classification)
            for v, (_, t, _) in zip(spectra[1:], loaded[1:])]
        assert captured.out.strip().splitlines()[1:] == [
            ",".join(repr(float(x)) for x in r.as_tuple()) for r in records]

    def test_unsorted_times_rejected(self, snapshot_dir, capsys):
        code = main(["diagnose", snapshot_dir[2], snapshot_dir[0]])
        assert code == EXIT_USAGE
        assert "increasing time order" in capsys.readouterr().err

    def test_mixed_grids_rejected(self, snapshot_dir, tmp_path, capsys):
        other = tmp_path / "other.bin"
        write_snapshot(other, Grid(16), taylor_green(Grid(16)), time=99.0)
        code = main(["diagnose", snapshot_dir[0], str(other)])
        assert code == EXIT_USAGE
        assert "one resolution" in capsys.readouterr().err

    def test_missing_snapshot_is_io_error(self, tmp_path):
        assert main(["diagnose", str(tmp_path / "ghost.bin")]) == EXIT_IO

    def test_corrupt_snapshot_is_io_error(self, snapshot_dir, tmp_path):
        bad = tmp_path / "bad.bin"
        raw = bytearray(Path(snapshot_dir[0]).read_bytes())
        raw[60] ^= 0xFF
        bad.write_bytes(bytes(raw))
        assert main(["diagnose", str(bad)]) == EXIT_IO


    def test_corrupt_header_values_are_io_errors(self, snapshot_dir,
                                                 tmp_path, capsys):
        # A non-finite time or a non-positive or non-finite box length
        # is named by the header checks, which run before the checksum.
        raw = Path(snapshot_dir[0]).read_bytes()
        for start, value, field in ((24, -1.0, "box length"),
                                    (24, float("inf"), "box length"),
                                    (16, float("nan"), "time")):
            bad = tmp_path / "bad_header.bin"
            bad.write_bytes(raw[:start] + struct.pack("<d", value)
                            + raw[start + 8:])
            for argv in (["classify", str(bad)], ["diagnose", str(bad)]):
                assert main(argv) == EXIT_IO
                assert field in capsys.readouterr().err


class TestCmdClassify:
    def test_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=16)
        assert main(["classify", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "class: Neither" in out
        assert "min_lambda2:" in out and "max_lambda2:" in out

    @pytest.mark.parametrize("overrides", [
        {},
        {"initial": {"kind": "random_solenoidal", "seed": 1}},
        {"initial": {"kind": "random_solenoidal", "seed": 1},
         "solver": {"t_final": 0.01, "dealias": False}},
        {"initial": {"kind": "random_solenoidal", "seed": 2},
         "class_tolerance": 0.05},
    ], ids=["taylor_green", "random", "random_unmasked", "tolerance"])
    def test_config_reports_what_the_run_reports(self, tmp_path, capsys,
                                                 overrides):
        # classify --config classifies the state the run starts from,
        # with the run's class tolerance, through the run's record.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output_dir=str(out), **overrides)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["classify", "--config", cfg]) == EXIT_OK
        extrema = summary["lambda2_initial"]
        assert capsys.readouterr().out == (
            f"class: {summary['class']}\n"
            f"min_lambda2: {extrema['min']!r}\n"
            f"max_lambda2: {extrema['max']!r}\n"
            f"tolerance: {summary['class_tolerance']!r}\n")
        if "class_tolerance" in overrides:
            assert summary["class_tolerance"] == 0.05

    def test_from_snapshot(self, tmp_path, grid16, capsys):
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid16, taylor_green(grid16), time=0.0)
        assert main(["classify", str(path)]) == EXIT_OK
        assert "class: Neither" in capsys.readouterr().out

    @pytest.mark.parametrize("cpus, bound", [
        (1, 18.0), (2, 18.65 + 2 * UNCARVED_PER_THREAD)])
    def test_snapshot_peak_memory(self, snapshot_series64, capsys,
                                  monkeypatch, cpus, bound):
        # classify <snapshot> holds the loaded field, its spectrum and a
        # Grid record with a block of its own, whose curl and strain
        # products take a slab of scratch per thread, not a spectral
        # component.  It measured 17.52 fields of the grid on one thread
        # and 18.61-18.64 on two, against 18.33 and 20.42-20.46 with
        # whole-component product scratch.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
        codes = []
        job = lambda: codes.append(main(["classify", snapshot_series64[0]]))
        job()
        peak = traced_peak_fields(Grid(64), job)
        assert codes == [EXIT_OK, EXIT_OK]
        assert peak < bound

    def test_zero_field_snapshot(self, tmp_path, grid8, capsys):
        path = tmp_path / "zero.bin"
        write_snapshot(path, grid8, np.zeros((3, 8, 8, 8)), time=0.0)
        assert main(["classify", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "class: Neither" in out
        assert "min_lambda2: 0.0" in out
        assert "max_lambda2: 0.0" in out

    def test_synthetic_spectra_file(self, tmp_path, grid8, capsys):
        # Payload interpreted as ordered eigenvalue fields.
        shape = (grid8.n,) * 3
        spectra = np.stack((np.full(shape, 2.0), np.full(shape, 1.0),
                            np.full(shape, -3.0)))
        path = tmp_path / "spectra.bin"
        write_snapshot(path, grid8, spectra, time=0.0)
        assert main(["classify", str(path), "--spectra"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "class: APlus" in out
        assert "min_lambda2: 1.0" in out

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["classify"]) == EXIT_USAGE
        assert main(["classify", "snap.bin", "--config", cfg]) == EXIT_USAGE

    def test_spectra_flag_needs_snapshot(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["classify", "--config", cfg, "--spectra"]) == EXIT_USAGE


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(
            tmp_path, n=8,
            initial={"kind": "random_solenoidal", "seed": 9, "peak_k": 1.5},
            output_every=1,
            solver={"t_final": 0.01, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet",
                     "--output-dir", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--quiet",
                     "--output-dir", str(out_b)]) == EXIT_OK
        csv_a = (out_a / "timeseries.csv").read_bytes()
        csv_b = (out_b / "timeseries.csv").read_bytes()
        assert csv_a == csv_b
        assert (out_a / "final.bin").read_bytes() == \
            (out_b / "final.bin").read_bytes()
