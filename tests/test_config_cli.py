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
from euler_spectra.fields import fft_forward
from euler_spectra.grid import Grid
from euler_spectra.initial import random_solenoidal, taylor_green
from euler_spectra.snapshot import load_snapshot, write_snapshot
from euler_spectra.solver import SolverConfig, run as solver_run, step_threads
import euler_spectra.workers as workers_module

from conftest import traced_peak_fields


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
                                                    monkeypatch):
        # A run starts worker threads only on an n >= 64 grid when the
        # process may run on two CPUs: one for each band step and one
        # for each diagnostics record.  The manifest counts the step's.
        started = []
        thread_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        # One step and two records.  With dealias off the step runs on
        # the Nyquist-free band, on two threads alike.
        for cpus, n, threads, starts, dealias in [
                (2, 32, 1, 0, True), (1, 64, 1, 0, True),
                (2, 64, 2, 3, True), (2, 64, 2, 3, False)]:
            monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
            out = tmp_path / f"out_{cpus}_{n}_{dealias}"
            cfg = write_config(tmp_path, n=n, output_dir=str(out),
                               output_every=1,
                               solver={"t_final": 0.001, "dt": 1e-3,
                                       "dealias": dealias})
            started.clear()
            assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
            assert len(started) == starts
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
            write_snapshot(reference, grid, state.band.scatter(state.v),
                           state.t)
            written = out / f"snapshot_{state.step_index:08d}.bin"
            assert written.read_bytes() == reference.read_bytes()

        final = solver_run(grid, config.initial.build(grid), config.solver,
                           [compare])
        assert on_band == [True] * 4
        write_snapshot(reference, grid, final.band.scatter(final.v), final.t)
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

    @pytest.mark.parametrize("initial", [
        {"kind": "random_solenoidal", "seed": 3},
        {"kind": "taylor_green"},
    ])
    def test_matches_the_public_functions(self, tmp_path, capsys, initial):
        # diagnose shares each snapshot's transforms between its records
        # and the transport residual; both must come out as the public
        # functions give them on their own.  On both fields the transport
        # residual sits at rounding level, so its printed digits would
        # show a mixed-up field.
        out = tmp_path / "snaps"
        cfg = write_config(tmp_path, n=16, output_dir=str(out),
                           initial=initial, snapshot_every=1,
                           solver={"t_final": 0.004, "dt": 1e-3})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        paths = sorted(str(p) for p in out.glob("snapshot_*.bin"))
        assert len(paths) == 5
        capsys.readouterr()
        assert main(["diagnose", *paths]) == EXIT_OK
        captured = capsys.readouterr()

        loaded = [load_snapshot(p) for p in paths]
        grid = loaded[0][2]
        times = [t for _, t, _ in loaded]
        classification, first = classify_and_record(
            grid, times[0], fft_forward(loaded[0][0]))
        records = [first] + [
            compute_record(grid, t, fft_forward(v),
                           classification=classification)
            for v, t, _ in loaded[1:]]
        rows = captured.out.strip().splitlines()[1:]
        assert rows == [",".join(repr(float(x)) for x in r.as_tuple())
                        for r in records]
        raw, _ = vorticity_transport_residual(
            grid, times, [v for v, _, _ in loaded])
        assert (f"vorticity transport: max residual "
                f"{float(np.max(raw)):.3e}") in captured.err.splitlines()

    def test_same_output_on_one_thread_or_two(self, snapshot_series64,
                                              capsys, monkeypatch):
        # On n=64 snapshots, the records and the per-snapshot transforms
        # of diagnose share their work with a worker thread when two CPUs
        # are available; the output must be the same bytes.
        paths = snapshot_series64
        started = []
        thread_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
            started.clear()
            assert main(["diagnose", *paths]) == EXIT_OK
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err, len(started)))
        assert outputs[0][:2] == outputs[1][:2]
        # One worker for the whole pass: the snapshot transforms, the
        # five records and the transport residual.
        assert (outputs[0][2], outputs[1][2]) == (0, 1)

    def test_peak_memory(self, snapshot_series64, capsys, monkeypatch):
        # diagnose keeps only the spectra of the loaded snapshots and
        # forms each one's v and omega when its record needs them; the
        # omega and transport rows grow as the spectra are released.
        # One thread, so that the peak does not depend on the host: it
        # measured 49.8 fields of the grid against 66.9 when every
        # snapshot's v and omega were formed before the records and the
        # transport term was stored for all snapshots after them.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        codes = []
        peak = traced_peak_fields(Grid(64), lambda: codes.append(
            main(["diagnose", *snapshot_series64])))
        assert codes == [EXIT_OK]
        assert peak < 58.0

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
        grid = loaded[0][2]
        classification, first = classify_and_record(
            grid, loaded[0][1], fft_forward(loaded[0][0]))
        records = [first] + [
            compute_record(grid, t, fft_forward(v),
                           classification=classification)
            for v, t, _ in loaded[1:]]
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
