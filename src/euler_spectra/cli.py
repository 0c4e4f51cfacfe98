"""Command-line entry point: run, diagnose, classify.

Exit codes: 0 success, 1 usage or configuration problem, 2 numeric
abort (NaN detected mid-run), 3 I/O failure (unreadable input,
unwritable output, corrupt snapshot), 130 run interrupted (Ctrl-C,
i.e. ``KeyboardInterrupt``).  A run that aborts with code 2 or 130, or
with code 3 after it has started, still writes ``summary.json`` with an
``abort`` block.
"""

import argparse
import dataclasses
import json
import logging
import math
import platform
import sys
import time as _time
from pathlib import Path

import numpy as np

from euler_spectra import __version__
from euler_spectra.config import parse_config
from euler_spectra.deformation import classify_admissible
from euler_spectra.diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    _format_row,
    classify_and_record,
    record_scratch_size,
)
from euler_spectra.envelopes import (
    _SnapshotPass,
    _series_spectra,
    containment_check,
    epsilon_decay_bound,
    growth_envelopes,
    lambda2_plus_exponential_bound,
    moment_balance_residual,
    quadrature_slack,
    uniform_spacing,
)
from euler_spectra.errors import (
    ConfigurationError,
    ContractViolationError,
    NumericsError,
    SnapshotFormatError,
)
from euler_spectra.fields import fft_forward
from euler_spectra.grid import Grid
from euler_spectra.snapshot import (
    load_snapshot,
    replace_on_success,
    write_snapshot,
)
from euler_spectra.solver import run as solver_run, step_threads

logger = logging.getLogger("euler_spectra.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="euler-spectra",
        description="Pseudospectral Euler solver with deformation-eigenvalue "
                    "diagnostics")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_run = sub.add_parser("run", help="integrate a configured run")
    p_run.add_argument("--config", required=True,
                       help="path to a JSON run configuration")
    p_run.add_argument("--output-dir", default=None,
                       help="override the configured output directory")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser(
        "diagnose", help="recompute diagnostics from stored snapshots")
    p_diag.add_argument("snapshots", nargs="+",
                        help="snapshot files, in ascending time order")
    p_diag.set_defaults(func=cmd_diagnose)

    p_cls = sub.add_parser(
        "classify", help="classify initial data or a snapshot")
    p_cls.add_argument("snapshot", nargs="?", default=None,
                       help="snapshot file to classify")
    p_cls.add_argument("--config", default=None,
                       help="classify the initial data of a run config")
    p_cls.add_argument("--spectra", action="store_true",
                       help="treat the snapshot payload as eigenvalue "
                            "fields (l1, l2, l3) instead of a velocity")
    p_cls.set_defaults(func=cmd_classify)
    return parser


def _sanitize(obj):
    """Make a summary tree strictly JSON-serializable (NaN/Inf -> null)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _manifest(solver_threads: int) -> dict:
    """Versions, FFT backend and solver thread count that produced a run."""
    return {
        "euler_spectra": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "fft_backend": "numpy.fft",
        "solver_threads": solver_threads,
    }


def _bound_summaries(collector, grid) -> dict:
    records = collector.records
    classification = collector.classification
    env = growth_envelopes(records, classification)
    violations = containment_check(records, env)
    slack = quadrature_slack(records)
    max_slack = float(np.max(slack)) if slack.size else 0.0
    tolerance = 1e-6 + max_slack
    containment = {
        "satisfied": bool(
            violations["max_lower_violation"] <= tolerance
            and violations["max_upper_violation"] <= tolerance),
        "tolerance": tolerance,
        "quadrature_slack": max_slack,
        **violations,
    }

    exp_bound = lambda2_plus_exponential_bound(records, env)

    eps = epsilon_decay_bound(records, classification, grid.volume)
    if not eps.applicable:
        eps_summary = {"verdict": "inapplicable", "reason": eps.reason}
    else:
        finite = eps.lhs[np.isfinite(eps.lhs)]
        eps_summary = {
            "verdict": "satisfied" if eps.satisfied else "violated",
            "rhs": eps.rhs,
            "max_lhs": float(np.max(finite)) if finite.size else 0.0,
        }

    out = {
        "envelope_containment": containment,
        "stretching_exponential_bound": exp_bound,
        "epsilon_decay_bound": eps_summary,
    }
    if len(records) >= 5:
        try:
            _, normalized = moment_balance_residual(records)
            out["moment_balance_max_normalized_residual"] = float(
                np.max(np.abs(normalized)))
        except ContractViolationError:
            pass
    return out


def cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    cfg = parse_config(text)

    out_dir = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory is not writable: {exc}",
              file=sys.stderr)
        return EXIT_IO

    grid = Grid(cfg.n)
    # In a list that the run pops, so that no reference outlives the
    # start of the run.
    initial = [cfg.initial.build(grid)]

    collector = DiagnosticsCollector(
        every=cfg.output_every,
        csv_path=out_dir / "timeseries.csv",
        class_tolerance=cfg.class_tolerance,
        eps_floor=cfg.eps_floor)

    # The latest state handed to the observers, for the abort block of
    # an I/O failure or an interrupt.
    reached = None

    def reached_observer(state):
        nonlocal reached
        reached = state

    observers = [reached_observer, collector]
    if cfg.snapshot_every > 0:
        def snapshot_observer(state):
            if state.step_index % cfg.snapshot_every == 0:
                write_snapshot(
                    out_dir / f"snapshot_{state.step_index:08d}.bin",
                    grid, state.physical(), state.t)
        observers.append(snapshot_observer)

    total_steps = cfg.solver.step_count()
    progress_stride = max(1, total_steps // 10)

    def progress_observer(state):
        if state.step_index % progress_stride == 0 or \
                state.step_index == total_steps:
            logger.info("step %d/%d  t=%.6g", state.step_index, total_steps,
                        state.t)
    observers.append(progress_observer)

    logger.info("run: n=%d dt=%g t_final=%g nu=%g (%d steps)",
                cfg.n, cfg.solver.dt, cfg.solver.t_final, cfg.solver.nu,
                total_steps)

    started = _time.perf_counter()
    summary = {
        "run": {
            "n": cfg.n,
            "dt": cfg.solver.dt,
            "t_final": cfg.solver.t_final,
            "nu": cfg.solver.nu,
            "dealias": cfg.solver.dealias,
            "output_every": cfg.output_every,
            "initial_kind": cfg.initial.kind,
            "aborted": False,
        },
    }
    exit_code = EXIT_OK
    try:
        final_state = solver_run(grid, initial.pop(), cfg.solver, observers)
        write_snapshot(out_dir / "final.bin", grid, final_state.physical(),
                       final_state.t)
        summary["run"]["steps_completed"] = final_state.step_index
    except (OSError, KeyboardInterrupt) as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        message = "interrupted" if interrupted else f"I/O failure: {exc}"
        summary["run"]["aborted"] = True
        summary["run"]["abort"] = {
            "step_index": reached.step_index if reached else None,
            "time": reached.t if reached else None,
            "message": message,
        }
        print(f"error: {message}", file=sys.stderr)
        exit_code = EXIT_INTERRUPTED if interrupted else EXIT_IO
    except NumericsError as exc:
        summary["run"]["aborted"] = True
        summary["run"]["abort"] = {
            "step_index": exc.step_index,
            "time": exc.time,
            "message": str(exc),
        }
        print(f"error: numeric abort: {exc}", file=sys.stderr)
        exit_code = EXIT_NUMERIC
    finally:
        collector.close()

    summary["run"]["wall_time_s"] = _time.perf_counter() - started
    if collector.records:
        summary.update(collector.summary())
        summary.update(_bound_summaries(collector, grid))
    summary["manifest"] = _manifest(step_threads(grid))
    try:
        with replace_on_success(out_dir / "summary.json", "w") as fh:
            json.dump(_sanitize(summary), fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write summary: {exc}", file=sys.stderr)
        return EXIT_IO

    if exit_code == EXIT_OK:
        logger.info("done in %.1fs; outputs in %s",
                    summary["run"]["wall_time_s"], out_dir)
    return exit_code


def _load_series(paths):
    """``(grid, band, compact spectra, times)`` of the snapshots of
    ``paths``, each loaded, checked and transformed before any is
    recorded, one half spectrum at a time, on the band that
    ``_series_spectra`` chooses for the whole series.  On the band
    without the Nyquist planes, the largest share of a snapshot's power
    on those planes, which the band drops, is reported on stderr.
    """
    headers = []  # (t, grid) of each snapshot

    def halves():
        headers.clear()
        spectrum = None
        for path in paths:
            v, t, grid = load_snapshot(path)
            headers.append((t, grid))
            if grid == headers[0][1]:
                spectrum = fft_forward(v, out=spectrum)
                del v  # before the next load
                yield grid, spectrum
        times, grids = zip(*headers)
        if any(grid != grids[0] for grid in grids):
            raise ContractViolationError(
                "snapshots mix different grids; diagnose needs one "
                "resolution")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ContractViolationError(
                "snapshots must be supplied in strictly increasing time "
                "order")

    band, spectra, nyquist = _series_spectra(halves)
    if band.m != band.n // 3:
        print(f"band: 2/3 rule exceeded, recorded without the Nyquist "
              f"planes (dropped Nyquist power fraction {nyquist:.3e})",
              file=sys.stderr)
    return headers[0][1], band, spectra, [t for t, _ in headers]


def cmd_diagnose(args) -> int:
    """Recompute diagnostics from snapshots, in one pass over them.

    Every snapshot is loaded, checked and transformed first, and only
    its compact spectrum is kept, on one band for the whole series
    (``_load_series``), so that a corrupt, mixed-grid or unsorted input
    fails before any row is printed.  Then one snapshot at a time,
    through an :class:`~euler_spectra.envelopes._SnapshotPass` on that
    band: its physical fields are formed, and its omega row kept; its
    record is computed from the fields under a run's series rules, in
    the block the pass lends it, and printed; when the series takes the
    series residuals (five or more uniformly spaced snapshots), its
    transport row is formed, and its spectrum's bytes take the next
    snapshot's omega row, or, for the last, are released before the
    transport row is allocated.  Spectra and omega rows have one shape,
    so the reuse leaves the heap no gaps that later rows do not fit.
    """
    grid, band, spectra, times = _load_series(args.snapshots)
    spacing = None
    if len(times) >= 5:
        try:
            spacing = uniform_spacing(times)
        except ContractViolationError:
            pass

    print(",".join(DiagnosticsRecord.field_names()))
    series = DiagnosticsCollector()
    snapshots = _SnapshotPass(grid, band, transport=spacing is not None,
                              lend=record_scratch_size(band))
    spare = None  # a released spectrum, which the next omega row reuses
    for m, t in enumerate(times):
        record = series.record(band, t, spectra[m],
                               physical=snapshots.fields(spectra[m], spare),
                               work=snapshots.work)
        print(_format_row(record.as_tuple()))
        if spacing is not None and m + 1 < len(times):
            spare = spectra[m]
        spectra[m] = None
        if spacing is not None:
            snapshots.add_transport()
    if spacing is not None:
        transport, _ = snapshots.residual(spacing)

    worst = series.max_residuals
    names = {"enstrophy_moment": "Z = 2Q",
             "stretching_cubic": "W = -(4/3) C3",
             "cubic_product": "C3 = 3P"}
    tolerances = {"enstrophy_moment": 1e-8, "stretching_cubic": 1e-7,
                  "cubic_product": 1e-8}
    for key, label in names.items():
        verdict = "pass" if worst[key] <= tolerances[key] else "FAIL"
        if key == "stretching_cubic" and band.m != band.n // 3:
            verdict = "not exact on this band"  # its cubic products alias
        print(f"identity {label}: {verdict} (max residual {worst[key]:.3e})",
              file=sys.stderr)

    if len(times) >= 5:
        if spacing is None:
            print("series residuals skipped: non-uniform snapshot times",
                  file=sys.stderr)
        else:
            _, normalized = moment_balance_residual(series.records)
            print(f"moment balance dQ/dt + 4P: max normalized residual "
                  f"{float(np.max(np.abs(normalized))):.3e}", file=sys.stderr)
            print(f"vorticity transport: max residual "
                  f"{float(np.max(transport)):.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    if (args.config is None) == (args.snapshot is None):
        raise _UsageError(
            "classify needs exactly one of --config or a snapshot path")
    if args.spectra and args.snapshot is None:
        raise _UsageError("--spectra only applies to snapshot input")

    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        cfg = parse_config(text)
        grid = Grid(cfg.n)
        # The state a run starts from, classified as its first record.
        start = solver_run(grid, cfg.initial.build(grid),
                           dataclasses.replace(cfg.solver, t_final=0.0))
        classification, _ = classify_and_record(
            start.band, start.t, start.v, cfg.class_tolerance)
    else:
        if args.spectra:
            classification = classify_admissible(
                load_snapshot(args.snapshot)[0])
        else:
            _, band, (vhat,), (t,) = _load_series([args.snapshot])
            classification, _ = classify_and_record(band, t, vhat)

    print(f"class: {classification.label.value}")
    print(f"min_lambda2: {classification.min_lambda2!r}")
    print(f"max_lambda2: {classification.max_lambda2!r}")
    print(f"tolerance: {classification.tolerance!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False)
        else logging.INFO,
        format="%(message)s")

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"error: numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SnapshotFormatError as exc:
        print(f"error: bad snapshot: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
