"""euler_spectra benchmark: drive the public CLI and check its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Each CLI command runs in its own child process with
``EULER_SPECTRA_THREADS=1``, one process at a time.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` alternates untraced and
traced commands and reports the per-layer metrics.  A report goes to
stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

DT = 1e-3
SETUP_SAMPLES = 7
# Every invocation must end well inside 180 s; no command is started
# that could not finish before this many seconds.
DEADLINE_S = 165.0
# The tolerances ``euler-spectra diagnose`` applies to the identity
# residuals (euler_spectra.cli.cmd_diagnose); the benchmark adds none.
IDENTITY_TOLERANCES = {"enstrophy_moment": 1e-8, "stretching_cubic": 1e-7,
                       "cubic_product": 1e-8}
IDENTITY_LABELS = ("Z = 2Q", "W = -(4/3) C3", "C3 = 3P")


class BenchError(Exception):
    """A failure that leaves no valid result to report."""


@dataclass(frozen=True)
class Workload:
    """One CLI invocation pattern.

    A run workload is ``euler-spectra run`` of the config below.  A
    replay workload first runs that config once to write ``steps + 1``
    uniformly spaced snapshots, then measures ``euler-spectra diagnose``
    over them.
    """

    name: str
    n: int
    steps: int
    output_every: int
    snapshot_every: int
    random_field: bool
    replay: bool = False

    def config(self, seed: int) -> dict:
        initial = {"kind": "taylor_green"}
        if self.random_field:
            initial = {"kind": "random_solenoidal", "seed": seed % 2 ** 32}
        return {"n": self.n, "initial": initial,
                "solver": {"t_final": self.steps * DT, "dt": DT},
                "output_every": self.output_every,
                "snapshot_every": self.snapshot_every}

    @property
    def records(self) -> int:
        return self.steps // self.output_every + 1

    @property
    def snapshots(self) -> int:
        if not self.snapshot_every:
            return 0
        return self.steps // self.snapshot_every + 1

    @property
    def units(self) -> int:
        """Work items per command: solver steps, or snapshots replayed."""
        return self.snapshots if self.replay else self.steps


WORKLOADS = {w.name: w for w in (
    Workload("tg64_solve", n=64, steps=24, output_every=12,
             snapshot_every=0, random_field=False),
    Workload("rand32_instrumented", n=32, steps=24, output_every=1,
             snapshot_every=1, random_field=True),
    Workload("rand64_replay", n=64, steps=4, output_every=4,
             snapshot_every=1, random_field=True, replay=True),
)}


# -- child processes --------------------------------------------------------

class Runner:
    """Starts children one at a time and keeps them inside the deadline."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["EULER_SPECTRA_THREADS"] = "1"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, args, stdout, stderr=None):
        """Run ``child.py ARGS``; return (exit code, wall seconds, stdout).

        The exit code is None when the child had to be killed at the
        deadline; stdout is returned only when it was a pipe.
        """
        timeout = self.remaining()
        if timeout <= 1.0:
            return None, 0.0, None
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT,
                timeout=timeout, text=True)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, None
        return proc.returncode, time.perf_counter() - start, proc.stdout

    def json_child(self, args, what):
        """Run a child that prints one JSON line; raise BenchError on failure."""
        code, _, out = self.child(args, subprocess.PIPE)
        if code != 0 or not out:
            raise BenchError(f"{what} failed (exit {code})")
        return json.loads(out.strip().splitlines()[-1])


# -- output checks ------------------------------------------------------------

def check_run(wl: Workload, out_dir: Path) -> list:
    """Problems with the outputs of one ``euler-spectra run``."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        rows = (out_dir / "timeseries.csv").read_text().splitlines()[1:]
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    run = summary.get("run", {})
    if run.get("aborted") or run.get("steps_completed") != wl.steps:
        problems.append(f"steps_completed {run.get('steps_completed')} "
                        f"!= {wl.steps}")
    if len(rows) != wl.records:
        problems.append(f"CSV has {len(rows)} rows, expected {wl.records}")
    residuals = summary.get("identity_residuals", {})
    for key, tol in IDENTITY_TOLERANCES.items():
        value = residuals.get(key)
        if value is None or not value <= tol:
            problems.append(f"identity residual {key}={value} > {tol}")
    if summary.get("envelope_containment", {}).get("satisfied") is not True:
        problems.append("envelope containment not satisfied")
    snaps = len(list(out_dir.glob("snapshot_*.bin")))
    if snaps != wl.snapshots or not (out_dir / "final.bin").is_file():
        problems.append(f"{snaps} snapshots (+final.bin), expected "
                        f"{wl.snapshots}")
    return problems


_FLOAT = r"([-+0-9.eEinfa]+)"


def check_replay(wl: Workload, stdout: str, stderr: str) -> list:
    """Problems with the outputs of one ``euler-spectra diagnose``."""
    problems = []
    rows = stdout.splitlines()[1:]
    if len(rows) != wl.snapshots:
        problems.append(f"{len(rows)} records, expected {wl.snapshots}")
    for label in IDENTITY_LABELS:
        if f"identity {label}: pass" not in stderr:
            problems.append(f"identity {label} did not pass")
    for what in (r"moment balance dQ/dt \+ 4P: max normalized residual",
                 r"vorticity transport: max residual"):
        match = re.search(what + " " + _FLOAT, stderr)
        if not match or not math.isfinite(float(match.group(1))):
            problems.append(f"no finite value for '{what}'")
    return problems


def check_counts(wl: Workload, layers: dict, absent: list) -> list:
    """Exact call counts a traced command must show."""
    if wl.replay:
        expected = {"snapshot.load": wl.snapshots,
                    "diagnostics.compute_record": wl.snapshots,
                    "solver.step_rk4": 0}
    else:
        expected = {"solver.step_rk4": wl.steps,
                    "solver.rhs": 4 * wl.steps,
                    "diagnostics.compute_record": wl.records,
                    "snapshot.write": wl.snapshots + 1}
    return [f"{name}.calls = {layers[name + '.calls']}, expected {count}"
            for name, count in expected.items()
            if name not in absent and layers[name + ".calls"] != count]


# -- one command ----------------------------------------------------------------

@dataclass
class Command:
    traced: bool
    ok: bool
    wall_s: float
    problems: list
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    layers: dict = None
    absent: list = None


def run_command(runner, wl, cmd_dir, argv, traced) -> Command:
    cmd_dir.mkdir(parents=True)
    result_path = cmd_dir / "result.json"
    with open(cmd_dir / "stdout", "w") as out, \
            open(cmd_dir / "stderr", "w") as err:
        code, wall, _ = runner.child(
            ["cli", "1" if traced else "0", str(result_path), "--", *argv],
            out, err)
    if code != 0:
        return Command(traced, False, wall, [f"exit code {code}"])
    result = json.loads(result_path.read_text())
    if wl.replay:
        problems = check_replay(wl, (cmd_dir / "stdout").read_text(),
                                (cmd_dir / "stderr").read_text())
    else:
        problems = check_run(wl, cmd_dir / "out")
    cmd = Command(traced, not problems, wall, problems,
                  result["peak_rss_mb"], result["cpu_s"])
    if traced:
        cmd.layers = layer_metrics(result["spans"], result["window_s"])
        cmd.absent = result["absent"]
        cmd.problems += check_counts(wl, cmd.layers, cmd.absent)
        cmd.ok = not cmd.problems
    shutil.rmtree(cmd_dir)
    return cmd


# -- a whole invocation ------------------------------------------------------------

def environment(runner, probe: dict, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "python": probe["python"], "numpy": probe["numpy"],
        "scipy": probe["scipy"], "numba_importable": probe["numba_importable"],
        "EULER_SPECTRA_THREADS": runner.env["EULER_SPECTRA_THREADS"],
        "EULER_SPECTRA_THREADS_inherited":
            os.environ.get("EULER_SPECTRA_THREADS"),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def prepare(runner, wl, seed, work):
    """Write the inputs; return (config path, argv for a command dir).

    For replay this runs the config once, untimed, to write the
    snapshot fixture with the program's own writer.
    """
    config_path = work / "config.json"
    config_path.write_text(json.dumps(wl.config(seed)))

    def run_argv(out_dir):
        return ["run", "--config", str(config_path), "--output-dir",
                str(out_dir), "--quiet"]

    if not wl.replay:
        return config_path, lambda cmd_dir: run_argv(cmd_dir / "out")
    fixture = work / "fixture"
    fixture.mkdir()
    with open(fixture / "stdout", "w") as out, \
            open(fixture / "stderr", "w") as err:
        code, _, _ = runner.child(
            ["cli", "0", str(fixture / "result.json"), "--",
             *run_argv(fixture / "out")], out, err)
    problems = check_run(wl, fixture / "out") if code == 0 else \
        [f"exit code {code}"]
    if problems:
        raise BenchError(f"replay fixture failed: {problems}")
    argv = ["diagnose", *sorted(str(p) for p in
                                (fixture / "out").glob("snapshot_*.bin"))]
    return config_path, lambda cmd_dir: argv


def measure(runner, wl, argv_for, work, seconds, trace):
    """Run commands one after another for about ``seconds``.

    Untraced only with ``trace`` off; untraced and traced alternately
    with it on.  At least two commands run.  Another starts only if at
    least half of it would fall inside ``seconds``, and none that the
    longest one so far says would overrun the deadline.
    """
    commands = []
    start = time.perf_counter()
    while runner.remaining() > 1.0:
        traced = trace and len(commands) % 2 == 1
        elapsed = time.perf_counter() - start
        walls = [c.wall_s for c in commands]
        if len(commands) >= 2 and (
                elapsed + 0.5 * statistics.mean(walls) > seconds
                or 1.3 * max(walls) > runner.remaining()):
            break
        cmd_dir = work / f"cmd_{len(commands):03d}"
        commands.append(run_command(runner, wl, cmd_dir, argv_for(cmd_dir),
                                    traced))
    return commands


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(wl, commands, setup_samples):
    good = [c for c in commands if c.ok and not c.traced]
    return {
        "wall_s": _median([c.wall_s for c in good]),
        "throughput": _median([wl.units / c.wall_s for c in good]),
        "setup_s": _median([s["setup_s"] for s in setup_samples]),
        "peak_rss_mb": _median([c.peak_rss_mb for c in good]),
    }


def per_layer(commands):
    traced = [c for c in commands if c.ok and c.traced]
    plain = [c for c in commands if c.ok and not c.traced]
    out = {}
    if traced:
        for key in traced[0].layers:
            out[key] = _median([c.layers[key] for c in traced])
    out["trace.overhead_frac"] = (
        _median([c.wall_s for c in traced]) /
        _median([c.wall_s for c in plain]) - 1.0)
    return out


def layer_shares(layers, wall_s):
    """Inclusive and self time of each traced layer, as shares of wall."""
    rows = []
    for key in sorted(layers):
        if key.endswith(".calls") and layers[key]:
            name = key[:-len(".calls")]
            rows.append((name, layers[key], layers[name + ".s"] / wall_s,
                         layers[name + ".self_s"] / wall_s))
    rows.sort(key=lambda r: -r[2])
    return rows


def report(wl, args, env, spec, commands, values, problems, shares):
    err = sys.stderr
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", file=err)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), file=err)
    failed = sum(not c.ok for c in commands)
    print(f"commands: {len(commands)} attempted, {failed} failed "
          f"(failed_frac {failed / max(len(commands), 1):g})", file=err)
    section = "per_layer" if args.trace else "end_to_end"
    for metric in spec[section]:
        print(f"  {metric['name']:<42} {values[metric['name']]:<22.6g} "
              f"{metric['unit']}", file=err)
    if shares:
        print(f"  {'layer':<40} {'calls':>7} {'incl':>7} {'self':>7}",
              file=err)
        for name, calls, incl, self_share in shares:
            print(f"  {name:<40} {calls:>7.0f} {incl:>7.1%} "
                  f"{self_share:>7.1%}", file=err)
    print("checks: " + ("all passed" if not problems else
                        "; ".join(problems)), file=err)


def run_workload(wl, args, spec, started):
    runner = Runner(started)
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe = runner.json_child(["probe"], "importing euler_spectra.cli")
        if not Path(probe["package_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"euler_spectra imported from "
                             f"{probe['package_file']}, not {SRC}")
        env = environment(runner, probe, args.seed)
        config_path, argv_for = prepare(runner, wl, args.seed, work)
        setup = [] if args.trace else [
            runner.json_child(["setup", str(config_path)], "setup")
            for _ in range(SETUP_SAMPLES)]
        commands = measure(runner, wl, argv_for, work, args.seconds,
                           args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any(c.ok and not c.traced for c in commands) or \
            (args.trace and not any(c.ok and c.traced for c in commands)):
        problems = sorted({p for c in commands for p in c.problems})
        raise BenchError(f"no command of {wl.name} succeeded: {problems}")
    if args.trace:
        values = per_layer(commands)
        traced = [c for c in commands if c.ok and c.traced]
        absent = sorted({a for c in traced for a in c.absent})
        wall = _median([c.wall_s for c in traced])
        shares = layer_shares(values, wall)
    else:
        values = end_to_end(wl, commands, setup)
        absent, shares = [], []
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    problems = sorted({p for c in commands for p in c.problems})
    problems += [f"absent layer: {a}" for a in absent]
    report(wl, args, env, spec, commands, values, problems, shares)

    failed = sum(not c.ok for c in commands)
    result = {"correct": failed == 0, "attempted": len(commands),
              "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}_seed{args.seed}_trace{args.trace}.json") \
        .write_text(json.dumps({
            "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
            "env": env, "result": result, "all_metrics": values,
            "absent": absent, "problems": problems,
            "samples": {"wall_s": [c.wall_s for c in commands],
                        "cpu_s": [c.cpu_s for c in commands],
                        "traced": [c.traced for c in commands],
                        "ok": [c.ok for c in commands],
                        "setup_s": [s["setup_s"] for s in setup]},
            "layer_shares": shares}, indent=1))
    return result


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the running child before the benchmark exits.
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "euler_spectra" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args, spec,
                                  time.perf_counter())
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
