"""Fast self-test of the benchmark's tracer and checks (a few seconds).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs a traced ``euler-spectra run`` and ``diagnose`` on an n=16 grid and
requires exact call counts, checks that a traced name which no longer
exists is reported as absent without an error, and that every metric
named in BENCHMARK.json is produced.  Exits 0 when everything holds.
"""

import json
import shutil
import sys
import time
import types

import run
from tracer import FFT_LAYER, Tracer, layer_metrics

# The run and the replay share one config: 4 steps, 5 snapshots.
TINY = run.Workload("selftest", n=16, steps=4, output_every=2,
                    snapshot_every=1, random_field=True)
TINY_REPLAY = run.Workload("selftest_replay", n=16, steps=4, output_every=2,
                           snapshot_every=1, random_field=True, replay=True)


def test_call_counts(work, failures):
    """Traced run and diagnose on n=16; run.check_counts holds the counts."""
    runner = run.Runner(time.perf_counter())
    config_path, replay_argv = run.prepare(runner, TINY_REPLAY, 0, work)
    run_argv = ["run", "--config", str(config_path), "--output-dir",
                str(work / "run" / "out"), "--quiet"]
    commands = []
    for wl, name, argv in ((TINY, "run", run_argv),
                           (TINY_REPLAY, "diagnose", replay_argv(None))):
        cmd = run.run_command(runner, wl, work / name, argv, traced=True)
        problems = cmd.problems + [f"absent layer: {a}"
                                   for a in cmd.absent or []]
        report(f"traced {name}: outputs and exact call counts", problems,
               failures)
        commands.append(cmd)
    return commands[-1]


def test_absent_names(failures):
    sys.path.insert(0, str(run.SRC))
    import euler_spectra.cli  # noqa: F401

    # Real layer names pointed at attributes that do not exist, as after
    # a refactor that renames or removes them.
    targets = {"solver.rhs": ("euler_spectra.solver", "no_such_name"),
               "snapshot.fnv1a64": ("euler_spectra.no_such_module", "f"),
               "grid.Grid": ("euler_spectra.grid", "Grid.no_such"),
               "initial.build": ("euler_spectra.fields", "NoSuchField.f")}
    tracer = Tracer()
    absent = tracer.install(targets=targets,
                            fft_module=types.ModuleType("empty_fft"))
    expected = [*targets, FFT_LAYER]
    problems = [] if absent == expected else [f"absent = {absent}"]
    layers = layer_metrics(tracer.spans, 1.0)
    problems += [f"{name}.calls = {layers.get(name + '.calls')}, expected 0"
                 for name in expected if layers.get(name + ".calls") != 0]
    report("absent names are reported, not raised", problems, failures)


def test_metric_names(replay_cmd, failures):
    spec = json.loads(run.SPEC.read_text())
    produced = {*(replay_cmd.layers or {}), *run.per_layer([])}
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced]
    e2e = run.end_to_end(TINY, [], [])
    missing += [m["name"] for m in spec["end_to_end"] if m["name"] not in e2e]
    report("every metric in BENCHMARK.json is produced",
           [f"missing {name}" for name in missing], failures)


def report(what, problems, failures):
    print(("ok    " if not problems else "FAIL  ") + what
          + "".join(f"\n      {p}" for p in problems))
    if problems:
        failures.append(what)


def main():
    failures = []
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        replay_cmd = test_call_counts(work, failures)
        test_absent_names(failures)
        test_metric_names(replay_cmd, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "passed" if not failures else
          f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
