"""The functions the benchmark's tracer wraps exist in the package.

``perfbench/tracer.py`` names each traced layer by its defining module
and attribute path, and reports a name it cannot resolve as an absent
layer, which ``perfbench/selftest.py`` counts as a failure.  This test
resolves every name the way the tracer does, so that deleting or
renaming a traced function fails here too; and it runs the self-test,
which also holds the call counts of a traced run and diagnose exact.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import euler_spectra.cli  # noqa: F401  (the tracer wraps after this import)

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_traced_name_resolves(layer):
    module_name, attr_path = TARGETS[layer]
    owner = sys.modules.get(module_name)
    owner_path, _, attr = attr_path.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
    assert owner is not None, f"{layer}: {module_name}.{owner_path} is gone"
    # The owner's own namespace, as the tracer reads it: an inherited
    # __init__ or __call__ is not the package's code.
    assert callable(vars(owner).get(attr)), f"{layer}: {attr_path} is gone"


def test_benchmark_selftest_passes():
    # The exact call counts of a traced n=16 run and diagnose, which the
    # benchmark relies on, are checked only by its self-test.
    result = subprocess.run([sys.executable, "perfbench/selftest.py"],
                            cwd=ROOT, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
