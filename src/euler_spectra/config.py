"""JSON run configuration: schema, defaults, and strict parsing.

A run document looks like::

    {
      "n": 32,
      "initial": {"kind": "taylor_green"},
      "solver": {"dt": 1e-3, "t_final": 1.0, "nu": 0.0, "dealias": true},
      "output_dir": "out",
      "output_every": 10,
      "snapshot_every": 0,
      "class_tolerance": null,
      "eps_floor": null
    }

Only ``n``, ``initial.kind`` and ``solver.t_final`` are required; the
solver defaults are dt = 1e-3, nu = 0, dealias = true.  Unknown keys
anywhere are rejected — a typo should fail loudly, not silently run
with defaults.  Error messages carry the JSON path of the offending
entry (e.g. ``$.solver.dt``).
"""

import json
from dataclasses import dataclass

import numpy as np

from euler_spectra.errors import ConfigurationError
from euler_spectra.fields import fft_forward
from euler_spectra.grid import Grid
from euler_spectra.initial import (
    _finalize,
    abc_flow,
    random_solenoidal,
    shear_flow,
    taylor_green,
)
from euler_spectra.snapshot import load_snapshot
from euler_spectra.solver import SolverConfig

_INIT_KINDS = ("taylor_green", "abc", "shear", "random_solenoidal",
               "from_file")


@dataclass
class InitSpec:
    """Initial-condition choice plus its generator parameters."""

    kind: str
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    seed: int = 0
    peak_k: float = 4.0
    slope: float = 2.0
    amplitude: float = 1.0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise ConfigurationError(
                f"unknown initial kind {self.kind!r}; choose one of "
                f"{', '.join(_INIT_KINDS)}")
        if self.kind == "from_file" and not self.path:
            raise ConfigurationError(
                "initial kind 'from_file' needs a 'path'")

    def build(self, grid: Grid) -> np.ndarray:
        """Materialize the initial spectral velocity on a grid."""
        if self.kind == "taylor_green":
            return taylor_green(grid)
        if self.kind == "abc":
            return abc_flow(grid, self.a, self.b, self.c)
        if self.kind == "shear":
            return shear_flow(grid)
        if self.kind == "random_solenoidal":
            return random_solenoidal(grid, self.seed, self.peak_k,
                                     self.slope, self.amplitude)
        v, _, stored = load_snapshot(self.path)
        if stored != grid:
            raise ConfigurationError(
                f"snapshot grid (n={stored.n}, L={stored.length}) does not "
                f"match configured grid (n={grid.n}, L={grid.length})")
        return _finalize(grid, fft_forward(v))


@dataclass
class RunConfig:
    """Full description of one solver run."""

    n: int
    initial: InitSpec
    solver: SolverConfig
    output_dir: str = "out"
    output_every: int = 10
    snapshot_every: int = 0
    class_tolerance: float | None = None
    eps_floor: float | None = None

    def __post_init__(self):
        if self.n not in (8, 16, 32, 64, 128):
            raise ConfigurationError(
                f"n must be a power of two in [8, 128], got {self.n}")
        if self.output_every < 1:
            raise ConfigurationError(
                f"output_every must be >= 1, got {self.output_every}")
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}")


def _type_name(value) -> str:
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            dict: "object", list: "array",
            type(None): "null"}.get(type(value), type(value).__name__)


class _Section:
    """One JSON object being picked apart, with path-aware accessors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{path}: expected an object, got {_type_name(data)}")
        self.data = data
        self.path = path
        self.seen = set()

    def _fetch(self, key, required):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigurationError(
                    f"{self.path}.{key}: required key is missing")
            return None, False
        return self.data[key], True

    def number(self, key, required=False, default=None, minimum=None,
               allow_null=False):
        value, present = self._fetch(key, required)
        if not present:
            return default
        if value is None and allow_null:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{self.path}.{key}: expected a number, got {_type_name(value)}")
        value = float(value)
        if minimum is not None and value < minimum:
            raise ConfigurationError(
                f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return value

    def integer(self, key, required=False, default=None, minimum=None):
        value, present = self._fetch(key, required)
        if not present:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"{self.path}.{key}: expected an integer, got "
                f"{_type_name(value)}")
        if minimum is not None and value < minimum:
            raise ConfigurationError(
                f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return int(value)

    def string(self, key, required=False, default=None):
        value, present = self._fetch(key, required)
        if not present:
            return default
        if not isinstance(value, str):
            raise ConfigurationError(
                f"{self.path}.{key}: expected a string, got {_type_name(value)}")
        return value

    def boolean(self, key, required=False, default=None):
        value, present = self._fetch(key, required)
        if not present:
            return default
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"{self.path}.{key}: expected a boolean, got "
                f"{_type_name(value)}")
        return value

    def section(self, key, required=False):
        value, present = self._fetch(key, required)
        if not present:
            return None
        return _Section(value, f"{self.path}.{key}")

    def reject_unknown(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigurationError(
                f"{self.path}.{unknown[0]}: unknown key")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration document.

    Raises
    ------
    ConfigurationError
        On malformed JSON, missing required keys, wrong types, values
        out of range, or unknown keys; the message names the JSON path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"configuration is not valid JSON: {exc}") \
            from None

    root = _Section(doc, "$")
    n = root.integer("n", required=True, minimum=8)
    if n not in (8, 16, 32, 64, 128):
        raise ConfigurationError(
            f"$.n: must be a power of two in [8, 128], got {n}")

    init_sec = root.section("initial", required=True)
    kind = init_sec.string("kind", required=True)
    init_kwargs = {"kind": kind}
    if kind == "abc":
        init_kwargs["a"] = init_sec.number("a", default=1.0)
        init_kwargs["b"] = init_sec.number("b", default=1.0)
        init_kwargs["c"] = init_sec.number("c", default=1.0)
    elif kind == "random_solenoidal":
        init_kwargs["seed"] = init_sec.integer("seed", default=0, minimum=0)
        init_kwargs["peak_k"] = init_sec.number("peak_k", default=4.0)
        init_kwargs["slope"] = init_sec.number("slope", default=2.0)
        init_kwargs["amplitude"] = init_sec.number("amplitude", default=1.0)
    elif kind == "from_file":
        init_kwargs["path"] = init_sec.string("path", required=True)
    init_sec.reject_unknown()
    try:
        initial = InitSpec(**init_kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"$.initial: {exc}") from None

    solver_sec = root.section("solver", required=True)
    dt = solver_sec.number("dt", default=1e-3)
    t_final = solver_sec.number("t_final", required=True)
    nu = solver_sec.number("nu", default=0.0)
    dealias = solver_sec.boolean("dealias", default=True)
    cfl_warning = solver_sec.number("cfl_warning", default=0.5)
    solver_sec.reject_unknown()
    try:
        solver = SolverConfig(dt=dt, t_final=t_final, nu=nu, dealias=dealias,
                              cfl_warning=cfl_warning)
    except ConfigurationError as exc:
        raise ConfigurationError(f"$.solver: {exc}") from None

    output_dir = root.string("output_dir", default="out")
    output_every = root.integer("output_every", default=10, minimum=1)
    snapshot_every = root.integer("snapshot_every", default=0, minimum=0)
    class_tolerance = root.number("class_tolerance", default=None,
                                  minimum=0.0, allow_null=True)
    eps_floor = root.number("eps_floor", default=None, minimum=0.0,
                            allow_null=True)
    root.reject_unknown()

    try:
        return RunConfig(n=n, initial=initial, solver=solver,
                         output_dir=output_dir, output_every=output_every,
                         snapshot_every=snapshot_every,
                         class_tolerance=class_tolerance,
                         eps_floor=eps_floor)
    except ConfigurationError as exc:
        raise ConfigurationError(f"$: {exc}") from None
