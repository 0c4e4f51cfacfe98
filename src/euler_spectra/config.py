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

The key tables below give each key's JSON type, default and minimum;
``n``, ``initial.kind`` and ``solver.t_final`` are required.  Unknown keys
anywhere are rejected — a typo should fail loudly, not silently run
with defaults.  Error messages carry the JSON path of the offending
entry (e.g. ``$.solver.dt``).
"""

import json
import math
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

_REQUIRED = object()  # the default of a key that must be present
_TYPES = {"number": (int, float), "integer": int, "string": str,
          "boolean": bool}

# Key -> (JSON type, default, minimum), in the order the keys are read.
# A key whose default is None may be null.  The keys of "$.initial"
# besides "kind" depend on the kind.
_INITIAL_KEYS = {
    "taylor_green": {},
    "abc": {"a": ("number", 1.0, None), "b": ("number", 1.0, None),
            "c": ("number", 1.0, None)},
    "shear": {},
    "random_solenoidal": {"seed": ("integer", 0, 0),
                          "peak_k": ("number", 4.0, None),
                          "slope": ("number", 2.0, None),
                          "amplitude": ("number", 1.0, None)},
    "from_file": {"path": ("string", _REQUIRED, None)},
}
_SOLVER_KEYS = {
    "dt": ("number", 1e-3, None),
    "t_final": ("number", _REQUIRED, None),
    "nu": ("number", 0.0, None),
    "dealias": ("boolean", True, None),
    "cfl_warning": ("number", 0.5, None),
}
_RUN_KEYS = {
    "output_dir": ("string", "out", None),
    "output_every": ("integer", 10, 1),
    "snapshot_every": ("integer", 0, 0),
    "class_tolerance": ("number", None, 0.0),
    "eps_floor": ("number", None, 0.0),
}


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
        if self.kind not in _INITIAL_KEYS:
            raise ConfigurationError(
                f"unknown initial kind {self.kind!r}; choose one of "
                f"{', '.join(_INITIAL_KEYS)}")
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


def _finite(value, path: str) -> float:
    """The JSON number ``value`` as a float, which must be finite: a
    NaN or an infinity, which ``json.loads`` reads from ``NaN``,
    ``Infinity`` or a number such as ``1e999``, and an integer beyond
    the float range are rejected."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        got = (f"an integer of {len(str(abs(value)))} digits"
               if isinstance(value, int) else json.dumps(value))
        raise ConfigurationError(
            f"{path}: expected a finite number, got {got}")
    return number


class _Section:
    """One JSON object being picked apart, with path-aware accessors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{path}: expected an object, got {_type_name(data)}")
        self.data = data
        self.path = path
        self.seen = set()

    def get(self, key, kind, default=_REQUIRED, minimum=None):
        """The value of ``key``, of JSON type ``kind`` (a number is a
        float) and not below ``minimum``, or ``default`` when absent; a
        key of kind "object" gives its :class:`_Section`."""
        self.seen.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigurationError(
                    f"{self.path}.{key}: required key is missing")
            return default
        value = self.data[key]
        if kind == "object":
            return _Section(value, f"{self.path}.{key}")
        if value is None and default is None:
            return None
        if (isinstance(value, bool) != (kind == "boolean")
                or not isinstance(value, _TYPES[kind])):
            article = "an" if kind == "integer" else "a"
            raise ConfigurationError(f"{self.path}.{key}: expected {article} "
                                     f"{kind}, got {_type_name(value)}")
        if kind == "number":
            value = _finite(value, f"{self.path}.{key}")
        if minimum is not None and value < minimum:
            raise ConfigurationError(
                f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return value

    def read(self, table) -> dict:
        """The values of the keys of ``table``; then any other key that
        was not read is rejected."""
        values = {key: self.get(key, *spec) for key, spec in table.items()}
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigurationError(
                f"{self.path}.{unknown[0]}: unknown key")
        return values


def _build(cls, path: str, /, **kwargs):
    """``cls(**kwargs)``, whose ConfigurationError names ``path``."""
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


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
    except ValueError as exc:  # also an integer literal of > 4300 digits
        raise ConfigurationError(f"configuration is not valid JSON: {exc}") \
            from None

    root = _Section(doc, "$")
    n = root.get("n", "integer", minimum=8)
    if n not in (8, 16, 32, 64, 128):
        raise ConfigurationError(
            f"$.n: must be a power of two in [8, 128], got {n}")
    init = root.get("initial", "object")
    kind = init.get("kind", "string")
    initial = _build(InitSpec, "$.initial", kind=kind,
                     **init.read(_INITIAL_KEYS.get(kind, {})))
    solver = _build(SolverConfig, "$.solver",
                    **root.get("solver", "object").read(_SOLVER_KEYS))
    return _build(RunConfig, "$", n=n, initial=initial, solver=solver,
                  **root.read(_RUN_KEYS))
