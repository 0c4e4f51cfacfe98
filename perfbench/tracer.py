"""In-memory span tracer that wraps the package's public functions.

Spans are recorded from outside the program: after ``euler_spectra.cli``
is imported, every binding of a traced function is replaced by a timing
wrapper.  The package imports names with ``from ... import``, so the
wrapper must replace the binding in every module that holds it, not only
in the defining module; :meth:`Tracer.install` does that by identity.

A span is ``[name, start, end, parent, nbytes]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``nbytes`` the computed data
volume for layers that move data (FFT input plus output, snapshot file
size).  Nothing is written until :meth:`Tracer.dump`.

Only the standard library is imported here, so loading this module does
not change what the program's own import costs.
"""

import functools
import json
import os
import sys
import time

# Layer name -> (defining module, attribute path).  A target whose module,
# class or function no longer exists is reported as absent, not an error.
TARGETS = {
    "config.parse_config": ("euler_spectra.config", "parse_config"),
    "grid.Grid": ("euler_spectra.grid", "Grid.__init__"),
    "initial.build": ("euler_spectra.config", "InitSpec.build"),
    "solver.step_rk4": ("euler_spectra.solver", "step_rk4"),
    "solver.rhs": ("euler_spectra.solver", "rhs"),
    "deformation.deformation_tensor": ("euler_spectra.deformation",
                                       "deformation_tensor"),
    "deformation.eigenvalues_sym3": ("euler_spectra.deformation",
                                     "eigenvalues_sym3"),
    "diagnostics.compute_record": ("euler_spectra.diagnostics",
                                   "compute_record"),
    "diagnostics.tail_fraction": ("euler_spectra.diagnostics",
                                  "resolution_tail_fraction"),
    "diagnostics.observer": ("euler_spectra.diagnostics",
                             "DiagnosticsCollector.__call__"),
    "reductions.pairwise_sum": ("euler_spectra.reductions", "pairwise_sum"),
    "envelopes.vorticity_transport_residual": (
        "euler_spectra.envelopes", "vorticity_transport_residual"),
    "envelopes.moment_balance_residual": ("euler_spectra.envelopes",
                                          "moment_balance_residual"),
    "envelopes.growth_envelopes": ("euler_spectra.envelopes",
                                   "growth_envelopes"),
    "snapshot.write": ("euler_spectra.snapshot", "write_snapshot"),
    "snapshot.load": ("euler_spectra.snapshot", "load_snapshot"),
    "snapshot.fnv1a64": ("euler_spectra.snapshot", "fnv1a64"),
}

# Every n-dimensional entry point of scipy.fft, complex and real, so the
# FFT layer is counted whichever transform the spectral core uses.
FFT_LAYER = "fields.fft"
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn",
             "fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2")

_PACKAGE = "euler_spectra"


def _fft_bytes(args, kwargs, result):
    data = args[0] if args else kwargs.get("x")
    return getattr(data, "nbytes", 0) + getattr(result, "nbytes", 0)


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


_MEASURE = {"snapshot.write": _file_bytes, "snapshot.load": _file_bytes}


class Tracer:
    """Collects spans from wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` wrapped so each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if measure is not None:
                    span[4] = measure(args, kwargs, result)

        return traced

    def span(self, name, start, end):
        """Record a span measured by the caller (top level only)."""
        self.spans.append([name, start, end, -1, 0])

    def install(self, targets=None, fft_module=None):
        """Wrap every target and every loaded binding of it.

        Returns the list of target names that could not be resolved;
        the same list is kept in ``self.absent``.
        """
        targets = TARGETS if targets is None else targets
        for name, (module_name, attr_path) in targets.items():
            module = sys.modules.get(module_name)
            owner_path, _, attr = attr_path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            # Own namespace only: an inherited __call__ or __init__ is
            # not the package's code.
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, _MEASURE.get(name))
            if owner_path:
                setattr(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)

        if fft_module is None:
            import scipy.fft as fft_module
        wrapped_any = False
        for fft_name in FFT_NAMES:
            original = getattr(fft_module, fft_name, None)
            if original is None:
                continue
            wrapped = self.wrap(FFT_LAYER, original, _fft_bytes)
            setattr(fft_module, fft_name, wrapped)
            self._rebind(original, wrapped)
            wrapped_any = True
        if not wrapped_any:
            self.absent.append(FFT_LAYER)
        return self.absent

    @staticmethod
    def _rebind(original, wrapped):
        """Replace ``original`` wherever a package module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == _PACKAGE or
                                      mod_name.startswith(_PACKAGE + ".")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped

    def dump(self, path, **extra):
        """Write the spans and absent targets as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent, **extra},
                      fh)


def layer_metrics(spans, wall_s):
    """Per-layer counts and times of one traced command.

    ``wall_s`` is the traced window the spans were recorded in; it is
    the base of ``trace.unattributed_frac``.
    """
    count, total, self_s, nbytes = {}, {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    top_level = 0.0
    for i, (name, start, end, parent, size) in enumerate(spans):
        duration = end - start
        count[name] = count.get(name, 0) + 1
        if not _has_ancestor(spans, parent, name):
            total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        nbytes[name] = nbytes.get(name, 0) + size
        if parent < 0:
            top_level += duration

    def ratio(a, b):
        return a / b if b else 0.0

    steps = count.get("solver.step_rk4", 0)
    records = count.get("diagnostics.compute_record", 0)
    fft_in_steps = sum(1 for s in spans if s[0] == FFT_LAYER and
                       _has_ancestor(spans, s[3], "solver.step_rk4"))
    out = {}
    for name in sorted({*TARGETS, FFT_LAYER, *count}):
        out[name + ".calls"] = count.get(name, 0)
        out[name + ".s"] = total.get(name, 0.0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
        if name in _MEASURE:
            out[name + ".mb_per_s"] = ratio(nbytes.get(name, 0) / 1e6,
                                            total.get(name, 0.0))
    out[FFT_LAYER + ".bytes"] = nbytes.get(FFT_LAYER, 0)
    out[FFT_LAYER + ".calls_per_step"] = ratio(fft_in_steps, steps)
    out["deformation.eig_per_record"] = ratio(
        count.get("deformation.eigenvalues_sym3", 0), records)
    out["diagnostics.tail_per_record"] = ratio(
        count.get("diagnostics.tail_fraction", 0), records)
    out["trace.unattributed_frac"] = ratio(wall_s - top_level, wall_s)
    return out


def _has_ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
