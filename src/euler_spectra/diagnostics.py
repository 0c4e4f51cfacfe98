"""Per-step diagnostics: conserved quantities, eigenvalue moments, CSV.

The record layout is part of the package's external contract: the CSV
header below is stable and parsers may rely on it.  Each record row is
written with ``repr(float(x))`` so values round-trip exactly through
text, and the file is flushed after every row so a killed run leaves a
usable series behind.

Integral identities
-------------------
Three exact identities of the semidiscrete system are monitored, all
consequences of incompressibility and integration by parts:

- enstrophy vs. second eigenvalue moment:  Z = 2 Q
- vortex stretching vs. cubic trace:       W = -(4/3) C3
- cubic trace vs. eigenvalue product:      C3 = 3 P

Each is tracked as a normalized residual whose denominator is floored
by a small multiple of the natural scale sqrt(Q) * Z, so symmetric
initial data (where both sides vanish) does not report junk ratios.

Records in slabs
----------------
The pointwise stages of a record (the eigensolve of the deformation
tensor, the integrands of E, H, Z, Q, P, W and C3, and the trace check
of the tensor) run over slabs of a few x planes, whose temporaries stay
in cache.  The integrands share one array of the whole grid: each is
written into it slab by slab and integrated by one pairwise sum before
the next, so a record is the same bit for bit as one evaluated on the
whole field and holds one integrand at a time.  On a grid with
n >= 64, when the process may run on two CPUs, one worker thread takes
half of the slabs and half of the tensor's transforms: the rule of
:mod:`euler_spectra.workers`, which band steps follow too.

Every buffer of grid size of a record is a view of one block that the
record allocates and frees (``_RecordBlock``), so glibc maps it and
gives it back whole instead of leaving a dozen freed arrays on the
heap.  Regions are reused once dead: v sits in the first half of the
tensor's region, the eigenvalues take its place once every integral of
the tensor is taken, and the integrand shares a region with the
transform buffers.

A record of a run's state takes the compact band array as it
is: it forms the curl and the tensor entries on the band and transforms
them with the passes of :func:`~euler_spectra.fields.band_inverse`,
which skip the lines outside the band and give the values the half
spectrum gives.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from euler_spectra.deformation import (
    AdmissibleClass,
    Classification,
    _check_trace,
    _require_finite,
    _strain_entries,
    _trace_squared,
    classify_admissible,
    eigenvalues_sym3,
    epsilon_ratio,
    frobenius_squared,
)
from euler_spectra.envelopes import EnvelopeAccumulator, envelope_rates
from euler_spectra.errors import ContractViolationError, NumericsError
from euler_spectra.fields import (
    _physical_fields,
    curl,
    integrate_domain,
    magnitude_squared,
    pointwise_dot,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.reductions import _pairwise_sum_owned, pairwise_sum
from euler_spectra.workers import (
    _carve,
    _carved_size,
    _lanes,
    _slabs,
    _split,
    _worker,
)


def spectra_moments(grid: Grid, spectra: np.ndarray):
    """Quadratic and product moments (Q, P) of the eigenvalue fields.

    Q = integral (l1^2 + l2^2 + l3^2),  P = integral (l1 l2 l3).
    """
    return (integrate_domain(grid, _quadratic_density(spectra)),
            integrate_domain(grid, _product_density(spectra)))


def _quadratic_density(spectra: np.ndarray):
    l1, l2, l3 = spectra
    return l1 * l1 + l2 * l2 + l3 * l3


def _product_density(spectra: np.ndarray):
    l1, l2, l3 = spectra
    return l1 * l2 * l3


def stretching_integral(grid: Grid, tensor: np.ndarray,
                        omega: np.ndarray) -> float:
    """Vortex-stretching integral W = integral omega . S omega.

    ``omega`` is the physical vorticity, ``tensor`` the (6, ...) strain.
    """
    return integrate_domain(grid, _stretching_density(tensor, omega))


def _stretching_density(tensor: np.ndarray, omega: np.ndarray):
    s11, s12, s13, s22, s23, s33 = tensor
    w1, w2, w3 = omega
    return (s11 * w1 * w1 + s22 * w2 * w2 + s33 * w3 * w3
            + 2.0 * (s12 * w1 * w2 + s13 * w1 * w3 + s23 * w2 * w3))


def cubic_trace_integral(grid: Grid, tensor: np.ndarray) -> float:
    """Integral of tr(S^3), evaluated from components (not eigenvalues).

    Using the componentwise expansion keeps this quantity independent
    of the eigensolver, so comparing it against 3 P cross-checks the
    entire eigenvalue pipeline.  Every term is a product of entries:
    numpy evaluates ``s ** 3`` through ``pow``, many times slower than
    ``s * s * s``.
    """
    return integrate_domain(grid, _cubic_trace_density(tensor))


def _cubic_trace_density(tensor: np.ndarray):
    s11, s12, s13, s22, s23, s33 = tensor
    return (s11 * s11 * s11 + s22 * s22 * s22 + s33 * s33 * s33
            + 3.0 * (s12 * s12 * (s11 + s22)
                     + s13 * s13 * (s11 + s33)
                     + s23 * s23 * (s22 + s33))
            + 6.0 * s12 * s13 * s23)


def resolution_tail_fraction(grid: Grid, v: np.ndarray,
                             band: Band | None = None) -> float:
    """Fraction of enstrophy carried by the outer third of retained modes.

    A well-resolved field keeps this small; values approaching one mean
    the retained band is saturated and the run is underresolved.  Uses
    the infinity-norm shell |k|_inf > (2/3) * (n/3) as the tail.  Sums
    run over the half spectrum with the grid's Parseval weight.  ``band``
    is the :class:`Band` of a compact ``v``, the state of a run: the
    compact layout holds its modes in the C order of the half spectrum,
    and the weight is 1 at kz = 0 and 2 on the other band planes there
    too, so the sums over the band's modes of the 2/3-rule ball and of
    its tail are the same bits as on ``band.scatter(v)``, without the
    scatter.
    """
    n = grid.n
    absf = np.abs(grid.freq)
    kinf = np.maximum(np.maximum(absf.reshape(n, 1, 1),
                                 absf.reshape(1, n, 1)),
                      np.abs(grid.freq_z).reshape(1, 1, -1))
    space, kept = grid, grid.dealias_mask
    in_tail = kept & (kinf > (2.0 / 3.0) * grid.dealias_limit)
    if band is not None:
        space, kept, in_tail = band, band.restrict(kept), band.restrict(in_tail)
    weight = grid.parseval_weight[..., :v.shape[-1]]
    power = weight * sum(np.abs(c) ** 2 for c in curl(space, v))
    total = pairwise_sum(power[kept])
    if total <= 0.0:
        return 0.0
    return pairwise_sum(power[in_tail]) / total


_CSV_FIELDS = ("t", "E", "H", "Z", "Q", "P", "W", "C3",
               "sup_l2p", "inf_l2p", "sup_l2m_abs", "inf_l2m_abs",
               "min_l2", "max_l2", "inf_eps", "bkm_sup_vort")

_ENVELOPE_FIELDS = ("env_lower", "env_upper", "bkm_integral",
                    "class_env_lower", "class_env_upper")


@dataclass
class DiagnosticsRecord:
    """One diagnostics sample; attribute order matches the CSV header."""

    t: float
    E: float
    H: float
    Z: float
    Q: float
    P: float
    W: float
    C3: float
    sup_l2p: float
    inf_l2p: float
    sup_l2m_abs: float
    inf_l2m_abs: float
    min_l2: float
    max_l2: float
    inf_eps: float
    bkm_sup_vort: float

    @staticmethod
    def field_names():
        return _CSV_FIELDS

    def as_tuple(self):
        return tuple(getattr(self, name) for name in _CSV_FIELDS)


assert tuple(f.name for f in dataclass_fields(DiagnosticsRecord)) == _CSV_FIELDS


class _ClassifyHere:
    """Stands in for the classification of the sample being recorded.

    :func:`compute_record` classifies the spectra it has just computed
    with ``tolerance``, keeps the outcome in ``result`` and uses it for
    the record's epsilon ratio, so the first sample of a series needs
    one strain eigensolve, not two.
    """

    def __init__(self, tolerance: float | None):
        self.tolerance = tolerance
        self.result: Classification | None = None


class _RecordBlock:
    """The buffers of grid size of one :func:`compute_record` call, as
    views of one block that the calling thread allocates
    (:func:`euler_spectra.workers._carve`) and that goes when the record
    returns.  Each region is reused once what it held is dead:

    - ``tensor``, the six entries of the deformation tensor.  Its first
      half, ``v``, holds the record's physical velocity until E and H
      are integrated, and then the eigenvalues, once every integral of
      the tensor is taken.
    - ``omega``, the physical vorticity, or None when the caller holds
      the physical fields (``own_fields`` false, as in ``diagnose``).
    - a region that the integrand ``density``, dead while fields are
      transformed, shares with the buffers of each thread ("lane",
      :func:`euler_spectra.workers._split_lanes`), dead while integrands
      are filled: ``work``, a spectral component and its scratch, and
      on a :class:`Band` ``pads``, a padded component (None on a
      :class:`Grid`).  A caller that holds such ``work`` buffers lends
      them instead (``diagnose``).

    So a record holds 9 fields of the grid, 6 with the caller's
    physical fields, plus the larger of one field and its lane buffers.
    """

    def __init__(self, space: Grid | Band, lanes: int, own_fields: bool,
                 work: np.ndarray | None = None):
        n, f, c = space.n, np.float64, np.complex128
        field = (n, n, n)
        lane_specs = []
        if work is None:
            lane_specs.append(((lanes, 2) + space.k_squared.shape, c))
        if isinstance(space, Band):
            lane_specs.append(((lanes, n, n, space.m + 1), c))
        shared = max(_carved_size(*lane_specs), _carved_size((field, f)))
        regions = [((6,) + field, f), ((shared,), np.uint8)]
        if own_fields:
            regions.append(((3,) + field, f))
        self.tensor, shared, *omega = _carve(*regions)
        self.omega = omega[0] if omega else None
        self.v = self.tensor[:3]
        (self.density,) = _carve((field, f), block=shared)
        lane_buffers = _carve(*lane_specs, block=shared)
        self.work = lane_buffers.pop(0) if work is None else work
        self.pads = lane_buffers[0] if lane_buffers else None


def compute_record(grid: Grid, t: float, v: np.ndarray,
                   classification: Classification | None = None,
                   eps_floor: float | None = None,
                   class_valid: bool = True,
                   physical=None, worker=None,
                   band: Band | None = None,
                   work: np.ndarray | None = None) -> DiagnosticsRecord:
    """Evaluate the full diagnostics pipeline for one spectral velocity.

    The epsilon-ratio infimum is only defined while the run sits in a
    one-signed class; pass the run's classification (and whether the
    sign condition still holds) to populate it, otherwise it is NaN.
    :func:`classify_and_record` classifies the sample itself first.
    ``physical`` is ``(fft_inverse(v), fft_inverse(curl(grid, v)))``
    for a caller that holds them (``diagnose``); the record is the same.
    ``worker`` is the worker of :func:`euler_spectra.workers._worker`
    held open by a caller whose records share it (``diagnose``); by
    default the record opens its own, which gives no thread exactly
    where the caller's gives none.  ``band`` is the :class:`Band` of a
    compact ``v``, the state of a run; the record is the same
    as on ``band.scatter(v)``.  ``work`` is a complex128 array
    ``(lanes, 2) + v.shape[1:]``, one spectral component and its scratch
    per thread of ``worker``, that a caller lends the record
    (``diagnose``'s pass, between its transforms).

    Every buffer of grid size is a view of one block that lives for the
    call (:class:`_RecordBlock`), apart from the eigensolver's slab
    temporaries.  The record forms v and omega, integrates E and H,
    forms the deformation tensor over v, integrates Z (and takes
    ``bkm_sup_vort``), W, C3 and the trace check, then solves for the
    eigenvalues slab by slab over the first half of the tensor
    (:func:`_slab_eigenvalues`) and integrates Q and P.  Each integrand
    is filled slab by slab into one array of the whole grid and
    integrated by one pairwise sum, which folds that array in place,
    before the next is filled, so the record is the same bit for bit as
    one evaluated on the whole field, in any order of the integrals.  On
    a grid where :mod:`euler_spectra.workers` allows it, one worker
    thread takes half of the slabs and half of the transforms.
    """
    spectral = grid if band is None else band
    with (nullcontext(worker) if worker is not None
          else _worker(grid.n)) as worker:
        block = _RecordBlock(spectral, _lanes(worker), physical is None,
                             work)
        density, tensor = block.density, block.tensor
        slabs = _slabs(grid.n)

        def fill(form, *arrays):
            """``density`` filled with ``form(*arrays)``, slab by slab."""
            def job(x):
                density[x] = form(*(a[:, x] for a in arrays))
            _split(worker, job, slabs)
            return density

        def integrate(density):
            """``integrate_domain(grid, density)``, folding ``density``."""
            return grid.cell_volume * _pairwise_sum_owned(density)

        def integral(form, *arrays):
            return integrate(fill(form, *arrays))

        if physical is None:
            physical = block.v, block.omega
            _physical_fields(spectral, v, physical, worker, block.work,
                             block.pads)
        v_phys, omega_phys = physical
        e = integral(magnitude_squared, v_phys)
        h = integral(pointwise_dot, v_phys, omega_phys)
        _strain_entries(spectral, v, worker, tensor, block.work, block.pads)
        fill(magnitude_squared, omega_phys)
        bkm_sup_vort = float(np.sqrt(np.max(density)))  # max_speed(omega)
        z = integrate(density)
        w = integral(_stretching_density, tensor, omega_phys)
        c3 = integral(_cubic_trace_density, tensor)
        trace_mean_square = np.mean(fill(_trace_squared, tensor))
        _check_trace(trace_mean_square,
                     np.mean(fill(frobenius_squared, tensor)))
        spectra = _slab_eigenvalues(tensor, worker, out=tensor[:3])
        q = integral(_quadratic_density, spectra)
        p = integral(_product_density, spectra)
    if isinstance(classification, _ClassifyHere):
        classification.result = classify_admissible(
            spectra, classification.tolerance)
        classification = classification.result

    min_l2 = float(np.min(spectra[1]))
    max_l2 = float(np.max(spectra[1]))
    sup_l2p = max(max_l2, 0.0)
    inf_l2p = max(min_l2, 0.0)
    sup_l2m_abs = max(-min_l2, 0.0)
    inf_l2m_abs = max(-max_l2, 0.0)

    inf_eps = math.nan
    if (classification is not None and class_valid
            and classification.label != AdmissibleClass.NEITHER):
        ratio, excluded = epsilon_ratio(spectra, classification, eps_floor,
                                        out=density)
        if excluded < ratio.size:
            inf_eps = float(np.nanmin(ratio))

    return DiagnosticsRecord(
        t=float(t), E=0.5 * e, H=h, Z=z, Q=q, P=p, W=w, C3=c3,
        sup_l2p=sup_l2p, inf_l2p=inf_l2p,
        sup_l2m_abs=sup_l2m_abs, inf_l2m_abs=inf_l2m_abs,
        min_l2=min_l2, max_l2=max_l2,
        inf_eps=inf_eps, bkm_sup_vort=bkm_sup_vort)


def _slab_eigenvalues(tensor: np.ndarray, worker,
                      out: np.ndarray) -> np.ndarray:
    """``eigenvalues_sym3(tensor)``, solved slab by slab, into the
    float64 ``out`` of shape ``(3,) + tensor.shape[1:]``.

    Each slab of x planes (:func:`euler_spectra.workers._slabs`) is
    solved on its own; the eigensolver, its refinement and its range
    guards act point by point, so the slabs give the values the whole
    field does.  The slabs alternate between ``worker`` and the calling
    thread.  ``out`` may be ``tensor[:3]``: a slab's eigenvalues are
    written once they are solved, over entries that no other slab
    reads, and a slab that has been solved held no non-finite entry, so
    the error below still names the first one of the whole field.
    """
    def solve(x):
        out[:, x] = eigenvalues_sym3(tensor[:, x])

    try:
        _split(worker, solve, _slabs(tensor.shape[1]))
    except NumericsError:
        # A slab names its own first bad entry; report the whole field's.
        _require_finite(tensor)
        raise
    return out


def classify_and_record(grid: Grid, t: float, v: np.ndarray,
                        tolerance: float | None = None,
                        eps_floor: float | None = None, physical=None,
                        worker=None, band: Band | None = None, work=None):
    """Classify the first sample of a series and record it.

    Gives the classification of the record's eigenvalues with
    ``tolerance`` and the record :func:`compute_record` gives with it,
    from one deformation tensor and one eigensolve; ``physical``,
    ``worker``, ``band`` and ``work`` go to the record.

    Returns
    -------
    (Classification, DiagnosticsRecord)
    """
    pending = _ClassifyHere(tolerance)
    record = compute_record(grid, t, v, classification=pending,
                            eps_floor=eps_floor, physical=physical,
                            worker=worker, band=band, work=work)
    return pending.result, record


def identity_residuals(record: DiagnosticsRecord) -> dict:
    """Normalized residuals of the three exact integral identities.

    Denominators are floored at 1e-6 of the natural stretching scale
    sqrt(Q) * Z, so that residuals stay meaningful when symmetry makes
    both sides of an identity vanish (e.g. mirror-symmetric data at
    t = 0, where W and C3 are zero to rounding).
    """
    z, q, p, w, c3 = record.Z, record.Q, record.P, record.W, record.C3
    moment = abs(z - 2.0 * q) / max(abs(z), 2.0 * abs(q), 1e-300)
    # Natural magnitude of W and C3: RMS eigenvalue times enstrophy.
    scale = math.sqrt(max(q, 0.0)) * z
    floor = max(1e-6 * scale, 1e-300)
    stretching = abs(w + (4.0 / 3.0) * c3) / max(
        abs(w), (4.0 / 3.0) * abs(c3), floor)
    cubic = abs(c3 - 3.0 * p) / max(abs(c3), 3.0 * abs(p), floor)
    return {
        "enstrophy_moment": moment,
        "stretching_cubic": stretching,
        "cubic_product": cubic,
    }


def _format_row(values) -> str:
    return ",".join(repr(float(x)) for x in values)


class DiagnosticsCollector:
    """Run observer that records diagnostics and streams them to CSV.

    It takes the states of :func:`euler_spectra.solver.run` as they
    come, and records each one as it is, on its band.

    Parameters
    ----------
    grid : Grid
        Grid of the run's velocity.
    every : int
        Record cadence in steps (>= 1); step 0 is always recorded.
    csv_path : str or Path, optional
        Destination for the incremental CSV.  The file carries the
        sixteen record columns plus five envelope columns.
    class_tolerance : float, optional
        Tolerance handed to the sign classification of the first
        sample; default lets the classifier pick its own.
    eps_floor : float, optional
        Denominator floor for the epsilon ratio.

    Notes
    -----
    The envelope columns integrate the middle-eigenvalue extrema with
    the trapezoid rule as records arrive, so the collector's running
    values agree bit for bit with a batch recomputation that uses the
    same left-to-right accumulation (see euler_spectra.envelopes).
    """

    def __init__(self, grid: Grid, every: int = 1, csv_path=None,
                 class_tolerance: float | None = None,
                 eps_floor: float | None = None):
        if every < 1:
            raise ContractViolationError(f"cadence must be >= 1, got {every}")
        self.grid = grid
        self.every = int(every)
        self.csv_path = csv_path
        self.class_tolerance = class_tolerance
        self.eps_floor = eps_floor

        self.records: list[DiagnosticsRecord] = []
        self.classification: Classification | None = None
        self.zero_touch_time: float | None = None
        self.max_residuals = {"enstrophy_moment": 0.0,
                              "stretching_cubic": 0.0,
                              "cubic_product": 0.0}
        self.tail_fraction_initial: float | None = None
        # Solver state of the latest record; the summary's final tail
        # fraction is computed from it once, not on every record.
        self._last_state = None

        self._fh = None
        self._accumulator = EnvelopeAccumulator()
        self.envelope_rows: list[tuple] = []

    # -- classification bookkeeping -------------------------------------

    def _class_active(self) -> bool:
        return (self.classification is not None
                and self.classification.label != AdmissibleClass.NEITHER
                and self.zero_touch_time is None)

    def _update_zero_touch(self, record: DiagnosticsRecord):
        if not self._class_active():
            return
        label = self.classification.label
        tol = self.classification.tolerance
        if label == AdmissibleClass.APLUS and record.min_l2 < -tol:
            self.zero_touch_time = record.t
        elif label == AdmissibleClass.AMINUS and record.max_l2 > tol:
            self.zero_touch_time = record.t

    # -- envelope accumulation ------------------------------------------

    def _advance_envelopes(self, record: DiagnosticsRecord):
        label = self.classification.label if self.classification else None
        rates = envelope_rates(record, label, self._class_active())
        row = self._accumulator.push(record, rates)
        self.envelope_rows.append(row)
        return row

    # -- observer entry point -------------------------------------------

    def __call__(self, state):
        if state.step_index % self.every != 0:
            return
        if not self.records:
            self.classification, record = classify_and_record(
                self.grid, state.t, state.v, self.class_tolerance,
                self.eps_floor, band=state.band)
            self.tail_fraction_initial = resolution_tail_fraction(
                self.grid, state.v, state.band)
        else:
            record = compute_record(self.grid, state.t, state.v,
                                    classification=self.classification,
                                    eps_floor=self.eps_floor,
                                    class_valid=self._class_active(),
                                    band=state.band)
        self._update_zero_touch(record)
        if (self.zero_touch_time is not None
                and self.zero_touch_time == record.t):
            # The sample that broke the sign condition: its epsilon is
            # already meaningless.
            record.inf_eps = math.nan
        self.records.append(record)

        for key, value in identity_residuals(record).items():
            if value > self.max_residuals[key]:
                self.max_residuals[key] = value
        self._last_state = state

        envelope_row = self._advance_envelopes(record)
        self._write_row(record, envelope_row)

    # -- CSV ---------------------------------------------------------------

    def _write_row(self, record, envelope_row):
        if self.csv_path is None:
            return
        if self._fh is None:
            self._fh = open(self.csv_path, "w", newline="")
            self._fh.write(",".join(_CSV_FIELDS + _ENVELOPE_FIELDS) + "\n")
        self._fh.write(_format_row(record.as_tuple() + envelope_row) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- summary -------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate verdicts for the run so far (see cli for the schema)."""
        if not self.records:
            raise ContractViolationError("no records collected yet")
        first, last = self.records[0], self.records[-1]
        e0, h0 = first.E, first.H
        e_scale = max(abs(e0), 1e-300)
        max_e_drift = max(abs(r.E - e0) for r in self.records) / e_scale
        max_h_drift = max(abs(r.H - h0) for r in self.records)
        return {
            "class": self.classification.label.value,
            "class_tolerance": self.classification.tolerance,
            "lambda2_initial": {"min": first.min_l2, "max": first.max_l2},
            "first_zero_touching": self.zero_touch_time,
            "energy": {"initial": e0, "final": last.E,
                       "max_rel_drift": max_e_drift},
            "helicity": {"initial": h0, "final": last.H,
                         "max_abs_drift": max_h_drift},
            "enstrophy": {"initial": first.Z, "final": last.Z},
            "identity_residuals": dict(self.max_residuals),
            "resolution_health": {
                "tail_enstrophy_fraction_initial": self.tail_fraction_initial,
                "tail_enstrophy_fraction_final": resolution_tail_fraction(
                    self.grid, self._last_state.v, self._last_state.band),
            },
        }
