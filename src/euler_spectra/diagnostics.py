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

A record (:func:`compute_record`) runs on a :class:`Band`, that of a
run's state or the one ``diagnose`` chooses for a series of snapshots.
Its pointwise stages run over slabs of a few x planes, shared with a
worker thread where :mod:`euler_spectra.workers` allows one, and it is
the same bit for bit as one evaluated on the whole field.
:class:`DiagnosticsCollector` keeps the rules of a series of records,
for ``run`` and ``diagnose`` alike.
"""

import math
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
    first_zero_touching,
    frobenius_squared,
)
from euler_spectra.envelopes import EnvelopeAccumulator, envelope_rates
from euler_spectra.errors import ContractViolationError, NumericsError
from euler_spectra.fields import (
    _form_buffers,
    _lane_specs,
    _physical_fields,
    curl,
    magnitude_squared,
    pointwise_dot,
)
from euler_spectra.grid import Band
from euler_spectra.reductions import _pairwise_sum_owned, pairwise_sum
from euler_spectra.workers import (
    _carve,
    _carved_size,
    _lanes,
    _slabs,
    _split_lanes,
    _worker,
)


# The integrand forms of a record, each with the ``out`` and ``work``
# of :func:`euler_spectra.fields._form_buffers`.

def _product_density(spectra: np.ndarray, out=None, work=None):
    """``l1 * l2 * l3``; it takes no ``work``."""
    l1, l2, l3 = spectra
    out = np.empty(l1.shape) if out is None else out
    np.multiply(l1, l2, out=out)
    return np.multiply(out, l3, out=out)


def _stretching_density(tensor: np.ndarray, omega: np.ndarray, out=None,
                        work=None):
    """``s11 * w1 * w1 + s22 * w2 * w2 + s33 * w3 * w3 + 2.0 * (s12 * w1
    * w2 + s13 * w1 * w3 + s23 * w2 * w3)``, through ``work[:2]``."""
    s11, s12, s13, s22, s23, s33 = tensor
    w1, w2, w3 = omega
    out, (a, b) = _form_buffers(s11.shape, out, work, 2)
    np.multiply(s12, w1, out=out)
    np.multiply(out, w2, out=out)
    for s, wi, wj in ((s13, w1, w3), (s23, w2, w3)):
        np.multiply(s, wi, out=a)
        np.add(out, np.multiply(a, wj, out=a), out=out)
    np.multiply(2.0, out, out=out)
    np.multiply(s11, w1, out=a)
    np.multiply(a, w1, out=a)
    for s, wi in ((s22, w2), (s33, w3)):
        np.multiply(s, wi, out=b)
        np.add(a, np.multiply(b, wi, out=b), out=a)
    return np.add(a, out, out=out)


def _cubic_trace_density(tensor: np.ndarray, out=None, work=None):
    """tr(S^3) from the entries of S, not from its eigenvalues, so that
    C3 = 3 P checks the eigensolver: ``s11 * s11 * s11 + s22 * s22 * s22
    + s33 * s33 * s33 + 3.0 * (s12 * s12 * (s11 + s22) + s13 * s13 * (s11
    + s33) + s23 * s23 * (s22 + s33)) + 6.0 * s12 * s13 * s23``, through
    ``work[:2]``; ``s * s * s`` because numpy takes ``s ** 3`` through
    the many times slower ``pow``."""
    s11, s12, s13, s22, s23, s33 = tensor
    out, (a, b) = _form_buffers(s11.shape, out, work, 2)
    np.multiply(s12, s12, out=out)
    np.multiply(out, np.add(s11, s22, out=a), out=out)
    for s, si, sj in ((s13, s11, s33), (s23, s22, s33)):
        np.multiply(s, s, out=a)
        np.add(out, np.multiply(a, np.add(si, sj, out=b), out=a), out=out)
    np.multiply(3.0, out, out=out)
    np.multiply(s11, s11, out=a)
    np.multiply(a, s11, out=a)
    for s in (s22, s33):
        np.multiply(s, s, out=b)
        np.add(a, np.multiply(b, s, out=b), out=a)
    np.add(a, out, out=out)
    np.multiply(6.0, s12, out=a)
    np.multiply(a, s13, out=a)
    return np.add(out, np.multiply(a, s23, out=a), out=out)


def resolution_tail_fraction(space: Band, v: np.ndarray) -> float:
    """Fraction of enstrophy carried by the outer third of retained modes.

    A well-resolved field keeps this small; values approaching one mean
    the retained band is saturated and the run is underresolved.  Uses
    the infinity-norm shell |k|_inf > (2/3) * (n/3) of the 2/3-rule
    ball |k|_inf <= n/3 as the tail.  ``v`` is the compact array of the
    :class:`Band` ``space``, a run's state.  Sums run over the band's
    modes in the C order of the half spectrum, with its Parseval weight
    (1 at kz = 0, 2 on the other band planes), so they are the same bits
    as on the half spectrum that holds ``v`` and is zero off the band.
    """
    limit, m = space.n // 3, space.m
    modes = np.abs(np.r_[:m + 1, -m:0])
    kinf = np.maximum(np.maximum.outer(modes, modes)[..., None],
                      np.arange(m + 1))
    kept = kinf <= limit
    in_tail = kept & (kinf > (2.0 / 3.0) * limit)
    weight = np.full(m + 1, 2.0)
    weight[0] = 1.0
    power = weight * sum(np.abs(c) ** 2 for c in curl(space, v))
    total = pairwise_sum(power[kept])
    if total <= 0.0:
        return 0.0
    return pairwise_sum(power[in_tail]) / total


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


_CSV_FIELDS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


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
    """The buffers of one :func:`compute_record` call, as views of one
    block, by the rules of :mod:`euler_spectra.workers`: the block of
    :func:`record_scratch_size` bytes that a caller lends (``diagnose``'s
    pass), or one that lives for the call.  Each region is reused once what it held is
    dead:

    - ``tensor``, the six entries of the deformation tensor.  Its first
      half, ``v``, holds the record's physical velocity until E and H
      are integrated (a lending caller's, ``diagnose``'s, may be there
      already), and then the eigenvalues, once every integral of the
      tensor is taken.
    - a region of :meth:`scratch_size` bytes whose parts are live in
      turn, one set of buffers per thread ("lane",
      :func:`euler_spectra.workers._split_lanes`) in each: while fields
      are transformed, ``work``, the scratch of a spectral component's
      second product and a padded component
      (:func:`euler_spectra.fields._lane_specs`), the component itself
      being formed in the bytes of its physical one; while integrands are
      filled, the integrand ``density`` and ``scratch``, the two slabs
      an integrand form takes as ``work``; and during the eigensolve
      ``eig_work``, the six slabs of :func:`eigenvalues_sym3`.
    - ``omega``, the physical vorticity, or None when the caller holds
      the physical fields (``own_fields`` false, as in ``diagnose``).

    So a record holds 9 fields of the grid plus that region, or none of
    its own with the caller's physical fields and block, which holds
    the first two regions alone.
    """

    def __init__(self, band: Band, lanes: int, own_fields: bool,
                 work: np.ndarray | None = None):
        n = band.n
        regions = [((6, n, n, n), np.float64),
                   ((self.scratch_size(band, lanes),), np.uint8)]
        if own_fields:
            regions.append(((3, n, n, n), np.float64))
        self.tensor, shared, *omega = _carve(*regions, block=work)
        self.omega = omega[0] if own_fields else None
        self.v = self.tensor[:3]
        lane_specs, fill_specs, eig_spec = self._specs(band, lanes)
        self.density, self.scratch = _carve(*fill_specs, block=shared)
        (self.eig_work,) = _carve(eig_spec, block=shared)
        self.work = list(zip(*_carve(*lane_specs, block=shared)))

    @staticmethod
    def _specs(band: Band, lanes: int):
        """The specs of the shared region's three sets: the lane
        buffers, the integrand with its scratch, and the eigensolver's
        scratch."""
        n, f = band.n, np.float64
        planes = _slabs(n)[0].stop
        fill_specs = (((n, n, n), f), ((lanes, 2, planes, n, n), f))
        eig_spec = ((lanes, 6, planes, n, n), f)
        return _lane_specs(band, lanes), fill_specs, eig_spec

    @classmethod
    def scratch_size(cls, band: Band, lanes: int) -> int:
        """The bytes of the region that a record's three sets share."""
        lane_specs, fill_specs, eig_spec = cls._specs(band, lanes)
        return max(_carved_size(*lane_specs), _carved_size(*fill_specs),
                   _carved_size(eig_spec))


def record_scratch_size(band: Band) -> int:
    """The bytes of ``work`` that a caller lends :func:`compute_record`
    on ``band``: those of the tensor and of the region of
    :meth:`_RecordBlock.scratch_size`, which it carves in turn."""
    n, lanes = band.n, _lanes(_worker(band.n))
    return _carved_size(((6, n, n, n), np.float64),
                        ((_RecordBlock.scratch_size(band, lanes),), np.uint8))


def compute_record(band: Band, t: float, v: np.ndarray,
                   classification: Classification | None = None,
                   eps_floor: float | None = None, physical=None,
                   work: np.ndarray | None = None) -> DiagnosticsRecord:
    """Evaluate the full diagnostics pipeline for one spectral velocity.

    ``v`` is the compact array of the :class:`Band` ``band``: a run's
    state, or a snapshot's spectrum cut to the band that ``diagnose``
    chooses.  The record is the same as one evaluated on the whole
    half spectrum that holds ``v`` and is zero off the band.  The
    epsilon-ratio infimum is only defined while the run sits in a
    one-signed class; pass the run's classification while its sign
    condition holds to populate it, otherwise it is NaN.
    :func:`classify_and_record` classifies the sample itself first.
    ``physical`` is ``(band_inverse(band, v), band_inverse(band,
    curl(band, v)))`` for a caller that holds them (``diagnose``); the
    record is the same.  ``work`` is a uint8 array of at least
    :func:`record_scratch_size` bytes that a caller lends the record
    (``diagnose``'s pass); the record carves its tensor and its scratch
    out of it, and reads a physical velocity that the caller keeps in
    the tensor's first half before it writes there.

    Every other float buffer of grid or slab size is a view of one block
    that lives for the call (:class:`_RecordBlock`).  The record forms
    v and omega, integrates E and H, forms the deformation tensor over
    v, integrates Z (and takes ``bkm_sup_vort``), W, C3 and the trace
    check, then solves for the eigenvalues slab by slab over the first
    half of the tensor (:func:`_slab_eigenvalues`) and integrates Q and
    P.  Each integrand
    is filled slab by slab into one array of the whole grid and
    integrated by one pairwise sum, which folds that array in place,
    before the next is filled, so the record is the same bit for bit as
    one evaluated on the whole field, in any order of the integrals.  On
    a grid where :mod:`euler_spectra.workers` allows it, the worker
    thread takes half of the slabs and half of the transforms.
    """
    worker = _worker(band.n)
    block = _RecordBlock(band, _lanes(worker), physical is None, work)
    density, tensor = block.density, block.tensor
    slabs = _slabs(band.n)

    def fill(form, *arrays):
        """``density`` filled with ``form(*arrays)``, slab by slab."""
        def job(x, lane):
            form(*(a[:, x] for a in arrays), out=density[x],
                 work=block.scratch[lane])
        _split_lanes(worker, job, slabs)
        return density

    def integrate(density):
        """``integrate_domain(grid, density)``, folding ``density``."""
        return band.cell_volume * _pairwise_sum_owned(density)

    def integral(form, *arrays):
        return integrate(fill(form, *arrays))

    if physical is None:
        physical = block.v, block.omega
        _physical_fields(band, v, physical, worker, block.work)
    v_phys, omega_phys = physical
    e = integral(magnitude_squared, v_phys)
    h = integral(pointwise_dot, v_phys, omega_phys)
    _strain_entries(band, v, worker, tensor, block.work)
    fill(magnitude_squared, omega_phys)
    bkm_sup_vort = float(np.sqrt(np.max(density)))  # max |omega|
    z = integrate(density)
    w = integral(_stretching_density, tensor, omega_phys)
    c3 = integral(_cubic_trace_density, tensor)
    trace_mean_square = np.mean(fill(_trace_squared, tensor))
    _check_trace(trace_mean_square,
                 np.mean(fill(frobenius_squared, tensor)))
    spectra = _slab_eigenvalues(tensor, worker, out=tensor[:3],
                                work=block.eig_work)
    q = integral(magnitude_squared, spectra)
    p = integral(_product_density, spectra)
    if isinstance(classification, _ClassifyHere):
        classification.result = classify_admissible(
            spectra, classification.tolerance, work=density)
        classification = classification.result

    min_l2 = float(np.min(spectra[1]))
    max_l2 = float(np.max(spectra[1]))
    sup_l2p = max(max_l2, 0.0)
    inf_l2p = max(min_l2, 0.0)
    sup_l2m_abs = max(-min_l2, 0.0)
    inf_l2m_abs = max(-max_l2, 0.0)

    inf_eps = math.nan
    if (classification is not None
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


def _slab_eigenvalues(tensor: np.ndarray, worker, out: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray:
    """``eigenvalues_sym3(tensor)``, solved slab by slab, into the
    float64 ``out`` of shape ``(3,) + tensor.shape[1:]``.

    Each slab of x planes (:func:`euler_spectra.workers._slabs`) is
    solved on its own; the eigensolver, its refinement and its range
    guards act point by point, so the slabs give the values the whole
    field does.  The slabs alternate between ``worker`` and the calling
    thread, each taking its temporaries from ``work[lane]``, six slabs
    of the thread's (lane's), when it is given.  ``out`` may be
    ``tensor[:3]``: a slab's eigenvalues are written once they are
    solved, over entries that no other slab reads, and a slab that has
    been solved held no non-finite entry, so the error below still
    names the first one of the whole field.
    """
    def solve(x, lane):
        eigenvalues_sym3(tensor[:, x], out=out[:, x],
                         work=None if work is None else work[lane])

    try:
        _split_lanes(worker, solve, _slabs(tensor.shape[1]))
    except NumericsError:
        # A slab names its own first bad entry; report the whole field's.
        _require_finite(tensor)
        raise
    return out


def classify_and_record(band: Band, t: float, v: np.ndarray,
                        tolerance: float | None = None,
                        eps_floor: float | None = None, physical=None,
                        work=None):
    """Classify the first sample of a series and record it.

    Gives the classification of the record's eigenvalues with
    ``tolerance`` and the record :func:`compute_record` gives with it
    on ``band``, from one deformation tensor and one eigensolve;
    ``physical`` and ``work`` go to the record.

    Returns
    -------
    (Classification, DiagnosticsRecord)
    """
    pending = _ClassifyHere(tolerance)
    record = compute_record(band, t, v, classification=pending,
                            eps_floor=eps_floor, physical=physical,
                            work=work)
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
    """A series of diagnostics records, streamed to CSV as a run observer.

    :meth:`record` keeps the series rules: the first sample fixes the
    sign class, the epsilon ratio counts only while it holds, and the
    worst identity residuals are kept.  As an observer, the collector
    records the states of :func:`euler_spectra.solver.run` on their band
    and adds the tail fraction, the envelopes and the CSV row.

    Parameters
    ----------
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
    """

    def __init__(self, every: int = 1, csv_path=None,
                 class_tolerance: float | None = None,
                 eps_floor: float | None = None):
        if every < 1:
            raise ContractViolationError(f"cadence must be >= 1, got {every}")
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
        # The summary's final tail fraction is that of the latest
        # record's solver state.  The collector holds the state until
        # the first step that is not a record step, and then its tail
        # fraction alone, so that it keeps no state the run has stepped
        # past and takes no fraction that a later record makes stale.
        self._last_state = None
        self._tail_fraction_final: float | None = None

        self._fh = None
        self._accumulator = EnvelopeAccumulator()

    def _class_active(self) -> bool:
        return (self.classification is not None
                and self.classification.label != AdmissibleClass.NEITHER
                and self.zero_touch_time is None)

    def _update_zero_touch(self, record: DiagnosticsRecord):
        if self._class_active():
            self.zero_touch_time = first_zero_touching(
                [(record.t, record.min_l2, record.max_l2)],
                self.classification)

    def _advance_envelopes(self, record: DiagnosticsRecord):
        label = self.classification.label if self.classification else None
        rates = envelope_rates(record, label, self._class_active())
        return self._accumulator.push(record, rates)

    def record(self, band: Band, t: float, v: np.ndarray,
               physical=None, work=None) -> DiagnosticsRecord:
        """Add the record of the compact ``v`` on ``band`` to the series;
        the keywords go to :func:`compute_record`."""
        if not self.records:
            self.classification, record = classify_and_record(
                band, t, v, self.class_tolerance, self.eps_floor,
                physical=physical, work=work)
        else:
            active = self.classification if self._class_active() else None
            record = compute_record(band, t, v, classification=active,
                                    eps_floor=self.eps_floor,
                                    physical=physical, work=work)
        self._update_zero_touch(record)
        if self.zero_touch_time == record.t:
            # The sample that broke the sign condition: its epsilon is
            # already meaningless.
            record.inf_eps = math.nan
        self.records.append(record)
        for key, value in identity_residuals(record).items():
            if value > self.max_residuals[key]:
                self.max_residuals[key] = value
        return record

    def __call__(self, state):
        if state.step_index % self.every != 0:
            if self._last_state is not None:
                self._tail_fraction_final = resolution_tail_fraction(
                    self._last_state.band, self._last_state.v)
                self._last_state = None
            return
        record = self.record(state.band, state.t, state.v)
        self._last_state = state
        if len(self.records) == 1:
            self.tail_fraction_initial = resolution_tail_fraction(
                state.band, state.v)
        self._write_row(record, self._advance_envelopes(record))

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

    def _tail_fraction(self) -> float:
        state = self._last_state
        if state is None:
            return self._tail_fraction_final
        return resolution_tail_fraction(state.band, state.v)

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
                "tail_enstrophy_fraction_final": self._tail_fraction(),
            },
        }
