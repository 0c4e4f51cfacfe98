"""A priori growth envelopes and balance-law residuals for run series.

Everything here consumes sequences of diagnostics records (or raw
velocity snapshots) and produces the derived series used to check the
solver against exact analysis:

- two-sided exponential envelopes for the vorticity L2 norm driven by
  the grid extrema of the middle deformation eigenvalue, with tighter
  one-sided variants while the run stays in a one-signed class;
- an exponential upper bound driven by the positive part alone;
- the balance residual dQ/dt + 4 P of the quadratic eigenvalue moment;
- a decay bound for the middle-to-dominant eigenvalue ratio;
- the residual of the vorticity transport equation, whose transport
  term is the curl of the 2/3-truncated v x omega.

``diagnose`` and the transport residual share one pass over the
snapshots (``_SnapshotPass``).

Time integrals use the trapezoid rule through a single accumulator
class so that envelopes computed on the fly during a run and envelopes
recomputed afterwards from the same records agree bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from euler_spectra.deformation import (
    AdmissibleClass,
    Classification,
    first_zero_touching,
)
from euler_spectra.errors import ContractViolationError
from euler_spectra.fields import (
    _band_forward_x,
    _band_forward_y,
    _band_forward_z,
    _band_inverse_into,
    _band_pad_inverse_x,
    _cross_component,
    _curl_component,
    _inverse_yz,
    _lane_specs,
    _physical_fields,
    check_velocity,
    fft_forward,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.workers import (
    _carve,
    _carved_size,
    _lanes,
    _slabs,
    _split,
    _split_lanes,
    _worker,
)


def derivative_4th(values, spacing: float, axis: int = 0) -> np.ndarray:
    """Fourth-order finite-difference time derivative of a sampled series.

    Centered five-point stencil in the interior, one-sided five-point
    stencils at the two samples on each end.  Needs at least five
    samples along the chosen axis.
    """
    y = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0)
    if len(y) < 5:
        raise ContractViolationError(
            f"need >= 5 samples for a 4th-order derivative, got {len(y)}")
    if not spacing > 0.0:
        raise ContractViolationError(f"spacing must be positive, got {spacing}")
    d, work = np.empty_like(y), np.empty_like(y[:1])
    for k in range(len(y)):
        _derivative_sample(y, k, spacing, d[k:k + 1], work)
    return np.moveaxis(d, 0, axis)


def _derivative_sample(samples, k: int, spacing: float, out: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """Sample ``k`` of :func:`derivative_4th` of the sequence of
    equal-shape float64 arrays ``samples``, into ``out`` through
    ``work``, of a sample's shape.  Each stencil is summed term by term
    in the order below, ``(-25.0 * y[0] + 48.0 * y[1] - ...) * w`` at
    the first sample, so it rounds as that expression does: a
    difference is the sum of the negated term, bit for bit."""
    last = len(samples) - 1
    if k == 0:
        terms = zip(range(5), (-25.0, 48.0, -36.0, 16.0, -3.0))
    elif k == 1:
        terms = zip(range(5), (-3.0, -10.0, 18.0, -6.0, 1.0))
    elif k == last - 1:
        terms = zip(range(last, last - 5, -1), (3.0, 10.0, -18.0, 6.0, -1.0))
    elif k == last:
        terms = zip(range(last, last - 5, -1),
                    (25.0, -48.0, 36.0, -16.0, 3.0))
    else:
        terms = zip((k - 2, k - 1, k + 1, k + 2), (1.0, -8.0, 8.0, -1.0))
    (first, weight), *rest = terms
    np.multiply(weight, samples[first], out=out)
    for j, weight in rest:
        np.add(out, np.multiply(weight, samples[j], out=work), out=out)
    return np.multiply(out, 1.0 / (12.0 * spacing), out=out)


def uniform_spacing(times) -> float:
    """Common spacing of a uniformly sampled time vector.

    Raises if there are fewer than two samples or the spacing wobbles
    by more than one part in 1e9.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size < 2:
        raise ContractViolationError("need at least two samples")
    steps = np.diff(t)
    h = float(steps[0])
    if not h > 0.0:
        raise ContractViolationError("times must be strictly increasing")
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ContractViolationError("time samples are not uniformly spaced")
    return h


def envelope_rates(record, label, class_active: bool):
    """Instantaneous envelope exponents for one diagnostics record.

    Returns (lower, upper, positive-part, class_lower, class_upper);
    the last two are NaN unless ``class_active``.  Shared by the
    streaming collector and the batch recomputation below — keep it
    that way, envelope reproducibility depends on it.
    """
    lower = 0.5 * record.inf_l2p - record.sup_l2m_abs
    upper = record.sup_l2p - 0.5 * record.inf_l2m_abs
    positive = record.sup_l2p
    class_lower = math.nan
    class_upper = math.nan
    if class_active:
        if label == AdmissibleClass.APLUS:
            class_lower = 0.5 * record.inf_l2p
            class_upper = record.sup_l2p
        elif label == AdmissibleClass.AMINUS:
            class_lower = -record.sup_l2m_abs
            class_upper = -0.5 * record.inf_l2m_abs
    return (lower, upper, positive, class_lower, class_upper)


class EnvelopeAccumulator:
    """Trapezoid-rule integrator shared by streaming and batch paths.

    push() consumes records in time order together with their rates and
    returns the envelope row (lower, upper, positive-part integral,
    class_lower, class_upper) for that instant.  A NaN rate poisons its
    integral from that sample onward, which is exactly the intended
    semantics for class envelopes after the sign condition fails.
    """

    def __init__(self):
        self._prev_t = None
        self._prev_rates = None
        self._sqrt_z0 = None
        self._integrals = None

    def push(self, record, rates):
        if self._prev_t is None:
            self._sqrt_z0 = math.sqrt(max(record.Z, 0.0))
            self._integrals = [0.0, 0.0, 0.0, 0.0, 0.0]
        else:
            h = record.t - self._prev_t
            for i in range(5):
                r0, r1 = self._prev_rates[i], rates[i]
                if math.isnan(r0) or math.isnan(r1):
                    self._integrals[i] = math.nan
                else:
                    self._integrals[i] += 0.5 * h * (r0 + r1)
        self._prev_t = record.t
        self._prev_rates = rates

        s0 = self._sqrt_z0

        def grow(i):
            # math.exp raises on overflow; a diverging run should
            # saturate the envelope to inf instead of crashing here.
            arg = self._integrals[i]
            if arg > 709.0:
                return math.inf if s0 > 0.0 else 0.0
            return s0 * math.exp(arg)
        return (grow(0), grow(1), self._integrals[2], grow(3), grow(4))


@dataclass
class EnvelopeSeries:
    """Envelope curves sampled at record times.

    ``lower``/``upper`` bound sqrt(Z) from both sides for any run;
    ``class_lower``/``class_upper`` are the sharper one-signed-class
    versions, NaN outside a one-signed class or after the first
    zero-touching time.  ``positive_integral`` is the running time
    integral of the positive-part supremum, the exponent of the
    one-sided upper bound.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    positive_integral: np.ndarray
    class_lower: np.ndarray
    class_upper: np.ndarray


def growth_envelopes(records, classification: Classification | None = None
                     ) -> EnvelopeSeries:
    """Recompute all envelope curves from a list of diagnostics records.

    Matches the columns a DiagnosticsCollector writes, bit for bit,
    when given the same records and classification.
    """
    records = list(records)
    if not records:
        raise ContractViolationError("no records to build envelopes from")

    label = None
    zero_t = None
    if (classification is not None
            and classification.label != AdmissibleClass.NEITHER):
        label = classification.label
        zero_t = first_zero_touching(
            [(r.t, r.min_l2, r.max_l2) for r in records], classification)

    acc = EnvelopeAccumulator()
    rows = []
    for r in records:
        active = label is not None and (zero_t is None or r.t < zero_t)
        rows.append(acc.push(r, envelope_rates(r, label, active)))

    cols = [np.array([row[i] for row in rows]) for i in range(5)]
    times = np.array([r.t for r in records])
    return EnvelopeSeries(times, cols[0], cols[1], cols[2], cols[3], cols[4])


def quadrature_slack(records) -> np.ndarray:
    """Running estimate of the trapezoid error in the envelope exponents.

    Composite-trapezoid error on each interval is h^3 |r''| / 12; the
    second derivative is estimated from second differences of the
    envelope rates (worst of lower/upper).  Returned per sample as a
    relative slack to widen containment tests with.
    """
    records = list(records)
    times = np.array([r.t for r in records])
    if times.size < 3:
        return np.zeros(times.size)
    h = uniform_spacing(times)
    rates = np.array([envelope_rates(r, None, False)[:2] for r in records])
    dd = np.abs(np.diff(rates, n=2, axis=0)).max(axis=1)
    slack = np.zeros(times.size)
    slack[2:] = (h / 12.0) * np.cumsum(dd)
    slack[1] = slack[2]
    return slack


def containment_check(records, envelopes: EnvelopeSeries) -> dict:
    """Measure how far sqrt(Z) strays outside its envelope band.

    Returns the worst relative violations (positive numbers mean the
    bound was broken; zero or negative mean it held with margin).
    Callers pick their own tolerance, typically a small base plus the
    quadrature slack.
    """
    records = list(records)
    sqrt_z = np.sqrt(np.array([max(r.Z, 0.0) for r in records]))
    den = np.maximum(sqrt_z, 1e-300)
    lower_violation = float(np.max((envelopes.lower - sqrt_z) / den))
    upper_violation = float(np.max((sqrt_z - envelopes.upper) / den))
    return {
        "max_lower_violation": lower_violation,
        "max_upper_violation": upper_violation,
    }


def lambda2_plus_exponential_bound(records, envelopes: EnvelopeSeries,
                                   tolerance: float = 1e-6) -> dict:
    """Check sqrt(Z(t)) <= sqrt(Z0) * exp(integral of sup l2+).

    The integral is ``envelopes.positive_integral`` at the same records.
    Returns the largest ratio of the two sides and whether it stays
    below 1 + tolerance at every sample.
    """
    records = list(records)
    if not records:
        raise ContractViolationError("no records")
    sqrt_z0 = math.sqrt(max(records[0].Z, 0.0))
    bound = sqrt_z0 * np.exp(envelopes.positive_integral)
    sqrt_z = np.sqrt(np.array([max(r.Z, 0.0) for r in records]))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(bound > 0.0, sqrt_z / bound,
                         np.where(sqrt_z == 0.0, 0.0, np.inf))
    max_ratio = float(np.max(ratio))
    return {"max_ratio": max_ratio,
            "satisfied": bool(max_ratio <= 1.0 + tolerance)}


def moment_balance_residual(records):
    """Residual of the exact balance dQ/dt = -4 P along a record series.

    The derivative of the quadratic eigenvalue moment is taken with the
    fourth-order stencil, so on smooth data the residual shrinks like
    the fourth power of the record spacing.

    Returns
    -------
    (ndarray, ndarray)
        Raw residual dQ/dt + 4P per sample, and the same normalized by
        the series scale max(max |dQ/dt|, max |4P|, floor).  The floor
        is a small multiple of the natural magnitude sqrt(Q) * Z so
        that a series where both sides vanish identically (a steady
        flow) reports a near-zero normalized residual instead of 0/0.
    """
    records = list(records)
    times = np.array([r.t for r in records])
    h = uniform_spacing(times)
    q = np.array([r.Q for r in records])
    p = np.array([r.P for r in records])
    z = np.array([r.Z for r in records])
    dq = derivative_4th(q, h)
    residual = dq + 4.0 * p
    scale = max(float(np.max(np.abs(dq))),
                float(np.max(np.abs(4.0 * p))),
                1e-6 * float(np.max(np.sqrt(np.maximum(q, 0.0)) * z)),
                1e-300)
    return residual, residual / scale


@dataclass
class EpsilonDecayBound:
    """Outcome of the eigenvalue-ratio decay check.

    ``lhs`` is t times the squared running infimum of the ratio; the
    bound says it may never exceed the constant ``rhs``.  Inapplicable
    runs (wrong class, nonpositive helicity for the decaying class, or
    no valid ratio samples) carry ``applicable = False`` and a reason.
    """

    applicable: bool
    reason: str | None
    times: np.ndarray
    lhs: np.ndarray
    rhs: float
    satisfied_series: np.ndarray
    satisfied: bool

    @staticmethod
    def inapplicable(reason: str) -> "EpsilonDecayBound":
        empty = np.array([])
        return EpsilonDecayBound(False, reason, empty, empty, math.nan,
                                 np.array([], dtype=bool), True)


def epsilon_decay_bound(records, classification: Classification,
                        volume: float) -> EpsilonDecayBound:
    """Evaluate the ratio-decay bound for a one-signed-class run.

    For the positive class the constant is
    ``sqrt(27) * sqrt(volume) / (sqrt(2) * sqrt(Z0))``; for the
    negative class it is
    ``sqrt(27) * sqrt(volume) * (sqrt(E0)/H0 - 1/(sqrt(2)*sqrt(Z0)))``,
    which requires positive initial helicity.  Samples after the first
    zero-touching time (where the ratio is NaN) do not advance the
    running infimum.
    """
    records = list(records)
    if not records:
        raise ContractViolationError("no records")
    label = classification.label
    if label == AdmissibleClass.NEITHER:
        return EpsilonDecayBound.inapplicable("class is Neither")

    first = records[0]
    z0, e0, h0 = first.Z, first.E, first.H
    if z0 <= 0.0:
        return EpsilonDecayBound.inapplicable("initial enstrophy is zero")
    if label == AdmissibleClass.APLUS:
        rhs = math.sqrt(27.0) * math.sqrt(volume) / (
            math.sqrt(2.0) * math.sqrt(z0))
    else:
        if h0 <= 0.0:
            return EpsilonDecayBound.inapplicable(
                "decaying-class bound needs positive initial helicity")
        rhs = math.sqrt(27.0) * math.sqrt(volume) * (
            math.sqrt(e0) / h0 - 1.0 / (math.sqrt(2.0) * math.sqrt(z0)))

    times = np.array([r.t for r in records])
    running = math.inf
    lhs = np.empty(times.size)
    for i, r in enumerate(records):
        if not math.isnan(r.inf_eps):
            running = min(running, r.inf_eps)
        lhs[i] = times[i] * running * running if math.isfinite(running) \
            else math.nan
    if not np.any(np.isfinite(lhs)):
        return EpsilonDecayBound.inapplicable("no valid ratio samples")

    with np.errstate(invalid="ignore"):
        satisfied_series = ~(lhs > rhs)  # NaN counts as not violated
    return EpsilonDecayBound(True, None, times, lhs, rhs,
                             satisfied_series, bool(satisfied_series.all()))


# A series of snapshots is recorded on the 2/3-rule band when no snapshot
# holds this share of its power or more outside it: what the band drops
# is then rounding noise, which measured at most 6e-32 on the snapshots
# of dealiased runs, against 2.2e-8 and more on those of dealias: false
# runs.  Otherwise the series is recorded on the band without the
# Nyquist planes (_series_spectra).
_NOISE_SHARE = 1e-20


def _power_shares(grid: Grid, spectrum: np.ndarray) -> tuple:
    """The shares of the power of the half spectrum ``spectrum`` (a
    vector's, with the grid's Parseval weight) outside the 2/3-rule band
    and on the Nyquist planes; zeros for a zero spectrum."""
    power = grid.parseval_weight * np.sum(np.abs(spectrum) ** 2, axis=0)
    nyquist = np.zeros(power.shape, bool)
    nyquist[grid.n // 2] = nyquist[:, grid.n // 2] = nyquist[..., -1] = True
    total = max(float(np.sum(power)), 1e-300)
    return (float(np.sum(power[~grid.dealias_mask])) / total,
            float(np.sum(power[nyquist])) / total)


def _series_spectra(spectra):
    """The band a series of half spectra is recorded on, the spectra cut
    to it, and the largest share of a spectrum's power on the Nyquist
    planes (:func:`_power_shares`).

    ``spectra()`` gives ``(grid, half spectrum)`` pairs one at a time.
    The band is the 2/3-rule band while every share of power outside it
    is below ``_NOISE_SHARE``, and only the spectra cut to it are kept;
    else it is the band of every mode but the Nyquist planes, and
    ``spectra()`` is called again to cut them to it.
    """
    band, compacts, noise, nyquist = None, [], 0.0, 0.0
    for grid, spectrum in spectra():
        band = band or Band(grid)
        outside, on_nyquist = _power_shares(grid, spectrum)
        noise, nyquist = max(noise, outside), max(nyquist, on_nyquist)
        if noise < _NOISE_SHARE:
            compacts.append(band.restrict(spectrum))
    if noise >= _NOISE_SHARE:
        band, compacts = Band(grid, grid.n // 2 - 1), []
        compacts.extend(band.restrict(half) for _, half in spectra())
    return band, compacts, nyquist


class _SnapshotPass:
    """The physical fields and transport terms of a series of compact
    velocities on one :class:`~euler_spectra.grid.Band`, formed one
    snapshot at a time.

    :meth:`fields` writes the next snapshot's curl into a new compact
    row of the omega series (one reused row when the series takes no
    transport term) and transforms v and omega into two physical
    buffers that every snapshot reuses.  :meth:`add_transport` keeps the
    transport term of the snapshot as a new row, its compact spectrum on
    the 2/3-rule band, and :meth:`residual` compares the fourth-order
    time stencil of the omega series with the transport rows.  The rows
    are allocated one at a time, so that a caller that releases each
    snapshot's spectrum once its rows exist (``diagnose``) holds the
    spectra and the rows of the whole series at no point.

    Each phase is split with the worker thread.  All buffers but the
    rows are views of one block, by the rules of
    :mod:`euler_spectra.workers`: ``work``, a region whose parts are live
    in turn, and the physical omega.  The physical v is the first three
    fields of ``work``, and :meth:`fields` carves the lane buffers of its
    transforms past it.  Between :meth:`fields` and
    :meth:`add_transport` a caller may lend ``work`` to a borrower that
    needs at most ``lend`` bytes and reads v before it writes there
    (``diagnose``'s records, whose tensor's first half v is), so
    :meth:`add_transport` forms v again, and carves its scratch out of
    ``work``; :meth:`residual` carves its buffers out of the whole
    block.
    """

    def __init__(self, grid: Grid, band: Band, transport=True,
                 lend: int = 0):
        n = grid.n
        self.band, self.worker, self.slabs = band, _worker(n), _slabs(n)
        self.cut = band if band.m == n // 3 else Band(grid)
        lanes, planes = _lanes(self.worker), self.slabs[0].stop
        f, c = np.float64, np.complex128
        compact = self.cut.spectral_shape
        self.field = ((3, n, n, n), f)
        self.lane_specs = _lane_specs(band, lanes)
        # add_transport's carve past v: the planes kz <= m of the z
        # pass, the compact product and, per thread, a slab product with
        # its scratch, the slab's whole z pass and a curl product.
        self.transport_specs = (((3, n, n, self.cut.m + 1), c),
                                ((3,) + compact, c),
                                ((lanes, 2, planes, n, n), f),
                                ((lanes, planes, n, n // 2 + 1), c),
                                ((lanes, planes) + compact[1:], c))
        # residual's carve: a ring of five physical omega components,
        # per thread a padded omega component and three slabs, and a
        # padded transport component.
        self.residual_specs = (((5, n, n, n), f),
                               ((lanes, n, n, band.m + 1), c),
                               ((lanes, 3, planes, n, n), f),
                               ((n, n, self.cut.m + 1), c))
        size = max(lend, _carved_size(self.field, *self.lane_specs),
                   _carved_size(self.field, *self.transport_specs),
                   _carved_size(*self.residual_specs)
                   - _carved_size(self.field))
        self.work, self.omega = _carve(((size,), np.uint8), self.field)
        self.block = self.work.base
        self.v, *lane_buffers = _carve(self.field, *self.lane_specs,
                                       block=self.work)
        self.lanes = list(zip(*lane_buffers))
        self.omega_hat, self.vhat = [], None
        self.transport = [] if transport else None

    def fields(self, vhat: np.ndarray, row: np.ndarray | None = None):
        """``(band_inverse(band, vhat), band_inverse(band, curl(band,
        vhat)))`` of the next snapshot, in the pass's buffers; the curl
        goes into the snapshot's omega row: ``row``, a compact array of
        the band that the caller no longer needs (``diagnose``'s last
        released spectrum), or a new one."""
        if self.transport is not None or not self.omega_hat:
            self.omega_hat.append(np.empty(vhat.shape, vhat.dtype)
                                  if row is None else row)
        fields = self.v, self.omega
        _physical_fields(self.band, vhat, fields, self.worker, self.lanes,
                         self.omega_hat[-1])
        self.vhat = vhat
        return fields

    def add_transport(self) -> None:
        """The transport row of the snapshot :meth:`fields` formed last:
        the compact spectrum ``(3, 2m + 1, 2m + 1, m + 1)`` on the
        2/3-rule band ``cut`` of ``curl(cut, cut.restrict(fft_forward(v
        x omega)))``.

        v is formed again from the snapshot's compact velocity, as
        :meth:`fields` formed it, and the pass lets go of that velocity
        before the row is allocated, so that a caller that has let go of
        it too (``diagnose``) holds it no longer.  Each x-slab of
        each component of v x omega is transformed along z, and its
        planes kz <= m kept, as a band step does; the band forward x and
        y passes run on those planes and gather the band modes.  Each
        band mode goes through the arithmetic of :func:`fft_forward`,
        and the 2/3-rule band holds exactly the modes that the 2/3 rule
        keeps."""
        cut, n, worker = self.cut, self.band.n, self.worker
        v, omega = self.v, self.omega
        _split_lanes(worker, lambda i, lane: _band_inverse_into(
            self.band, self.vhat[i], v[i], self.lanes[lane][1]), range(3))
        self.vhat = None
        row = np.empty((3,) + cut.spectral_shape, np.complex128)
        self.transport.append(row)
        _, low, product, products, spectra, curl_work = _carve(
            self.field, *self.transport_specs, block=self.work)

        def slab(part, lane):
            x, i = part
            out, work = products[lane]
            _cross_component(v[:, x], omega[:, x], i, out, work=work)
            _band_forward_z(cut, out, low[i, x], spectra[lane])

        def curl_component(i, lane):
            _curl_component(cut, product, i, row[i], work=curl_work[lane])

        _split_lanes(worker, slab,
                     [(x, i) for x in self.slabs for i in range(3)])
        _split(worker, lambda y_rows: _band_forward_x(low, y_rows),
               (slice(0, n // 2), slice(n // 2, n)))
        _split(worker, lambda half: _band_forward_y(
            cut, low, half, product[:, half.rows]), cut.x_halves)
        _split_lanes(worker, curl_component, range(3))

    def residual(self, spacing: float):
        """The returns of :func:`vorticity_transport_residual` for the
        rows formed so far, sampled ``spacing`` apart.

        Component by component and sample by sample, the omega rows of
        the sample's stencil are transformed back into a ring of five
        physical components, each row once, by
        :func:`~euler_spectra.fields._band_inverse_into`, the passes its
        physical omega took for the record, so the stencil sees that
        omega bit for bit.  The sample's transport row is zero-padded
        and transformed along x (``_band_pad_inverse_x``); then each
        x-slab of it is transformed along y and z (``_inverse_yz``) into
        a slab buffer of its thread and compared with the stencil of the
        ring on that slab, formed in another (``_derivative_sample``),
        with a third for their temporaries: the passes of
        ``band_inverse`` and the values of ``derivative_4th``."""
        n, worker, count = self.band.n, self.worker, len(self.transport)
        ring, pads, slab_out, term_pad = _carve(*self.residual_specs,
                                                block=self.block)
        # Per sample, component and slab: max |d(omega)/dt - transport|,
        # max |d(omega)/dt| and max |transport|.  A maximum over the
        # parts' maxima is the maximum.
        peaks = np.empty((3, count, 3, len(self.slabs)))

        def compare(i, r):
            def job(part, lane):
                s, x = part
                samples = [ring[j % 5, x] for j in range(count)]
                d, term, scratch = slab_out[lane]
                _derivative_sample(samples, r, spacing, d, scratch)
                _inverse_yz(term_pad[x], n, out=term)
                peaks[1, r, i, s] = np.max(np.abs(d, out=scratch))
                peaks[2, r, i, s] = np.max(np.abs(term, out=scratch))
                np.subtract(d, term, out=d)
                peaks[0, r, i, s] = np.max(np.abs(d, out=d))
            return job

        for i in range(3):
            held = 0  # the omega rows below it have entered the ring
            for r in range(count):
                # The rows of sample r's stencil (_derivative_sample).
                last = min(max(r - 2, 0), count - 5) + 5

                def prepare(j, lane):
                    if j is None:
                        _band_pad_inverse_x(self.cut, self.transport[r][i],
                                            term_pad)
                    else:
                        _band_inverse_into(self.band, self.omega_hat[j][i],
                                           ring[j % 5], pads[lane])

                _split_lanes(worker, prepare, [None, *range(held, last)])
                held = last
                _split_lanes(worker, compare(i, r),
                             list(enumerate(self.slabs)))
        raw, *terms = np.max(peaks.reshape(3, count, -1), axis=2)
        normalized = np.array([
            r / max(float(d), float(t), 1e-300)
            for r, d, t in zip(raw, *terms)])
        return raw, normalized


def vorticity_transport_residual(grid: Grid, times, velocities):
    """Pointwise residual of the vorticity transport equation.

    Given uniformly spaced velocity snapshots on ``grid`` (physical
    float64 or half-spectrum complex128, see ``fields.check_velocity``),
    compares the fourth-order time stencil of omega with curl(v x omega)
    = (omega . grad) v - (v . grad) omega, the product truncated to the
    2/3-rule band: the d(omega)/dt of the truncated system that dealiased
    runs integrate, and that ``dealias: false`` snapshots are measured
    against too.

    It runs the pass that ``diagnose`` runs over its snapshots
    (``_SnapshotPass``), on the band ``diagnose`` chooses for them
    (``_series_spectra``); the maxima are those of the whole field of
    the velocities cut to that band, bit for bit.

    Returns
    -------
    (ndarray, ndarray)
        Max-norm of the residual per sample, raw and normalized by the
        larger max-norm of the two terms at that sample (time
        derivative, transport).
    """
    times = np.asarray(times, dtype=np.float64)
    velocities = list(velocities)
    if times.size != len(velocities):
        raise ContractViolationError("times and velocities disagree in length")
    h = uniform_spacing(times)
    if times.size < 5:
        raise ContractViolationError(
            f"need >= 5 snapshots for the transport residual, got {times.size}")
    for v in velocities:
        check_velocity(grid, v)

    band, spectra, _ = _series_spectra(lambda: (
        (grid, v if np.iscomplexobj(v) else fft_forward(v))
        for v in velocities))
    snapshots = _SnapshotPass(grid, band)
    for vhat in spectra:
        snapshots.fields(vhat)
        snapshots.add_transport()
    return snapshots.residual(h)
