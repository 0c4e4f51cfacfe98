"""Tests for scalar diagnostics, integral identities, and the collector.

The integral identities monitored per record (enstrophy vs quadratic
moment, stretching vs cubic trace, cubic trace vs eigenvalue product)
are exact for divergence-free fields, so they must hold to rounding on
anything the generators produce — including freshly randomized fields.
"""

import csv
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from euler_spectra.deformation import (
    AdmissibleClass,
    Classification,
    _strain_entries,
    _trace_squared,
    classify_admissible,
    deformation_tensor,
    eigenvalues_sym3,
    frobenius_squared,
)
from euler_spectra.diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    _RecordBlock,
    _cubic_trace_density,
    _product_density,
    _slab_eigenvalues,
    _stretching_density,
    classify_and_record,
    compute_record,
    identity_residuals,
    record_scratch_size,
    resolution_tail_fraction,
)
from euler_spectra.errors import ContractViolationError, NumericsError
from euler_spectra.envelopes import _SnapshotPass
from euler_spectra.fields import (
    _physical_fields,
    band_inverse,
    curl,
    divergence_free_error,
    fft_forward,
    fft_inverse,
    integrate_domain,
    magnitude_squared,
    pointwise_dot,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.reductions import pairwise_sum
from euler_spectra.initial import (
    abc_flow,
    random_solenoidal,
    shear_flow,
    taylor_green,
)
from euler_spectra.solver import SolverConfig, SolverState, run, step_rk4
import euler_spectra.workers as workers_module

from conftest import (
    UNCARVED_PER_THREAD,
    classify_half_spectrum,
    coordinates,
    cubic_trace_integral,
    fresh_worker,
    gradient_norm_squared_pointwise,
    make_random_velocity,
    record_half_spectrum,
    scatter,
    spectra_moments,
    stretching_integral,
    traced_peak_fields,
    velocity_gradient,
    whole_field_record,
)

PI3 = math.pi ** 3


class TestScalarFunctionals:
    def test_energy_accepts_both_representations(self, grid16):
        # The record integrates |v|^2 in physical space; Parseval gives
        # the same energy from the spectral coefficients.
        vhat = taylor_green(grid16)
        parseval = 0.5 * grid16.volume * np.sum(grid16.parseval_weight
                                                * np.abs(vhat) ** 2)
        assert record_half_spectrum(grid16, 0.0, vhat).E == pytest.approx(
            parseval, rel=1e-14)

    def test_enstrophy_equals_gradient_norm(self, grid16, rng):
        # For solenoidal fields, integral |grad v|^2 = integral |omega|^2.
        v = make_random_velocity(grid16, rng)
        grad_sq = gradient_norm_squared_pointwise(velocity_gradient(grid16, v))
        lhs = integrate_domain(grid16, grad_sq)
        assert lhs == pytest.approx(
            record_half_spectrum(grid16, 0.0, v).Z, rel=1e-12)

    def test_sup_vorticity_shear(self, grid16):
        # omega = (0, 0, -cos y) has max magnitude 1.
        record = record_half_spectrum(grid16, 0.0, shear_flow(grid16))
        assert record.bkm_sup_vort == pytest.approx(1.0, rel=1e-12)

    def test_spectra_moments_shear(self, grid16):
        # Shear eigenvalues are (|cos y|/2, 0, -|cos y|/2):
        # Q = integral cos^2(y)/2 = 2 pi^3, P = 0.
        spectra = eigenvalues_sym3(
            deformation_tensor(grid16, shear_flow(grid16)))
        q, p = spectra_moments(grid16, spectra)
        assert q == pytest.approx(2.0 * PI3, rel=1e-12)
        assert abs(p) < 1e-14

    def test_stretching_vanishes_for_shear(self, grid16):
        # omega is an eigenvector of S with eigenvalue 0 for plane shear.
        v = shear_flow(grid16)
        tensor = deformation_tensor(grid16, v)
        omega = fft_inverse(curl(grid16, v))
        assert abs(stretching_integral(grid16, tensor, omega)) < 1e-13


class TestPointwiseGradientSplit:
    def test_gradient_splits_into_strain_and_rotation(self, grid16, rng):
        # |grad v|^2 = |S|^2 + |omega|^2 / 2 pointwise for solenoidal v.
        v = make_random_velocity(grid16, rng)
        grad = velocity_gradient(grid16, v)
        lhs = gradient_norm_squared_pointwise(grad)
        tensor = deformation_tensor(grid16, v)
        omega_sq = magnitude_squared(fft_inverse(curl(grid16, v)))
        rhs = frobenius_squared(tensor) + 0.5 * omega_sq
        scale = np.max(lhs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestIntegralIdentities:
    @pytest.fixture(params=[1, 2, 3])
    def velocity(self, request, grid16):
        return random_solenoidal(grid16, seed=request.param, peak_k=3.0)

    def test_enstrophy_is_twice_quadratic_moment(self, velocity, grid16):
        record = record_half_spectrum(grid16, 0.0, velocity)
        assert record.Z == pytest.approx(2.0 * record.Q, rel=1e-11)

    def test_stretching_is_minus_four_thirds_cubic(self, velocity, grid16):
        record = record_half_spectrum(grid16, 0.0, velocity)
        assert record.W == pytest.approx(-(4.0 / 3.0) * record.C3, rel=1e-9)

    def test_cubic_is_three_times_product(self, velocity, grid16):
        record = record_half_spectrum(grid16, 0.0, velocity)
        assert record.C3 == pytest.approx(3.0 * record.P, rel=1e-10)

    def test_cubic_trace_against_eigenvalue_cubes(self, velocity, grid16):
        # tr S^3 = l1^3 + l2^3 + l3^3, from the eigensolver instead of
        # the component products; and the products against ``** 3``.
        tensor = deformation_tensor(grid16, velocity)
        c3 = cubic_trace_integral(grid16, tensor)
        l1, l2, l3 = eigenvalues_sym3(tensor)
        via_eigenvalues = grid16.cell_volume * pairwise_sum(
            l1 ** 3 + l2 ** 3 + l3 ** 3)
        assert c3 == pytest.approx(via_eigenvalues, rel=1e-12)
        s11, s12, s13, s22, s23, s33 = tensor
        via_pow = grid16.cell_volume * pairwise_sum(
            s11 ** 3 + s22 ** 3 + s33 ** 3
            + 3.0 * (s12 * s12 * (s11 + s22) + s13 * s13 * (s11 + s33)
                     + s23 * s23 * (s22 + s33))
            + 6.0 * s12 * s13 * s23)
        assert c3 == pytest.approx(via_pow, rel=1e-13)

    def test_residuals_near_rounding(self, velocity, grid16):
        res = identity_residuals(
            record_half_spectrum(grid16, 0.0, velocity))
        assert res["enstrophy_moment"] < 1e-11
        assert res["stretching_cubic"] < 1e-9
        assert res["cubic_product"] < 1e-10

    def test_residuals_floored_for_symmetric_data(self, grid16):
        # Taylor-Green at t = 0 has W = C3 = P = 0 by mirror symmetry;
        # the floored denominators must keep the residuals tiny instead
        # of reporting 0/0 garbage.
        record = record_half_spectrum(grid16, 0.0, taylor_green(grid16))
        assert abs(record.W) < 1e-10
        assert abs(record.C3) < 1e-10
        res = identity_residuals(record)
        assert res["stretching_cubic"] < 1e-6
        assert res["cubic_product"] < 1e-6


class TestComputeRecord:
    def test_lambda2_extrema_splits(self, grid16, rng):
        record = record_half_spectrum(grid16, 0.0,
                                      make_random_velocity(grid16, rng))
        assert record.sup_l2p == max(record.max_l2, 0.0)
        assert record.inf_l2p == max(record.min_l2, 0.0)
        assert record.sup_l2m_abs == max(-record.min_l2, 0.0)
        assert record.inf_l2m_abs == max(-record.max_l2, 0.0)

    def test_eps_requires_classification(self, grid16, rng):
        record = record_half_spectrum(grid16, 0.0,
                                      make_random_velocity(grid16, rng))
        assert math.isnan(record.inf_eps)

    def test_abc_benchmark_values(self, grid16):
        record = record_half_spectrum(grid16, 0.0, abc_flow(grid16))
        assert record.E == pytest.approx(12.0 * PI3, rel=1e-12)
        assert record.H == pytest.approx(24.0 * PI3, rel=1e-12)
        assert record.Z == pytest.approx(24.0 * PI3, rel=1e-12)
        # curl v = v makes |omega| = |v| pointwise; the sup |v| = sqrt(6)
        # is attained at x = y = z = pi/4, which is a grid point here.
        assert record.bkm_sup_vort == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_field_names_match_dataclass(self):
        assert DiagnosticsRecord.field_names() == (
            "t", "E", "H", "Z", "Q", "P", "W", "C3",
            "sup_l2p", "inf_l2p", "sup_l2m_abs", "inf_l2m_abs",
            "min_l2", "max_l2", "inf_eps", "bkm_sup_vort")


def use_threads(monkeypatch, threads):
    """Force records and diagnose onto one thread or onto two, also on
    grids below the size that uses a worker."""
    monkeypatch.setattr(workers_module, "_cpu_count", lambda: threads)
    monkeypatch.setattr(workers_module, "_THREADED_MIN_N", 8)


class TestSlabRecord:
    # compute_record solves and integrates slab by slab, on one thread
    # or two; it must give the record of the whole field bit for bit.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])  # n=32: two slabs
    def test_matches_whole_field(self, n, threads, monkeypatch):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        random = make_random_velocity(grid, rng)
        fields = {
            "random": random,
            # Near-degenerate points take the deflation refinement.
            "abc": abc_flow(grid),
            # Entries below 2**-200 take the power-of-two rescaling.
            "tiny": random * 2.0 ** -220,
        }
        use_threads(monkeypatch, threads)
        for name, v in fields.items():
            for label in (None, AdmissibleClass.APLUS,
                          AdmissibleClass.AMINUS):
                classification = label and Classification(label, 0.0, 0.0,
                                                          0.0)
                record = record_half_spectrum(
                    grid, 0.5, v, classification=classification)
                expected = whole_field_record(grid, 0.5, v, classification)
                assert np.array_equal(record.as_tuple(), expected.as_tuple(),
                                      equal_nan=True), (name, label)
                assert math.isfinite(record.inf_eps) == (label is not None)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_entry_named_as_on_whole_field(self, rng, threads,
                                                      monkeypatch):
        # The first slab holds a NaN in s12; a later one holds the NaN
        # in s11 that the whole-field check names first.  The slabs
        # write their eigenvalues over the tensor, as in a record.
        grid = Grid(64)
        tensor = deformation_tensor(grid, make_random_velocity(grid, rng))
        tensor[0, 61, 2, 5] = np.nan
        tensor[1, 1, 4, 3] = np.nan
        with pytest.raises(NumericsError) as whole:
            eigenvalues_sym3(tensor)
        use_threads(monkeypatch, threads)
        with pytest.raises(NumericsError) as slabbed:
            _slab_eigenvalues(tensor, workers_module._worker(grid.n),
                              out=tensor[:3])
        assert str(slabbed.value) == str(whole.value)
        assert "component s11 at grid index (61, 2, 5)" in str(whole.value)

    def test_record_after_an_error_on_the_worker(self, rng, monkeypatch):
        # A non-finite entry in a slab of the worker's lane (slab 0)
        # raises there; the process keeps its worker, and the next
        # record gives the bytes of a record on a new worker.
        grid = Grid(64)
        band = Band(grid)
        v = band.restrict(make_random_velocity(grid, rng))
        fresh_worker(monkeypatch)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
        expected = np.array(compute_record(band, 0.5, v).as_tuple())
        worker = workers_module._worker(grid.n)
        tensor = deformation_tensor(grid, scatter(band, v))
        tensor[2, 3, 4, 5] = np.inf
        with pytest.raises(NumericsError, match=r"s13 at grid index \(3, "):
            _slab_eigenvalues(tensor, worker, out=tensor[:3])
        assert workers_module._worker(grid.n) is worker
        record = np.array(compute_record(band, 0.5, v).as_tuple())
        assert record.tobytes() == expected.tobytes()

    def test_peak_memory_of_one_record(self, monkeypatch):
        # The record's buffers are one block: the tensor, whose first
        # half holds v and then the eigenvalues, omega, and one region
        # shared in turn by the transform buffers, the integrand with
        # its scratch, and the eigensolver's scratch.  A half spectrum
        # wider than the 2/3-rule band is recorded on the band without
        # the Nyquist planes, whose components are near a half
        # spectrum's size, so its product scratch is a slab.  One
        # thread, so that the peak does not depend on the host: it
        # measured 11.22 fields of the grid, against 12.07 with
        # whole-component product scratch and 11.13 for the record on
        # the half spectrum that this band replaced; and 13.3 while the
        # eigensolver and the integrands allocated slab temporaries, 15.3
        # while the record allocated its arrays one by one and 26.3 while
        # it held all nine integrands at once.
        grid = Grid(64)
        band = Band(grid, 31)
        v = band.restrict(make_random_velocity(
            grid, np.random.default_rng(64), band=band))
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        assert traced_peak_fields(
            grid, lambda: compute_record(band, 0.5, v)) < 11.4

    def test_peak_memory_of_one_band_record(self, monkeypatch):
        # A dealiased run's record: its lane buffers are compact
        # components and one padded component, smaller than those of
        # the half spectrum.  One thread; it measured 10.44 fields of
        # the grid, against 12.6 while the eigensolver and the
        # integrands allocated slab temporaries and 15.3 while the
        # record allocated its arrays one by one.
        grid = Grid(64)
        band = Band(grid)
        v = band.restrict(make_random_velocity(grid,
                                               np.random.default_rng(64)))
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
        assert traced_peak_fields(
            grid, lambda: compute_record(band, 0.5, v)) < 10.7

    def test_peak_memory_of_one_band_record_on_two_lanes(self, monkeypatch):
        # The first record of a run, which also classifies, on two
        # threads.  Every float temporary of slab size comes from the
        # block, so the record peaks within UNCARVED_PER_THREAD per
        # thread of its block (11.62 fields of the grid), and within
        # half a field of a two-thread step.  A two-thread peak depends
        # on how the threads' allocations interleave, so each side is
        # the largest of three calls, after one that also imports the
        # worker's modules.  The record measured 11.76-11.87 fields
        # (11.94-11.96 on the first call of a process) against
        # 11.49-11.62 for the step, and 16.0 against 12.5 while the
        # eigensolver and the integrands allocated slab temporaries on
        # both threads.
        grid = Grid(64)
        band = Band(grid)
        v = band.restrict(make_random_velocity(grid,
                                               np.random.default_rng(64)))
        state = SolverState(0.0, v, 0, band)
        config = SolverConfig(dt=1e-3, t_final=1e-3)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
        block = _RecordBlock(band, 2, True).tensor.base.nbytes
        peaks = []
        for job in (lambda: classify_and_record(band, 0.5, v),
                    lambda: step_rk4(state, config)):
            job()
            peaks.append(max(traced_peak_fields(grid, job)
                             for _ in range(3)))
        record, step = peaks
        assert record < block / (8 * grid.n ** 3) + 2 * UNCARVED_PER_THREAD
        assert record <= step + 0.5

    def test_trace_warning_from_the_slab_pass(self, grid16, caplog):
        x, _, _ = coordinates(grid16)
        v = fft_forward(np.stack(
            (np.sin(x), np.zeros_like(x), np.zeros_like(x))))
        with caplog.at_level(logging.WARNING, "euler_spectra.deformation"):
            deformation_tensor(grid16, v)
            record_half_spectrum(grid16, 0.0, v)
        first, second = caplog.records
        assert "trace" in first.message
        assert second.message == first.message


# Each integrand form of a record, the expression whose rounding its
# out= ufuncs keep, and the kinds of argument it takes: a tensor (6),
# a vector (3) or eigenvalues (3).
_FORMS = [
    (_product_density, lambda l1, l2, l3: l1 * l2 * l3, (3,)),
    (_stretching_density,
     lambda s11, s12, s13, s22, s23, s33, w1, w2, w3: (
         s11 * w1 * w1 + s22 * w2 * w2 + s33 * w3 * w3
         + 2.0 * (s12 * w1 * w2 + s13 * w1 * w3 + s23 * w2 * w3)), (6, 3)),
    (_cubic_trace_density,
     lambda s11, s12, s13, s22, s23, s33: (
         s11 * s11 * s11 + s22 * s22 * s22 + s33 * s33 * s33
         + 3.0 * (s12 * s12 * (s11 + s22) + s13 * s13 * (s11 + s33)
                  + s23 * s23 * (s22 + s33))
         + 6.0 * s12 * s13 * s23), (6,)),
    (_trace_squared,
     lambda s11, s12, s13, s22, s23, s33: (s11 + s22 + s33) ** 2, (6,)),
    (frobenius_squared,
     lambda s11, s12, s13, s22, s23, s33: (
         s11 * s11 + s22 * s22 + s33 * s33
         + 2.0 * (s12 * s12 + s13 * s13 + s23 * s23)), (6,)),
    (pointwise_dot,
     lambda u1, u2, u3, v1, v2, v3: u1 * v1 + u2 * v2 + u3 * v3, (3, 3)),
    (magnitude_squared, lambda v1, v2, v3: v1 * v1 + v2 * v2 + v3 * v3,
     (3,)),
]


@pytest.mark.parametrize("form, expression, kinds", _FORMS,
                         ids=[form[0].__name__ for form in _FORMS])
def test_integrand_form_rounds_as_its_expression(form, expression, kinds,
                                                 rng):
    # Entries of mixed magnitude, so that a change of rounding order
    # shows.  With out= and work=, as a record fills a slab of its
    # integrand, or allocating its own.
    args = [rng.standard_normal((k, 4, 5, 6))
            * 10.0 ** rng.integers(-4, 5, (k, 4, 5, 6)) for k in kinds]
    expected = expression(*(c for a in args for c in a))
    out, work = np.empty((4, 5, 6)), np.empty((2, 4, 5, 6))
    assert form(*args, out=out, work=work) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(form(*args), expected)


def layout_band(grid, layout):
    """The band of a record layout: "band" is the 2/3-rule band of a
    dealiased run's state, "half" the band without the Nyquist planes,
    on which ``diagnose`` records half spectra that hold more than the
    2/3-rule band."""
    return Band(grid) if layout == "band" else Band(grid, grid.n // 2 - 1)


class TestRecordBlock:
    # Every buffer of grid size of a record is a view of one block, in
    # regions that are reused only once what they held is dead.
    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("own_fields", [True, False])
    @pytest.mark.parametrize("layout", ["band", "half"])
    def test_is_one_block(self, layout, own_fields, threaded):
        grid = Grid(16)
        band = layout_band(grid, layout)
        lanes = 2 if threaded else 1
        block = _RecordBlock(band, lanes, own_fields)
        buffers = {name: value for name, value in vars(block).items()
                   if isinstance(value, np.ndarray)}
        assert len(block.work) == lanes
        for lane, (scratch, pad) in enumerate(block.work):
            buffers[f"product{lane}"] = scratch
            buffers[f"pad{lane}"] = pad
        assert (block.omega is None) != own_fields
        root = block.tensor.base
        assert root is not None and root.ndim == 1
        for buffer in buffers.values():
            assert buffer.base is root
        # Live at once: the tensor, omega and the lane buffers while the
        # tensor is formed; v (the tensor's first half, later the
        # eigenvalues), omega, the integrand and its scratch while
        # integrands are; the tensor and the eigensolver's scratch
        # during the eigensolve.
        for group in (("tensor", "omega", "product0", "pad0", "product1",
                       "pad1"),
                      ("tensor", "omega", "density", "scratch"),
                      ("tensor", "omega", "eig_work")):
            live = [name for name in group if name in buffers]
            for a, b in itertools.combinations(live, 2):
                assert not np.shares_memory(buffers[a], buffers[b]), (a, b)
        assert np.shares_memory(block.v, block.tensor)
        assert np.shares_memory(block.density, block.work[0][0])
        assert np.shares_memory(block.density, block.eig_work)
        assert block.scratch.shape == (lanes, 2, 16, 16, 16)
        assert block.eig_work.shape == (lanes, 6, 16, 16, 16)
        # The product scratch is a whole component on the 2/3-rule band,
        # and at most a slab of x planes (16 at n=16) on a wider one.
        scratch, pad = block.work[0]
        assert scratch.shape == band.spectral_shape
        assert pad.shape == (16, 16, band.m + 1)

    def test_lent_work_is_carved(self, grid16, monkeypatch):
        # A lent block holds the record's tensor and scratch: the lane
        # buffers, the integrand with its slabs and the eigensolver's
        # slabs are views of it, and the record allocates no block of
        # its own.  The tensor's first half is the lent block's start,
        # where diagnose's pass keeps its physical v.
        band = Band(grid16)
        use_threads(monkeypatch, 2)
        work = np.empty(record_scratch_size(band), np.uint8)
        block = _RecordBlock(band, 2, False, work)
        assert block.omega is None
        for buffer in (block.tensor, block.density, block.scratch,
                       block.eig_work,
                       *(b for lane in block.work for b in lane)):
            assert buffer.base is work
        assert np.shares_memory(block.v, work[:3 * 8 * 16 ** 3])

    @pytest.mark.parametrize("layout, lanes, own_fields, shared", [
        # One thread: the integrand and its two float64 slabs of 8
        # planes, larger than the lane buffers.  Two: the lane buffers,
        # the scratch of a compact component's product, all its rows
        # (43, 43, 22) on the 2/3-rule band and a slab of 8 planes of
        # (63, 63, 32) on the other, and a padded component, (64, 64,
        # 22) or (64, 64, 32), complex; each array starts at a multiple
        # of 64 bytes.  The components themselves are formed in their
        # physical outputs.
        ("band", 1, True, (1 + 2 / 8) * 8 * 64 ** 3),
        ("band", 2, True, 2 * (43 * 43 * 22 * 16 + 64 * 64 * 22 * 16)),
        ("half", 1, True, (1 + 2 / 8) * 8 * 64 ** 3),
        ("half", 2, True, 2 * (8 * 63 + 64 * 64) * 32 * 16),
        # diagnose lends the tensor and the region: the record allocates
        # no block of its own.
        ("half", 1, False, 0),
        ("half", 2, False, 0),
    ])
    def test_block_size(self, layout, lanes, own_fields, shared,
                        monkeypatch):
        grid = Grid(64)
        band = layout_band(grid, layout)
        use_threads(monkeypatch, lanes)
        if own_fields:
            block = _RecordBlock(band, lanes, True)
            assert block.tensor.base.nbytes == 9 * 8 * 64 ** 3 + shared
        else:
            work = np.empty(record_scratch_size(band), np.uint8)
            block = _RecordBlock(band, lanes, False, work)
            assert block.tensor.base is work and shared == 0
            assert work.nbytes == (6 * 8 * 64 ** 3
                                   + _RecordBlock.scratch_size(band, lanes))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("layout", ["band", "half"])
    def test_one_grid_size_allocation_per_record(self, layout, threads,
                                                 monkeypatch):
        # np.empty runs once per record, for its block, whatever the
        # layout and the threads.
        grid = Grid(32)
        band = layout_band(grid, layout)
        v = band.restrict(make_random_velocity(grid,
                                               np.random.default_rng(3)))
        use_threads(monkeypatch, threads)
        sizes = []
        empty = np.empty

        def counting(shape, *args, **kwargs):
            array = empty(shape, *args, **kwargs)
            if array.nbytes >= 8 * grid.n ** 3:
                sizes.append(array.nbytes)
            return array

        monkeypatch.setattr(np, "empty", counting)
        compute_record(band, 0.5, v)
        assert len(sizes) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("layout, given", [
        ("band", "none"), ("band", "physical"), ("half", "none"),
        ("half", "physical"), ("half", "physical+work")])
    @pytest.mark.parametrize("n", [16, 26, 64])
    def test_matches_whole_field(self, n, layout, given, threads,
                                 monkeypatch):
        # The block's reuse order changes which integral is taken first,
        # never a value: on the 2/3-rule band and on the band without
        # the Nyquist planes, with the physical fields of a caller or
        # without, and with the block that diagnose's pass lends, whose
        # bytes past its v held other values before (NaN bytes here),
        # as with a block of the record's own.  At n=26 the slabs are 13
        # planes.
        grid = Grid(n)
        band = layout_band(grid, layout)
        use_threads(monkeypatch, threads)
        for start in (random_solenoidal(grid, seed=n), abc_flow(grid)):
            v = band.restrict(start)
            for label in (None, AdmissibleClass.APLUS):
                classification = label and Classification(label, 0.0, 0.0,
                                                          0.0)
                expected = whole_field_record(grid, 0.5, start,
                                              classification)
                kwargs = {}
                if given != "none" and layout == "band":
                    kwargs["physical"] = (band_inverse(band, v),
                                          band_inverse(band, curl(band, v)))
                elif given != "none":
                    snapshots = _SnapshotPass(
                        grid, band, transport=False,
                        lend=record_scratch_size(band))
                    kwargs["physical"] = snapshots.fields(v)
                    if given == "physical+work":
                        snapshots.work[snapshots.v.nbytes:].fill(0xFF)
                        kwargs["work"] = snapshots.work
                record = compute_record(band, 0.5, v,
                                        classification=classification,
                                        **kwargs)
                assert np.array_equal(record.as_tuple(),
                                      expected.as_tuple(), equal_nan=True)
                if "work" in kwargs:
                    # The lent record wrote its tensor over the pass's v.
                    own = compute_record(band, 0.5, v,
                                         classification=classification,
                                         physical=snapshots.fields(v))
                    assert (np.array(record.as_tuple()).tobytes()
                            == np.array(own.as_tuple()).tobytes())


def half_spectrum_tail_fraction(grid, v):
    """``resolution_tail_fraction`` on the half spectrum ``v`` of
    ``grid``: the sums over the 2/3-rule ball and its tail shell, with
    the grid's Parseval weight."""
    n = grid.n
    absf = np.abs(grid.freq)
    kinf = np.maximum(np.maximum(absf.reshape(n, 1, 1),
                                 absf.reshape(1, n, 1)),
                      np.abs(grid.freq_z).reshape(1, 1, -1))
    kept = grid.dealias_mask
    in_tail = kept & (kinf > (2.0 / 3.0) * grid.dealias_limit)
    power = grid.parseval_weight * sum(np.abs(c) ** 2 for c in curl(grid, v))
    total = pairwise_sum(power[kept])
    return 0.0 if total <= 0.0 else pairwise_sum(power[in_tail]) / total


def band_tail_fraction(grid, v):
    """``resolution_tail_fraction`` of the half spectrum ``v`` cut to
    the 2/3-rule band, which holds every mode the fraction sums."""
    band = Band(grid)
    return resolution_tail_fraction(band, band.restrict(v))


class TestResolutionTail:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("field", ["taylor_green", "random"])
    def test_band_state_gives_the_same_bits(self, n, field):
        # The compact layout holds the kept modes in the C order of the
        # masked half spectrum, with the same Parseval weights, so both
        # pairwise sums are the same bits.
        grid = Grid(n)
        band = Band(grid)
        start = (taylor_green(grid) if field == "taylor_green"
                 else random_solenoidal(grid, seed=n))
        compact = band.restrict(start)
        on_band = resolution_tail_fraction(band, compact)
        assert on_band == half_spectrum_tail_fraction(grid,
                                                      scatter(band, compact))
        assert on_band > 0.0 or field == "taylor_green"

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_any_band_measures_the_two_thirds_ball(self, n, rng):
        # On the 2/3-rule band and on the Nyquist-free band of a
        # dealias: false run, which also holds modes outside the 2/3
        # ball, the fraction is that of the band state's half spectrum.
        grid = Grid(n)
        v = fft_forward(rng.standard_normal((3, n, n, n)))
        for m in (n // 3, n // 2 - 1):
            band = Band(grid, m)
            compact = band.restrict(v)
            on_band = resolution_tail_fraction(band, compact)
            assert on_band == half_spectrum_tail_fraction(
                grid, scatter(band, compact))
            assert 0.0 < on_band < 1.0

    def test_band_limited_field_has_empty_tail(self, grid32):
        # All spectral content of the ABC flow sits at |k| = 1, far
        # inside the tail shell; only transform noise remains out there.
        assert band_tail_fraction(grid32, abc_flow(grid32)) < 1e-28

    def test_saturated_field_has_full_tail(self, grid16):
        g = grid16
        rng = np.random.default_rng(5)
        coeffs = np.zeros(g.k_squared.shape, dtype=np.complex128)
        # Put power only in the outermost retained shell.
        absf = np.abs(g.freq)
        kinf = np.maximum(np.maximum(absf.reshape(g.n, 1, 1),
                                     absf.reshape(1, g.n, 1)),
                          np.abs(g.freq_z).reshape(1, 1, -1))
        shell = g.dealias_mask & (kinf > (2.0 / 3.0) * g.dealias_limit)
        coeffs[shell] = rng.standard_normal(int(shell.sum()))
        v = np.stack((coeffs, 0.0 * coeffs, 0.0 * coeffs))
        assert band_tail_fraction(g, v) == pytest.approx(1.0)

    def test_zero_field(self, grid8):
        assert band_tail_fraction(
            grid8, np.zeros((3, 8, 8, 5), dtype=np.complex128)) == 0.0

    def test_matches_full_spectrum_reference(self, grid16, rng):
        # Recompute the fraction (and the divergence error) from numpy's
        # full complex spectrum of the same field, where every mode is
        # stored once.  White noise is neither band-limited nor
        # solenoidal, so both values are O(1).
        g = grid16
        values = rng.standard_normal((3, 16, 16, 16))
        v = fft_forward(values)
        full = np.fft.fftn(values, axes=(-3, -2, -1), norm="forward")

        kx, ky = g.k_deriv_x, g.k_deriv_y
        kz = g.k_deriv_x.reshape(1, 1, g.n)
        w = 1j * np.stack((ky * full[2] - kz * full[1],
                           kz * full[0] - kx * full[2],
                           kx * full[1] - ky * full[0]))
        power = np.sum(np.abs(w) ** 2, axis=0)
        absf = np.abs(g.freq)
        keep_1d = 3 * absf <= g.n
        keep = (keep_1d.reshape(-1, 1, 1) & keep_1d.reshape(1, -1, 1)
                & keep_1d.reshape(1, 1, -1))
        kinf = np.maximum(np.maximum(absf.reshape(-1, 1, 1),
                                     absf.reshape(1, -1, 1)),
                          absf.reshape(1, 1, -1))
        tail = keep & (kinf > (2.0 / 3.0) * g.dealias_limit)
        expected = np.sum(power[tail]) / np.sum(power[keep])
        assert 0.0 < expected < 1.0
        assert abs(band_tail_fraction(g, v) - expected) < 1e-12

        kx, ky = g.k_true_x, g.k_true_y
        kz = g.k_true_x.reshape(1, 1, g.n)
        divergence = np.abs(kx * full[0] + ky * full[1] + kz * full[2])
        expected = np.max(divergence[keep]) / np.max(np.abs(full))
        assert expected > 1.0
        assert abs(divergence_free_error(g, v) - expected) < 1e-12


def record_transforms(band, v, worker):
    """The physical v and omega and the deformation tensor that a record
    forms, each in buffers of its own record block."""
    lanes = workers_module._lanes(worker)
    block = _RecordBlock(band, lanes, own_fields=True)
    _physical_fields(band, v, (block.v, block.omega), worker, block.work)
    tensor = _RecordBlock(band, lanes, own_fields=False)
    _strain_entries(band, v, worker, tensor.tensor, tensor.work)
    return block.v, block.omega, tensor.tensor


class TestBandRecord:
    # A dealiased run's observers get its state on the band, and a
    # record transforms the band as it is; on the 2/3-rule band and on
    # the band without the Nyquist planes that diagnose uses for wider
    # spectra, it must give the record of the whole half spectrum bit
    # for bit.
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("field", ["taylor_green", "random"])
    def test_matches_half_spectrum(self, n, field, monkeypatch):
        grid = Grid(n)
        half = (taylor_green(grid) if field == "taylor_green"
                else random_solenoidal(grid, seed=n))
        # n=64 shares its work with the worker, whatever this host has.
        monkeypatch.setattr(workers_module, "_threaded", lambda n: n >= 64)
        worker = workers_module._worker(n)
        assert (worker is not None) == (n == 64)
        whole = (fft_inverse(half), fft_inverse(curl(grid, half)),
                 deformation_tensor(grid, half))
        for band in (Band(grid), Band(grid, n // 2 - 1)):
            compact = band.restrict(half)
            for on_band, on_half in zip(
                    record_transforms(band, compact, worker), whole):
                assert np.array_equal(on_band, on_half)
            classification, record = classify_and_record(band, 0.5, compact)
            assert classification == classify_admissible(
                eigenvalues_sym3(whole[2]))
            assert np.array_equal(record.as_tuple(),
                                  whole_field_record(grid, 0.5,
                                                     half).as_tuple(),
                                  equal_nan=True)
            for label in (AdmissibleClass.APLUS, AdmissibleClass.AMINUS):
                given = Classification(label, 0.0, 0.0, 0.0)
                record = compute_record(band, 0.5, compact,
                                        classification=given)
                expected = whole_field_record(grid, 0.5, half, given)
                assert np.array_equal(record.as_tuple(),
                                      expected.as_tuple(), equal_nan=True)
                if field == "random":
                    assert math.isfinite(record.inf_eps)

    def test_collector_records_the_band(self, grid16):
        # A collector fed a dealiased run's band states keeps the series
        # of one that records them on the band without the Nyquist
        # planes, as diagnose records wider spectra.
        states = []
        run(grid16, random_solenoidal(grid16, seed=3),
            SolverConfig(dt=1e-3, t_final=3e-3), observers=[states.append])
        wide = Band(grid16, 7)
        on_band, on_wide = DiagnosticsCollector(), DiagnosticsCollector()
        for state in states:
            on_band(state)
            on_wide.record(wide, state.t,
                           wide.restrict(scatter(state.band, state.v)))
        assert np.array_equal([r.as_tuple() for r in on_band.records],
                              [r.as_tuple() for r in on_wide.records],
                              equal_nan=True)
        assert on_band.classification == on_wide.classification
        assert on_band.zero_touch_time == on_wide.zero_touch_time
        assert on_band.max_residuals == on_wide.max_residuals


class TestDiagnosticsCollector:
    def test_cadence_and_initial_sample(self, grid16):
        col = DiagnosticsCollector(every=3)
        run(grid16, taylor_green(grid16), SolverConfig(dt=1e-2, t_final=0.1),
            observers=[col])
        assert [round(r.t / 1e-2) for r in col.records] == [0, 3, 6, 9]

    def test_rejects_bad_cadence(self):
        with pytest.raises(ContractViolationError):
            DiagnosticsCollector(every=0)

    def test_csv_layout_and_roundtrip(self, grid16, tmp_path):
        path = tmp_path / "series.csv"
        with DiagnosticsCollector(every=2, csv_path=path) as col:
            run(grid16, taylor_green(grid16),
                SolverConfig(dt=5e-3, t_final=0.02),
                observers=[col])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(DiagnosticsRecord.field_names()) + [
            "env_lower", "env_upper", "bkm_integral",
            "class_env_lower", "class_env_upper"]
        assert len(rows) == 1 + len(col.records)
        # repr round-trip: parsed floats equal the in-memory records.
        for row, record in zip(rows[1:], col.records):
            for text, value in zip(row, record.as_tuple()):
                parsed = float(text)
                assert parsed == value or (math.isnan(parsed)
                                           and math.isnan(value))

    def test_csv_flushed_incrementally(self, grid16, tmp_path):
        path = tmp_path / "series.csv"
        col = DiagnosticsCollector(every=1, csv_path=path)
        lines_seen = []

        def spy(state):
            col(state)
            with open(path) as fh:
                lines_seen.append(sum(1 for _ in fh))

        run(grid16, taylor_green(grid16), SolverConfig(dt=1e-2, t_final=0.03),
            observers=[spy])
        col.close()
        assert lines_seen == [2, 3, 4, 5]

    def test_classification_happens_once(self, grid16):
        col = DiagnosticsCollector(every=1)
        run(grid16, taylor_green(grid16), SolverConfig(dt=1e-2, t_final=0.02),
            observers=[col])
        assert col.classification is not None
        assert col.classification.label == AdmissibleClass.NEITHER
        assert col.zero_touch_time is None

    def test_first_sample_solved_once(self, grid16, monkeypatch):
        # One eigensolve of each grid point per record, the first
        # included (a record solves its tensor slab by slab), and the
        # tail fraction only for the first record and for the summary.
        import euler_spectra.diagnostics as diagnostics_module
        calls = {"eig": 0, "tail": 0}

        def counting(key, fn, weight=lambda *args: 1):
            def wrapped(*args, **kwargs):
                calls[key] += weight(*args)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(diagnostics_module, "eigenvalues_sym3",
                            counting("eig", eigenvalues_sym3,
                                     lambda tensor: tensor[0].size))
        monkeypatch.setattr(diagnostics_module, "resolution_tail_fraction",
                            counting("tail", resolution_tail_fraction))
        col = DiagnosticsCollector(every=1)
        final = run(grid16, random_solenoidal(grid16, seed=2, peak_k=3.0),
                    SolverConfig(dt=1e-2, t_final=0.03), observers=[col])
        assert len(col.records) == 4
        points = 4 * 16 ** 3
        assert calls == {"eig": points, "tail": 1}
        health = col.summary()["resolution_health"]
        assert calls == {"eig": points, "tail": 2}
        # The deferred final value is the one of the last recorded state.
        assert health["tail_enstrophy_fraction_final"] == \
            resolution_tail_fraction(final.band, final.v)

    def test_classify_and_record_matches_two_passes(self, grid16, rng):
        v = make_random_velocity(grid16, rng)
        classification, record = classify_half_spectrum(grid16, 0.5, v)
        assert classification == classify_admissible(
            eigenvalues_sym3(deformation_tensor(grid16, v)))
        np.testing.assert_array_equal(
            record.as_tuple(),
            record_half_spectrum(grid16, 0.5, v,
                                 classification=classification).as_tuple())

    def test_summary_schema(self, grid16):
        col = DiagnosticsCollector(every=1)
        run(grid16, abc_flow(grid16), SolverConfig(dt=1e-2, t_final=0.02),
            observers=[col])
        s = col.summary()
        assert s["class"] == "Neither"
        assert s["first_zero_touching"] is None
        assert s["energy"]["max_rel_drift"] < 1e-12
        assert s["helicity"]["max_abs_drift"] < 1e-9
        assert set(s["identity_residuals"]) == {
            "enstrophy_moment", "stretching_cubic", "cubic_product"}
        assert s["resolution_health"]["tail_enstrophy_fraction_final"] < 1e-28

    def test_final_tail_fraction_after_a_step_past_the_last_record(
            self, grid16):
        # Steps 0, 2 and 4 are recorded and the run ends on step 5: the
        # collector has let go of the step-4 state and kept its tail
        # fraction for the summary.
        col, states = DiagnosticsCollector(every=2), []
        run(grid16, random_solenoidal(grid16, seed=2),
            SolverConfig(dt=1e-3, t_final=5e-3),
            observers=[col, states.append])
        assert [r.t for r in col.records] == [s.t for s in states[::2]]
        assert col._last_state is None
        last = states[4]
        assert col.summary()["resolution_health"][
            "tail_enstrophy_fraction_final"] == resolution_tail_fraction(
                last.band, last.v)

    def test_holds_no_state_the_run_stepped_past(self):
        # Between two records the collector holds the run's current
        # state at most: the traced memory after each step, the
        # collector's call included, is that after the first record
        # and the band's two |k|^2 tables, which the first step forms
        # (0.31 fields of the grid).  It read 0.93 fields more at the
        # steps after a record while the collector kept the recorded
        # state.
        grid, traced = Grid(64), []

        def probe(state):
            traced.append(tracemalloc.get_traced_memory()[0])

        def job():
            run(grid, random_solenoidal(grid, seed=1),
                SolverConfig(dt=1e-3, t_final=4e-3),
                observers=[DiagnosticsCollector(every=2), probe])

        traced_peak_fields(grid, job)
        field = 8 * grid.n ** 3
        tables = 2 * Band(grid).k_squared.nbytes
        assert len(traced) == 5
        assert all(abs(t - traced[0] - tables) < 0.05 * field
                   for t in traced[1:])

    def test_summary_requires_records(self):
        with pytest.raises(ContractViolationError):
            DiagnosticsCollector().summary()

    def test_sign_break_ends_the_epsilon_ratio(self, grid16, rng):
        # Once the first sample has fixed a one-signed class, the record
        # that breaks the sign condition and every later one carry no
        # epsilon ratio, on either band.
        v = make_random_velocity(grid16, rng)
        band, wide = Band(grid16), Band(grid16, 7)
        col = DiagnosticsCollector()
        col.record(wide, 0.0, wide.restrict(v))
        col.classification = Classification(
            AdmissibleClass.APLUS, 0.1, 0.2, 1e-3)
        assert math.isfinite(record_half_spectrum(
            grid16, 0.1, v, classification=col.classification).inf_eps)
        assert math.isnan(col.record(wide, 0.1, wide.restrict(v)).inf_eps)
        assert math.isnan(col.record(band, 0.2, band.restrict(v)).inf_eps)
        assert col.zero_touch_time == 0.1

    def test_zero_touch_detection(self, grid16):
        # Feed the collector a synthetic positive-class history whose
        # minimum dips below -tolerance at the third sample.
        col = DiagnosticsCollector(every=1, class_tolerance=1e-3)

        band = Band(grid16)
        col(SolverState(0.0, band.restrict(abc_flow(grid16)), 0, band))
        # ABC classifies as Neither, so fake the classification instead.
        from euler_spectra.deformation import Classification
        col.classification = Classification(
            AdmissibleClass.APLUS, 0.1, 0.2, 1e-3)
        col.zero_touch_time = None
        record = col.records[0]
        fake = DiagnosticsRecord(*record.as_tuple())
        fake.t, fake.min_l2 = 0.1, 0.0005
        col._update_zero_touch(fake)
        assert col.zero_touch_time is None
        fake2 = DiagnosticsRecord(*record.as_tuple())
        fake2.t, fake2.min_l2 = 0.2, -0.01
        col._update_zero_touch(fake2)
        assert col.zero_touch_time == 0.2
