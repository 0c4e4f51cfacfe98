"""Shared fixtures for the euler_spectra test suite.

Grids are cheap to build but reused constantly, so the common sizes are
session-scoped.  Random data always comes from `default_rng` with a fixed
seed so failures reproduce bit-for-bit.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from euler_spectra.deformation import (
    _GAP_THRESHOLD,
    _SAFE_MAX,
    _SAFE_MIN,
    _TINY_SPREAD,
    _refine_near_degenerate,
    _require_finite,
    deformation_tensor,
    eigenvalues_sym3,
    epsilon_ratio,
)
from euler_spectra.diagnostics import (
    DiagnosticsRecord,
    _cubic_trace_density,
    _product_density,
    _stretching_density,
    classify_and_record,
    compute_record,
)
from euler_spectra.envelopes import _series_spectra
from euler_spectra.grid import Grid
from euler_spectra.fields import (
    curl,
    fft_forward,
    fft_inverse,
    integrate_domain,
    leray_project,
    magnitude_squared,
    pointwise_dot,
)
from euler_spectra.initial import random_solenoidal
from euler_spectra.snapshot import write_snapshot
import euler_spectra.workers as workers_module


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def snapshot_series64(tmp_path_factory):
    """Paths of five snapshots of a random n=64 field, uniformly spaced
    1e-3 apart in time, the m-th scaled by 1 + 0.01 m: a series that
    ``diagnose`` takes the series residuals of.  Tests only read them."""
    grid = Grid(64)
    v = random_solenoidal(grid, seed=1)
    out = tmp_path_factory.mktemp("series64")
    paths = []
    for m in range(5):
        paths.append(str(out / f"s{m}.bin"))
        write_snapshot(paths[-1], grid, v * (1.0 + 0.01 * m), 1e-3 * m)
    return paths


def dealias_23(grid, coeffs):
    """Zero every mode of a half spectrum outside the 2/3-rule ball
    (keep 3|k_j| <= n)."""
    return np.where(grid.dealias_mask, coeffs, 0.0)


def coordinates(grid):
    """The physical coordinate arrays (X, Y, Z) of ``grid``, ij-indexed
    dense meshgrids."""
    axis = np.arange(grid.n, dtype=np.float64) * grid.dx
    return np.meshgrid(axis, axis, axis, indexing="ij")


def scatter(band, coeffs):
    """The compact band array ``coeffs`` as a half spectrum, zero off
    the band."""
    n = band.n
    out = np.zeros(coeffs.shape[:-3] + (n, n, n // 2 + 1), coeffs.dtype)
    out[band.index] = coeffs
    return out


def make_random_velocity(grid, rng, scale=1.0, band=None):
    """Random smooth divergence-free velocity in spectral space, zero
    outside ``band`` (a :class:`Band`), or dealiased when it is None."""
    comps = tuple(
        scale * rng.standard_normal((grid.n,) * 3) for _ in range(3)
    )
    vhat = fft_forward(np.stack(comps))
    # Damp high modes so derived quantities stay O(1) and well resolved.
    damp = np.exp(-0.5 * grid.k_squared / 9.0)
    vhat = leray_project(grid, vhat * damp)
    if band is None:
        return dealias_23(grid, vhat)
    return scatter(band, band.restrict(vhat))


def series_on_band(grid, spectra):
    """The band ``diagnose`` records a series of half spectra on, and
    the spectra cut to it."""
    band, compacts, _ = _series_spectra(lambda: ((grid, v) for v in spectra))
    return band, compacts


def record_half_spectrum(grid, t, v, **kwargs):
    """``compute_record`` of the half spectrum ``v``, on the band that
    ``diagnose`` records it on."""
    band, (compact,) = series_on_band(grid, [v])
    return compute_record(band, t, compact, **kwargs)


def classify_half_spectrum(grid, t, v, **kwargs):
    """``classify_and_record`` of the half spectrum ``v``, on the band
    that ``diagnose`` records it on."""
    band, (compact,) = series_on_band(grid, [v])
    return classify_and_record(band, t, compact, **kwargs)


def whole_field_record(grid, t, v, classification=None):
    """The record of the half spectrum ``v``, from the public functions
    applied to the whole field: the reference for the record's slab pass
    on a band, and for what ``diagnose`` drops off its band."""
    v_phys, omega_phys = fft_inverse(v), fft_inverse(curl(grid, v))
    tensor = deformation_tensor(grid, v)
    spectra = eigenvalues_sym3(tensor)
    q, p = spectra_moments(grid, spectra)
    min_l2, max_l2 = float(np.min(spectra[1])), float(np.max(spectra[1]))
    inf_eps = math.nan
    if classification is not None:
        ratio, excluded = epsilon_ratio(spectra, classification)
        if excluded < ratio.size:
            inf_eps = float(np.nanmin(ratio))
    return DiagnosticsRecord(
        t, 0.5 * integrate_domain(grid, magnitude_squared(v_phys)),
        integrate_domain(grid, pointwise_dot(v_phys, omega_phys)),
        integrate_domain(grid, magnitude_squared(omega_phys)), q, p,
        stretching_integral(grid, tensor, omega_phys),
        cubic_trace_integral(grid, tensor), max(max_l2, 0.0),
        max(min_l2, 0.0), max(-min_l2, 0.0), max(-max_l2, 0.0), min_l2,
        max_l2, inf_eps, max_speed(omega_phys))


def cross_product(u, v):
    """Pointwise u x v of two physical vector fields, component i being
    ``u_j v_l - u_l v_j`` with (i, j, l) a cyclic order of (0, 1, 2), as
    the solver's slabs round it."""
    return np.stack([u[(i + 1) % 3] * v[(i + 2) % 3]
                     - u[(i + 2) % 3] * v[(i + 1) % 3] for i in range(3)])


def rhs_reference(grid, v, nu=0.0):
    """The momentum right-hand side P[v x omega] - nu |k|^2 v on the
    whole half spectrum of ``grid``, with nothing masked: the solver's
    band ``rhs`` gives its band modes.  Its product puts energy on the
    Nyquist planes, which no band holds."""
    v_phys = fft_inverse(v)
    omega_phys = fft_inverse(curl(grid, v))
    out = leray_project(grid, fft_forward(cross_product(v_phys, omega_phys)))
    if nu != 0.0:
        out -= (nu * grid.k_squared) * v
    return out


def leray_reference(grid, v):
    """The solenoidal projection as one expression, in the rounding
    order that ``leray_project`` keeps with its buffers."""
    k = (grid.k_true_x, grid.k_true_y, grid.k_true_z)
    coef = (k[0] * v[0] + k[1] * v[1] + k[2] * v[2]) / grid.k_squared_safe
    return np.stack([v[i] - k[i] * coef for i in range(3)])


def spectral_derivative(grid, coeffs, axis):
    """Differentiate along a space axis by multiplying with i*k.

    The Nyquist wavenumber is zeroed (it has no sign-definite partner),
    which keeps the operator skew-adjoint on the grid: the derivative of
    a real field is real to rounding and integration by parts holds
    exactly in the discrete inner product.
    """
    k = (grid.k_deriv_x, grid.k_deriv_y, grid.k_deriv_z)[axis]
    return (1j * k) * coeffs


def velocity_gradient(grid, v):
    """Physical-space gradient of a spectral vector field.

    Returns a ``(3, 3, n, n, n)`` array with ``grad[i, j] = d v_j / d x_i``
    (row index = derivative direction).
    """
    grad = np.empty((3, 3) + (grid.n,) * 3)
    for i in range(3):
        for j in range(3):
            grad[i, j] = fft_inverse(spectral_derivative(grid, v[j], i))
    return grad


def gradient_norm_squared_pointwise(grad):
    """Pointwise |grad v|^2 = sum_ij (d_i v_j)^2 of a (3, 3, ...) gradient."""
    total = np.zeros(grad.shape[2:], dtype=np.float64)
    for i in range(3):
        for j in range(3):
            total += grad[i, j] ** 2
    return total


def spectra_moments(grid, spectra):
    """Quadratic and product moments (Q, P) of the eigenvalue fields:
    Q = integral (l1^2 + l2^2 + l3^2),  P = integral (l1 l2 l3)."""
    return (integrate_domain(grid, magnitude_squared(spectra)),
            integrate_domain(grid, _product_density(spectra)))


def stretching_integral(grid, tensor, omega):
    """Vortex-stretching integral W = integral omega . S omega of the
    physical vorticity ``omega`` and the (6, ...) strain ``tensor``."""
    return integrate_domain(grid, _stretching_density(tensor, omega))


def cubic_trace_integral(grid, tensor):
    """Integral of tr(S^3), from the entries of the strain ``tensor``."""
    return integrate_domain(grid, _cubic_trace_density(tensor))


def max_speed(v):
    """Maximum pointwise magnitude |v| of a physical vector field."""
    return float(np.sqrt(np.max(magnitude_squared(v))))


# What each thread of a record or a step allocates beyond the block it
# carves, in fields of an n=64 grid: numpy's ufunc buffers where a
# broadcast wavenumber table multiplies a spectral component (up to 0.13
# field on a band and 0.06 on the half spectrum, for a slab or a whole
# component), and the eigensolver's boolean masks of a slab (0.06).  The
# FFT passes allocate under 0.001 field once ``numpy.fft`` is imported;
# its import on a process's first transform takes 0.085.  Two threads
# may hold theirs at once, so a two-thread peak is bounded by its block
# plus twice this, in any interleaving of their allocations.
UNCARVED_PER_THREAD = 0.25


def fresh_worker(monkeypatch):
    """Make the process's worker afresh at its next use, as in a new
    process, for the rest of the test."""
    monkeypatch.setattr(workers_module, "_executor", functools.cache(
        workers_module._executor.__wrapped__))


def traced_peak_fields(grid, job):
    """The ``tracemalloc`` peak of ``job()`` above the memory traced
    before it, in whole-grid float64 fields of ``grid``.  A trace that
    was running before the call keeps running after it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        job()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return (peak - before) / (8 * grid.n ** 3)


def eigenvalues_trig_reference(s11, s12, s13, s22, s23, s33):
    """The trigonometric route of ``eigenvalues_sym3`` as the expressions
    that its ``out=`` forms round like: (l1, l2, l3, spread)."""
    q = (s11 + s22 + s33) / 3.0
    b11 = s11 - q
    b22 = s22 - q
    b33 = s33 - q
    p2 = (b11 * b11 + b22 * b22 + b33 * b33
          + 2.0 * (s12 * s12 + s13 * s13 + s23 * s23)) / 6.0
    p = np.sqrt(p2)
    det = (b11 * (b22 * b33 - s23 * s23)
           - s12 * (s12 * b33 - s23 * s13)
           + s13 * (s12 * s23 - b22 * s13))
    p_safe = np.where(p > _TINY_SPREAD, p, 1.0)
    arg = np.clip(0.5 * det / (p_safe * p_safe * p_safe), -1.0, 1.0)
    theta = np.arccos(arg) / 3.0
    l1 = 2.0 * p * np.cos(theta)
    l3 = 2.0 * p * np.cos(theta + 2.0 * np.pi / 3.0)
    l2 = -(l1 + l3)
    return q + l1, q + l2, q + l3, 2.0 * p


def eigenvalues_reference(tensor):
    """``eigenvalues_sym3`` as whole-array expressions that allocate
    their temporaries: the range guard, the trigonometric route, the gap
    test and the deflation of the flagged points."""
    _require_finite(tensor)
    peak = np.abs(tensor[0])
    for component in tensor[1:]:
        np.maximum(peak, np.abs(component), out=peak)
    rescale = (peak > _SAFE_MAX) | ((peak < _SAFE_MIN) & (peak > 0.0))
    rescaled = bool(np.any(rescale))
    if rescaled:
        exponent = np.where(rescale, np.frexp(peak)[1], 0)
        tensor = np.ldexp(tensor, -exponent)
    l1, l2, l3, spread = eigenvalues_trig_reference(*tensor)
    gap = np.minimum(l1 - l2, l2 - l3)
    needs_refine = (gap < _GAP_THRESHOLD * spread) & (spread > 0.0)
    lam = np.stack([l1.ravel(), l2.ravel(), l3.ravel()], axis=1)
    idx = np.nonzero(needs_refine.ravel())[0]
    if idx.size:
        flat = [c.ravel() for c in tensor]
        lam[idx] = _refine_near_degenerate([c[idx] for c in flat], lam[idx])
    spectra = lam.T.reshape((3,) + l1.shape)
    return np.ldexp(spectra, exponent) if rescaled else spectra

