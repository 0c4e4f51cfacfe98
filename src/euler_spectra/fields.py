"""Field arrays on a periodic grid, plus spectral operators.

Conventions used throughout the package:

- A field is a plain ndarray whose last three axes are ``[ix, iy, iz]``.
  Components sit on a leading axis: a physical vector field is
  ``(3, n, n, n)``, the deformation tensor ``(6, n, n, n)`` and its
  eigenvalues ``(3, n, n, n)``.
- The dtype gives the representation.  Physical-space values are real
  ``float64`` with space shape ``(n, n, n)``; spectral values are
  ``complex128`` real-to-complex DFT coefficients with *forward*
  normalization (``numpy.fft.rfftn(..., norm="forward")``) and space
  shape ``(n, n, n//2 + 1)``: the x and y axes hold all n modes, the
  z axis only kz = 0, ..., n/2, because the kz < 0 half of the
  spectrum of a real field is the complex conjugate of the kz > 0 half.
  A spectral velocity is therefore ``(3, n, n, n//2 + 1)``.
- The coefficient at (0, 0, 0) equals the field mean.  Parseval counts
  each interior z plane twice, once for its omitted conjugate:
  ``integral(f^2) = volume * sum(grid.parseval_weight * |fhat|^2)``.
- Differentiation multiplies by ``1j * k`` with the Nyquist mode zeroed
  (see :mod:`euler_spectra.grid`); the solenoidal projection uses the
  full integer wavenumbers and is exactly idempotent.  Operators that
  need wavenumbers take the :class:`~euler_spectra.grid.Grid` first.

The transforms are three passes of one-dimensional ``numpy.fft``
transforms over the last three axes.  A dealiased run keeps its
spectral fields zero outside the 2/3-rule band |k_j| <= n//3, so the
inverse transform skips the lines that hold only zeros whenever its
input is band-limited, and the forward transform can compute the
retained modes alone (``dealias=True``).  ``curl`` and
``leray_project`` likewise work on the band's blocks only when their
input is band-limited.  Skipping zeros changes no value: every other
line or mode goes through the same arithmetic.

Thread count for the transforms is taken from the environment variable
``EULER_SPECTRA_THREADS`` (default 1).  With k > 1 threads each pass
splits its independent lines into k blocks and transforms them
concurrently.  The default keeps runs reproducible on any machine;
raising it only changes performance, not results, because each line's
arithmetic is the same in every block and all reductions are
fixed-order.
"""

import functools
import os
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from euler_spectra.errors import ConfigurationError, ContractViolationError
from euler_spectra.grid import Grid
from euler_spectra.reductions import pairwise_sum

_THREADS_ENV = "EULER_SPECTRA_THREADS"


def fft_workers() -> int:
    """Number of FFT worker threads, from ``EULER_SPECTRA_THREADS``."""
    raw = os.environ.get(_THREADS_ENV, "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{_THREADS_ENV} must be a positive integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigurationError(
            f"{_THREADS_ENV} must be a positive integer, got {workers}")
    return workers


def check_velocity(grid: Grid, v: np.ndarray) -> None:
    """Require a velocity on ``grid`` in either representation.

    Physical velocities are float64 ``(3, n, n, n)``, spectral ones
    complex128 half spectra ``(3, n, n, n//2 + 1)``.

    Raises
    ------
    ContractViolationError
        On any other shape or dtype.
    """
    n = grid.n
    spectral = isinstance(v, np.ndarray) and v.dtype == np.complex128
    shape = (3, n, n, n // 2 + 1) if spectral else (3, n, n, n)
    if not isinstance(v, np.ndarray) or v.shape != shape:
        raise ContractViolationError(
            f"velocity shape {getattr(v, 'shape', None)} does not match "
            f"grid {shape}")
    if v.dtype not in (np.float64, np.complex128):
        raise ContractViolationError(
            f"velocity dtype must be float64 (physical) or complex128 "
            f"(spectral), got {v.dtype}")


def _band_rows(n: int):
    """Slices of the x or y modes inside the 2/3-rule band, FFT order."""
    m = n // 3
    return slice(0, m + 1), slice(n - m, n)


@functools.lru_cache(maxsize=None)
def _thread_pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=threads,
                              thread_name_prefix="euler_spectra_fft")


def _lines(transform, a: np.ndarray, axis: int, out: np.ndarray,
           **kwargs) -> np.ndarray:
    """Apply a 1-D ``numpy.fft`` transform along ``axis`` into ``out``.

    With more than one thread the lines are split into blocks along
    x (along y for the x pass); each block is one ``numpy.fft`` call,
    which releases the GIL.
    """
    threads = fft_workers()
    split = -2 if axis == -3 else -3
    size = a.shape[split]
    if threads == 1 or size < 2:
        return transform(a, axis=axis, norm="forward", out=out, **kwargs)
    bounds = np.linspace(0, size, min(threads, size) + 1).astype(int)

    def block(lo_hi):
        index = [slice(None)] * a.ndim
        index[split] = slice(*lo_hi)
        index = tuple(index)
        transform(a[index], axis=axis, norm="forward", out=out[index],
                  **kwargs)

    list(_thread_pool(threads).map(block, zip(bounds[:-1], bounds[1:])))
    return out


def fft_forward(values: np.ndarray, dealias: bool = False) -> np.ndarray:
    """Physical -> half-spectrum transform (forward-normalized).

    Transforms the last three axes, so a scalar ``(n, n, n)`` or a
    stacked ``(m, n, n, n)`` real field comes back with space shape
    ``(n, n, n//2 + 1)``: ``rfft`` along z, then ``fft`` along x, then
    along y.  With ``dealias`` only the modes kept by the 2/3 rule are
    computed and every other mode is zero, which equals
    ``dealias_23(grid, fft_forward(values))`` exactly.
    """
    n = values.shape[-1]
    shape = values.shape[:-1] + (n // 2 + 1,)
    out = _lines(np.fft.rfft, values, -1, np.empty(shape, np.complex128))
    # x before y, as in a three-axis rfftn: the other order rounds
    # differently.
    if not dealias:
        _lines(np.fft.fft, out, -3, out)
        return _lines(np.fft.fft, out, -2, out)
    rows = _band_rows(n)
    kept = out[..., :rows[0].stop]
    _lines(np.fft.fft, kept, -3, kept)
    for x_rows in rows:
        lines = kept[..., x_rows, :, :]
        _lines(np.fft.fft, lines, -2, lines)
    out[..., rows[0].stop:] = 0.0
    out[..., rows[0].stop:rows[1].start, :, :] = 0.0
    out[..., rows[0].stop:rows[1].start, :] = 0.0
    return out


def _is_band_limited(coeffs: np.ndarray) -> bool:
    """True if ``coeffs`` is exactly zero outside |k_j| <= n//3."""
    rows = _band_rows(coeffs.shape[-3])
    gap = slice(rows[0].stop, rows[1].start)
    return not (coeffs[..., gap, :, :].any() or coeffs[..., gap, :].any()
                or coeffs[..., rows[0].stop:].any())


def fft_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Half-spectrum -> physical transform of the last three axes.

    The space shape ``(n, n, n//2 + 1)`` comes back as the real
    ``(n, n, n)`` field: ``ifft`` along x, then along y, in place on one
    working copy, then ``irfft`` along z.  Input that is zero outside
    the 2/3-rule band is copied only up to kz = n//3, and the x pass
    runs only over the lines whose ky lies in the band.
    """
    n = coeffs.shape[-3]
    rows = _band_rows(n)
    if _is_band_limited(coeffs):
        work = np.array(coeffs[..., :rows[0].stop], dtype=np.complex128)
    else:
        work = np.array(coeffs, dtype=np.complex128)
        rows = (slice(None),)
    for y_rows in rows:
        lines = work[..., y_rows, :]
        _lines(np.fft.ifft, lines, -3, lines)
    _lines(np.fft.ifft, work, -2, work)
    return _lines(np.fft.irfft, work, -1,
                  np.empty(coeffs.shape[:-1] + (n,)), n=n)


def spectral_derivative(grid: Grid, coeffs: np.ndarray,
                        axis: int) -> np.ndarray:
    """Differentiate along a space axis by multiplying with i*k.

    The Nyquist wavenumber is zeroed (it has no sign-definite partner),
    which keeps the operator skew-adjoint on the grid: the derivative of
    a real field is real to rounding and integration by parts holds
    exactly in the discrete inner product.
    """
    k = (grid.k_deriv_x, grid.k_deriv_y, grid.k_deriv_z)[axis]
    return (1j * k) * coeffs


@functools.lru_cache(maxsize=None)
def _band_blocks(grid: Grid) -> tuple:
    """``(index, tables)`` for each block of the 2/3-rule band.

    The kept modes form four blocks of the half spectrum: kx and ky
    each in 0..n//3 or -n//3..-1, and kz in 0..n//3.  ``tables`` holds
    the wavenumber tables cut to the block under the ``Grid``'s
    attribute names, so a per-mode operator runs on it unchanged.
    """
    rows = _band_rows(grid.n)
    kz = slice(0, rows[0].stop)
    blocks = []
    for x_rows in rows:
        for y_rows in rows:
            tables = types.SimpleNamespace(
                k_deriv_x=grid.k_deriv_x[x_rows],
                k_deriv_y=grid.k_deriv_y[:, y_rows],
                k_deriv_z=grid.k_deriv_z[..., kz],
                k_true_x=grid.k_true_x[x_rows],
                k_true_y=grid.k_true_y[:, y_rows],
                k_true_z=grid.k_true_z[..., kz],
                k_squared_safe=grid.k_squared_safe[x_rows, y_rows, kz])
            blocks.append(((Ellipsis, x_rows, y_rows, kz), tables))
    return tuple(blocks)


def _per_mode(operator, grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply a per-mode spectral operator that maps zero modes to zero.

    On a ``v`` that is zero outside the 2/3-rule band the operator runs
    on the band's blocks only and the other modes of the result are
    zero; every computed mode goes through the same arithmetic.
    """
    if not _is_band_limited(v):
        return operator(grid, v)
    out = np.zeros_like(v)
    for index, tables in _band_blocks(grid):
        out[index] = operator(tables, v[index])
    return out


def _curl(tables, v: np.ndarray) -> np.ndarray:
    v1, v2, v3 = v
    kx, ky, kz = tables.k_deriv_x, tables.k_deriv_y, tables.k_deriv_z
    w = np.empty_like(v)
    w[0] = 1j * (ky * v3 - kz * v2)
    w[1] = 1j * (kz * v1 - kx * v3)
    w[2] = 1j * (kx * v2 - ky * v1)
    return w


def curl(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Spectral curl, componentwise i*k x vhat with Nyquist-zeroed k."""
    return _per_mode(_curl, grid, v)


def _leray(tables, v: np.ndarray) -> np.ndarray:
    k = (tables.k_true_x, tables.k_true_y, tables.k_true_z)
    coef = (k[0] * v[0] + k[1] * v[1] + k[2] * v[2]) / tables.k_squared_safe
    out = v.copy()
    for i in range(3):
        out[i] -= k[i] * coef
    return out


def leray_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part: vhat -> vhat - k (k . vhat) / |k|^2.

    Uses the full integer wavenumbers (Nyquist included), so the image
    is divergence-free at the rounding level and a second application
    moves coefficients by at most a few ulps.  The mean (k = 0) mode
    is untouched.
    """
    return _per_mode(_leray, grid, v)


def divergence_free_error(grid: Grid, v: np.ndarray) -> float:
    """max |k . vhat| over retained modes, normalized by max |vhat|."""
    kdotv = (grid.k_true_x * v[0] + grid.k_true_y * v[1]
             + grid.k_true_z * v[2])
    num = float(np.max(np.abs(kdotv)[grid.dealias_mask]))
    den = float(np.max(np.abs(v)))
    if den == 0.0:
        return 0.0
    return num / den


def dealias_23(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Zero every mode outside the 2/3-rule ball (keep 3|k_j| <= n)."""
    return np.where(grid.dealias_mask, coeffs, 0.0)


def integrate_domain(grid: Grid, values: np.ndarray) -> float:
    """Integral of a physical scalar field over the box, cell_volume * sum.

    Uses the deterministic pairwise reduction, so repeated evaluation on
    identical data is bit-stable.
    """
    return grid.cell_volume * pairwise_sum(values)


def pointwise_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise u . v of two physical vector fields."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise u x v of two physical vector fields."""
    out = np.empty_like(u)
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]
    return out


def magnitude_squared(v: np.ndarray) -> np.ndarray:
    """Pointwise |v|^2 of a physical vector field."""
    return pointwise_dot(v, v)


def max_speed(v: np.ndarray) -> float:
    """Maximum pointwise magnitude |v| of a physical vector field."""
    return float(np.sqrt(np.max(magnitude_squared(v))))
