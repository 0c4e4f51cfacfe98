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
- The coefficient at (0, 0, 0) equals the field mean, and
  ``grid.parseval_weight`` counts each omitted conjugate in spectral
  sums.  Differentiation and the solenoidal projection use the two
  wavenumber tables of :mod:`euler_spectra.grid`.  Operators that need
  wavenumbers take the :class:`~euler_spectra.grid.Grid` first, or a
  :class:`~euler_spectra.grid.Band` for a compact spectrum.

The transforms are three passes of one-dimensional ``numpy.fft``
transforms over the last three axes.  A solver run holds its state on
a band |k_j| <= m alone (:class:`~euler_spectra.grid.Band`), the
2/3-rule band m = n//3 when dealiased: ``band_inverse`` zero-pads it,
and the band forward passes compute only the kept modes.  Each band
mode goes through the same arithmetic as in the full transforms, so the
two layouts give the same values bit for bit.  A function given
``out=`` or ``work=`` arrays writes into them or takes its temporaries
from them, so that the solver and the diagnostics reuse one set of
buffers and share them with a worker thread; the values are the same
either way.
"""

import numpy as np

from euler_spectra.errors import ContractViolationError
from euler_spectra.grid import Band, BandHalf, Grid
from euler_spectra.reductions import pairwise_sum
from euler_spectra.workers import _slabs, _split_lanes


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


def fft_forward(values: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Physical -> half-spectrum transform (forward-normalized).

    Transforms the last three axes, so a scalar ``(n, n, n)`` or a
    stacked ``(m, n, n, n)`` real field comes back with space shape
    ``(n, n, n//2 + 1)``: ``rfft`` along z, then ``fft`` along x, then
    along y.  The result is written into ``out`` when it is given.
    """
    out = _forward_z(values, out)
    # x before y: numpy.fft.rfftn runs y first, which rounds differently.
    np.fft.fft(out, axis=-3, norm="forward", out=out)
    return np.fft.fft(out, axis=-2, norm="forward", out=out)


def _forward_z(values: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The first pass of a forward transform: ``rfft`` along z, into
    ``out`` when it is given.  On an x-slab it gives that slab of the
    pass over the whole field."""
    return np.fft.rfft(values, axis=-1, norm="forward", out=out)


def fft_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Half-spectrum -> physical transform of the last three axes.

    The space shape ``(n, n, n//2 + 1)`` comes back as the real
    ``(n, n, n)`` field: ``ifft`` along x, then along y, in place on one
    working copy, then ``irfft`` along z.
    """
    # In place on a copy: an out-of-place x pass measured slower.
    work = np.array(coeffs, dtype=np.complex128)
    np.fft.ifft(work, axis=-3, norm="forward", out=work)
    return _inverse_yz(work, work.shape[-3])


def _inverse_yz(work: np.ndarray, n: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """The last passes of an inverse transform whose x pass is done:
    ``ifft`` along y in place on the complex128 ``work``, then
    ``irfft`` along z to n points, into ``out`` when it is given.  On an
    x-slab of ``work`` they give that slab of the whole transform."""
    np.fft.ifft(work, axis=-2, norm="forward", out=work)
    return np.fft.irfft(work, n=n, axis=-1, norm="forward", out=out)


def _band_forward_z(band: Band, values: np.ndarray, out: np.ndarray,
                    work: np.ndarray | None = None) -> None:
    """The first band forward pass: ``rfft`` along z of the real
    ``values``, whose planes kz <= m go into the complex128 ``out``
    (space shape ``(n, n, m + 1)``).  The whole ``rfft`` goes through
    ``work`` when it is given.  On an x-slab it gives that slab of the
    pass over the whole field."""
    out[...] = _forward_z(values, work)[..., :band.m + 1]


def _band_forward_x(work: np.ndarray, y_rows: slice) -> None:
    """The band forward x pass, in place on ``work`` (space shape
    ``(n, n, m + 1)``, the planes kz <= m of the ``rfft`` along z):
    ``fft`` along x of the lines in the y rows ``y_rows``."""
    lines = work[..., y_rows, :]
    np.fft.fft(lines, axis=-3, norm="forward", out=lines)


def _band_forward_y(band: Band, work: np.ndarray, half: BandHalf,
                    out: np.ndarray) -> None:
    """The band forward y pass for one of ``band.x_halves``: ``fft``
    along y of the half's x rows of ``work``, in place, then the band
    modes of those rows into ``out``, the half's rows of a compact
    array.  After the z and x passes, the band modes equal those of
    :func:`fft_forward`."""
    lines = work[..., half.fft_rows, :, :]
    np.fft.fft(lines, axis=-2, norm="forward", out=lines)
    m = band.m
    out[..., :m + 1, :] = lines[..., band.halves[0], :]
    out[..., m + 1:, :] = lines[..., band.halves[1], :]


def band_inverse(band: Band, coeffs: np.ndarray) -> np.ndarray:
    """Compact band -> physical transform, equal to ``fft_inverse`` of
    the half spectrum that holds ``coeffs`` and is zero off the band,
    without its all-zero lines.

    One component at a time, the band is zero-padded to the planes
    kz <= m, the x pass runs only on the band's ky lines, and ``irfft``
    pads kz > m with zeros.
    """
    n = band.n
    return _band_inverse_into(
        band, coeffs, np.empty(coeffs.shape[:-3] + (n, n, n)),
        np.empty((n, n, band.m + 1), np.complex128))


def _band_inverse_into(band: Band, coeffs: np.ndarray, out: np.ndarray,
                       pad: np.ndarray) -> np.ndarray:
    """:func:`band_inverse` of the compact ``coeffs``, written into the
    float64 ``out`` one component at a time through ``pad``, a complex128
    array of one component's padded shape ``(n, n, m + 1)``, which it
    overwrites.  Each line goes through the same passes whichever
    components are transformed together, so the values do not depend on
    it."""
    for component in np.ndindex(coeffs.shape[:-3]):
        _band_pad_inverse_x(band, coeffs[component], pad)
        _inverse_yz(pad, band.n, out=out[component])
    return out


def _band_pad_inverse_x(band: Band, coeffs: np.ndarray,
                        work: np.ndarray) -> None:
    """The first pass of :func:`band_inverse`: zero-pad the compact
    ``coeffs`` into the complex128 ``work`` (space shape
    ``(n, n, m + 1)``) and ``ifft`` along x the band's ky lines, in
    place.  Only the rows outside the band are zeroed, and the band goes
    in as four blocks of slices, which measured faster than zeroing all
    of ``work`` and scattering the band by ``band.index``."""
    gap = slice(band.m + 1, band.n - band.m)
    work[..., gap, :, :] = 0.0
    for x in band.x_halves:
        work[..., x.fft_rows, gap, :] = 0.0
        for y in band.x_halves:
            work[..., x.fft_rows, y.fft_rows, :] = coeffs[..., x.rows,
                                                          y.rows, :]
    for y_rows in band.halves:
        lines = work[..., y_rows, :]
        np.fft.ifft(lines, axis=-3, norm="forward", out=lines)


# The transforms of a velocity and its vorticity by component, as
# (field, component) with v as field 0 and omega as field 1.  The
# threads of :func:`euler_spectra.workers._split_lanes` take these parts
# in turn, so in this order each gets both fields, and the worker the
# two omega parts (an omega part also forms its curl component), which
# measured faster than the omega parts on the calling thread.
_FIELD_PARTS = ((1, 0), (0, 0), (0, 1), (1, 1), (1, 2), (0, 2))


def _lane_specs(band: Band, lanes: int) -> tuple:
    """The ``(shape, dtype)`` specs (:func:`euler_spectra.workers._carve`)
    of the lane buffers of :func:`_physical_fields` and of
    ``deformation._strain_entries`` on ``band``, for ``lanes`` threads:
    the scratch of a spectral component's second product
    (:func:`_combine_product`) and a padded component
    (:func:`_band_inverse_into`).  The scratch is a whole component on
    the 2/3-rule band, and at most a slab of x planes on a wider one,
    whose components are near a half spectrum's size."""
    n, m, c = band.n, band.m, np.complex128
    rows = 2 * m + 1 if m == n // 3 else min(2 * m + 1, _slabs(n)[0].stop)
    return (((lanes, rows, 2 * m + 1, m + 1), c), ((lanes, n, n, m + 1), c))


def _spectral_in(band: Band, out: np.ndarray) -> np.ndarray:
    """A compact component of ``band`` in the first bytes of the
    C-contiguous float64 physical component ``out``, which it fits in.
    A component formed there and transformed into ``out`` by
    :func:`_band_inverse_into` is read into the padded component before
    ``out`` is written, so it needs no buffer of its own."""
    return np.ndarray(band.spectral_shape, np.complex128, buffer=out)


def _physical_fields(band: Band, v: np.ndarray, out, worker, work,
                     omega_hat: np.ndarray | None = None) -> None:
    """``band_inverse(band, v)`` and ``band_inverse(band, curl(band, v))``
    of the compact ``v`` into the two float64 vector fields of ``out``,
    by component (``_FIELD_PARTS``) split with ``worker``.  Each thread
    (lane) takes the buffers ``work[lane]`` of :func:`_lane_specs`: it
    forms a curl component in the bytes of its physical component
    (:func:`_spectral_in`), or in ``omega_hat[i]`` when a compact
    ``omega_hat`` is given, with the first as the scratch of its product
    (:func:`_curl_component`), and transforms through the second; the
    values are those of the whole-field transforms."""
    def transform(part, lane):
        field, i = part
        scratch, pad = work[lane]
        coeffs = v[i]
        if field == 1:
            coeffs = (_spectral_in(band, out[1][i]) if omega_hat is None
                      else omega_hat[i])
            _curl_component(band, v, i, coeffs, work=scratch)
        _band_inverse_into(band, coeffs, out[field][i], pad)

    _split_lanes(worker, transform, _FIELD_PARTS)


def curl(grid: Grid | Band, v: np.ndarray) -> np.ndarray:
    """Spectral curl, componentwise i*k x vhat with Nyquist-zeroed k."""
    w = np.empty_like(v)
    for i in range(3):
        _curl_component(grid, v, i, w[i])
    return w


def _curl_component(grid: Grid | Band, v: np.ndarray, i: int,
                    out: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Component i of :func:`curl`, ``1j * (k_j v_l - k_l v_j)`` with
    (i, j, l) a cyclic order of (0, 1, 2), written into ``out``.
    ``work`` holds the subtracted product when it is given
    (:func:`_combine_product`)."""
    k = (grid.k_deriv_x, grid.k_deriv_y, grid.k_deriv_z)
    j, l = (i + 1) % 3, (i + 2) % 3
    np.multiply(k[j], v[l], out=out)
    _combine_product(np.subtract, out, k[l], v[j], work)
    return np.multiply(1j, out, out=out)


def _combine_product(ufunc, out: np.ndarray, k: np.ndarray,
                     coeffs: np.ndarray,
                     work: np.ndarray | None = None) -> None:
    """``ufunc(out, k * coeffs, out=out)`` for a spectral component
    ``coeffs`` and a wavenumber table ``k`` that broadcasts against it.
    The product is formed into the complex128 ``work``, a component of
    ``out``'s shape or fewer of its rows (x planes), one x-slab of that
    many rows at a time, or into a new array when ``work`` is None.  The
    operations are elementwise, so any slab gives the same bits."""
    rows = len(out) if work is None else len(work)
    for start in range(0, len(out), rows):
        x = slice(start, min(start + rows, len(out)))
        product = np.multiply(
            k[x] if len(k) > 1 else k, coeffs[x],
            out=None if work is None else work[:x.stop - start])
        ufunc(out[x], product, out=out[x])


def leray_project(grid: Grid | Band | BandHalf, v: np.ndarray,
                  out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Remove the gradient part: vhat -> vhat - k (k . vhat) / |k|^2.

    Uses the full integer wavenumbers (Nyquist included), so the image
    is divergence-free at the rounding level and a second application
    moves coefficients by at most a few ulps.  The mean (k = 0) mode
    is untouched.  The result is written into ``out`` when it is given,
    which may be ``v`` itself.  ``work``, a complex128 array of shape
    ``(2,) + v.shape[1:]``, holds the temporaries when it is given.
    """
    k = (grid.k_true_x, grid.k_true_y, grid.k_true_z)
    if out is None:
        out = np.empty_like(v)
    if work is None:
        work = np.empty((2,) + v.shape[1:], np.complex128)
    coef, term = work
    # The rounding order of (k0 v0 + k1 v1 + k2 v2) / |k|^2.
    np.multiply(k[0], v[0], out=coef)
    np.add(coef, np.multiply(k[1], v[1], out=term), out=coef)
    np.add(coef, np.multiply(k[2], v[2], out=term), out=coef)
    np.divide(coef, grid.k_squared_safe, out=coef)
    for i in range(3):
        np.subtract(v[i], np.multiply(k[i], coef, out=term), out=out[i])
    return out


def divergence_free_error(grid: Grid, v: np.ndarray) -> float:
    """max |k . vhat| over retained modes, normalized by max |vhat|."""
    kdotv = (grid.k_true_x * v[0] + grid.k_true_y * v[1]
             + grid.k_true_z * v[2])
    num = float(np.max(np.abs(kdotv)[grid.dealias_mask]))
    den = float(np.max(np.abs(v)))
    if den == 0.0:
        return 0.0
    return num / den


def integrate_domain(grid: Grid, values: np.ndarray) -> float:
    """Integral of a physical scalar field over the box, cell_volume * sum.

    Uses the deterministic pairwise reduction, so repeated evaluation on
    identical data is bit-stable.
    """
    return grid.cell_volume * pairwise_sum(values)


def _form_buffers(shape, out, work, count):
    """The float64 ``out`` and ``work`` of a pointwise form of fields of
    ``shape``: the caller's, or new ones, ``work`` holding ``count``
    scratch arrays.  A form fills ``out`` with ``out=`` ufuncs in the
    order of the expression it states, so it rounds as that does."""
    if out is None:
        out = np.empty(shape)
    if work is None:
        work = np.empty((count,) + shape)
    return out, work


def pointwise_dot(u: np.ndarray, v: np.ndarray,
                  out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Pointwise ``u[0] * v[0] + u[1] * v[1] + u[2] * v[2]`` of two
    physical vector fields (or of three fields each), into ``out``
    through ``work[0]`` (:func:`_form_buffers`)."""
    out, work = _form_buffers(np.shape(u[0]), out, work, 1)
    np.multiply(u[0], v[0], out=out)
    np.add(out, np.multiply(u[1], v[1], out=work[0]), out=out)
    return np.add(out, np.multiply(u[2], v[2], out=work[0]), out=out)


def _cross_component(u: np.ndarray, v: np.ndarray, i: int, out: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Component i of the pointwise cross product u x v of two physical
    vector fields, ``u_j v_l - u_l v_j`` with (i, j, l) a cyclic order of
    (0, 1, 2), written into ``out``.  ``work``, a float64 array of
    ``out``'s shape, holds the subtracted product when it is given."""
    j, l = (i + 1) % 3, (i + 2) % 3
    np.multiply(u[j], v[l], out=out)
    return np.subtract(out, np.multiply(u[l], v[j], out=work), out=out)


def magnitude_squared(v: np.ndarray, out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Pointwise |v|^2 of a physical vector field, as
    ``pointwise_dot(v, v, out, work)``."""
    return pointwise_dot(v, v, out, work)


def _max_speed_specs(band: Band) -> tuple:
    """The ``(shape, dtype)`` specs (:func:`euler_spectra.workers._carve`)
    of the buffers ``pad`` and ``slab`` of :func:`_band_max_speed` on
    ``band``."""
    n, planes = band.n, _slabs(band.n)[0].stop
    return (((3, n, n, band.m + 1), np.complex128),
            ((5, planes, n, n), np.float64))


def _band_max_speed(band: Band, coeffs: np.ndarray, pad: np.ndarray,
                    slab: np.ndarray) -> float:
    """The largest pointwise |v| of ``band_inverse(band, coeffs)``, the
    physical field of a compact velocity, without that field: the three components are zero-padded
    and transformed along x into the complex128 ``pad``
    (:func:`_band_pad_inverse_x`); then each x-slab of
    :func:`euler_spectra.workers._slabs` is transformed along y and z
    into the first three of the float64 ``slab``, and its |v|^2 formed
    into the fourth through the fifth (:func:`_max_speed_specs` gives
    their shapes).  The passes are those of :func:`band_inverse`, and a
    maximum over the slab maxima is the maximum, so the value is that of
    ``sqrt(max(magnitude_squared(band_inverse(band, coeffs))))`` bit for
    bit."""
    n = band.n
    _band_pad_inverse_x(band, coeffs, pad)
    v, square, work = slab[:3], slab[3], slab[4:]
    slabs = _slabs(n)
    peaks = np.empty(len(slabs))
    for s, x in enumerate(slabs):
        _inverse_yz(pad[:, x], n, out=v)
        peaks[s] = np.max(magnitude_squared(v, out=square, work=work))
    return float(np.sqrt(np.max(peaks)))
