"""Deformation tensor and its eigenvalue fields.

The deformation (rate-of-strain) tensor is the symmetric part of the
velocity gradient, ``S_ij = (d_i v_j + d_j v_i) / 2``.  For an
incompressible velocity it is traceless, so its three real eigenvalues
satisfy ``l1 + l2 + l3 = 0`` with the ordering convention
``l1 >= l2 >= l3``.  The middle eigenvalue drives most of the
diagnostics in this package, so the eigensolver below is engineered to
deliver it at close to machine precision even when two eigenvalues
collide.

Eigensolver design
------------------
The bulk of the grid is handled by the closed-form trigonometric
solution of the characteristic cubic (Cardano in trigonometric form).
That formula is backward stable but loses roughly half the significant
digits when splitting a *near-degenerate pair*: the split enters
through ``cos`` terms that agree to O(gap), so the pair is resolved
only to O(sqrt(eps) * scale).  Points whose smallest eigenvalue gap
falls below a relative threshold are therefore recomputed by a
closed-form deflation: the eigenvector of the isolated eigenvalue is
read off from column cross products of ``S - l_iso I``, an orthonormal
basis of its complement is completed, and the remaining 2x2 symmetric
block is solved exactly.  Both routes are non-iterative and avoid any
LAPACK dependency, so library eigensolvers remain available as an
independent cross-check.  Where products of entries would leave the
floating-point range (tensors far from unit size, or a deviator tiny
against the trace), the solver rescales by exact powers of two, or
skips the division by a negligible deviator's cube, so inputs of
ordinary size come out bit for bit as without those guards.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from euler_spectra.errors import ContractViolationError, NumericsError
from euler_spectra.fields import (
    _band_inverse_into,
    _combine_product,
    _form_buffers,
    _spectral_in,
    fft_inverse,
    magnitude_squared,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.workers import _split_lanes

logger = logging.getLogger("euler_spectra.deformation")

# Relative pair-gap threshold below which the deflation path takes over.
# At the crossover the trig route still carries ~eps/GAP_THRESHOLD ~ 2e-12
# relative error, comfortably under the 1e-10 contract.
_GAP_THRESHOLD = 1e-4

# Points whose largest tensor entry lies outside this range are rescaled
# before the eigensolve: within it, the squares and cubes of entries
# formed by the trigonometric route stay normal floats.
_SAFE_MIN = 2.0 ** -200
_SAFE_MAX = 2.0 ** 200
# Deviator scale below which _eigenvalues_trig does not divide by p^3.
_TINY_SPREAD = 2.0 ** -300

# Component order of a deformation tensor array of shape (6, n, n, n).
_COMPONENT_NAMES = ("s11", "s12", "s13", "s22", "s23", "s33")


def frobenius_squared(tensor: np.ndarray, out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Pointwise sum of squared entries (off-diagonals counted twice),
    ``s11 * s11 + s22 * s22 + s33 * s33 + 2.0 * (s12 * s12 + s13 * s13
    + s23 * s23)``, into ``out`` through ``work[:2]``
    (:func:`~euler_spectra.fields._form_buffers`)."""
    s11, s12, s13, s22, s23, s33 = tensor
    out, (a, b) = _form_buffers(s11.shape, out, work, 2)
    np.multiply(2.0, magnitude_squared((s12, s13, s23), out, (a,)), out=out)
    return np.add(magnitude_squared((s11, s22, s33), a, (b,)), out, out=out)


def _lambda1_rms(spectra: np.ndarray, work: np.ndarray | None = None
                 ) -> float:
    """Root mean square of the largest eigenvalue over the grid; the
    squares go into the float64 ``work`` of an eigenvalue field's shape
    when it is given."""
    return float(np.sqrt(np.mean(np.square(spectra[0], out=work))))


class AdmissibleClass(str, Enum):
    """Sign class of the middle eigenvalue over the whole grid."""

    APLUS = "APlus"
    AMINUS = "AMinus"
    NEITHER = "Neither"


@dataclass
class Classification:
    """Outcome of the middle-eigenvalue sign test.

    ``tolerance`` is the strictness margin that was applied: the field
    counts as one-signed only if it clears zero by more than this.
    """

    label: AdmissibleClass
    min_lambda2: float
    max_lambda2: float
    tolerance: float


# (i, j) of each entry of a deformation tensor array, in component order.
_ENTRY_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def deformation_tensor(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Symmetric part of the gradient of a spectral velocity.

    Returns the ``(6, n, n, n)`` physical tensor in the order
    ``s11, s12, s13, s22, s23, s33`` of the half spectrum ``v``, each
    entry transformed on its own by ``fft_inverse``.

    Logs a warning when the pointwise trace is not negligible against
    the tensor magnitude, since downstream eigenvalue identities assume
    a divergence-free velocity.  A diagnostics record forms the tensor
    of a compact velocity with :func:`_strain_entries` instead and runs
    the same check on the trace and Frobenius fields it fills slab by
    slab.
    """
    k = (grid.k_deriv_x, grid.k_deriv_y, grid.k_deriv_z)
    tensor = np.empty((6,) + (grid.n,) * 3)
    for c, (i, j) in enumerate(_ENTRY_INDEX):
        tensor[c] = fft_inverse((1j * k[i]) * v[i] if i == j
                                else 0.5j * (k[i] * v[j] + k[j] * v[i]))
    _check_trace(np.mean(_trace_squared(tensor)),
                 np.mean(frobenius_squared(tensor)))
    return tensor


def _strain_entries(band: Band, v: np.ndarray, worker, tensor: np.ndarray,
                    work) -> None:
    """The tensor of the compact velocity ``v`` into ``tensor``, without
    its trace check; the same as :func:`deformation_tensor` gives on the
    half spectrum that holds ``v`` and is zero off ``band``.

    With a worker (:mod:`euler_spectra.workers`) the entries s11, s12,
    s13 are transformed on it and the other three on the calling
    thread.  Each thread (lane) takes the buffers ``work[lane]`` of
    :func:`~euler_spectra.fields._lane_specs`: it forms its spectral
    entries in the bytes of the last of its entries in ``tensor``
    (:func:`~euler_spectra.fields._spectral_in`), with the second
    product of an off-diagonal entry formed in the first buffer, a
    component or fewer of its x planes, one slab at a time
    (:func:`~euler_spectra.fields._combine_product`), in the order of
    ``1j * k_i * v_i`` and ``0.5j * (k_i * v_j + k_j * v_i)``, so they
    round as those expressions do, and transforms them by the passes of
    :func:`~euler_spectra.fields.band_inverse` through the second.
    Every buffer is the caller's, so ``tensor`` may hold anything the
    record no longer needs.
    """
    k = (band.k_deriv_x, band.k_deriv_y, band.k_deriv_z)

    def transform(entries, lane):
        scratch, pad = work[lane]
        entry = _spectral_in(band, tensor[entries[-1]])
        for c in entries:
            i, j = _ENTRY_INDEX[c]
            if i == j:
                np.multiply(1j * k[i], v[i], out=entry)
            else:
                np.multiply(k[i], v[j], out=entry)
                _combine_product(np.add, entry, k[j], v[i], scratch)
                np.multiply(0.5j, entry, out=entry)
            _band_inverse_into(band, entry, tensor[c], pad)

    _split_lanes(worker, transform, [(0, 1, 2), (3, 4, 5)])


def _trace_squared(tensor: np.ndarray, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Pointwise squared trace ``(s11 + s22 + s33) ** 2`` of a tensor
    array, into ``out``; it takes no ``work``."""
    s11, _, _, s22, _, s33 = tensor
    out = np.empty(s11.shape) if out is None else out
    np.add(s11, s22, out=out)
    np.add(out, s33, out=out)
    return np.square(out, out=out)


def _check_trace(trace_mean_square, frobenius_mean):
    """Warn when the RMS trace of a deformation tensor, from the
    ``np.mean`` of its pointwise squared trace and of
    :func:`frobenius_squared`, is not negligible against its RMS
    magnitude."""
    trace_rms = float(np.sqrt(trace_mean_square))
    mag_rms = float(np.sqrt(frobenius_mean))
    if mag_rms > 0.0 and trace_rms > 1e-10 * mag_rms:
        logger.warning(
            "deformation tensor trace RMS %.3e exceeds 1e-10 of magnitude "
            "%.3e; velocity may not be divergence-free", trace_rms, mag_rms)


def _eigenvalues_trig(s11, s12, s13, s22, s23, s33, work):
    """Trigonometric closed form for the ordered eigenvalues.

    Leaves l1 >= l2 >= l3 in ``work[3]``, ``work[5]`` and ``work[4]``,
    and in ``work[2]`` the deviator scale 2p used for relative gap tests;
    ``work`` is six float64 arrays of an entry's shape, which no entry
    may share.  Every expression is formed with ``out=`` in the order
    written out in the comments, so it rounds as that expression does;
    b11 is formed twice, which gives the same bits.  Points with a zero
    deviator come out exactly (q, q, q).
    """
    q, b11, b22, b33, acc, tmp = work
    # q = (s11 + s22 + s33) / 3.0
    np.add(s11, s22, out=q)
    np.add(q, s33, out=q)
    np.divide(q, 3.0, out=q)
    np.subtract(s11, q, out=b11)
    np.subtract(s22, q, out=b22)
    np.subtract(s33, q, out=b33)
    # det = (b11 * (b22 * b33 - s23 * s23) - s12 * (s12 * b33 - s23 * s13)
    #        + s13 * (s12 * s23 - b22 * s13)), into acc
    np.multiply(b22, b33, out=acc)
    np.subtract(acc, np.multiply(s23, s23, out=tmp), out=acc)
    np.multiply(b11, acc, out=acc)
    np.multiply(s12, b33, out=b11)
    np.subtract(b11, np.multiply(s23, s13, out=tmp), out=b11)
    np.subtract(acc, np.multiply(s12, b11, out=b11), out=acc)
    np.multiply(s12, s23, out=b11)
    np.subtract(b11, np.multiply(b22, s13, out=tmp), out=b11)
    np.add(acc, np.multiply(s13, b11, out=b11), out=acc)
    # p = sqrt((b11 * b11 + b22 * b22 + b33 * b33
    #           + 2.0 * (s12 * s12 + s13 * s13 + s23 * s23)) / 6.0), in b11
    p = b11
    np.subtract(s11, q, out=p)
    np.multiply(p, p, out=p)
    np.add(p, np.multiply(b22, b22, out=b22), out=p)
    np.add(p, np.multiply(b33, b33, out=b33), out=p)
    np.multiply(s12, s12, out=b22)
    np.add(b22, np.multiply(s13, s13, out=b33), out=b22)
    np.add(b22, np.multiply(s23, s23, out=b33), out=b22)
    np.add(p, np.multiply(2.0, b22, out=b22), out=p)
    np.divide(p, 6.0, out=p)
    np.sqrt(p, out=p)
    # det / p^3 turns into 0/0 once p^3 underflows.  A deviator that
    # small is negligible against the entries eigenvalues_sym3 lets
    # through (largest entry >= _SAFE_MIN), so dividing by 1 instead
    # still gives q to within O(p).
    # p_safe = where(p > _TINY_SPREAD, p, 1.0), in b22;
    # theta = arccos(clip(0.5 * det / (p_safe * p_safe * p_safe), -1, 1))
    #         / 3.0, in acc
    p_safe, cube = b22, b33
    np.copyto(p_safe, 1.0)
    np.copyto(p_safe, p, where=p > _TINY_SPREAD)
    np.multiply(p_safe, p_safe, out=cube)
    np.multiply(cube, p_safe, out=cube)
    theta = acc
    np.multiply(0.5, theta, out=theta)
    np.divide(theta, cube, out=theta)
    np.clip(theta, -1.0, 1.0, out=theta)
    np.arccos(theta, out=theta)
    np.divide(theta, 3.0, out=theta)
    # spread = 2.0 * p, in b22; l1 = q + 2.0 * p * cos(theta), in b33;
    # l3 = q + 2.0 * p * cos(theta + 2.0 * np.pi / 3.0), in acc;
    # l2 = q + -(l1 + l3) of the unshifted l1 and l3, in tmp
    spread, l1, l3, l2 = b22, b33, acc, tmp
    np.multiply(2.0, p, out=spread)
    np.multiply(spread, np.cos(theta, out=l1), out=l1)
    np.add(theta, 2.0 * np.pi / 3.0, out=l3)
    np.multiply(spread, np.cos(l3, out=l3), out=l3)
    np.negative(np.add(l1, l3, out=l2), out=l2)
    for value in (l1, l2, l3):
        np.add(q, value, out=value)


def _refine_near_degenerate(components, lam):
    """Eigenvalues of flagged points, recomputed by closed-form deflation.

    components : the six entries (s11, s12, s13, s22, s23, s33) of the m
        flagged points, as flat arrays
    lam : (m, 3) table of their trigonometric eigenvalues l1, l2, l3

    Returns the (m, 3) table of the recomputed l1 >= l2 >= l3.
    """
    m = lam.shape[0]
    s11, s12, s13, s22, s23, s33 = components
    S = np.empty((m, 3, 3), dtype=np.float64)
    S[:, 0, 0] = s11
    S[:, 1, 1] = s22
    S[:, 2, 2] = s33
    S[:, 0, 1] = S[:, 1, 0] = s12
    S[:, 0, 2] = S[:, 2, 0] = s13
    S[:, 1, 2] = S[:, 2, 1] = s23

    gap_hi = lam[:, 0] - lam[:, 1]
    gap_lo = lam[:, 1] - lam[:, 2]
    # The isolated eigenvalue sits across the *larger* gap from the pair.
    lam_iso = np.where(gap_hi > gap_lo, lam[:, 0], lam[:, 2])

    M = S - lam_iso[:, None, None] * np.eye(3)
    # The null direction does not depend on the scale of M, which is the
    # deviator's and can be tiny against S.  An exact power-of-two
    # rescaling to unit size keeps the norms of the cross products below
    # (fourth powers of the entries) out of the subnormal range.
    _, exponent = np.frexp(np.max(np.abs(M), axis=(1, 2)))
    M = np.ldexp(M, -exponent[:, None, None])
    c0, c1, c2 = M[:, :, 0], M[:, :, 1], M[:, :, 2]
    # For symmetric M of rank 2, any cross product of two independent
    # columns points along the null space, i.e. the isolated eigenvector.
    candidates = np.stack(
        [np.cross(c0, c1), np.cross(c0, c2), np.cross(c1, c2)], axis=1)
    norms = np.linalg.norm(candidates, axis=2)
    rows = np.arange(m)
    v = candidates[rows, np.argmax(norms, axis=1), :]
    vnorm = np.linalg.norm(v, axis=1)
    usable = vnorm > 0.0
    v[usable] /= vnorm[usable][:, None]
    # Near-triple degeneracy leaves no usable direction; any unit vector
    # gives the right answer to O(spread) there.
    v[~usable] = (1.0, 0.0, 0.0)

    # Complete {v} to an orthonormal basis: start from the coordinate
    # axis least aligned with v, so the projection never degenerates.
    j = np.argmin(np.abs(v), axis=1)
    e = np.zeros((m, 3))
    e[rows, j] = 1.0
    u = e - np.sum(e * v, axis=1)[:, None] * v
    u /= np.linalg.norm(u, axis=1)[:, None]
    w = np.cross(v, u)

    Su = np.einsum("pij,pj->pi", S, u)
    Sw = np.einsum("pij,pj->pi", S, w)
    b11 = np.sum(u * Su, axis=1)
    b12 = np.sum(u * Sw, axis=1)
    b22 = np.sum(w * Sw, axis=1)
    mid = 0.5 * (b11 + b22)
    disc = np.hypot(0.5 * (b11 - b22), b12)

    out = np.stack([lam_iso, mid + disc, mid - disc], axis=1)
    out.sort(axis=1)
    return out[:, ::-1]


def eigenvalues_sym3(tensor: np.ndarray, out: np.ndarray | None = None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Ordered eigenvalue fields of a symmetric tensor field.

    Takes a ``(6, ...)`` tensor array (component order as in
    :func:`deformation_tensor`) and returns the ``(3, ...)`` array of
    ``l1 >= l2 >= l3``, written into the float64 ``out`` when it is
    given, which may be ``tensor[:3]``.  Dual-route evaluation:
    trigonometric closed form everywhere, with a closed-form deflation
    pass on points whose smallest eigenvalue gap is below ``1e-4`` of
    the local spread (see module docstring).  ``work``, a float64 array
    ``(6,) + tensor.shape[1:]``, holds every float temporary of the
    trigonometric route, the range guard and the gap test; without it
    one is allocated.  Besides the boolean masks of those tests, only
    the rescaling and the deflation allocate, on the points they act
    on.

    Raises
    ------
    NumericsError
        If any tensor entry is non-finite; the message names the first
        offending grid index.
    """
    shape = tensor.shape[1:]
    if out is None:
        out = np.empty((3,) + shape)
    if work is None:
        work = np.empty((6,) + shape)

    # The products below under- or overflow where a point's largest
    # entry lies far from 1.  Such points are scaled by a power
    # of two, which is exact, and scaled back at the end; the others,
    # in practice all of them, are left untouched.  A non-finite entry
    # makes the largest one non-finite.
    peak, scratch = work[0], work[1]
    np.abs(tensor[0], out=peak)
    for component in tensor[1:]:
        np.maximum(peak, np.abs(component, out=scratch), out=peak)
    if not np.isfinite(np.max(peak, initial=0.0)):
        _require_finite(tensor)
    rescale = (peak > _SAFE_MAX) | ((peak < _SAFE_MIN) & (peak > 0.0))
    rescaled = bool(np.any(rescale))
    if rescaled:
        exponent = np.where(rescale, np.frexp(peak)[1], 0)
        tensor = np.ldexp(tensor, -exponent)

    _eigenvalues_trig(*tensor, work)
    spread, l1, l3, l2 = work[2:]
    # gap = minimum(l1 - l2, l2 - l3)
    gap = work[1]
    np.minimum(np.subtract(l1, l2, out=gap),
               np.subtract(l2, l3, out=work[0]), out=gap)
    needs_refine = ((gap < np.multiply(_GAP_THRESHOLD, spread, out=work[0]))
                    & (spread > 0.0))
    refined = None
    if np.any(needs_refine):
        # Read before ``out``, which may share the entries, is written.
        points = np.nonzero(needs_refine)
        refined = _refine_near_degenerate(
            [c[points] for c in tensor],
            np.stack([l1[points], l2[points], l3[points]], axis=1))
    for target, value in zip(out, (l1, l2, l3)):
        np.copyto(target, value)
    if refined is not None:
        for target, value in zip(out, refined.T):
            target[points] = value
    if rescaled:
        np.ldexp(out, exponent, out=out)
    return out


def _require_finite(tensor: np.ndarray):
    """Raise the NumericsError of :func:`eigenvalues_sym3` if an entry of
    ``tensor`` is not finite: it names the first component, in component
    order, that holds one, and the first such grid index in it."""
    for name, arr in zip(_COMPONENT_NAMES, tensor):
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise NumericsError(
                f"non-finite deformation tensor component {name} at grid "
                f"index {tuple(int(b) for b in bad)}")


def classify_admissible(spectra: np.ndarray,
                        tolerance: float | None = None,
                        work: np.ndarray | None = None) -> Classification:
    """Classify the grid by the sign of the middle eigenvalue.

    ``spectra`` is the ``(3, ...)`` array of ordered eigenvalues.
    ``APlus`` requires ``min l2 > tolerance`` everywhere, ``AMinus``
    requires ``max l2 < -tolerance``; anything else is ``Neither``.
    The default tolerance is ``1e-10`` of the RMS of the largest
    eigenvalue, so zero fields and rounding noise classify as Neither
    rather than flapping between classes; that RMS is formed in the
    float64 ``work`` of an eigenvalue field's shape when it is given.
    """
    if tolerance is None:
        tolerance = 1e-10 * _lambda1_rms(spectra, work)
    tolerance = float(tolerance)
    if tolerance < 0.0:
        raise ContractViolationError("classification tolerance must be >= 0")
    min_l2 = float(np.min(spectra[1]))
    max_l2 = float(np.max(spectra[1]))
    if min_l2 > tolerance:
        label = AdmissibleClass.APLUS
    elif max_l2 < -tolerance:
        label = AdmissibleClass.AMINUS
    else:
        label = AdmissibleClass.NEITHER
    return Classification(label, min_l2, max_l2, tolerance)


def epsilon_ratio(spectra: np.ndarray, classification: Classification,
                  floor: float | None = None,
                  out: np.ndarray | None = None):
    """Pointwise ratio |l2| / l where l is the dominant eigenvalue.

    For an ``APlus`` field the denominator is ``l1``, for ``AMinus`` it
    is ``-l3``; in both cases the denominator is positive away from
    zeros of the tensor.  Points with denominator at or below ``floor``
    (default ``1e-12`` of the RMS of l1) are excluded: their ratio is
    set to NaN and they are tallied in the returned count.  The ratio
    is written into the float64 ``out`` when it is given, which the
    default floor also takes as scratch.

    Returns
    -------
    (ndarray, int)
        The ratio field (NaN at excluded points) and the number of
        excluded points.
    """
    if classification.label == AdmissibleClass.NEITHER:
        raise ContractViolationError(
            "epsilon ratio is only defined for one-signed middle eigenvalue")
    if floor is None:
        floor = 1e-12 * _lambda1_rms(spectra, out)
    floor = float(floor)
    if classification.label == AdmissibleClass.APLUS:
        denom = spectra[0]
    else:
        denom = -spectra[2]
    defined = denom > floor
    ratio = np.abs(spectra[1], out=out)
    np.divide(ratio, denom, out=ratio, where=defined)
    undefined = np.logical_not(defined, out=defined)
    np.copyto(ratio, np.nan, where=undefined)
    excluded = int(np.count_nonzero(undefined))
    return ratio, excluded


def first_zero_touching(history, classification: Classification,
                        tolerance: float | None = None):
    """First sample time at which the sign condition fails.

    Parameters
    ----------
    history : sequence of (t, min_l2, max_l2)
        Grid extrema of the middle eigenvalue along a run, in time order.
    classification : Classification
        Class the run started in; must not be Neither.
    tolerance : float, optional
        Defaults to the classification's own tolerance.

    Returns
    -------
    float or None
        The earliest sample time whose extrema show the middle
        eigenvalue crossing zero the wrong way by more than the
        tolerance (below -tolerance for the positive class, above
        +tolerance for the negative one), or None if the sign
        condition survives the whole history.
    """
    if classification.label == AdmissibleClass.NEITHER:
        raise ContractViolationError(
            "zero-touching time is only defined for one-signed classes")
    history = list(history)
    if not history:
        raise ContractViolationError("history must contain at least one sample")
    if tolerance is None:
        tolerance = classification.tolerance
    for t, min_l2, max_l2 in history:
        if classification.label == AdmissibleClass.APLUS:
            if min_l2 < -tolerance:
                return float(t)
        else:
            if max_l2 > tolerance:
                return float(t)
    return None
