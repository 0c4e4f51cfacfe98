"""Property tests for the closed-form symmetric 3x3 eigensolver.

``eigenvalues_sym3`` is checked on matrices drawn by hypothesis against
the invariances every spectrum has (rotation, permutation, trace) and
against ``numpy.linalg.eigvalsh`` with the package's 1e-10 contract:
the largest deviation, relative to the largest eigenvalue magnitude,
stays below 1e-10.  A separate family sweeps eigenvalue pairs through
the gap threshold at which the solver switches from the trigonometric
formula to deflation.  The kernel is also held bit for bit to the
allocating expressions of ``conftest.eigenvalues_reference`` on random,
near-degenerate, zero-deviator and 2^+-250-scaled tensors.  Runs are
derandomized, so they reproduce.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from euler_spectra.deformation import _GAP_THRESHOLD, eigenvalues_sym3
from euler_spectra.errors import NumericsError

from conftest import eigenvalues_reference

settings.register_profile("eigen", max_examples=300, deadline=None,
                          derandomize=True, database=None)
PROFILE = settings.get_profile("eigen")

entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                    allow_infinity=False)
symmetric = st.lists(entries, min_size=6, max_size=6).map(
    lambda e: np.array([[e[0], e[1], e[2]],
                        [e[1], e[3], e[4]],
                        [e[2], e[4], e[5]]]))
# Unit quaternions give uniformly spread proper rotations.
quaternions = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                       min_size=4, max_size=4).filter(
    lambda q: np.dot(q, q) > 1e-3)


def rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def spectrum(matrix):
    """Ordered eigenvalues (l1, l2, l3) of one symmetric matrix."""
    m = np.asarray(matrix)
    tensor = np.array([m[0, 0], m[0, 1], m[0, 2],
                       m[1, 1], m[1, 2], m[2, 2]]).reshape(6, 1)
    return eigenvalues_sym3(tensor)[:, 0]


def scale_of(matrix):
    return max(float(np.max(np.abs(np.linalg.eigvalsh(matrix)))), 1e-300)


def assert_spectra_close(ours, ref, scale):
    assert np.max(np.abs(np.asarray(ours) - np.asarray(ref))) < 1e-10 * scale


@PROFILE
@given(symmetric)
# Squares of the entries underflowed: all three eigenvalues came out 0.
@example(np.diag([0.0, 0.0, 2.2250738585072014e-308]))
# A deviator tiny against the trace made det / p^3 a 0/0: NaN spectra.
@example(np.array([[1.0, 0.0, 1.3e-139],
                   [0.0, 1.0, 0.0],
                   [1.3e-139, 0.0, 1.0]]))
# ... and made the deflation's vector norms subnormal: l1 off by 2e-4.
@example(np.array([[1.0, 7.8e-81, 0.0],
                   [7.8e-81, 1.0, 0.0],
                   [0.0, 0.0, 1.0]]))
def test_agrees_with_eigvalsh(matrix):
    ours = spectrum(matrix)
    assert ours[0] >= ours[1] >= ours[2]
    assert_spectra_close(ours, np.linalg.eigvalsh(matrix)[::-1],
                         scale_of(matrix))


@PROFILE
@given(symmetric, quaternions)
def test_rotation_invariant(matrix, q):
    r = rotation(q)
    rotated = r @ matrix @ r.T
    rotated = 0.5 * (rotated + rotated.T)
    assert_spectra_close(spectrum(rotated), spectrum(matrix),
                         scale_of(matrix))


@PROFILE
@given(symmetric, st.permutations(range(3)))
def test_permutation_invariant(matrix, perm):
    permuted = matrix[np.ix_(perm, perm)]
    assert_spectra_close(spectrum(permuted), spectrum(matrix),
                         scale_of(matrix))


# Dyadic diagonals whose negated sum is exact, so the trace is exactly 0
# (subtracting trace/3 from a float matrix leaves a rounding-size trace).
dyadic = st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(
    lambda i: i / 2.0 ** 10)


@PROFILE
@given(dyadic, dyadic, entries, entries, entries)
def test_traceless_input_gives_zero_sum(a, b, s12, s13, s23):
    traceless = np.array([[a, s12, s13],
                          [s12, b, s23],
                          [s13, s23, -(a + b)]])
    l1, l2, l3 = spectrum(traceless)
    assert abs(l1 + l2 + l3) < 1e-12 * scale_of(traceless)


@PROFILE
@given(st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.booleans(), quaternions)
def test_near_degenerate_pairs_around_gap_threshold(a, log_ratio, upper, q):
    # A traceless spectrum whose top (or bottom) pair is split by a
    # relative gap from 1e-2 down to 1e-6 of the threshold's scale, so
    # both solver routes and the switch between them are exercised.
    gap = _GAP_THRESHOLD * 10.0 ** log_ratio
    pair = (a, a * (1.0 - gap))
    values = np.array(pair + (-(pair[0] + pair[1]),))
    if not upper:
        values = -values[::-1]
    r = rotation(q)
    matrix = r @ np.diag(values) @ r.T
    matrix = 0.5 * (matrix + matrix.T)
    ours = spectrum(matrix)
    assert ours[0] >= ours[1] >= ours[2]
    assert_spectra_close(ours, np.linalg.eigvalsh(matrix)[::-1],
                         scale_of(matrix))


@PROFILE
@given(symmetric, st.integers(min_value=-700, max_value=1000))
# Overflowed the deflation path's vector norms: l2 came out as l1.
@example(np.diag([512.0, 0.0, 0.0]), 247)
def test_power_of_two_scaling_is_exact(matrix, k):
    # Squares and cubes of the entries leave the float range long before
    # the entries do; the spectrum must follow the scaling anyway.  The
    # scaled spectrum itself must stay a normal float.
    assume(np.ldexp(scale_of(matrix), k) > 1e-290)
    ours = spectrum(np.ldexp(matrix, k))
    assert np.all(np.isfinite(ours))
    assert_spectra_close(np.ldexp(ours, -k), spectrum(matrix),
                         scale_of(matrix))


def pack(matrices):
    """The (6, k) tensor array of k symmetric matrices."""
    m = np.asarray(matrices, dtype=np.float64).reshape(-1, 3, 3)
    return np.array([m[:, 0, 0], m[:, 0, 1], m[:, 0, 2],
                     m[:, 1, 1], m[:, 1, 2], m[:, 2, 2]])


def near_degenerate(a, c, log_gap, q):
    """A matrix whose top pair, a and a - gap, lies a gap below 1e-4 of
    the spread apart, turned by the rotation of quaternion q."""
    spread = max(abs(a - c), 1e-3)
    values = np.array([a, a - _GAP_THRESHOLD * 10.0 ** log_gap * spread, c])
    r = rotation(q)
    matrix = r @ np.diag(values) @ r.T
    return 0.5 * (matrix + matrix.T)


unit = st.floats(min_value=-10.0, max_value=10.0)
batches = {
    "random": st.lists(symmetric, min_size=1, max_size=8),
    "near_degenerate": st.lists(
        st.builds(near_degenerate, unit, unit,
                  st.floats(min_value=-12.0, max_value=-0.01), quaternions),
        min_size=1, max_size=8),
    "zero_deviator": st.lists(unit.map(lambda q: q * np.eye(3)),
                              min_size=1, max_size=8),
    "scaled": st.tuples(st.lists(symmetric, min_size=1, max_size=8),
                        st.sampled_from([-250, 250])).map(
        lambda pair: np.ldexp(np.asarray(pair[0]), pair[1])),
}


@PROFILE
@given(st.sampled_from(sorted(batches)).flatmap(
    lambda kind: st.tuples(st.just(kind), batches[kind])))
def test_bitwise_equal_to_allocating_reference(case):
    # The out= kernel rounds every expression as the allocating one did,
    # with its own scratch or the caller's, and with the eigenvalues
    # written over the tensor's first half.
    kind, matrices = case
    tensor = pack(matrices)
    expected = eigenvalues_reference(tensor.copy())
    assert np.array_equal(eigenvalues_sym3(tensor.copy()), expected), kind
    work = np.empty((6,) + tensor.shape[1:])
    assert np.array_equal(eigenvalues_sym3(tensor.copy(), work=work),
                          expected), kind
    for scratch in (None, work):
        aliased = tensor.copy()
        got = eigenvalues_sym3(aliased, out=aliased[:3], work=scratch)
        assert np.shares_memory(got, aliased)
        assert np.array_equal(aliased[:3], expected), kind


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("component, index", [(0, (0, 0)), (4, (2, 3)),
                                              (5, (1, 1))])
def test_non_finite_entry_reported_as_by_reference(bad, component, index):
    tensor = np.random.default_rng(5).standard_normal((6, 3, 4))
    tensor[component][index] = bad
    with pytest.raises(NumericsError) as reference:
        eigenvalues_reference(tensor.copy())
    for work in (None, np.empty((6, 3, 4))):
        aliased = tensor.copy()
        with pytest.raises(NumericsError) as ours:
            eigenvalues_sym3(aliased, out=aliased[:3], work=work)
        assert str(ours.value) == str(reference.value)
