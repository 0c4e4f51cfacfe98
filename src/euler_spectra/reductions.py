"""Deterministic floating-point reductions.

Summing a large array with a data-dependent or thread-dependent order
makes integrals differ between otherwise identical runs.  Everything in
this package that reduces a grid to a number funnels through
:func:`pairwise_sum`, which uses a fixed halving order independent of
platform SIMD width or thread count, or through
:func:`_pairwise_sum_owned`, the same fold on an array the caller can
spare.
"""

import numpy as np


def pairwise_sum(values) -> float:
    """Sum an array in a fixed pairwise order.

    The input is flattened in C order, zero-padded to the next power of
    two, and repeatedly folded in half, in place on one working copy;
    the result is bit-reproducible for a given input regardless of
    BLAS/SIMD configuration, and carries the usual O(log n) pairwise
    error growth.

    Parameters
    ----------
    values : array_like
        Real values to reduce.

    Returns
    -------
    float
        The pairwise sum as a Python float.
    """
    a = np.asarray(values, dtype=np.float64).ravel(order="C")
    if a.size & (a.size - 1) == 0:  # no padding, which would copy it
        a = a.copy()
    return _pairwise_sum_owned(a)


def _pairwise_sum_owned(values: np.ndarray) -> float:
    """:func:`pairwise_sum` of a float64 array the caller can spare: a
    C-contiguous one whose size is a power of two is folded in place,
    with no copy, and is left holding partial sums."""
    a = values.reshape(-1)
    if a.size == 0:
        return 0.0
    size = 1 << int(np.ceil(np.log2(a.size)))
    if size != a.size:
        padded = np.zeros(size, dtype=np.float64)
        padded[: a.size] = a
        a = padded
    while a.size > 1:
        half = a.size // 2
        a = np.add(a[:half], a[half:], out=a[:half])
    return float(a[0])
