"""When work on a grid shares one worker thread, how it is split, and
the blocks its buffers are carved from.

A band step (:mod:`euler_spectra.solver`), a diagnostics record
(:mod:`euler_spectra.diagnostics`) and the per-snapshot transforms of
``diagnose`` (:mod:`euler_spectra.envelopes`) hand part of their work to
one worker thread on a grid with n >= ``_THREADED_MIN_N`` when the
process may run on two CPUs or more.  The decision is made here alone;
no setting selects it.  The work handed over is numpy transforms and
ufuncs, which release the interpreter lock.

The process has one worker, a one-thread executor that
:func:`_worker` makes on the first call that needs it; its thread starts
at the first job handed to it, never at import.  Steps, records and
``diagnose`` ask :func:`_worker` for it and never shut it down: it idles
between jobs, and Python joins it at exit.

Two rules keep glibc's malloc from raising the peak RSS or faulting
pages in again, and every module that hands work to a worker follows
them:

- The calling thread allocates the arrays a worker writes into, because
  arrays a worker allocates land in a malloc arena of its own.
- A band step, a diagnostics record and ``diagnose``'s pass take their
  scratch buffers of grid or slab size as views of one block
  (:func:`_carve`).
  glibc gives a freed block above its mmap threshold back to the OS and
  raises the threshold to that block's size (up to 32 MB), so from the
  second step on a step's block comes from pages that stay mapped,
  where a dozen arrays would each be mapped and faulted in again.  A
  step's block lives for one step and a record carves its own, because
  a block that is never freed would keep the threshold low and every
  other array of grid size would be mapped again.  ``diagnose`` holds
  one block for its whole pass, and lends its records their tensor and
  scratch from it, so that they carve no block of their own.
- Work just before a block above the mmap threshold frees little of
  grid size into the heap.  The block is mapped afresh rather than
  served from the freed heap pages, which stay resident under it, so
  the peak would be that garbage plus the block.  The start CFL sample
  of a run, just before its first record, holds no physical field for
  this reason (:func:`euler_spectra.fields._band_max_speed`).
"""

import functools
import math
import os

import numpy as np

# Smallest grid whose work shares a worker thread.  Below it a step and
# a record ran slower on two threads than on one on a 2-CPU host: the
# hand-offs cost more than the transforms they share (CHANGES.md and
# the BENCH_*.json files hold the timings).
_THREADED_MIN_N = 64


# A slab of pointwise work (a record's eigensolve and integrands, the
# physical fields of a band step, the transport term and the time
# derivative of ``diagnose``) aims at _SLAB_PLANES x planes or more and
# _SLAB_POINTS points or more: small enough that its temporaries stay
# in cache, large enough that numpy's cost per call does not dominate
# (CHANGES.md and the BENCH_*.json files hold the timings).  On a grid
# whose n that target does not divide, a slab holds fewer (_slabs).
_SLAB_PLANES = 8
_SLAB_POINTS = 16384


def _slabs(n: int) -> list:
    """The x slabs of an n-point grid, as slices of the x axis.  Every
    slab holds the same number of planes, the largest divisor of n that
    is not above the target of the limits above, so that a buffer of one
    slab fits every slab on any grid a :class:`~euler_spectra.grid.Grid`
    allows."""
    target = min(n, max(_SLAB_PLANES, _SLAB_POINTS // (n * n)))
    planes = max(d for d in range(1, target + 1) if n % d == 0)
    return [slice(start, start + planes) for start in range(0, n, planes)]


def _threaded(n: int) -> bool:
    """Whether work on an n-point grid uses a worker thread."""
    return n >= _THREADED_MIN_N and _cpu_count() >= 2


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _worker(n: int):
    """The process's one-thread executor for work on an n-point grid, or
    None when :func:`_threaded` says no."""
    return _executor() if _threaded(n) else None


@functools.cache
def _executor():
    # Imported here: ~3 ms that no command without threaded work, and no
    # import of the package, should pay.
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="euler_spectra")


def _lanes(worker) -> int:
    """The threads :func:`_split_lanes` runs jobs on: 2 with a worker,
    else 1."""
    return 1 if worker is None else 2


def _each(job, parts, lane):
    for part in parts:
        job(part, lane)


def _split_lanes(worker, job, parts):
    """Call ``job(part, lane)`` for every part of the sequence ``parts``.

    ``lane`` is the thread that runs the call: 0 for the calling thread,
    1 for the worker.  With a worker, it takes ``parts[0::2]`` and the
    calling thread ``parts[1::2]``; without one, the calling thread
    takes them all, in order.  A job that writes into one of
    ``_lanes(worker)`` buffers picks it by ``lane``.  Returns when every
    call has returned; an exception raised on either thread propagates.
    """
    if worker is None:
        _each(job, parts, 0)
        return
    done = worker.submit(_each, job, parts[0::2], 1)
    try:
        _each(job, parts[1::2], 0)
    finally:
        done.result()


def _split(worker, job, parts):
    """Call ``job(part)`` for every part of ``parts``, split between the
    threads as :func:`_split_lanes` splits them."""
    _split_lanes(worker, lambda part, lane: job(part), parts)


def _carve(*specs, block=None) -> list:
    """Arrays of the given ``(shape, dtype)`` specs, as views of one
    uint8 ``block`` that share no byte, each starting at a multiple of
    64 bytes into it.  By default the block is a new ``np.empty`` of
    ``_carved_size(*specs)`` bytes, allocated by the calling thread."""
    if block is None:
        block = np.empty(_carved_size(*specs), np.uint8)
    start, views = 0, []
    for shape, dtype in specs:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(block[start:start + size].view(dtype).reshape(shape))
        start += -(-size // 64) * 64
    return views


def _carved_size(*specs) -> int:
    """The bytes :func:`_carve` takes for ``specs``."""
    return sum(-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
               for shape, dtype in specs)
