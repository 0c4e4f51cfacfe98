"""Tests for how work is split between the caller and a worker thread."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from euler_spectra.workers import _lanes, _slabs, _split_lanes


@pytest.mark.parametrize("with_worker", [False, True])
def test_each_lane_is_one_thread(with_worker):
    # A job that picks its buffer by lane must never share it with the
    # other thread: every lane runs on one thread, the caller's lane 0.
    calls = []

    def job(part, lane):
        calls.append((part, lane, threading.get_ident()))

    if with_worker:
        with ThreadPoolExecutor(1) as worker:
            _split_lanes(worker, job, range(7))
    else:
        worker = None
        _split_lanes(worker, job, range(7))
    assert sorted(part for part, _, _ in calls) == list(range(7))
    threads = {}
    for _, lane, ident in calls:
        threads.setdefault(lane, set()).add(ident)
    assert sorted(threads) == list(range(_lanes(worker)))
    assert threads[0] == {threading.get_ident()}
    assert all(len(idents) == 1 for idents in threads.values())
    assert len(set.union(*threads.values())) == _lanes(worker)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_slabs_are_equal_and_cover_the_grid(n):
    slabs = _slabs(n)
    planes = slabs[0].stop
    assert all(x.stop - x.start == planes for x in slabs)
    assert [i for x in slabs for i in range(n)[x]] == list(range(n))
