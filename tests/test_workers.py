"""Tests for how work is split between the caller and a worker thread."""

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import pytest

import euler_spectra.workers as workers_module
from euler_spectra.workers import _lanes, _slabs, _split_lanes, _worker

from conftest import fresh_worker


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


@pytest.mark.parametrize("n", [8, 10, 16, 26, 32, 42, 50, 64, 96, 128])
def test_slabs_are_equal_and_cover_the_grid(n):
    slabs = _slabs(n)
    planes = slabs[0].stop
    assert all(x.stop - x.start == planes for x in slabs)
    assert slabs[-1].stop == n
    assert [i for x in slabs for i in range(n)[x]] == list(range(n))


@pytest.mark.parametrize("n, planes", [
    (8, 8), (16, 16), (32, 16), (64, 8), (128, 8),  # powers of two
    (26, 13), (42, 7), (50, 5),  # the largest divisor below the target
])
def test_slab_planes(n, planes):
    assert _slabs(n)[0].stop == planes


@pytest.mark.parametrize("count", [1, 6, 7])
@pytest.mark.parametrize("with_worker", [False, True])
def test_every_part_runs_once(count, with_worker):
    calls = []
    with ThreadPoolExecutor(1) if with_worker else nullcontext() as worker:
        _split_lanes(worker, lambda part, lane: calls.append(part),
                     range(count))
    assert sorted(calls) == list(range(count))


@pytest.mark.parametrize("failing_lane", [0, 1])
def test_exception_on_either_lane_propagates(failing_lane):
    # The lane that raises stops at its first part; the other lane runs
    # all of its parts (the worker's are parts[0::2]) before the
    # exception leaves _split_lanes.
    calls = []

    def job(part, lane):
        calls.append((part, lane))
        if lane == failing_lane:
            raise RuntimeError(f"part {part} on lane {lane}")

    parts = range(7)
    with ThreadPoolExecutor(1) as worker:
        with pytest.raises(RuntimeError, match=f"on lane {failing_lane}"):
            _split_lanes(worker, job, parts)
    other = parts[1::2] if failing_lane == 1 else parts[0::2]
    assert sorted(p for p, lane in calls if lane != failing_lane) == list(
        other)
    assert len([p for p, lane in calls if lane == failing_lane]) == 1


def test_one_worker_per_process(monkeypatch):
    # The process's one executor, made at the first call that needs it,
    # for every grid that shares its work; None where none does.
    fresh_worker(monkeypatch)
    monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
    assert _worker(64) is None
    monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
    assert _worker(32) is None
    worker = _worker(64)
    assert isinstance(worker, ThreadPoolExecutor)
    assert worker._max_workers == 1
    assert _worker(64) is worker and _worker(128) is worker
    monkeypatch.setattr(workers_module, "_cpu_count", lambda: 1)
    assert _worker(64) is None

