"""Binary velocity snapshots with integrity checking.

Format (little-endian throughout)::

    offset  size  field
    0       8     magic "EULSPEC1"
    8       4     u32 format version (2)
    12      4     u32 grid size n
    16      8     f64 simulation time
    24      8     f64 box edge length
    32      8     u64 BLAKE2b-64 of bytes 0-31, then of the payload
    40      -     payload: 3 * n^3 f64 values, components v1, v2, v3,
                  each stored x-fastest (index order iz, iy, ix)

In memory the velocity is a ``(3, n, n, n)`` array indexed
``[component, ix, iy, iz]``; the payload is that array with its three
space axes reversed.  The payload is always physical-space velocity.

Only version 2 is written.  Version 1 files, whose checksum is FNV-1a
over the payload alone, are still read.  Writes go through a sibling
temporary file, so a failed write leaves the target as it was.
"""

import contextlib
import math
import os
import struct

import numpy as np

from euler_spectra.errors import SnapshotFormatError
from euler_spectra.fields import check_velocity, fft_inverse
from euler_spectra.grid import Grid

MAGIC = b"EULSPEC1"
VERSION = 2
_HEADER = struct.Struct("<8sIIddQ")
_PREFIX = struct.Struct("<8sIIdd")  # the header before its checksum

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data) -> int:
    """FNV-1a 64-bit hash of a bytes-like object (the version 1 checksum)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def blake2b64(prefix, payload) -> int:
    """Version 2 checksum: 8-byte BLAKE2b of ``prefix`` then ``payload``."""
    # Imported here: its OpenSSL bindings cost a command that writes or
    # reads no snapshot memory and import time.
    import hashlib
    digest = hashlib.blake2b(digest_size=8)
    digest.update(prefix)
    digest.update(payload)
    return int.from_bytes(digest.digest(), "little")


@contextlib.contextmanager
def replace_on_success(path, mode="wb"):
    """Open a sibling temporary file that replaces ``path`` once closed.

    If the body raises, the temporary file is removed and ``path`` is
    left as it was.
    """
    temporary = os.fspath(path) + ".tmp"
    try:
        with open(temporary, mode) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


# Axis order that turns [component, ix, iy, iz] into x-fastest storage;
# it is its own inverse.
_STORAGE_AXES = (0, 3, 2, 1)


def write_snapshot(path, grid: Grid, v: np.ndarray, time: float) -> None:
    """Write a velocity on ``grid``.

    Takes a physical ``(3, n, n, n)`` or a spectral (complex128,
    ``(3, n, n, n//2 + 1)``) velocity; spectral inputs are transformed
    to physical space first.

    Raises
    ------
    ContractViolationError
        If ``v`` is not a float64 or complex128 velocity on ``grid``.
    """
    check_velocity(grid, v)
    if np.iscomplexobj(v):
        v = fft_inverse(v)
    payload = np.ascontiguousarray(np.transpose(v, _STORAGE_AXES),
                                   dtype="<f8")
    prefix = _PREFIX.pack(MAGIC, VERSION, grid.n, float(time), grid.length)
    with replace_on_success(path) as fh:
        fh.write(prefix)
        fh.write(blake2b64(prefix, payload).to_bytes(8, "little"))
        fh.write(payload)


def load_snapshot(path):
    """Read a snapshot back as (physical velocity, time, grid).

    Reads format versions 1 and 2.

    Raises
    ------
    SnapshotFormatError
        Naming the offending field, on a bad magic, unsupported
        version, invalid grid size, time or box length, truncated
        payload, or checksum mismatch.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(
            f"header: file holds {len(raw)} bytes, need {_HEADER.size}")
    magic, version, n, time, length, checksum = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise SnapshotFormatError(f"magic: expected {MAGIC!r}, got {magic!r}")
    if version not in (1, VERSION):
        raise SnapshotFormatError(
            f"version: unsupported format version {version}")
    if n < 8 or n % 2 != 0:
        raise SnapshotFormatError(f"grid size: invalid n={n}")
    if not math.isfinite(time):
        raise SnapshotFormatError(f"time: not a finite number ({time})")
    if not (math.isfinite(length) and length > 0.0):
        raise SnapshotFormatError(
            f"box length: must be positive and finite, got {length}")
    view = memoryview(raw)
    payload = view[_HEADER.size:]
    expected = 3 * n ** 3 * 8
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"payload: expected {expected} bytes for n={n}, got {len(payload)}")
    if version == 1:
        actual = fnv1a64(payload)
    else:
        actual = blake2b64(view[:_PREFIX.size], payload)
    if actual != checksum:
        raise SnapshotFormatError(
            f"checksum: stored {checksum:#018x} != computed {actual:#018x}")

    grid = Grid(int(n), float(length))
    stored = np.frombuffer(payload, dtype="<f8").reshape(3, n, n, n)
    v = np.ascontiguousarray(np.transpose(stored, _STORAGE_AXES))
    return v, float(time), grid
