"""Binary velocity snapshots with integrity checking.

Format (little-endian throughout)::

    offset  size  field
    0       8     magic "EULSPEC1"
    8       4     u32 format version (currently 1)
    12      4     u32 grid size n
    16      8     f64 simulation time
    24      8     f64 box edge length
    32      8     u64 FNV-1a hash of the payload bytes
    40      -     payload: 3 * n^3 f64 values, components v1, v2, v3,
                  each stored x-fastest (index order iz, iy, ix)

In memory the velocity is a ``(3, n, n, n)`` array indexed
``[component, ix, iy, iz]``; the payload is that array with its three
space axes reversed.

The payload is always physical-space velocity.  FNV-1a is fast, has no
external dependencies, and detects the truncation/corruption failure
modes that matter for checkpoint files; it is not a cryptographic hash.
"""

import math
import struct

import numpy as np

from euler_spectra.errors import SnapshotFormatError
from euler_spectra.fields import check_velocity, fft_inverse
from euler_spectra.grid import Grid

MAGIC = b"EULSPEC1"
VERSION = 1
_HEADER = struct.Struct("<8sIIddQ")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64_python(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


try:
    import numba

    @numba.njit(cache=True)
    def _fnv1a64_numba(data):  # pragma: no cover - thin jit wrapper
        h = numba.uint64(0xCBF29CE484222325)
        prime = numba.uint64(0x100000001B3)
        for i in range(data.size):
            h = numba.uint64(h ^ numba.uint64(data[i]))
            h = numba.uint64(h * prime)
        return h

    def fnv1a64(data) -> int:
        """FNV-1a 64-bit hash of a bytes-like object."""
        arr = np.frombuffer(data, dtype=np.uint8)
        return int(_fnv1a64_numba(arr))

except ImportError:  # pragma: no cover - exercised only without numba
    def fnv1a64(data) -> int:
        """FNV-1a 64-bit hash of a bytes-like object."""
        return _fnv1a64_python(bytes(data))


# Axis order that turns [component, ix, iy, iz] into x-fastest storage;
# it is its own inverse.
_STORAGE_AXES = (0, 3, 2, 1)


def _payload_bytes(v: np.ndarray) -> bytes:
    ordered = np.transpose(v, _STORAGE_AXES)
    return np.ascontiguousarray(ordered, dtype="<f8").tobytes()


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
    payload = _payload_bytes(v)
    header = _HEADER.pack(MAGIC, VERSION, grid.n, float(time),
                          grid.length, fnv1a64(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_snapshot(path):
    """Read a snapshot back as (physical velocity, time, grid).

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
    if version != VERSION:
        raise SnapshotFormatError(
            f"version: unsupported format version {version}")
    if n < 8 or n % 2 != 0:
        raise SnapshotFormatError(f"grid size: invalid n={n}")
    if not math.isfinite(time):
        raise SnapshotFormatError(f"time: not a finite number ({time})")
    if not (math.isfinite(length) and length > 0.0):
        raise SnapshotFormatError(
            f"box length: must be positive and finite, got {length}")
    payload = raw[_HEADER.size:]
    expected = 3 * n ** 3 * 8
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"payload: expected {expected} bytes for n={n}, got {len(payload)}")
    actual = fnv1a64(payload)
    if actual != checksum:
        raise SnapshotFormatError(
            f"checksum: stored {checksum:#018x} != computed {actual:#018x}")

    grid = Grid(int(n), float(length))
    stored = np.frombuffer(payload, dtype="<f8").reshape(3, n, n, n)
    v = np.ascontiguousarray(np.transpose(stored, _STORAGE_AXES))
    return v, float(time), grid
