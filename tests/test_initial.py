"""Tests for initial-condition generators and snapshot I/O.

The benchmark fields have closed-form energy, helicity, and enstrophy,
so the assertions here double as an end-to-end check of the quadratic
functionals.  Snapshot round trips must be bit-identical.
"""

import errno
import hashlib
import math
import struct

import numpy as np
import pytest

import euler_spectra.initial as initial_module
import euler_spectra.snapshot as snapshot_module
from euler_spectra.cli import EXIT_IO, main
from euler_spectra.config import InitSpec
from euler_spectra.deformation import AdmissibleClass
from euler_spectra.errors import ConfigurationError, SnapshotFormatError
from euler_spectra.fields import (
    curl,
    divergence_free_error,
    fft_forward,
    fft_inverse,
    leray_project,
)
from euler_spectra.grid import Grid
from euler_spectra.initial import (
    abc_flow,
    random_solenoidal,
    shear_flow,
    taylor_green,
)
from euler_spectra.snapshot import (
    MAGIC,
    fnv1a64,
    load_snapshot,
    write_snapshot,
    _HEADER,
)

from conftest import (
    classify_half_spectrum,
    coordinates,
    dealias_23,
    leray_reference,
    record_half_spectrum,
)

PI3 = math.pi ** 3


def classify(grid, v):
    """The sign class of ``v``, as the first record of a run gives it."""
    return classify_half_spectrum(grid, 0.0, v)[0]


class TestTaylorGreen:
    def test_quadratic_invariants(self, grid32):
        record = record_half_spectrum(grid32, 0.0, taylor_green(grid32))
        assert record.E == pytest.approx(PI3, rel=1e-13)
        assert abs(record.H) < 1e-12
        assert record.Z == pytest.approx(6.0 * PI3, rel=1e-13)

    def test_divergence_free(self, grid32):
        assert divergence_free_error(grid32, taylor_green(grid32)) < 1e-15

    def test_planar(self, grid16):
        v = fft_inverse(taylor_green(grid16))
        assert np.max(np.abs(v[2])) < 1e-15

    @pytest.mark.parametrize("n", [16, 64])
    def test_equals_meshgrid_construction(self, n):
        # Built from broadcast 1-D coordinates, the field is the one the
        # dense meshgrids of Grid.coordinates give, bit for bit.
        grid = Grid(n)
        x, y, z = coordinates(grid)
        u = np.stack((np.sin(x) * np.cos(y) * np.cos(z),
                      -np.cos(x) * np.sin(y) * np.cos(z), np.zeros_like(x)))
        expected = dealias_23(grid, leray_project(grid, fft_forward(u)))
        assert np.array_equal(taylor_green(grid), expected)

    def test_is_neither_class(self, grid32):
        c = classify(grid32, taylor_green(grid32))
        assert c.label == AdmissibleClass.NEITHER
        # Mirror symmetry makes the extrema of the middle eigenvalue
        # exactly opposite.
        assert c.min_lambda2 == pytest.approx(-c.max_lambda2, rel=1e-10)


class TestABCFlow:
    def test_quadratic_invariants(self, grid32):
        record = record_half_spectrum(grid32, 0.0, abc_flow(grid32))
        assert record.E == pytest.approx(12.0 * PI3, rel=1e-13)
        assert record.H == pytest.approx(24.0 * PI3, rel=1e-13)
        assert record.Z == pytest.approx(24.0 * PI3, rel=1e-13)

    def test_curl_eigenfunction(self, grid16):
        # ABC flow satisfies curl v = v exactly (Beltrami property).
        v = abc_flow(grid16)
        w = curl(grid16, v)
        for a, b in zip(w, v):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_coefficient_scaling(self, grid16):
        # E = (a^2 + b^2 + c^2) * 4 pi^3 for general coefficients.
        v = abc_flow(grid16, a=2.0, b=0.5, c=1.0)
        expected = (4.0 + 0.25 + 1.0) * 4.0 * PI3
        assert record_half_spectrum(grid16, 0.0, v).E == pytest.approx(
            expected, rel=1e-13)

    def test_is_neither_class(self, grid16):
        assert (classify(grid16, abc_flow(grid16)).label
                == AdmissibleClass.NEITHER)

    @pytest.mark.parametrize("n", [16, 64])
    def test_equals_meshgrid_construction(self, n):
        grid = Grid(n)
        x, y, z = coordinates(grid)
        a, b, c = 2.0, 0.5, 1.0
        u = np.stack((a * np.sin(z) + c * np.cos(y),
                      b * np.sin(x) + a * np.cos(z),
                      c * np.sin(y) + b * np.cos(x)))
        expected = dealias_23(grid, leray_project(grid, fft_forward(u)))
        assert np.array_equal(abc_flow(grid, a, b, c), expected)


class TestShearFlow:
    def test_enstrophy(self, grid16):
        record = record_half_spectrum(grid16, 0.0, shear_flow(grid16))
        assert record.E == pytest.approx(0.5 * 4.0 * PI3, rel=1e-13)
        assert record.Z == pytest.approx(4.0 * PI3, rel=1e-13)
        assert abs(record.H) < 1e-13

    def test_middle_eigenvalue_identically_zero(self, grid16):
        c = classify(grid16, shear_flow(grid16))
        assert c.label == AdmissibleClass.NEITHER
        assert abs(c.min_lambda2) < 1e-13
        assert abs(c.max_lambda2) < 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    def test_equals_meshgrid_construction(self, n):
        grid = Grid(n)
        _, y, _ = coordinates(grid)
        u = np.stack((np.sin(y), np.zeros_like(y), np.zeros_like(y)))
        expected = dealias_23(grid, leray_project(grid, fft_forward(u)))
        assert np.array_equal(shear_flow(grid), expected)


class TestRandomSolenoidal:
    def test_seed_reproducibility(self, grid16):
        a = random_solenoidal(grid16, seed=7)
        b = random_solenoidal(grid16, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self, grid16):
        a = random_solenoidal(grid16, seed=7)
        b = random_solenoidal(grid16, seed=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_energy_normalization(self, grid16):
        v = random_solenoidal(grid16, seed=3, amplitude=2.5)
        assert record_half_spectrum(grid16, 0.0, v).E == pytest.approx(
            2.5, rel=1e-12)

    def test_divergence_free_and_dealiased(self, grid16):
        v = random_solenoidal(grid16, seed=11)
        assert divergence_free_error(grid16, v) < 1e-14
        outside = ~grid16.dealias_mask
        for comp in v:
            assert np.max(np.abs(comp[outside])) == 0.0

    def test_peak_k_must_fit(self, grid16):
        # n=16 keeps |k| <= 5, so the spectral bump must sit below that.
        with pytest.raises(ConfigurationError, match="peak_k"):
            random_solenoidal(grid16, seed=1, peak_k=5.0)
        with pytest.raises(ConfigurationError, match="peak_k"):
            random_solenoidal(grid16, seed=1, peak_k=-1.0)

    def test_amplitude_must_be_positive(self, grid16):
        with pytest.raises(ConfigurationError, match="amplitude"):
            random_solenoidal(grid16, seed=1, amplitude=0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind",
                         ["taylor_green", "abc", "shear", "random_solenoidal"])
def test_in_place_finalize_matches_composition(kind, n, monkeypatch):
    # Projecting and cutting the built spectrum in place gives the
    # values of the out-of-place projection and dealias_23 it replaced.
    grid = Grid(n)
    spec = InitSpec(kind, a=2.0, b=0.5, seed=5)
    built = spec.build(grid)
    monkeypatch.setattr(initial_module, "_finalize",
                        lambda grid, vhat: dealias_23(
                            grid, leray_reference(grid, vhat)))
    assert np.array_equal(built, spec.build(grid))


class TestFNV1a:
    # Reference digests from the classic Fowler/Noll/Vo test vectors.
    VECTORS = [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ]

    def test_known_vectors(self):
        for data, want in self.VECTORS:
            assert fnv1a64(data) == want


def _x_fastest_payload(v):
    return np.ascontiguousarray(np.transpose(v, (0, 3, 2, 1)),
                                dtype="<f8").tobytes()


class _FullDisk:
    """File stand-in that fails halfway through the payload."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if data.nbytes > 40:
            self._fh.write(data[:data.nbytes // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)


class TestSnapshotIO:
    def test_round_trip_bit_identical(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "field.bin"
        write_snapshot(path, grid16, v, time=0.625)
        loaded, t, grid = load_snapshot(path)
        assert t == 0.625
        assert grid == grid16
        for a, b in zip(loaded, v):
            assert np.array_equal(a, b)

    def test_spectral_input_written_as_physical(self, grid16, tmp_path):
        vhat = taylor_green(grid16)
        path = tmp_path / "field.bin"
        write_snapshot(path, grid16, vhat, time=0.0)
        loaded, _, _ = load_snapshot(path)
        phys = fft_inverse(vhat)
        for a, b in zip(loaded, phys):
            assert np.array_equal(a, b)

    def test_layout_is_x_fastest(self, tmp_path):
        # Each component block starts with its value at the origin,
        # followed by its value at (dx, 0, 0): v1 right after the
        # 40-byte header, v2 and v3 after one and two blocks of 8 n^3.
        grid = Grid(8)
        n = grid.n
        x, y, z = coordinates(grid)
        marker = 100.0 * x + 10.0 * y + z
        v = np.stack((marker, marker + 1000.0, marker + 2000.0))
        path = tmp_path / "layout.bin"
        write_snapshot(path, grid, v, time=0.0)
        raw = path.read_bytes()
        for c, offset in enumerate((40, 40 + 8 * n ** 3, 40 + 16 * n ** 3)):
            first_two = np.frombuffer(raw[offset:offset + 16], dtype="<f8")
            assert first_two[0] == v[c, 0, 0, 0]
            assert first_two[1] == v[c, 1, 0, 0]
        # One step along y is n values further on.
        offset = 40 + 16 * n ** 3 + 8 * n
        assert np.frombuffer(raw[offset:offset + 8], "<f8")[0] == v[2, 0, 1, 0]

    def test_truncated_file(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "trunc.bin"
        write_snapshot(path, grid16, v, time=0.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-17])
        with pytest.raises(SnapshotFormatError, match="payload"):
            load_snapshot(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"EUL")
        with pytest.raises(SnapshotFormatError, match="header"):
            load_snapshot(path)

    def test_bad_magic(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "magic.bin"
        write_snapshot(path, grid16, v, time=0.0)
        raw = bytearray(path.read_bytes())
        raw[0:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot(path)

    def test_unsupported_version(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "version.bin"
        write_snapshot(path, grid16, v, time=0.0)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(path)

    def test_corrupted_payload_checksum(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "corrupt.bin"
        write_snapshot(path, grid16, v, time=0.0)
        raw = bytearray(path.read_bytes())
        raw[40 + 1000] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(path)

    def test_magic_constant(self):
        assert MAGIC == b"EULSPEC1"

    def test_version_2_header_and_checksum(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "field.bin"
        write_snapshot(path, grid16, v, time=0.25)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 8)[0] == 2
        digest = hashlib.blake2b(raw[:32] + raw[40:], digest_size=8)
        assert raw[32:40] == digest.digest()
        assert raw[40:] == _x_fastest_payload(v)

    def test_header_values_are_checksummed(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        good = tmp_path / "good.bin"
        write_snapshot(good, grid16, v, time=0.625)
        raw = good.read_bytes()
        time_bit = bytearray(raw)
        time_bit[16] ^= 0x01  # lowest mantissa bit of the time
        box_length = raw[:24] + struct.pack("<d", 7.0) + raw[32:]
        for name, data in (("time.bin", bytes(time_bit)),
                           ("length.bin", box_length)):
            bad = tmp_path / name
            bad.write_bytes(data)
            with pytest.raises(SnapshotFormatError, match="checksum"):
                load_snapshot(bad)
            assert main(["classify", str(bad)]) == EXIT_IO

    def test_reads_version_1(self, grid16, tmp_path):
        v = fft_inverse(taylor_green(grid16))
        payload = _x_fastest_payload(v)
        header = _HEADER.pack(MAGIC, 1, grid16.n, 0.625, grid16.length,
                              fnv1a64(payload))
        path = tmp_path / "v1.bin"
        path.write_bytes(header + payload)
        loaded, t, grid = load_snapshot(path)
        assert t == 0.625
        assert grid == grid16
        assert np.array_equal(loaded, v)

        corrupt = bytearray(header + payload)
        corrupt[40 + 1000] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(path)

    def test_failed_write_keeps_previous_file(self, grid16, tmp_path,
                                              monkeypatch):
        v = fft_inverse(taylor_green(grid16))
        path = tmp_path / "field.bin"
        write_snapshot(path, grid16, v, time=0.625)
        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module, "open",
                          lambda *args: _FullDisk(open(*args)),
                          raising=False)
            with pytest.raises(OSError, match="No space left"):
                write_snapshot(path, grid16, 2.0 * v, time=1.25)
        loaded, t, _ = load_snapshot(path)
        assert t == 0.625
        assert np.array_equal(loaded, v)
        assert [p.name for p in tmp_path.iterdir()] == ["field.bin"]
