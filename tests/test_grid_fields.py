"""Tests for the grid, transforms, and spectral operators.

Covers:
- FFT round trips and forward normalization (DC coefficient = mean)
- spectral derivatives against hand-differentiated trigonometric fields
- curl, solenoidal projection (idempotency, Helmholtz split), dealiasing
- domain integrals and the deterministic pairwise reduction
"""

import math

import numpy as np
import pytest

from euler_spectra.errors import ConfigurationError, ContractViolationError
from euler_spectra.grid import Band, Grid
from euler_spectra.fields import (
    _band_pad_inverse_x,
    _curl_component,
    band_inverse,
    curl,
    divergence_free_error,
    fft_forward,
    fft_inverse,
    integrate_domain,
    leray_project,
    magnitude_squared,
)
from euler_spectra.reductions import _pairwise_sum_owned, pairwise_sum
from euler_spectra.snapshot import write_snapshot
from euler_spectra.solver import SolverConfig, run

from conftest import (
    coordinates,
    dealias_23,
    leray_reference,
    make_random_velocity,
    max_speed,
    scatter,
    spectral_derivative,
)

TAU = 2.0 * math.pi


class TestGrid:
    def test_basic_tables(self, grid16):
        g = grid16
        assert g.n == 16
        assert g.dx == pytest.approx(TAU / 16)
        assert g.volume == pytest.approx(TAU ** 3)
        assert g.cell_volume == pytest.approx((TAU / 16) ** 3)
        # FFT layout: 0, 1, ..., 7, -8, -7, ..., -1
        assert g.freq[0] == 0.0
        assert g.freq[1] == 1.0
        assert g.freq[8] == -8.0
        assert g.freq[-1] == -1.0

    def test_nyquist_zeroed_only_in_derivative_table(self, grid16):
        g = grid16
        assert g.k_deriv_x[8, 0, 0] == 0.0
        assert g.k_true_x[8, 0, 0] == -8.0
        # all non-Nyquist entries agree
        mask = np.ones(16, dtype=bool)
        mask[8] = False
        assert np.array_equal(g.k_deriv_x[mask, 0, 0], g.k_true_x[mask, 0, 0])

    def test_dealias_mask_counts(self, grid8):
        # n=8 keeps |k| <= 2 per axis: 5 of 8 modes, 125 of 512 total.
        # The half spectrum stores kz = 0, 1, 2 of them; weighting the
        # kz = 1, 2 planes twice counts their omitted conjugates.
        keep = grid8.dealias_mask
        assert keep.shape == (8, 8, 5)
        assert np.sum(grid8.parseval_weight * keep) == 5 ** 3
        assert grid8.dealias_limit == 2

    def test_half_spectrum_tables(self, grid8):
        # The z tables are the full-axis tables cut to kz = 0..n/2.
        g = grid8
        assert np.array_equal(g.freq_z, g.freq[:5])
        assert g.k_deriv_z.shape == g.k_true_z.shape == (1, 1, 5)
        assert np.array_equal(g.k_true_z.ravel(), g.k_true_x.ravel()[:5])
        assert g.k_deriv_z[0, 0, 4] == 0.0
        assert np.array_equal(g.parseval_weight.ravel(), [1, 2, 2, 2, 1])
        assert g.k_squared.shape == g.mode_radius().shape == (8, 8, 5)

    def test_holds_no_half_spectrum_table(self):
        # The tables of the whole half spectrum are built when read, so
        # that a grid costs no memory through a run or a diagnose.
        grid = Grid(64)
        assert grid.spectral_shape == (64, 64, 33)
        held = [value for value in vars(grid).values()
                if isinstance(value, np.ndarray)]
        assert held and all(value.size <= 64 for value in held)
        assert grid.k_squared.shape == grid.dealias_mask.shape == (64, 64, 33)
        assert grid.k_squared_safe[0, 0, 0] == 1.0
        assert grid.k_squared[0, 0, 0] == 0.0

    @pytest.mark.parametrize("n", [16, 26, 64, 74])
    @pytest.mark.parametrize("nyquist_free", [False, True])
    def test_band_tables_are_the_grid_tables_cut(self, n, nyquist_free):
        # A band forms its |k|^2 tables from its own wavenumbers; they
        # are the grid's tables cut to the band, bit for bit.
        grid = Grid(n)
        band = Band(grid, n // 2 - 1 if nyquist_free else None)
        m = band.m
        assert band.spectral_shape == (2 * m + 1, 2 * m + 1, m + 1)
        for name in ("k_squared", "k_squared_safe"):
            table, cut = getattr(band, name), getattr(grid, name)[band.index]
            assert table.shape == cut.shape == band.spectral_shape
            assert table.tobytes() == cut.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Grid(6)
        with pytest.raises(ConfigurationError):
            Grid(9)
        with pytest.raises(ConfigurationError):
            Grid(16, length=0.0)
        with pytest.raises(ConfigurationError):
            Grid("16")

    def test_coordinates_range(self, grid8):
        X, Y, Z = coordinates(grid8)
        assert X[0, 0, 0] == 0.0
        assert X[-1, 0, 0] == pytest.approx(TAU - grid8.dx)
        assert Y[0, -1, 0] == pytest.approx(TAU - grid8.dx)
        assert Z[3, 5, 2] == pytest.approx(2 * grid8.dx)


class TestTransforms:
    def test_round_trip(self, grid16, rng):
        values = rng.standard_normal((16, 16, 16))
        back = fft_inverse(fft_forward(values))
        assert np.max(np.abs(back - values)) < 1e-12

    def test_forward_normalization_mean(self, grid16, rng):
        values = rng.standard_normal((16, 16, 16)) + 3.5
        fhat = fft_forward(values)
        assert fhat[0, 0, 0] == pytest.approx(values.mean(), rel=1e-13)

    def test_cosine_coefficients(self, grid16):
        X, _, _ = coordinates(grid16)
        fhat = fft_forward(np.cos(X))
        # cos(x) = (e^{ix} + e^{-ix})/2 -> coefficients 1/2 at k = +/-1
        assert fhat[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert fhat[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        other = fhat.copy()
        other[1, 0, 0] = other[-1, 0, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_parseval(self, grid16, rng):
        values = rng.standard_normal((16, 16, 16))
        fhat = fft_forward(values)
        lhs = integrate_domain(grid16, values ** 2)
        rhs = grid16.volume * np.sum(grid16.parseval_weight
                                     * np.abs(fhat) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_forward_is_half_of_full_spectrum(self, grid16, rng):
        # The stored modes are exactly the kz >= 0 half of numpy's full
        # complex transform, for scalar and stacked fields alike.
        for shape in ((16, 16, 16), (3, 16, 16, 16)):
            values = rng.standard_normal(shape)
            full = np.fft.fftn(values, axes=(-3, -2, -1), norm="forward")
            half = fft_forward(values)
            assert half.shape == shape[:-1] + (9,)
            assert np.max(np.abs(half - full[..., :9])) < 1e-15

    def test_batched_transform_matches_components(self, grid16, rng):
        # One call over a stacked (3, n, n, n) field must give exactly
        # what three scalar transforms give.
        v = rng.standard_normal((3, 16, 16, 16))
        vhat = fft_forward(v)
        for c in range(3):
            assert np.array_equal(vhat[c], fft_forward(v[c]))
            assert np.array_equal(fft_inverse(vhat)[c], fft_inverse(vhat[c]))

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_band_limited_inverse_matches_reference(self, n, rng):
        grid = Grid(n)
        band = Band(grid)
        coeffs = dealias_23(grid, fft_forward(rng.standard_normal(
            (3, n, n, n))))
        ref = np.fft.irfftn(coeffs, s=(n,) * 3, axes=(-3, -2, -1),
                            norm="forward")
        values = band_inverse(band, band.restrict(coeffs))
        assert np.max(np.abs(values - ref)) <= 1e-15 * np.max(np.abs(ref))
        # The same bytes as the half spectrum's transform, one component
        # or three at a time.
        assert np.array_equal(values, fft_inverse(coeffs))
        assert np.array_equal(band_inverse(band, band.restrict(coeffs[1])),
                              values[1])

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_band_pad_zeroes_only_off_the_band(self, n, lead, rng):
        # The pad zeroes the rows outside the band and copies the band
        # in by blocks; a buffer that held NaN must come out as the
        # whole-buffer zeroing and fancy-index scatter leave it.
        band = Band(Grid(n))
        m = band.m
        shape = lead + (2 * m + 1, 2 * m + 1, m + 1)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.zeros(lead + (n, n, m + 1), np.complex128)
        expected[band.index] = coeffs
        for y_rows in band.halves:
            lines = expected[..., y_rows, :]
            np.fft.ifft(lines, axis=-3, norm="forward", out=lines)
        work = np.full(expected.shape, np.nan, np.complex128)
        _band_pad_inverse_x(band, coeffs, work)
        assert work.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_out_of_band_mode_takes_full_path(self, n, rng):
        # One mode just outside the 2/3-rule band on each axis in turn:
        # the full inverse must carry it, on whichever axis it lies.
        grid = Grid(n)
        coeffs = dealias_23(grid, fft_forward(rng.standard_normal(
            (n, n, n))))
        k = n // 3 + 1
        for index in ((k, 0, 0), (-k, 1, 0), (0, k, 0), (2, -k, 1),
                      (0, 0, k), (1, 1, k)):
            single = coeffs.copy()
            single[index] = 0.25 - 0.5j
            ref = np.fft.irfftn(single, s=(n,) * 3, axes=(-3, -2, -1),
                                norm="forward")
            assert np.max(np.abs(fft_inverse(single) - ref)) \
                <= 1e-15 * np.max(np.abs(ref)), index

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("operator", [curl, leray_project])
    def test_band_blocks_match_full_path(self, n, operator, rng):
        # A per-mode operator on the band tables of a compact spectrum
        # gives the kept modes of the full-layout result bit for bit,
        # whatever the full spectrum holds outside the band.
        grid = Grid(n)
        band = Band(grid)
        v = dealias_23(grid, fft_forward(rng.standard_normal((3, n, n, n))))
        noise = fft_forward(rng.standard_normal((3, n, n, n)))
        noisy = np.where(grid.dealias_mask, v, noise)
        banded = scatter(band, operator(band, band.restrict(v)))
        assert np.array_equal(banded, dealias_23(grid, operator(grid, noisy)))
        assert not banded[..., ~grid.dealias_mask].any()

    def test_mismatched_shapes_rejected(self, grid8, tmp_path):
        # The velocity check shared by solver.run and write_snapshot.
        path = tmp_path / "bad.bin"
        for bad in (np.zeros((3, 8, 8, 4)),              # wrong space shape
                    np.zeros((8, 8, 8)),                 # scalar, not vector
                    np.zeros((3, 16, 16, 16)),           # another grid
                    np.zeros((3, 8, 8, 8), np.float32),  # wrong dtype
                    np.zeros((3, 8, 8, 5)),              # half shape, real
                    np.zeros((3, 8, 8, 8), np.complex128),   # full spectrum
                    np.zeros((3, 5, 5, 3), np.complex128)):  # compact band
            with pytest.raises(ContractViolationError):
                run(grid8, bad, SolverConfig(dt=1e-3, t_final=0.0))
            with pytest.raises(ContractViolationError):
                write_snapshot(path, grid8, bad, 0.0)
            assert not path.exists()


class TestDerivatives:
    @pytest.mark.parametrize("layout", ["grid", "band"])
    def test_curl_component_with_slab_scratch(self, layout):
        # The subtracted product is formed one x-slab of the scratch's
        # rows at a time, the last slab shorter where the rows do not
        # divide the component's (a band's 2m+1 = 21 rows at n=32); every
        # scratch gives the bits of the whole-component expression.
        grid = Grid(32)
        band = Band(grid)
        v = make_random_velocity(grid, np.random.default_rng(32))
        space, v = (band, band.restrict(v)) if layout == "band" else (grid,
                                                                       v)
        k = (space.k_deriv_x, space.k_deriv_y, space.k_deriv_z)
        rows = len(v[0])
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            expected = 1j * (k[j] * v[l] - k[l] * v[j])
            assert curl(space, v)[i].tobytes() == expected.tobytes()
            for scratch_rows in (1, 5, 8, rows):
                out = np.empty_like(v[i])
                work = np.empty((scratch_rows,) + v.shape[2:], np.complex128)
                _curl_component(space, v, i, out, work=work)
                assert out.tobytes() == expected.tobytes(), scratch_rows

    def test_single_mode(self, grid16):
        _, _, Z = coordinates(grid16)
        f = fft_forward(np.sin(4.0 * Z))
        df = fft_inverse(spectral_derivative(grid16, f, 2))
        assert np.max(np.abs(df - 4.0 * np.cos(4.0 * Z))) < 1e-12

    def test_product_field(self, grid32):
        X, Y, _ = coordinates(grid32)
        f = fft_forward(np.sin(X) * np.cos(2 * Y))
        dfy = fft_inverse(spectral_derivative(grid32, f, 1))
        exact = -2.0 * np.sin(X) * np.sin(2 * Y)
        assert np.max(np.abs(dfy - exact)) < 1e-12

    def test_derivative_kills_constants(self, grid8):
        f = fft_forward(np.full((8, 8, 8), 7.0))
        for axis in range(3):
            df = spectral_derivative(grid8, f, axis)
            assert np.max(np.abs(df)) == 0.0

    def test_curl_of_beltrami_field(self, grid16):
        # (sin z, cos z, 0) has curl equal to itself.
        _, _, Z = coordinates(grid16)
        v = np.stack((np.sin(Z), np.cos(Z), np.zeros_like(Z)))
        vhat = fft_forward(v)
        w = curl(grid16, vhat)
        for wc, vc in zip(w, vhat):
            assert np.max(np.abs(wc - vc)) < 1e-13

    def test_curl_of_gradient_vanishes(self, grid16, rng):
        phi = fft_forward(rng.standard_normal((16,) * 3))
        gradient = np.stack([spectral_derivative(grid16, phi, a)
                             for a in range(3)])
        w = curl(grid16, gradient)
        scale = max(np.max(np.abs(c)) for c in gradient)
        assert max(np.max(np.abs(c)) for c in w) < 1e-13 * scale


class TestLerayProjection:
    def test_removes_gradient_part(self, grid16):
        X, Y, _ = coordinates(grid16)
        # Helmholtz-decomposable field: (cos x + sin y, 0, 0).
        # grad part: (cos x, 0, 0); solenoidal part: (sin y, 0, 0).
        v = fft_forward(np.stack(
            (np.cos(X) + np.sin(Y), np.zeros_like(X), np.zeros_like(X))))
        p = fft_inverse(leray_project(grid16, v))
        assert np.max(np.abs(p[0] - np.sin(Y))) < 1e-13
        assert np.max(np.abs(p[1])) < 1e-13
        assert np.max(np.abs(p[2])) < 1e-13

    def test_idempotent_to_rounding(self, grid16, rng):
        v = fft_forward(rng.standard_normal((3, 16, 16, 16)))
        once = leray_project(grid16, v)
        twice = leray_project(grid16, once)
        scale = max(np.max(np.abs(a)) for a in once)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a - b)) < 1e-15 * scale

    def test_output_divergence_free(self, grid16, rng):
        v = fft_forward(rng.standard_normal((3, 16, 16, 16)))
        assert divergence_free_error(grid16, leray_project(grid16, v)) < 1e-14

    def test_fixes_solenoidal_fields(self, grid16, rng):
        v = make_random_velocity(grid16, rng)
        p = leray_project(grid16, v)
        for a, b in zip(v, p):
            assert np.max(np.abs(a - b)) < 1e-15

    @pytest.mark.parametrize("n", [16, 64])
    def test_buffers_keep_the_values(self, n, rng):
        # Into out=, in place, with caller-owned temporaries, and on an
        # x half of a compact spectrum: the values of the expression.
        grid = Grid(n)
        band = Band(grid)
        v = fft_forward(rng.standard_normal((3, n, n, n)))
        expected = leray_reference(grid, v)
        assert np.array_equal(leray_project(grid, v), expected)
        work = np.empty((2,) + v.shape[1:], np.complex128)
        same = v.copy()
        assert leray_project(grid, same, out=same, work=work) is same
        assert np.array_equal(same, expected)
        compact = band.restrict(v)
        halves = np.empty_like(compact)
        for half in band.x_halves:
            leray_project(half, compact[:, half.rows],
                          out=halves[:, half.rows])
        assert np.array_equal(halves, band.restrict(expected))

    def test_preserves_mean_flow(self, grid8):
        v = np.stack((np.full((8,) * 3, 2.0), np.zeros((8,) * 3),
                      np.full((8,) * 3, -1.0)))
        p = leray_project(grid8, fft_forward(v))
        assert p[0][0, 0, 0] == pytest.approx(2.0)
        assert p[2][0, 0, 0] == pytest.approx(-1.0)


class TestDealiasing:
    def test_mode_beyond_limit_removed(self, grid8):
        # n=8 keeps |k| <= 2, so a k=3 mode must vanish; retained modes
        # keep their (rounding-noise) coefficients bitwise.
        X, _, _ = coordinates(grid8)
        f = fft_forward(np.cos(3.0 * X))
        assert abs(f[3, 0, 0]) > 0.49
        cut = dealias_23(grid8, f)
        assert cut[3, 0, 0] == 0.0
        assert cut[5, 0, 0] == 0.0  # k = -3 slot
        expected = np.where(grid8.dealias_mask, f, 0.0)
        assert np.array_equal(cut, expected)

    def test_mode_at_limit_survives(self, grid8):
        X, _, _ = coordinates(grid8)
        f = fft_forward(np.cos(2.0 * X))
        cut = dealias_23(grid8, f)
        assert cut[2, 0, 0] == f[2, 0, 0]
        assert abs(cut[2, 0, 0]) > 0.49
        assert cut[6, 0, 0] == f[6, 0, 0]  # k = -2 slot
        expected = np.where(grid8.dealias_mask, f, 0.0)
        assert np.array_equal(cut, expected)

    def test_projection_commutes_with_dealias(self, grid16, rng):
        v = fft_forward(rng.standard_normal((3, 16, 16, 16)))
        a = dealias_23(grid16, leray_project(grid16, v))
        b = leray_project(grid16, dealias_23(grid16, v))
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) < 1e-15


class TestIntegrals:
    def test_constant(self, grid8):
        f = np.full((8,) * 3, 1.0)
        assert integrate_domain(grid8, f) == pytest.approx(TAU ** 3, rel=1e-14)

    def test_cosine_squared(self, grid16):
        _, Y, _ = coordinates(grid16)
        f = np.cos(Y) ** 2
        assert integrate_domain(grid16, f) == pytest.approx(0.5 * TAU ** 3,
                                                            rel=1e-13)

    def test_odd_mode_integrates_to_zero(self, grid16):
        X, _, _ = coordinates(grid16)
        f = np.sin(X)
        assert abs(integrate_domain(grid16, f)) < 1e-13

    def test_max_speed(self, grid16):
        X, _, _ = coordinates(grid16)
        v = np.stack((3.0 * np.cos(X), np.zeros_like(X), np.zeros_like(X)))
        assert max_speed(v) == pytest.approx(3.0, rel=1e-13)
        m = magnitude_squared(v)
        assert np.max(m) == pytest.approx(9.0, rel=1e-13)


class TestPairwiseSum:
    def test_matches_fsum(self, rng):
        values = rng.standard_normal(1000) * np.logspace(-8, 8, 1000)
        exact = math.fsum(values.tolist())
        assert pairwise_sum(values) == pytest.approx(exact, rel=1e-12)

    def test_order_of_evaluation_is_fixed(self, rng):
        values = rng.standard_normal(12345)
        assert pairwise_sum(values) == pairwise_sum(values.copy())

    def test_differs_from_naive_order(self):
        # Regression guard: the reduction must be the padded fold, not a
        # left-to-right accumulation.
        values = np.array([1e16, 1.0, -1e16, 1.0])
        assert pairwise_sum(values) == 2.0

    def test_empty_and_single(self):
        assert pairwise_sum(np.array([])) == 0.0
        assert pairwise_sum(np.array([4.25])) == 4.25

    def test_multidimensional_input(self, rng):
        values = rng.standard_normal((7, 5, 3))
        assert pairwise_sum(values) == pairwise_sum(values.ravel())

    @pytest.mark.parametrize("size", [1, 3, 1000, 2 ** 18, 64 ** 3])
    def test_owned_fold_matches(self, rng, size):
        # A record's integrand is scratch, so its sum folds it in place;
        # the bits must be those of the sum of a copy.
        values = rng.standard_normal(size) * np.logspace(-8, 8, size)
        scratch = values.copy()
        assert _pairwise_sum_owned(scratch) == pairwise_sum(values)
        if size > 1 and size & (size - 1) == 0:  # folded in place
            assert not np.array_equal(scratch, values)

    @pytest.mark.parametrize("size", [1, 3, 1000, 2 ** 18])
    def test_in_place_fold_matches_fresh_arrays(self, rng, size):
        # Folding in place on one working copy gives the bits of a fold
        # that makes a new array at every halving.
        values = rng.standard_normal(size) * np.logspace(-8, 8, size)
        a = np.zeros(1 << int(np.ceil(np.log2(size))))
        a[:size] = values
        while a.size > 1:
            a = a[:a.size // 2] + a[a.size // 2:]
        assert pairwise_sum(values) == float(a[0])
