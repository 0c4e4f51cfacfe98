"""Tests for the deformation tensor and its eigenvalue machinery.

The closed-form eigensolver is checked two independent ways: against
hand-solved matrices, and against ``numpy.linalg.eigvalsh`` on random
batches that deliberately include exact and near degeneracies.  The
library solver appears *only* here as a cross-check; the package itself
never calls it.
"""

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from euler_spectra.deformation import (
    AdmissibleClass,
    Classification,
    _strain_entries,
    classify_admissible,
    deformation_tensor,
    eigenvalues_sym3,
    epsilon_ratio,
    first_zero_touching,
    frobenius_squared,
)
from euler_spectra.errors import ContractViolationError, NumericsError
from euler_spectra.fields import fft_forward, fft_inverse
from euler_spectra.grid import Band, Grid
from euler_spectra.initial import abc_flow, shear_flow, taylor_green

from conftest import (
    coordinates,
    make_random_velocity,
    record_half_spectrum,
    velocity_gradient,
)


def tensor_from_matrices(grid, matrices):
    """Pack a batch of n^3 symmetric matrices into a (6, n, n, n) tensor."""
    shape = (grid.n,) * 3
    m = np.asarray(matrices)
    assert m.shape == (grid.n ** 3, 3, 3)
    comps = (m[:, 0, 0], m[:, 0, 1], m[:, 0, 2],
             m[:, 1, 1], m[:, 1, 2], m[:, 2, 2])
    return np.stack([c.reshape(shape) for c in comps])


def random_orthogonal(rng, count):
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    # Fix the sign convention so Q is a proper rotation of deterministic
    # orientation; irrelevant for spectra but keeps the batch reproducible.
    signs = np.sign(np.einsum("pii->pi", r))
    return q * signs[:, None, :]


class TestEigenvaluesHandSolved:
    def test_diagonal(self, grid8):
        count = grid8.n ** 3
        mats = np.zeros((count, 3, 3))
        mats[:] = np.diag([1.0, 0.0, -1.0])
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, mats))
        l1, l2, l3 = spectra
        assert np.max(np.abs(l1 - 1.0)) < 1e-14
        assert np.max(np.abs(l2)) < 1e-14
        assert np.max(np.abs(l3 + 1.0)) < 1e-14

    def test_zero_tensor(self, grid8):
        mats = np.zeros((grid8.n ** 3, 3, 3))
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, mats))
        for arr in spectra:
            assert np.max(np.abs(arr)) == 0.0

    def test_pure_shear_block(self, grid8):
        # Off-diagonal s12 = 1/2 has eigenvalues (1/2, 0, -1/2).
        mats = np.zeros((grid8.n ** 3, 3, 3))
        mats[:, 0, 1] = mats[:, 1, 0] = 0.5
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, mats))
        l1, l2, l3 = spectra
        assert np.max(np.abs(l1 - 0.5)) < 1e-14
        assert np.max(np.abs(l2)) < 1e-14
        assert np.max(np.abs(l3 + 0.5)) < 1e-14

    def test_isotropic_shift(self, grid8):
        # Tracelessness is not assumed by the solver itself.
        mats = np.zeros((grid8.n ** 3, 3, 3))
        mats[:] = np.diag([5.0, 2.0, -1.0])
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, mats))
        l1, l2, l3 = spectra
        assert np.max(np.abs(l1 - 5.0)) < 1e-13
        assert np.max(np.abs(l2 - 2.0)) < 1e-13
        assert np.max(np.abs(l3 + 1.0)) < 1e-13


class TestEigenvaluesAgainstLibrary:
    def test_random_traceless(self, grid8, rng):
        count = grid8.n ** 3
        a = rng.standard_normal((count, 3, 3))
        sym = 0.5 * (a + np.transpose(a, (0, 2, 1)))
        trace = np.einsum("pii->p", sym) / 3.0
        sym -= trace[:, None, None] * np.eye(3)
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, sym))
        ours = np.stack(spectra, axis=-1).reshape(count, 3)
        ref = np.linalg.eigvalsh(sym)[:, ::-1]
        scale = np.max(np.abs(ref), axis=1)
        err = np.max(np.abs(ours - ref), axis=1)
        assert np.max(err / np.maximum(scale, 1e-300)) < 1e-10

    def test_exact_and_near_degeneracies(self, grid8, rng):
        # Rotated diag(a, a(1 - gap) - shift...) families with gap swept
        # through zero: the hardest regime for a closed-form solver.
        count = grid8.n ** 3
        gaps = np.concatenate([
            np.zeros(count // 4),
            10.0 ** rng.uniform(-18, -4, count // 4),
            10.0 ** rng.uniform(-4, 0, count // 4),
            np.full(count - 3 * (count // 4), 1e-8),
        ])
        a = rng.uniform(0.5, 2.0, count)
        top = a
        mid = a * (1.0 - gaps)
        bot = -(top + mid)
        diag = np.zeros((count, 3, 3))
        diag[:, 0, 0] = top
        diag[:, 1, 1] = mid
        diag[:, 2, 2] = bot
        q = random_orthogonal(rng, count)
        sym = np.einsum("pij,pjk,plk->pil", q, diag, q)
        sym = 0.5 * (sym + np.transpose(sym, (0, 2, 1)))

        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, sym))
        ours = np.stack(spectra, axis=-1).reshape(count, 3)
        ref = np.linalg.eigvalsh(sym)[:, ::-1]
        scale = np.maximum(np.max(np.abs(ref), axis=1), 1e-300)
        err = np.max(np.abs(ours - ref), axis=1)
        assert np.max(err / scale) < 1e-10

    def test_pair_resolved_at_exact_degeneracy(self, grid8, rng):
        # At gap = 0 the two top eigenvalues must come out equal to
        # rounding, not split by sqrt(eps).
        count = grid8.n ** 3
        q = random_orthogonal(rng, count)
        diag = np.zeros((count, 3, 3))
        diag[:, 0, 0] = diag[:, 1, 1] = 1.0
        diag[:, 2, 2] = -2.0
        sym = np.einsum("pij,pjk,plk->pil", q, diag, q)
        sym = 0.5 * (sym + np.transpose(sym, (0, 2, 1)))
        spectra = eigenvalues_sym3(tensor_from_matrices(grid8, sym))
        l1, l2, _ = spectra
        assert np.max(np.abs(l1 - l2)) < 1e-12


class TestEigenvalueInvariants:
    def test_on_random_velocity(self, grid16, rng):
        v = make_random_velocity(grid16, rng)
        spectra = eigenvalues_sym3(deformation_tensor(grid16, v))
        l1, l2, l3 = spectra
        scale = max(np.max(np.abs(l1)), 1e-300)
        assert np.all(l1 >= l2) and np.all(l2 >= l3)
        assert np.max(np.abs(l1 + l2 + l3)) < 1e-12 * scale
        assert np.min(l1) >= -1e-13 * scale
        assert np.max(l3) <= 1e-13 * scale
        # The middle eigenvalue is never the extreme one.
        assert np.all(np.abs(l2) <= np.minimum(l1, -l3) + 1e-12 * scale)

    def test_quadratic_form_identities(self, grid16, rng):
        # For traceless spectra the squared sum collapses to two
        # equivalent two-eigenvalue forms; all three must agree pointwise.
        v = make_random_velocity(grid16, rng)
        spectra = eigenvalues_sym3(deformation_tensor(grid16, v))
        l1, l2, l3 = spectra
        full = l1 ** 2 + l2 ** 2 + l3 ** 2
        top = 2.0 * (l1 ** 2 + l1 * l2 + l2 ** 2)
        bottom = 2.0 * (l2 ** 2 + l2 * l3 + l3 ** 2)
        scale = np.max(full)
        assert np.max(np.abs(full - top)) < 1e-12 * scale
        assert np.max(np.abs(full - bottom)) < 1e-12 * scale

    def test_frobenius_matches_eigenvalues(self, grid16, rng):
        v = make_random_velocity(grid16, rng)
        tensor = deformation_tensor(grid16, v)
        spectra = eigenvalues_sym3(tensor)
        l1, l2, l3 = spectra
        lhs = frobenius_squared(tensor)
        rhs = l1 ** 2 + l2 ** 2 + l3 ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(np.max(lhs), 1e-300)


class TestDeformationTensor:
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("layout", ["grid", "band"])
    def test_strain_entries_with_slab_scratch(self, layout, lanes):
        # An off-diagonal entry's second product is formed one x-slab of
        # the scratch's rows at a time, the last slab shorter where the
        # rows do not divide the component's (a band's 2m+1 = 21 rows at
        # n=32); every scratch gives the tensor of the whole half
        # spectrum, on one thread or two.  "grid" is the band of a half
        # spectrum that holds more than the 2/3-rule band: every mode but
        # the Nyquist planes.
        grid = Grid(32)
        band = Band(grid) if layout == "band" else Band(grid, 15)
        half = make_random_velocity(grid, np.random.default_rng(32))
        v = band.restrict(half)
        shape, c = v.shape[1:], np.complex128
        pads = np.empty((lanes, 32, 32, band.m + 1), c)
        with ThreadPoolExecutor(1) as pool:
            worker = pool if lanes == 2 else None
            expected = deformation_tensor(grid, half)
            for rows in (1, 5, 8, len(v[0])):
                tensor = np.empty_like(expected)
                work = [(np.empty((rows,) + shape[1:], c), pads[lane])
                        for lane in range(lanes)]
                _strain_entries(band, v, worker, tensor, work)
                assert tensor.tobytes() == expected.tobytes(), rows

    def test_shear_flow_components(self, grid16):
        # v = (sin y, 0, 0): the only nonzero entry is s12 = cos(y)/2.
        v = shear_flow(grid16)
        s11, s12, s13, s22, s23, s33 = deformation_tensor(grid16, v)
        _, y, _ = coordinates(grid16)
        assert np.max(np.abs(s12 - 0.5 * np.cos(y))) < 1e-13
        for comp in (s11, s13, s22, s23, s33):
            assert np.max(np.abs(comp)) < 1e-13

    def test_gradient_row_convention(self, grid16):
        # grad[i][j] = d v_j / d x_i: for shear flow only grad[1][0]
        # (y-derivative of the x-component) is nonzero.
        v = shear_flow(grid16)
        grad = velocity_gradient(grid16, v)
        _, y, _ = coordinates(grid16)
        assert np.max(np.abs(grad[1, 0] - np.cos(y))) < 1e-13
        assert np.max(np.abs(grad[0, 1])) < 1e-13

    def test_two_input_paths_agree(self, grid16, rng):
        v = make_random_velocity(grid16, rng)
        direct = deformation_tensor(grid16, v)
        grad = velocity_gradient(grid16, v)
        sym = 0.5 * (grad + grad.swapaxes(0, 1))
        via_grad = [sym[i, j] for i, j in
                    ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
        for a, b in zip(direct, via_grad):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_against_finite_differences(self, grid32):
        # Central differences on the collocation values give an O(dx^2)
        # check of the spectral gradient that shares no code with it.
        v = abc_flow(grid32)
        grad = velocity_gradient(grid32, v)
        phys = fft_inverse(v)
        dx = grid32.dx
        for j, comp in enumerate(phys):
            for i in range(3):
                fd = (np.roll(comp, -1, axis=i)
                      - np.roll(comp, 1, axis=i)) / (2.0 * dx)
                err = np.max(np.abs(grad[i, j] - fd))
                assert err < dx ** 2  # |f'''| <= 1 for unit ABC modes

    @pytest.mark.parametrize("n", [16, 64])
    def test_entries_equal_fft_inverse_bitwise(self, n, rng):
        # The entries are transformed in place into their slots; each
        # must equal fft_inverse of the same spectral entry exactly.
        grid = Grid(n)
        v = make_random_velocity(grid, rng)
        v1, v2, v3 = v
        kx, ky, kz = grid.k_deriv_x, grid.k_deriv_y, grid.k_deriv_z
        entries = (1j * kx * v1, 0.5j * (kx * v2 + ky * v1),
                   0.5j * (kx * v3 + kz * v1), 1j * ky * v2,
                   0.5j * (ky * v3 + kz * v2), 1j * kz * v3)
        tensor = deformation_tensor(grid, v)
        for k, entry in enumerate(entries):
            kept = entry.copy()
            assert np.array_equal(tensor[k], fft_inverse(entry))
            assert np.array_equal(entry, kept)

    def test_trace_warning_for_compressible_input(self, grid16, caplog):
        x, _, _ = coordinates(grid16)
        v = fft_forward(np.stack(
            (np.sin(x), np.zeros_like(x), np.zeros_like(x))))
        with caplog.at_level(logging.WARNING, "euler_spectra.deformation"):
            deformation_tensor(grid16, v)
        assert any("trace" in rec.message for rec in caplog.records)

    def test_no_warning_for_solenoidal_input(self, grid16, caplog):
        v = taylor_green(grid16)
        with caplog.at_level(logging.WARNING, "euler_spectra.deformation"):
            deformation_tensor(grid16, v)
        assert not caplog.records

    def test_non_finite_entry_rejected(self, grid8):
        tensor = np.zeros((6, 8, 8, 8))
        tensor[3, 2, 5, 7] = np.nan
        with pytest.raises(NumericsError, match=r"s22.*\(2, 5, 7\)"):
            eigenvalues_sym3(tensor)


def constant_spectra(grid, l1, l2, l3):
    shape = (grid.n,) * 3
    return np.stack([np.full(shape, l) for l in (l1, l2, l3)])


class TestClassification:
    def test_positive_class(self, grid8):
        c = classify_admissible(constant_spectra(grid8, 2.0, 1.0, -3.0))
        assert c.label == AdmissibleClass.APLUS
        assert c.min_lambda2 == 1.0
        assert c.max_lambda2 == 1.0

    def test_negative_class(self, grid8):
        c = classify_admissible(constant_spectra(grid8, 3.0, -1.0, -2.0))
        assert c.label == AdmissibleClass.AMINUS

    def test_shear_is_neither(self, grid16):
        v = shear_flow(grid16)
        spectra = eigenvalues_sym3(deformation_tensor(grid16, v))
        c = classify_admissible(spectra)
        assert c.label == AdmissibleClass.NEITHER
        assert abs(c.min_lambda2) < 1e-13
        assert abs(c.max_lambda2) < 1e-13

    def test_zero_field_is_neither(self, grid8):
        c = classify_admissible(constant_spectra(grid8, 0.0, 0.0, 0.0))
        assert c.label == AdmissibleClass.NEITHER

    def test_tolerance_pushes_to_neither(self, grid8):
        spectra = constant_spectra(grid8, 2.0, 1e-6, -2.0)
        assert classify_admissible(spectra).label == AdmissibleClass.APLUS
        assert (classify_admissible(spectra, tolerance=1e-3).label
                == AdmissibleClass.NEITHER)

    def test_negative_tolerance_rejected(self, grid8):
        with pytest.raises(ContractViolationError):
            classify_admissible(constant_spectra(grid8, 1.0, 0.5, -1.5),
                                tolerance=-1.0)

    def test_lambda2_split(self, grid16, rng):
        # The record's positive/negative-part extrema are those of the
        # pointwise split l2 = max(l2, 0) + min(l2, 0).
        v = make_random_velocity(grid16, rng)
        l2 = eigenvalues_sym3(deformation_tensor(grid16, v))[1]
        plus, minus = np.maximum(l2, 0.0), np.minimum(l2, 0.0)
        assert np.array_equal(plus + minus, l2)
        record = record_half_spectrum(grid16, 0.0, v)
        assert record.sup_l2p == np.max(plus)
        assert record.inf_l2p == np.min(plus)
        assert record.sup_l2m_abs == np.max(-minus)
        assert record.inf_l2m_abs == np.min(-minus)


class TestEpsilonRatio:
    def test_positive_class_value(self, grid8):
        spectra = constant_spectra(grid8, 2.0, 1.0, -3.0)
        c = classify_admissible(spectra)
        ratio, excluded = epsilon_ratio(spectra, c)
        assert excluded == 0
        assert np.max(np.abs(ratio - 0.5)) < 1e-15

    def test_negative_class_value(self, grid8):
        spectra = constant_spectra(grid8, 3.0, -1.0, -2.0)
        c = classify_admissible(spectra)
        ratio, excluded = epsilon_ratio(spectra, c)
        assert excluded == 0
        assert np.max(np.abs(ratio - 0.5)) < 1e-15

    def test_ratio_can_reach_one(self, grid8):
        spectra = constant_spectra(grid8, 1.0, 1.0, -2.0)
        c = classify_admissible(spectra)
        ratio, _ = epsilon_ratio(spectra, c)
        assert np.max(np.abs(ratio - 1.0)) < 1e-15

    def test_degenerate_points_excluded(self, grid8):
        shape = (grid8.n,) * 3
        l1 = np.full(shape, 2.0)
        l2 = np.full(shape, 1.0)
        l3 = np.full(shape, -3.0)
        l1[0, 0, 0] = l2[0, 0, 0] = l3[0, 0, 0] = 0.0
        spectra = np.stack((l1, l2, l3))
        c = Classification(AdmissibleClass.APLUS, 0.0, 1.0, 0.0)
        ratio, excluded = epsilon_ratio(spectra, c, floor=1e-8)
        assert excluded == 1
        assert np.isnan(ratio[0, 0, 0])
        assert np.nanmax(np.abs(ratio - 0.5)) < 1e-15

    def test_rejected_for_neither(self, grid8):
        spectra = constant_spectra(grid8, 1.0, 0.0, -1.0)
        c = classify_admissible(spectra)
        with pytest.raises(ContractViolationError):
            epsilon_ratio(spectra, c)


class TestFirstZeroTouching:
    def _cls(self, label):
        return Classification(label, 0.1, 0.2, 1e-3)

    def test_positive_class_crossing(self):
        history = [(0.0, 0.1, 0.3), (0.1, 0.02, 0.3), (0.2, -0.01, 0.3)]
        c = self._cls(AdmissibleClass.APLUS)
        assert first_zero_touching(history, c) == 0.2

    def test_touching_zero_is_not_crossing(self):
        # Dipping to exactly zero (or within tolerance) does not count.
        history = [(0.0, 0.1, 0.3), (0.1, 0.0, 0.3), (0.2, -5e-4, 0.3)]
        c = self._cls(AdmissibleClass.APLUS)
        assert first_zero_touching(history, c) is None

    def test_negative_class_crossing(self):
        history = [(0.0, -0.3, -0.1), (0.5, -0.3, 0.01)]
        c = self._cls(AdmissibleClass.AMINUS)
        assert first_zero_touching(history, c) == 0.5

    def test_survives_whole_history(self):
        history = [(0.0, 0.1, 0.3), (1.0, 0.05, 0.2)]
        c = self._cls(AdmissibleClass.APLUS)
        assert first_zero_touching(history, c) is None

    def test_explicit_tolerance_overrides(self):
        history = [(0.0, 0.1, 0.3), (0.3, -0.05, 0.3)]
        c = self._cls(AdmissibleClass.APLUS)
        assert first_zero_touching(history, c, tolerance=0.1) is None
        assert first_zero_touching(history, c, tolerance=0.01) == 0.3

    def test_neither_rejected(self):
        c = self._cls(AdmissibleClass.NEITHER)
        with pytest.raises(ContractViolationError):
            first_zero_touching([(0.0, 0.0, 0.0)], c)

    def test_empty_history_rejected(self):
        c = self._cls(AdmissibleClass.APLUS)
        with pytest.raises(ContractViolationError):
            first_zero_touching([], c)
