"""Tests for growth envelopes, balance residuals, and decay bounds.

Synthetic record series with constant rates have closed-form envelopes
(plain exponentials), which pins the trapezoid accumulation exactly.
The finite-difference stencil is validated on polynomials, where a
fourth-order formula must be exact.
"""

import math

import numpy as np
import pytest

from euler_spectra.deformation import AdmissibleClass, Classification
from euler_spectra.diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    record_scratch_size,
)
from euler_spectra.envelopes import (
    EnvelopeAccumulator,
    _SnapshotPass,
    _derivative_sample,
    containment_check,
    derivative_4th,
    envelope_rates,
    epsilon_decay_bound,
    growth_envelopes,
    lambda2_plus_exponential_bound,
    moment_balance_residual,
    quadrature_slack,
    uniform_spacing,
    vorticity_transport_residual,
)
from euler_spectra.errors import ContractViolationError
from euler_spectra.fields import (
    curl,
    fft_forward,
    fft_inverse,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.initial import random_solenoidal, shear_flow, taylor_green
from euler_spectra.solver import SolverConfig, run
import euler_spectra.envelopes as envelopes_module
import euler_spectra.fields as fields_module
import euler_spectra.workers as workers_module

from conftest import (
    cross_product,
    dealias_23,
    make_random_velocity,
    scatter,
    traced_peak_fields,
    velocity_gradient,
)

TAU = 2.0 * math.pi


def record(t, Z=4.0, Q=2.0, P=0.0, E=1.0, H=0.0, min_l2=0.0, max_l2=0.0,
           inf_eps=math.nan):
    """Synthetic diagnostics record; extrema splits derived from min/max."""
    return DiagnosticsRecord(
        t=t, E=E, H=H, Z=Z, Q=Q, P=P, W=0.0, C3=0.0,
        sup_l2p=max(max_l2, 0.0), inf_l2p=max(min_l2, 0.0),
        sup_l2m_abs=max(-min_l2, 0.0), inf_l2m_abs=max(-max_l2, 0.0),
        min_l2=min_l2, max_l2=max_l2, inf_eps=inf_eps, bkm_sup_vort=0.0)


def series(times, **kwargs):
    return [record(t, **kwargs) for t in times]


class TestDerivative4th:
    def test_exact_on_quartic(self):
        t = np.linspace(0.0, 2.0, 11)
        y = 3.0 * t ** 4 - t ** 3 + 2.0 * t - 5.0
        exact = 12.0 * t ** 3 - 3.0 * t ** 2 + 2.0
        d = derivative_4th(y, t[1] - t[0])
        assert np.max(np.abs(d - exact)) < 1e-11

    def test_exact_on_line_at_endpoints(self):
        t = np.linspace(0.0, 1.0, 5)
        d = derivative_4th(2.0 * t, 0.25)
        assert np.max(np.abs(d - 2.0)) < 1e-13

    def test_fourth_order_convergence(self):
        errs = []
        for m in (40, 80):
            t = np.linspace(0.0, 1.0, m + 1)
            d = derivative_4th(np.sin(3.0 * t), 1.0 / m)
            errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * t))))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    @pytest.mark.parametrize("shape", [(5,), (6, 3), (11, 4, 2)])
    def test_one_sample_matches_bitwise(self, shape, rng):
        # A sample's stencil summed term by term in place, as
        # ``_SnapshotPass.residual`` forms it, rounds as the whole-array
        # expressions: every sample, both ends and the interior.
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        expected = derivative_4th(y, 0.1)
        out, work = np.empty(shape[1:]), np.empty(shape[1:])
        for k in range(shape[0]):
            assert _derivative_sample(list(y), k, 0.1, out, work) is out
            assert np.array_equal(out, expected[k]), k

    def test_axis_argument(self, rng):
        y = rng.standard_normal((9, 4))
        one_col = derivative_4th(y[:, 2], 0.1)
        both = derivative_4th(y, 0.1, axis=0)
        assert np.allclose(both[:, 2], one_col, rtol=0, atol=0)

    def test_needs_five_samples(self):
        with pytest.raises(ContractViolationError):
            derivative_4th(np.zeros(4), 0.1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ContractViolationError):
            derivative_4th(np.zeros(8), 0.0)


class TestUniformSpacing:
    def test_accepts_uniform(self):
        assert uniform_spacing([0.0, 0.5, 1.0, 1.5]) == 0.5

    def test_rejects_wobble(self):
        with pytest.raises(ContractViolationError):
            uniform_spacing([0.0, 0.5, 1.0001, 1.5])

    def test_rejects_decreasing(self):
        with pytest.raises(ContractViolationError):
            uniform_spacing([0.0, -0.5, -1.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ContractViolationError):
            uniform_spacing([0.0])


class TestEnvelopeRates:
    def test_two_sided_rates(self):
        r = record(0.0, min_l2=-0.2, max_l2=0.5)
        lower, upper, positive, cl, cu = envelope_rates(r, None, False)
        # inf l2+ = 0 (the minimum is negative), sup |l2-| = 0.2.
        assert lower == pytest.approx(-0.2)
        # sup l2+ = 0.5, inf |l2-| = 0 (the maximum is positive).
        assert upper == pytest.approx(0.5)
        assert positive == pytest.approx(0.5)
        assert math.isnan(cl) and math.isnan(cu)

    def test_positive_class_rates(self):
        r = record(0.0, min_l2=0.3, max_l2=0.5)
        _, _, _, cl, cu = envelope_rates(r, AdmissibleClass.APLUS, True)
        assert cl == pytest.approx(0.15)
        assert cu == pytest.approx(0.5)

    def test_negative_class_rates(self):
        r = record(0.0, min_l2=-0.5, max_l2=-0.3)
        _, _, _, cl, cu = envelope_rates(r, AdmissibleClass.AMINUS, True)
        assert cl == pytest.approx(-0.5)
        assert cu == pytest.approx(-0.15)


class TestGrowthEnvelopes:
    def test_constant_positive_rate_exponentials(self):
        # sup l2+ = 1, everything else zero: upper = sqrt(Z0) e^t,
        # lower stays at sqrt(Z0).
        times = np.linspace(0.0, 2.0, 21)
        recs = series(times, Z=4.0, min_l2=0.0, max_l2=1.0)
        env = growth_envelopes(recs)
        assert np.max(np.abs(env.upper - 2.0 * np.exp(times))) < 1e-12 * np.max(
            2.0 * np.exp(times))
        assert np.max(np.abs(env.lower - 2.0)) < 1e-14
        assert np.max(np.abs(env.positive_integral - times)) < 1e-13

    def test_positive_class_closed_form(self):
        g = 0.7
        times = np.linspace(0.0, 1.5, 16)
        recs = series(times, Z=9.0, min_l2=g, max_l2=g)
        cls = Classification(AdmissibleClass.APLUS, g, g, 1e-10)
        env = growth_envelopes(recs, cls)
        lo = 3.0 * np.exp(0.5 * g * times)
        hi = 3.0 * np.exp(g * times)
        assert np.max(np.abs(env.class_lower - lo) / lo) < 1e-12
        assert np.max(np.abs(env.class_upper - hi) / hi) < 1e-12
        # The general two-sided envelopes coincide with the class ones
        # here (no negative part anywhere).
        assert np.max(np.abs(env.lower - lo) / lo) < 1e-12
        assert np.max(np.abs(env.upper - hi) / hi) < 1e-12

    def test_negative_class_closed_form(self):
        g = 0.4
        times = np.linspace(0.0, 2.0, 11)
        recs = series(times, Z=25.0, min_l2=-g, max_l2=-g)
        cls = Classification(AdmissibleClass.AMINUS, -g, -g, 1e-10)
        env = growth_envelopes(recs, cls)
        lo = 5.0 * np.exp(-g * times)
        hi = 5.0 * np.exp(-0.5 * g * times)
        assert np.max(np.abs(env.class_lower - lo) / lo) < 1e-12
        assert np.max(np.abs(env.class_upper - hi) / hi) < 1e-12

    def test_class_envelopes_nan_after_sign_failure(self):
        times = [0.0, 0.1, 0.2, 0.3, 0.4]
        recs = series(times, min_l2=0.2, max_l2=0.5)
        recs[3].min_l2 = -0.05  # sign condition fails at t = 0.3
        cls = Classification(AdmissibleClass.APLUS, 0.2, 0.5, 1e-10)
        env = growth_envelopes(recs, cls)
        assert np.all(np.isfinite(env.class_lower[:3]))
        assert np.all(np.isnan(env.class_lower[3:]))
        assert np.all(np.isnan(env.class_upper[3:]))
        # The unconditional envelopes keep going regardless.
        assert np.all(np.isfinite(env.lower))
        assert np.all(np.isfinite(env.upper))

    def test_shear_run_envelopes_flat(self, grid16):
        col = DiagnosticsCollector(every=2)
        run(grid16, shear_flow(grid16), SolverConfig(dt=5e-3, t_final=0.05),
            observers=[col])
        env = growth_envelopes(col.records, col.classification)
        z0 = math.sqrt(col.records[0].Z)
        assert np.max(np.abs(env.lower - z0)) < 1e-10 * z0
        assert np.max(np.abs(env.upper - z0)) < 1e-10 * z0

    def test_streaming_matches_batch_bitwise(self, grid16, tmp_path):
        csv_path = tmp_path / "timeseries.csv"
        with DiagnosticsCollector(every=2, csv_path=csv_path) as col:
            run(grid16, taylor_green(grid16),
                SolverConfig(dt=5e-3, t_final=0.05), observers=[col])
        env = growth_envelopes(col.records, col.classification)
        # The CSV's last five columns; repr round-trips a float exactly.
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == len(col.records)
        streamed = np.array([[float(x) for x in row.split(",")[-5:]]
                             for row in rows])
        batch = np.column_stack([env.lower, env.upper,
                                 env.positive_integral,
                                 env.class_lower, env.class_upper])
        assert np.array_equal(streamed, batch, equal_nan=True)

    def test_empty_series_rejected(self):
        with pytest.raises(ContractViolationError):
            growth_envelopes([])

    def test_accumulator_trapezoid_arithmetic(self):
        acc = EnvelopeAccumulator()
        r0 = record(0.0, Z=1.0, max_l2=1.0)
        r1 = record(1.0, Z=1.0, max_l2=3.0)
        acc.push(r0, envelope_rates(r0, None, False))
        row = acc.push(r1, envelope_rates(r1, None, False))
        # trapezoid of rates (1, 3) over one unit = 2.
        assert row[1] == pytest.approx(math.exp(2.0), rel=1e-14)


class TestQuadratureSlack:
    def test_zero_for_constant_rates(self):
        recs = series(np.linspace(0.0, 1.0, 9), min_l2=-0.3, max_l2=0.4)
        assert np.max(quadrature_slack(recs)) == 0.0

    def test_positive_and_nondecreasing_for_varying_rates(self):
        times = np.linspace(0.0, 1.0, 21)
        recs = [record(t, min_l2=-0.3 * math.sin(5.0 * t), max_l2=0.0)
                for t in times]
        slack = quadrature_slack(recs)
        assert slack[-1] > 0.0
        assert np.all(np.diff(slack) >= 0.0)

    def test_short_series(self):
        assert np.array_equal(quadrature_slack(series([0.0, 0.1])),
                              np.zeros(2))


class TestContainment:
    def test_inside_band(self):
        times = np.linspace(0.0, 1.0, 11)
        recs = series(times, Z=4.0, min_l2=-0.5, max_l2=0.5)
        env = growth_envelopes(recs)
        out = containment_check(recs, env)
        assert out["max_lower_violation"] <= 0.0
        assert out["max_upper_violation"] <= 0.0

    def test_detects_violation(self):
        times = np.linspace(0.0, 1.0, 11)
        recs = series(times, min_l2=0.0, max_l2=0.0)
        for r in recs:
            r.Z = 4.0 * math.exp(2.0 * r.t)  # grows under a flat envelope
        env = growth_envelopes(recs)
        out = containment_check(recs, env)
        assert out["max_upper_violation"] > 0.5
        assert out["max_lower_violation"] <= 0.0


class TestExponentialBound:
    def test_steady_series_is_tight(self):
        recs = series(np.linspace(0.0, 1.0, 11), Z=4.0, min_l2=-0.2,
                      max_l2=0.0)
        out = lambda2_plus_exponential_bound(recs, growth_envelopes(recs))
        # sup l2+ = 0 so the bound is exactly sqrt(Z0); ratio 1.
        assert out["max_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert out["satisfied"]

    def test_flags_violation(self):
        times = np.linspace(0.0, 1.0, 11)
        recs = series(times, min_l2=0.0, max_l2=0.0)
        for r in recs:
            r.Z = 4.0 * math.exp(0.1 * r.t)
        out = lambda2_plus_exponential_bound(recs, growth_envelopes(recs))
        assert not out["satisfied"]
        assert out["max_ratio"] == pytest.approx(math.exp(0.05), rel=1e-10)


class TestMomentBalance:
    def test_constant_series_is_exactly_zero(self):
        recs = series(np.linspace(0.0, 1.0, 9), Q=5.0, P=0.0)
        raw, normalized = moment_balance_residual(recs)
        assert np.max(np.abs(raw)) == 0.0
        assert np.max(np.abs(normalized)) == 0.0

    def test_cubic_series_exact(self):
        # Q = t^3 with P = -3 t^2 / 4 satisfies the balance exactly and
        # lies in the stencil's exactness class.
        times = np.linspace(0.0, 1.0, 9)
        recs = [record(t, Q=t ** 3, P=-3.0 * t ** 2 / 4.0) for t in times]
        raw, normalized = moment_balance_residual(recs)
        assert np.max(np.abs(normalized)) < 1e-13

    def test_fourth_order_in_cadence(self):
        def make(m):
            times = np.linspace(0.0, 1.0, m + 1)
            return [record(t, Q=math.cos(3.0 * t),
                           P=0.75 * math.sin(3.0 * t)) for t in times]

        _, coarse = moment_balance_residual(make(50))
        _, fine = moment_balance_residual(make(100))
        ratio = np.max(np.abs(coarse)) / np.max(np.abs(fine))
        # Fourth order: halving the cadence shrinks the residual ~16x.
        # The max can migrate between interior and one-sided stencils,
        # so allow a factor of two on either side.
        assert 8.0 < ratio < 32.0

    def test_detects_broken_balance(self):
        times = np.linspace(0.0, 1.0, 9)
        recs = [record(t, Q=t, P=1.0) for t in times]  # dQ/dt = 1 != -4
        _, normalized = moment_balance_residual(recs)
        assert np.max(np.abs(normalized)) > 0.5


class TestEpsilonDecayBound:
    def cls(self, label=AdmissibleClass.APLUS):
        return Classification(label, 0.1, 0.2, 1e-10)

    def test_constant_ratio_flip_time(self):
        z0, volume, eps0 = 2.0, TAU ** 3, 0.5
        rhs = math.sqrt(27.0) * math.sqrt(volume) / (math.sqrt(2.0)
                                                     * math.sqrt(z0))
        flip = rhs / eps0 ** 2
        times = np.linspace(0.0, 2.0 * flip, 401)
        recs = series(times, Z=z0, min_l2=0.1, max_l2=0.2, inf_eps=eps0)
        out = epsilon_decay_bound(recs, self.cls(), volume)
        assert out.applicable
        assert out.rhs == pytest.approx(rhs, rel=1e-14)
        assert np.max(np.abs(out.lhs - eps0 ** 2 * times)) < 1e-12 * np.max(
            out.lhs)
        expected = ~(eps0 ** 2 * times > rhs)
        assert np.array_equal(out.satisfied_series, expected)
        assert not out.satisfied
        # The flip happens at the first sample beyond t = rhs / eps0^2.
        first_violation = int(np.argmin(out.satisfied_series))
        assert times[first_violation - 1] <= flip < times[first_violation]

    def test_running_infimum_sticks(self):
        times = [0.0, 1.0, 2.0, 3.0]
        eps = [0.8, 0.2, 0.9, math.nan]
        recs = [record(t, Z=2.0, min_l2=0.1, max_l2=0.2, inf_eps=e)
                for t, e in zip(times, eps)]
        out = epsilon_decay_bound(recs, self.cls(), TAU ** 3)
        mins = [0.8, 0.2, 0.2, 0.2]
        expected = [t * m * m for t, m in zip(times, mins)]
        assert np.allclose(out.lhs, expected, rtol=0, atol=1e-14)

    def test_neither_inapplicable(self):
        recs = series([0.0, 1.0], Z=2.0)
        out = epsilon_decay_bound(recs, self.cls(AdmissibleClass.NEITHER),
                                  TAU ** 3)
        assert not out.applicable
        assert "Neither" in out.reason

    def test_negative_class_needs_positive_helicity(self):
        recs = series([0.0, 1.0], Z=2.0, H=0.0, inf_eps=0.5)
        out = epsilon_decay_bound(recs, self.cls(AdmissibleClass.AMINUS),
                                  TAU ** 3)
        assert not out.applicable
        assert "helicity" in out.reason

    def test_negative_class_constant(self):
        z0, e0, h0, volume = 4.0, 3.0, 2.0, TAU ** 3
        recs = series([0.0, 1.0, 2.0], Z=z0, E=e0, H=h0, min_l2=-0.2,
                      max_l2=-0.1, inf_eps=0.25)
        out = epsilon_decay_bound(recs, self.cls(AdmissibleClass.AMINUS),
                                  volume)
        expected_rhs = math.sqrt(27.0) * math.sqrt(volume) * (
            math.sqrt(e0) / h0 - 1.0 / (math.sqrt(2.0) * math.sqrt(z0)))
        assert out.applicable
        assert out.rhs == pytest.approx(expected_rhs, rel=1e-14)

    def test_no_valid_samples_inapplicable(self):
        recs = series([0.0, 1.0], Z=2.0, inf_eps=math.nan)
        out = epsilon_decay_bound(recs, self.cls(), TAU ** 3)
        assert not out.applicable
        assert "ratio" in out.reason


def whole_field_residual(grid, velocities, spacing):
    """The returns of ``vorticity_transport_residual`` for spectral
    ``velocities`` sampled ``spacing`` apart, from whole-field arrays and
    ``derivative_4th`` of the whole omega series."""
    omega = np.stack([fft_inverse(curl(grid, v)) for v in velocities])
    domega_dt = derivative_4th(omega, spacing)
    raw, normalized = [], []
    for m, v in enumerate(velocities):
        transport = fft_inverse(curl(grid, dealias_23(
            grid, fft_forward(cross_product(fft_inverse(v), omega[m])))))
        raw.append(np.max(np.abs(domega_dt[m] - transport)))
        normalized.append(raw[-1] / max(
            np.max(np.abs(domega_dt[m])), np.max(np.abs(transport)), 1e-300))
    return raw, normalized


class TestTransportResidual:
    def test_steady_field_near_zero(self, grid16):
        # A repeated single-mode field has exactly zero transport terms;
        # only stencil rounding noise survives, and the normalization
        # (by the largest of the three terms) must stay finite.
        v = shear_flow(grid16)
        times = np.linspace(0.0, 0.4, 5)
        raw, normalized = vorticity_transport_residual(
            grid16, times, [v.copy() for _ in times])
        assert np.max(raw) < 1e-13
        assert np.all(np.isfinite(normalized))
        assert np.max(normalized) <= 3.0

    def test_detects_inconsistent_motion(self, grid16):
        # Exponentially rescaled shear is NOT a transport solution: the
        # time derivative term survives while the transport terms cancel.
        v = fft_inverse(shear_flow(grid16))
        times = np.linspace(0.0, 0.4, 5)
        snaps = [math.exp(t) * v for t in times]
        raw, _ = vorticity_transport_residual(grid16, times, snaps)
        assert np.max(raw) > 0.5

    def test_needs_five_snapshots(self, grid16):
        v = shear_flow(grid16)
        with pytest.raises(ContractViolationError):
            vorticity_transport_residual(grid16, [0.0, 0.1, 0.2], [v, v, v])

    def test_rejects_mismatched_lengths(self, grid16):
        v = shear_flow(grid16)
        with pytest.raises(ContractViolationError):
            vorticity_transport_residual(grid16, [0.0, 0.1], [v])

    def test_rejects_mixed_grids(self, grid8, grid16):
        times = np.linspace(0.0, 0.4, 5)
        snaps = [shear_flow(grid16)] * 4 + [shear_flow(grid8)]
        with pytest.raises(ContractViolationError):
            vorticity_transport_residual(grid16, times, snaps)

    def test_abc_run_snapshots(self, grid16):
        # Five snapshots from a real (steady) solve: the residual mixes
        # the FD stencil with the solver, so this is an end-to-end check.
        from euler_spectra.initial import abc_flow
        snaps = []

        def taker(state):
            if state.step_index % 5 == 0:
                snaps.append((state.t, scatter(state.band, state.v)))

        run(grid16, abc_flow(grid16), SolverConfig(dt=1e-2, t_final=0.2),
            observers=[taker])
        times = [t for t, _ in snaps]
        raw, _ = vorticity_transport_residual(grid16, times,
                                              [v for _, v in snaps])
        assert np.max(raw) < 1e-9

    def test_random_run_sees_time_order(self, grid16):
        # A random field fills the band, so its products leave it; the
        # truncated transport term must still match consecutive run
        # states to rounding and miss them when replayed backwards.
        snaps = []
        run(grid16, random_solenoidal(grid16, 3),
            SolverConfig(dt=1e-3, t_final=0.004),
            observers=[lambda state: snaps.append(
                (state.t, scatter(state.band, state.v)))])
        times = [t for t, _ in snaps]
        velocities = [v for _, v in snaps]
        assert len(times) == 5
        raw, _ = vorticity_transport_residual(grid16, times, velocities)
        assert np.max(raw) < 1e-9
        _, normalized = vorticity_transport_residual(grid16, times,
                                                     velocities[::-1])
        assert np.max(normalized) > 0.1

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [16, 26, 64])
    def test_matches_whole_field(self, n, threads, monkeypatch):
        # The residual is formed snapshot by snapshot on the band and
        # compared slab by slab, on one thread or two; it must equal the
        # whole-field evaluation bit for bit.  Seven snapshots put the
        # central stencil on samples past the middle one, whose omega
        # rows replace the first ones in the ring of five.
        grid = Grid(n)
        rng = np.random.default_rng(n)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: threads)
        monkeypatch.setattr(workers_module, "_THREADED_MIN_N", 8)
        for count in (5, 7):
            velocities = [make_random_velocity(grid, rng) for _ in range(count)]
            times = np.linspace(0.0, 0.1 * (count - 1), count)
            raw, normalized = whole_field_residual(grid, velocities, 0.1)
            got = vorticity_transport_residual(grid, times, velocities)
            assert np.array_equal(got[0], raw)
            assert np.array_equal(got[1], normalized)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [8, 10, 16, 26, 64])
    def test_every_group_takes_a_padded_row(self, n, threads, monkeypatch):
        # The pass sizes its block so that it holds the comparison's
        # buffers, also when its region is sized for what diagnose lends
        # its records: a ring of five physical omega components, a padded
        # omega component and three slabs per thread, and one padded
        # transport row, for the group of one sample that is compared
        # at a time.  Each omega row enters the ring once per component,
        # and the samples give the bits of the whole series.
        grid = Grid(n)
        band = Band(grid)
        rng = np.random.default_rng(n)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: threads)
        monkeypatch.setattr(workers_module, "_THREADED_MIN_N", 8)
        carves, inverses = [], []

        def spy(*specs, block=None):
            carves.append(specs)
            return workers_module._carve(*specs, block=block)

        def counting(band, coeffs, out, pad):
            inverses.append(coeffs.shape)
            return fields_module._band_inverse_into(band, coeffs, out, pad)

        monkeypatch.setattr(envelopes_module, "_carve", spy)
        monkeypatch.setattr(envelopes_module, "_band_inverse_into", counting)
        for count in (5, 7):
            velocities = [make_random_velocity(grid, rng)
                          for _ in range(count)]
            times = np.linspace(0.0, 0.1 * (count - 1), count)
            raw, normalized = vorticity_transport_residual(grid, times,
                                                           velocities)
            for lend in (0, record_scratch_size(band)):
                snapshots = _SnapshotPass(grid, band, lend=lend)
                for v in velocities:
                    snapshots.fields(band.restrict(v))
                    snapshots.add_transport()
                carves.clear()
                inverses.clear()
                got = snapshots.residual(uniform_spacing(times))
                ((ring, pads, _, pad),) = carves
                assert ring[0] == (5, n, n, n)
                assert pads[0][1:] == pad[0] == (n, n, band.m + 1)
                assert len(inverses) == 3 * count
                assert np.array_equal(got[0], raw)
                assert np.array_equal(got[1], normalized)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stencil_sees_the_record_omega(self, threads, monkeypatch):
        # The comparison rebuilds each omega row from its compact row by
        # the passes that the record's physical omega took, so every
        # slab of every sample of the stencil is that omega bit for bit.
        grid = Grid(16)
        band = Band(grid)
        rng = np.random.default_rng(16)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: threads)
        monkeypatch.setattr(workers_module, "_THREADED_MIN_N", 8)
        monkeypatch.setattr(workers_module, "_SLAB_PLANES", 4)
        monkeypatch.setattr(workers_module, "_SLAB_POINTS", 1024)
        slabs = workers_module._slabs(16)
        assert len(slabs) == 4
        snapshots = _SnapshotPass(grid, band)
        omegas = []
        for _ in range(7):
            v = band.restrict(make_random_velocity(grid, rng))
            omegas.append(snapshots.fields(v)[1].copy())
            snapshots.add_transport()
        rings, calls = [], []

        def carving(*specs, block=None):
            views = workers_module._carve(*specs, block=block)
            rings.append(views[0])
            return views

        def spy(samples, k, spacing, out, work):
            first = min(max(k - 2, 0), len(samples) - 5)
            calls.append([(j, samples[j].copy(), samples[j].ctypes.data)
                          for j in range(first, first + 5)])
            return derivative(samples, k, spacing, out, work)

        derivative = envelopes_module._derivative_sample
        monkeypatch.setattr(envelopes_module, "_carve", carving)
        monkeypatch.setattr(envelopes_module, "_derivative_sample", spy)
        snapshots.residual(0.1)
        (ring,) = rings
        assert len(calls) == 3 * 7 * len(slabs)
        for c, window in enumerate(calls):
            i = c // (7 * len(slabs))  # component by component
            for j, slab, address in window:
                slot, offset = divmod(address - ring.ctypes.data,
                                      ring[0].nbytes)
                assert slot == j % 5
                x = offset // (16 * 16 * 8)
                assert (slab.tobytes()
                        == omegas[j][i, x:x + len(slab)].tobytes())

    def test_comparison_allocates_no_slab(self, monkeypatch):
        # The comparison forms each sample's stencil, the transport term
        # and their temporaries in three slabs per thread carved from
        # the pass's block.  Over seven n=64 rows on two threads it
        # allocates 0.01 fields of the grid, against 5.0 while
        # derivative_4th stacked the omega rows and allocated its
        # stencil per part; the maxima are still those of the
        # whole-field expressions.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: 2)
        grid = Grid(64)
        band = Band(grid)
        rng = np.random.default_rng(11)
        velocities = [make_random_velocity(grid, rng) for _ in range(7)]
        got = []
        snapshots = _SnapshotPass(grid, band)
        for v in velocities:
            snapshots.fields(band.restrict(v))
            snapshots.add_transport()
        peak = traced_peak_fields(
            grid, lambda: got.extend(snapshots.residual(0.1)))
        assert peak < 0.5
        raw, normalized = whole_field_residual(grid, velocities, 0.1)
        assert np.array_equal(got[0], raw)
        assert np.array_equal(got[1], normalized)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_stay_on_the_band(self, threads, monkeypatch):
        # Each transport row is the compact 2/3-rule band spectrum of the
        # term, and forming it allocates nothing else of grid size: the
        # row is 0.93 fields at n=64, and numpy's ufunc buffers (8192
        # elements per thread) take up to 0.13 more.  The planes kz <= m
        # of its z pass are carved from the pass's block; a padded
        # component would add 0.69.  The comparison takes its ring and
        # padded rows from the pass's block; a physical row would be 3
        # fields.
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: threads)
        grid = Grid(64)
        band = Band(grid)
        rng = np.random.default_rng(7)
        snapshots = _SnapshotPass(grid, band)
        for _ in range(7):
            snapshots.fields(band.restrict(make_random_velocity(grid, rng)))
            peak = traced_peak_fields(grid, snapshots.add_transport)
            assert peak < 1.2
        assert all(row.dtype == np.complex128
                   and row.shape == (3,) + band.k_squared.shape
                   for row in snapshots.transport + snapshots.omega_hat)
        if threads == 1:
            peak = traced_peak_fields(grid, lambda: snapshots.residual(0.1))
            assert peak < 3.0

    @pytest.mark.parametrize("n", [16, 32])
    def test_transport_term_matches_gradients(self, n):
        # Identical copies have a zero time derivative, so the residual
        # is the transport term alone.  Taylor-Green's products stay in
        # the band, where it must equal (omega . grad) v - (v . grad) omega
        # built from velocity gradients.
        grid = Grid(n)
        v = taylor_green(grid)
        omega = curl(grid, v)
        v_phys, omega_phys = fft_inverse(v), fft_inverse(omega)
        dv, domega = velocity_gradient(grid, v), velocity_gradient(grid, omega)
        transport = np.stack([
            sum(omega_phys[j] * dv[j, i] - v_phys[j] * domega[j, i]
                for j in range(3))
            for i in range(3)])
        raw, _ = vorticity_transport_residual(
            grid, np.linspace(0.0, 0.4, 5), [v.copy() for _ in range(5)])
        assert raw == pytest.approx(np.max(np.abs(transport)), rel=1e-12)
