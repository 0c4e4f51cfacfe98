"""Tests for the RK4 pseudospectral time integrator.

Oracles:
- shear and ABC flows are exact steady Euler solutions, so the RHS must
  vanish and long runs must return the initial field;
- a single viscous Fourier mode decays like exp(-nu k^2 t), giving a
  closed-form trajectory;
- global error on a fixed horizon must shrink 16x when dt halves.
"""

import itertools
import logging
import math
import weakref

import numpy as np
import pytest

from euler_spectra.diagnostics import compute_record
from euler_spectra.errors import ConfigurationError, NumericsError
from euler_spectra.fields import (
    _band_max_speed,
    _max_speed_specs,
    band_inverse,
    divergence_free_error,
    fft_inverse,
    leray_project,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.initial import (
    abc_flow,
    random_solenoidal,
    shear_flow,
    taylor_green,
)
from euler_spectra.snapshot import load_snapshot, write_snapshot
import euler_spectra.solver as solver_module
from euler_spectra.solver import (
    SolverConfig,
    SolverState,
    rhs,
    run,
    step_rk4,
)
import euler_spectra.workers as workers_module

from conftest import (
    UNCARVED_PER_THREAD,
    coordinates,
    make_random_velocity,
    max_speed,
    record_half_spectrum,
    rhs_reference,
    scatter,
    traced_peak_fields,
)


def max_component_diff(a, b):
    return max(np.max(np.abs(x - y)) for x, y in zip(a, b))


class TestSolverConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=-1e-3, t_final=1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=math.nan, t_final=1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=1e-3, t_final=-1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=1e-3, t_final=math.inf)

    def test_rejects_negative_viscosity(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=1e-3, t_final=1.0, nu=-1e-4)

    def test_step_count_divisibility(self):
        assert SolverConfig(dt=1e-3, t_final=1.0).step_count() == 1000
        assert SolverConfig(dt=0.1, t_final=0.0).step_count() == 0
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=3e-3, t_final=1e-2).step_count()


class TestSteadySolutions:
    def test_shear_rhs_vanishes(self, grid16):
        v = shear_flow(grid16)
        f = rhs_reference(grid16, v)
        assert max_component_diff(f, np.zeros_like(f)) < 1e-12

    def test_abc_rhs_vanishes(self, grid16):
        # v x omega = v x v = 0 pointwise for a Beltrami field.
        v = abc_flow(grid16)
        f = rhs_reference(grid16, v)
        assert max_component_diff(f, np.zeros_like(f)) < 1e-11

    def test_abc_run_returns_initial_field(self, grid16):
        v0 = abc_flow(grid16)
        state = run(grid16, v0, SolverConfig(dt=2e-3, t_final=0.1))
        assert state.step_index == 50
        assert state.t == pytest.approx(0.1, abs=1e-12)
        assert max_component_diff(scatter(state.band, state.v), v0) < 1e-13


class TestViscousDecay:
    def test_single_mode_exact_decay(self, grid16):
        # v = (sin y, 0, 0) is an exact Navier-Stokes solution with
        # v(t) = e^{-nu t} v(0); RK4 reproduces exp to O(dt^5) locally.
        nu = 0.3
        v0 = shear_flow(grid16)
        config = SolverConfig(dt=1e-3, t_final=0.5, nu=nu)
        state = run(grid16, v0, config)
        expected = math.exp(-nu * 0.5)
        v_end = fft_inverse(scatter(state.band, state.v))
        _, y, _ = coordinates(grid16)
        err = np.max(np.abs(v_end[0] - expected * np.sin(y)))
        assert err < 1e-12
        assert np.max(np.abs(v_end[1])) < 1e-13

    def test_energy_decreases_under_viscosity(self, grid16):
        v0 = taylor_green(grid16)
        state = run(grid16, v0, SolverConfig(dt=2e-3, t_final=0.1, nu=0.1))
        assert (compute_record(state.band, state.t, state.v).E
                < record_half_spectrum(grid16, 0.0, v0).E)


class TestConvergenceOrder:
    def test_global_error_is_fourth_order(self, grid16):
        # Richardson: with a dt^4 global error, err(dt) / err(dt/2) = 16.
        v0 = taylor_green(grid16)
        horizon = 0.2
        reference = run(grid16, v0,
                        SolverConfig(dt=horizon / 256, t_final=horizon))
        errs = []
        for steps in (8, 16):
            state = run(grid16, v0,
                        SolverConfig(dt=horizon / steps, t_final=horizon))
            errs.append(max_component_diff(state.v, reference.v))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_time_reversal(self, grid16):
        # Inviscid dynamics is reversible: integrating forward then
        # backward (negated velocity) recovers the start to O(dt^4).
        v0 = taylor_green(grid16)
        fwd = run(grid16, v0, SolverConfig(dt=5e-3, t_final=0.2))
        back = run(grid16, -1.0 * scatter(fwd.band, fwd.v),
                   SolverConfig(dt=5e-3, t_final=0.2))
        recovered = -1.0 * scatter(back.band, back.v)
        assert max_component_diff(recovered, v0) < 1e-9


class TestConservation:
    def test_energy_and_helicity_inviscid(self, grid16, rng):
        v0 = make_random_velocity(grid16, rng, scale=0.3)
        first = record_half_spectrum(grid16, 0.0, v0)
        e0, h0 = first.E, first.H
        records = []
        run(grid16, v0, SolverConfig(dt=2e-3, t_final=0.1),
            observers=[lambda s: records.append(
                compute_record(s.band, s.t, s.v))])
        energies = [r.E for r in records]
        helicities = [r.H for r in records]
        assert max(abs(e - e0) for e in energies) < 1e-12 * abs(e0)
        assert max(abs(h - h0) for h in helicities) < 1e-10 * max(abs(h0), 1.0)

    def test_divergence_stays_pinned(self, grid16, rng):
        v0 = make_random_velocity(grid16, rng)
        state = run(grid16, v0, SolverConfig(dt=2e-3, t_final=0.05))
        half = scatter(state.band, state.v)
        assert divergence_free_error(grid16, half) < 1e-13


class TestRunMechanics:
    def test_zero_horizon_is_noop(self, grid16):
        v0 = taylor_green(grid16)
        state = run(grid16, v0, SolverConfig(dt=1e-3, t_final=0.0))
        assert state.step_index == 0
        assert state.t == 0.0
        # Entry re-projection may move coefficients by ulps, nothing more.
        assert max_component_diff(scatter(state.band, state.v), v0) < 1e-16

    def test_physical_initial_accepted(self, grid16):
        v0 = fft_inverse(taylor_green(grid16))
        state = run(grid16, v0, SolverConfig(dt=1e-3, t_final=0.0))
        assert state.v.dtype == np.complex128
        assert max_component_diff(scatter(state.band, state.v),
                                  taylor_green(grid16)) < 1e-15

    def test_observer_cadence(self, grid16):
        seen = []
        run(grid16, taylor_green(grid16), SolverConfig(dt=1e-2, t_final=0.05),
            observers=[lambda s: seen.append((s.step_index, s.t))])
        assert [i for i, _ in seen] == [0, 1, 2, 3, 4, 5]
        assert seen[-1][1] == pytest.approx(0.05, abs=1e-12)

    def test_clock_has_no_drift(self, grid16):
        # t is computed as step_index * dt, not accumulated, so even
        # thousands of steps stay exact to the last bit.
        times = []
        run(grid16, shear_flow(grid16), SolverConfig(dt=1e-3, t_final=0.02),
            observers=[lambda s: times.append(s.t)])
        for i, t in enumerate(times):
            assert t == i * 1e-3

    def test_start_released_once_stepped_past(self, grid16):
        # Neither the caller's only reference to the start nor the
        # step-0 state outlives the steps that follow them.
        held = [taylor_green(grid16)]
        start = weakref.ref(held[0])
        step0 = []
        alive = {}

        def observer(state):
            if state.step_index == 0:
                step0.append(weakref.ref(state.v))
            alive[state.step_index] = (start() is not None,
                                       step0[0]() is not None)

        run(grid16, held.pop(), SolverConfig(dt=1e-3, t_final=2e-3),
            observers=[observer])
        assert alive[0][0] is False
        assert alive[2] == (False, False)

    def test_dealiased_observers_get_the_band(self, grid16):
        # A dealiased run holds its state on the band, hands it to the
        # observers as it is and returns the last of them; it scatters
        # nothing: a band has no way back to the half spectrum.
        seen = []
        assert not hasattr(Band, "scatter")
        final = run(grid16, taylor_green(grid16),
                    SolverConfig(dt=1e-2, t_final=0.03),
                    observers=[seen.append])
        m = grid16.n // 3
        assert [state.step_index for state in seen] == [0, 1, 2, 3]
        for state in seen:
            assert isinstance(state.band, Band)
            assert state.v.shape == (3, 2 * m + 1, 2 * m + 1, m + 1)
        assert final is seen[-1]
        assert (final.t, final.step_index) == (seen[-1].t, 3)

    def test_unmasked_observers_get_the_nyquist_free_band(self, grid16):
        # With dealias off the state lives on the band of every mode but
        # the Nyquist planes, m = n/2 - 1, to the returned state.
        seen = []
        final = run(grid16, taylor_green(grid16),
                    SolverConfig(dt=1e-2, t_final=0.03, dealias=False),
                    observers=[seen.append])
        assert [state.step_index for state in seen] == [0, 1, 2, 3]
        for state in seen:
            assert isinstance(state.band, Band) and state.band.m == 7
            assert state.v.shape == (3, 15, 15, 8)
        assert final is seen[-1]
        half = scatter(final.band, final.v)
        assert half.shape == (3, 16, 16, 9)
        assert not half[:, 8].any() and not half[:, :, 8].any()
        assert not half[..., 8].any()

    @pytest.mark.parametrize("dealias", [True, False])
    def test_cfl_sample_is_the_half_spectrum_one(self, dealias, monkeypatch):
        # A band state's CFL sample transforms the band one x-slab at a
        # time; it reads the speed of the half spectrum's velocity bit
        # for bit, on grids of one x-slab (16), of two slabs of 13
        # planes (26) and of eight slabs (64).
        sampled = []
        band_max_speed = solver_module._band_max_speed

        def spy(band, coeffs, *buffers):
            speed = band_max_speed(band, coeffs, *buffers)
            sampled.append((coeffs, speed))
            return speed

        monkeypatch.setattr(solver_module, "_CFL_CHECK_STRIDE", 1)
        monkeypatch.setattr(solver_module, "_band_max_speed", spy)
        for n in (16, 26, 64):
            grid, states = Grid(n), []
            sampled.clear()
            run(grid, random_solenoidal(grid, seed=3),
                SolverConfig(dt=1e-3, t_final=3e-3, dealias=dealias),
                observers=[states.append])
            assert len(sampled) == len(states) == 4
            for (coeffs, speed), state in zip(sampled, states):
                assert state.band.m == (n // 3 if dealias else n // 2 - 1)
                assert coeffs is state.v
                half = scatter(state.band, state.v)
                assert speed == max_speed(fft_inverse(half))

    @pytest.mark.parametrize("dealias", [True, False])
    def test_peak_memory_of_the_cfl_sample(self, dealias):
        # The sample holds its carved block, a padded vector and the
        # buffers of one x-slab, and no physical field of the grid.  It
        # measured 2.69 fields of the n=64 grid on the 2/3-rule band and
        # 3.63 on the Nyquist-free one (blocks of 2.69 and 3.63),
        # against 5.00 while it took max_speed of the physical velocity.
        grid = Grid(64)
        band = Band(grid, None if dealias else 31)
        v = band.restrict(random_solenoidal(grid, seed=1))
        specs = _max_speed_specs(band)
        block = workers_module._carved_size(*specs) / (8 * 64 ** 3)
        peak = traced_peak_fields(grid, lambda: _band_max_speed(
            band, v, *workers_module._carve(*specs)))
        assert peak < block + 0.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_step(self, grid16):
        # A gigantic dt makes RK4 unstable within a few steps.
        v0 = taylor_green(grid16)
        with pytest.raises(NumericsError) as exc_info:
            run(grid16, v0, SolverConfig(dt=50.0, t_final=500.0))
        err = exc_info.value
        assert err.step_index is not None and err.step_index >= 1
        assert err.time is not None

    def test_cfl_warning_logged_once(self, grid16, caplog):
        v0 = taylor_green(grid16)
        config = SolverConfig(dt=0.5, t_final=1.0, cfl_warning=0.05)
        with caplog.at_level(logging.WARNING, "euler_spectra.solver"):
            try:
                run(grid16, v0, config)
            except NumericsError:
                pass  # instability is fine; we only care about the log
        warnings = [r for r in caplog.records if "CFL" in r.message]
        assert len(warnings) == 1

    def test_no_cfl_warning_when_resolved(self, grid16, caplog):
        v0 = taylor_green(grid16)
        with caplog.at_level(logging.WARNING, "euler_spectra.solver"):
            run(grid16, v0, SolverConfig(dt=1e-3, t_final=0.01))
        assert not [r for r in caplog.records if "CFL" in r.message]


class TestDealiasingEffect:
    def test_masked_run_keeps_band_limited(self, grid16):
        state = run(grid16, taylor_green(grid16),
                    SolverConfig(dt=2e-3, t_final=0.1))
        outside = ~grid16.dealias_mask
        for comp in scatter(state.band, state.v):
            assert np.max(np.abs(comp[outside])) == 0.0

    @pytest.mark.parametrize("n", [16, 26, 32, 64])
    @pytest.mark.parametrize("nu", [0.0, 0.01])
    def test_band_state_matches_full_layout(self, n, nu, rng, monkeypatch):
        # On both bands a run steps on, the 2/3-rule band and the
        # Nyquist-free band of dealias: false, rhs and one RK4 step on
        # the compact state give the full-layout reference cut to the
        # band bit for bit: the band modes are equal, every other mode
        # is zero in both, and on the Nyquist-free band that cut drops
        # only the Nyquist planes.  That holds on one thread and with
        # the worker, whatever this host has, and at n=26, whose x-slabs
        # once ended with a short one that the slab buffers did not fit.
        grid = Grid(n)
        dt = 1e-3
        config = SolverConfig(dt=dt, t_final=dt, nu=nu)
        for m in (n // 3, n // 2 - 1):
            band = Band(grid, m)
            v = make_random_velocity(grid, rng, band=band)
            compact = band.restrict(v)

            def cut_rhs(u):
                return scatter(band, band.restrict(rhs_reference(grid, u, nu)))

            k1 = cut_rhs(v)
            k2 = cut_rhs(v + (0.5 * dt) * k1)
            k3 = cut_rhs(v + (0.5 * dt) * k2)
            k4 = cut_rhs(v + dt * k3)
            full = leray_project(
                grid, v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            assert np.array_equal(band_inverse(band, compact),
                                  fft_inverse(v))
            for threaded in (False, True):
                monkeypatch.setattr(workers_module, "_threaded",
                                    lambda n, threaded=threaded: threaded)
                assert np.array_equal(
                    scatter(band, rhs(band, compact, nu)), k1)
                banded = step_rk4(SolverState(0.0, compact, 0, band), config)
                assert np.array_equal(scatter(band, banded.v), full)
                assert (banded.t, banded.step_index) == (dt, 1)

    @staticmethod
    def step_peaks(rng, monkeypatch, cpus, calls):
        """The traced peaks of ``calls`` n=64 band steps on ``cpus``
        CPUs, in fields of the grid, and the size of a step's block and
        of the state it returns, in the same unit."""
        grid = Grid(64)
        band = Band(grid)
        # A band forms its |k|^2 tables at their first read, once; the
        # steps of a run share them.
        band.k_squared_safe
        state = SolverState(0.0, band.restrict(make_random_velocity(grid,
                                                                    rng)),
                            0, band)
        config = SolverConfig(dt=1e-3, t_final=1e-3)
        monkeypatch.setattr(workers_module, "_cpu_count", lambda: cpus)
        carved = (solver_module._BandWorkspace(band).padded.base.nbytes
                  + state.v.nbytes)
        peaks = [traced_peak_fields(grid, lambda: step_rk4(state, config))
                 for _ in range(calls)]
        return peaks, carved / (8 * grid.n ** 3)

    def test_peak_memory_of_one_band_step(self, rng, monkeypatch):
        # v and omega exist one x-slab at a time, and v x omega one
        # component of a slab at a time.  One thread, so that the peak
        # does not depend on the host: it measured 9.73 fields of the
        # grid, against 10.2 while a slab held v x omega whole and its
        # rfft along z, 14.6 before the step's buffers were one block,
        # and 22.5 while a step held the three physical vector fields
        # whole.
        (peak,), _ = self.step_peaks(rng, monkeypatch, 1, 1)
        assert peak < 10.0

    def test_peak_memory_of_one_band_step_on_two_lanes(self, rng,
                                                       monkeypatch):
        # Each thread holds its own slab buffers, so a step peaks within
        # UNCARVED_PER_THREAD per thread of its block and the state it
        # returns (11.36 fields of the grid).  It measured 11.49-11.62
        # fields (the most on the first call of a process), against 12.5
        # while a slab held v x omega whole and its rfft along z.
        peaks, carved = self.step_peaks(rng, monkeypatch, 2, 3)
        assert max(peaks) < carved + 2 * UNCARVED_PER_THREAD

    @pytest.mark.parametrize("threaded", [False, True])
    def test_band_workspace_is_one_block(self, threaded, monkeypatch):
        # Every buffer of a step is a view of one allocation, which
        # glibc can serve from heap pages a previous step mapped, and
        # no two buffers share a byte.
        monkeypatch.setattr(workers_module, "_threaded",
                            lambda n: threaded)
        space = solver_module._BandWorkspace(Band(Grid(16)))
        buffers = [value for value in vars(space).values()
                   if isinstance(value, np.ndarray)]
        assert space.slab_fields.shape[0] == (2 if threaded else 1)
        block = buffers[0].base
        assert block is not None and block.ndim == 1
        for buffer in buffers:
            assert buffer.base is block
            assert np.shares_memory(buffer, block)
        for a, b in itertools.combinations(buffers, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("start", ["out_of_band_mode", "physical"])
    def test_dealiased_run_steps_on_the_band(self, grid16, start,
                                             monkeypatch, tmp_path):
        # Every dealiased run steps on the band, whatever the start
        # holds outside it, and returns a state that is zero there.
        spaces = []

        def spy(state, config):
            spaces.append(type(state.band).__name__)
            return step_rk4(state, config)

        monkeypatch.setattr(solver_module, "step_rk4", spy)
        v0 = taylor_green(grid16)
        if start == "out_of_band_mode":
            v0[1, 6, 0, 0] = v0[1, -6, 0, 0] = 0.1  # cos(6x) along y
        else:
            path = tmp_path / "tg.bin"
            write_snapshot(path, grid16, v0, 0.0)
            v0 = load_snapshot(path)[0]  # physical; rounding off the band
        state = run(grid16, v0, SolverConfig(dt=1e-3, t_final=2e-3))
        assert spaces == ["Band", "Band"]
        half = scatter(state.band, state.v)
        assert not half[:, ~grid16.dealias_mask].any()

    def test_unmasked_run_differs(self, grid16):
        config_on = SolverConfig(dt=2e-3, t_final=0.1, dealias=True)
        config_off = SolverConfig(dt=2e-3, t_final=0.1, dealias=False)
        a = run(grid16, taylor_green(grid16), config_on)
        b = run(grid16, taylor_green(grid16), config_off)
        assert max_component_diff(scatter(a.band, a.v),
                                  scatter(b.band, b.v)) > 1e-12
