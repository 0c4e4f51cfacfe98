"""Time integration of the incompressible Euler / Navier-Stokes equations.

The momentum equation is advanced in rotational form,

    dv/dt = P[ v x omega ] - nu * |k|^2 * v ,

where P is the solenoidal projection and the cross product is evaluated
pointwise in physical space and dealiased by the 2/3 rule before
projection.  The rotational form conserves kinetic energy exactly in
the spatial semidiscretization (the pressure-gradient part is removed
by P; the aliasing residue by the 2/3 rule), so at nu = 0 energy
drift measures only the time integrator.

Time stepping is the classical fourth-order Runge-Kutta scheme.  The
state is re-projected after each full step: the RK combination of
projected stages is already solenoidal in exact arithmetic, so this
only sweeps up rounding, but it pins the divergence at machine zero
over long runs.

A dealiased run integrates the Fourier-Galerkin system that the 2/3
rule truncates to the band |k_j| <= n//3, which has no other modes.
``run`` cuts the projected start to that band and takes every step on
the compact band layout of :class:`~euler_spectra.grid.Band`, whose
forward transform computes only the kept modes; the state goes back to
the half spectrum after each step for the observers.  A run with
``dealias`` off steps on the full half spectrum of the
:class:`~euler_spectra.grid.Grid` and masks nothing.

A band step forms v, omega and v x omega in physical space one x-slab
at a time, between the x pass of the inverse transforms and the x pass
of the forward one, so it holds no physical vector field of the whole
grid.  It shares its transforms with one worker thread when
:mod:`euler_spectra.workers` allows one (n >= 64 and two CPUs or
more, the rule that diagnostics records follow too): the worker
transforms v along x while the caller transforms omega, and the two
take the slabs in turn and halves of the forward passes.  The thread is
started by the step and joined at its end, the step's buffers are
allocated by the calling thread, and the result is the same bit for bit
as on one thread.  No setting selects this; :func:`step_threads`
reports the choice.
"""

import logging
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from euler_spectra.errors import ConfigurationError, NumericsError
from euler_spectra.fields import (
    _band_forward_x,
    _band_forward_y,
    _band_pad_inverse_x,
    _forward_z,
    _inverse_yz,
    check_velocity,
    cross_product,
    curl,
    fft_forward,
    fft_inverse,
    leray_project,
    max_speed,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.workers import (
    _lanes,
    _slabs,
    _split,
    _split_lanes,
    _threaded,
    _worker,
)

logger = logging.getLogger("euler_spectra.solver")

# Steps between CFL samplings during run(); each sample costs one
# inverse transform of the velocity, a third of the transforms of an
# rhs evaluation, so checking every step would tax small grids.
_CFL_CHECK_STRIDE = 25


@dataclass
class SolverConfig:
    """Time-integration parameters.

    Attributes
    ----------
    dt : float
        Time step, > 0.
    t_final : float
        End time, >= 0 and an integer multiple of dt (a zero makes
        run() a no-op that returns the projected initial state).
    nu : float
        Kinematic viscosity, >= 0; zero selects the inviscid equations.
    dealias : bool
        Integrate the 2/3-rule truncated system on the band (see the
        module docstring).  Disabling it is only useful for
        demonstrating aliasing errors.
    cfl_warning : float
        Advective CFL number above which run() logs a warning.
    """

    dt: float
    t_final: float
    nu: float = 0.0
    dealias: bool = True
    cfl_warning: float = 0.5

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.t_final >= 0.0 and np.isfinite(self.t_final)):
            raise ConfigurationError(
                f"t_final must be >= 0, got {self.t_final}")
        if not (self.nu >= 0.0 and np.isfinite(self.nu)):
            raise ConfigurationError(f"nu must be >= 0, got {self.nu}")
        if not self.cfl_warning > 0.0:
            raise ConfigurationError(
                f"cfl_warning must be positive, got {self.cfl_warning}")

    def step_count(self) -> int:
        """Number of steps to reach t_final, validating divisibility."""
        steps = int(round(self.t_final / self.dt))
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(self.dt, 1.0):
            raise ConfigurationError(
                f"t_final={self.t_final} is not an integer multiple of "
                f"dt={self.dt}")
        return steps


@dataclass
class SolverState:
    """Solver state: spectral velocity plus clock and step counter."""

    t: float
    v: np.ndarray
    step_index: int = 0


def rhs(grid: Grid | Band, v: np.ndarray, nu: float = 0.0,
        workspace: "_BandWorkspace | None" = None) -> np.ndarray:
    """Right-hand side of the momentum equation for a spectral velocity.

    Rotational form: transform v and omega = curl v to physical space,
    form v x omega, come back, project, and add the diffusion term.
    ``grid`` is the :class:`Band` of a compact ``v``, whose forward
    transform computes only the kept modes, which is the 2/3 rule; or
    the :class:`Grid` of a half-spectrum one, which masks nothing.  On
    a band the transforms may share the work with a worker thread (see
    the module docstring); the result is the same bit for bit.
    ``workspace`` holds the buffers and the worker of the
    :func:`step_rk4` call that evaluates this; a call without one makes
    its own.
    """
    if isinstance(grid, Band):
        if workspace is not None:
            nonlinear = workspace.nonlinear(v)
        else:
            with _BandWorkspace(grid) as own:
                nonlinear = own.nonlinear(v)
    else:
        v_phys = fft_inverse(v)
        omega_phys = fft_inverse(curl(grid, v))
        nonlinear = fft_forward(cross_product(v_phys, omega_phys))
    out = leray_project(grid, nonlinear)
    if nu != 0.0:
        out = out - (nu * grid.k_squared) * v
    return out


class _BandWorkspace:
    """Buffers and worker thread for the band evaluations of one step.

    Every buffer is allocated here, by the calling thread, and lives as
    long as this object: one RK4 step.  A buffer kept for a whole run
    would sit on top of the peak of the diagnostics record, and outputs
    allocated by the worker thread would land in a malloc arena of its
    own; both raise the peak RSS.  The physical fields v, omega and
    v x omega exist one x-slab at a time, in one slab buffer per thread.
    The worker is a one-thread executor
    (:func:`euler_spectra.workers._worker`), made here and joined on
    exit.
    """

    def __init__(self, band: Band):
        n, m = band.n, band.m
        compact = (3, 2 * m + 1, 2 * m + 1, m + 1)
        self.band = band
        self.omega = np.empty(compact, np.complex128)
        self.spectrum = np.empty(compact, np.complex128)
        self.padded = np.empty((2, 3, n, n, m + 1), np.complex128)
        self.rfft = np.empty((3, n, n, n // 2 + 1), np.complex128)
        self._pool = _worker(n)
        self.worker = self._pool.__enter__()
        self.slabs = _slabs(n)
        # v, omega and v x omega of a slab, one buffer per thread.
        planes = self.slabs[0].stop
        self.slab_fields = np.empty((_lanes(self.worker), 3, 3, planes, n, n))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pool.__exit__(*exc_info)

    def nonlinear(self, v: np.ndarray) -> np.ndarray:
        """The band spectrum of v x omega, in a buffer of this workspace.

        The pass helpers of :func:`~euler_spectra.fields.band_inverse`
        and :func:`~euler_spectra.fields.band_forward`: v and omega are
        zero-padded and transformed along x, each field on a thread of
        its own; then each x-slab is transformed along y and z,
        multiplied and transformed back along z into the ``rfft``
        buffer; then the x and the y passes of the forward transform
        run by halves.  The slabs alternate between the worker and the
        caller.  Every line goes through the arithmetic of the
        whole-field transforms, so the result is the same bit for bit on
        one thread or two.
        """
        band, padded, rfft, n = self.band, self.padded, self.rfft, self.band.n

        def inverse_x(k):
            _band_pad_inverse_x(
                band, v if k == 0 else curl(band, v, out=self.omega),
                padded[k])

        def slab(x, lane):
            fields = self.slab_fields[lane]  # v, omega, v x omega
            _inverse_yz(padded[:, :, x], n, out=fields[:2])
            cross_product(fields[0], fields[1], fields[2])
            _forward_z(fields[2], out=rfft[:, x])

        _split(self.worker, inverse_x, (0, 1))
        _split_lanes(self.worker, slab, self.slabs)
        _split(self.worker, lambda y_rows: _band_forward_x(band, rfft, y_rows),
               (slice(0, n // 2), slice(n // 2, n)))
        _split(self.worker, lambda x_rows: _band_forward_y(band, rfft, x_rows),
               band.halves)
        self.spectrum[...] = rfft[band.index]
        return self.spectrum


def step_threads(grid: Grid, config: SolverConfig) -> int:
    """Threads the steps of ``run(grid, ..., config)`` use: 2 when they
    run on the band and :mod:`euler_spectra.workers` allows a worker
    (n >= 64, two CPUs or more), else 1."""
    return 2 if config.dealias and _threaded(grid.n) else 1


def _check_finite(v: np.ndarray, step_index: int, t: float):
    for label, arr in zip("123", v):
        if not np.all(np.isfinite(arr)):
            raise NumericsError(
                f"non-finite velocity component v{label} after step "
                f"{step_index} (t={t:.6g}); last good state was step "
                f"{step_index - 1}",
                step_index=step_index, time=t)


def step_rk4(grid: Grid | Band, state: SolverState,
             config: SolverConfig) -> SolverState:
    """Advance one classical RK4 step and re-project the result.

    ``grid`` is a :class:`Grid` or a :class:`Band`, as for :func:`rhs`;
    the four evaluations on a band share one set of buffers and one
    worker thread.  The stages and the combination are formed in place,
    in the order of ``v + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, so they
    round as that expression does.

    Raises
    ------
    NumericsError
        If the updated velocity contains NaN or Inf; the exception
        records the failing step index and time.
    """
    dt, nu = config.dt, config.nu
    v = state.v
    with (_BandWorkspace(grid) if isinstance(grid, Band)
          else nullcontext()) as workspace:
        acc = rhs(grid, v, nu, workspace)
        stage = np.multiply(0.5 * dt, acc)
        np.add(v, stage, out=stage)
        k = rhs(grid, stage, nu, workspace)
        np.multiply(0.5 * dt, k, out=stage)
        np.add(v, stage, out=stage)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)
        k = rhs(grid, stage, nu, workspace)
        np.multiply(dt, k, out=stage)
        np.add(v, stage, out=stage)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)
        np.add(acc, rhs(grid, stage, nu, workspace), out=acc)
    np.multiply(dt / 6.0, acc, out=acc)
    np.add(v, acc, out=acc)
    new_v = leray_project(grid, acc)
    new_index = state.step_index + 1
    new_t = new_index * dt + (state.t - state.step_index * dt)
    _check_finite(new_v, new_index, new_t)
    return SolverState(new_t, new_v, new_index)


def run(grid: Grid, initial: np.ndarray, config: SolverConfig,
        observers=()) -> SolverState:
    """Integrate from t = 0 to t_final, notifying observers each step.

    The initial velocity (physical ``(3, n, n, n)`` float64, which is
    transformed first, or spectral ``(3, n, n, n//2 + 1)`` complex128)
    is projected and, when ``config.dealias`` is on, cut to the 2/3-rule
    band; the observers are called once on that initial state and then
    after every step, and the final state is returned.  Observers and
    the returned state hold the half spectrum, also when the steps run
    on the band.  Observer exceptions propagate to the caller, aborting
    the run.  The run keeps no reference to ``initial`` or to the start
    state once it has stepped past it, so a caller that hands over its
    only reference frees them.

    The advective CFL number u_max * dt / dx is sampled at the start
    and every few dozen steps; exceeding ``config.cfl_warning`` logs a
    warning naming the offending value but does not stop the run.

    Raises
    ------
    ContractViolationError
        If ``initial`` is not a float64 or complex128 velocity on ``grid``.
    """
    check_velocity(grid, initial)
    steps = config.step_count()
    if not np.iscomplexobj(initial):
        initial = fft_forward(initial)
    v0 = leray_project(grid, initial)
    del initial
    _check_finite(v0, 0, 0.0)
    band = None
    if config.dealias:
        band = Band(grid)
        v0[:, ~grid.dealias_mask] = 0.0  # not modes of the truncated system
    state = SolverState(0.0, v0, 0)
    del v0  # the start goes with the state that holds it

    def advance(s: SolverState) -> SolverState:
        if band is None:
            return step_rk4(grid, s, config)
        s = step_rk4(band, SolverState(s.t, band.restrict(s.v), s.step_index),
                     config)
        return SolverState(s.t, band.scatter(s.v), s.step_index)

    warned_cfl = False

    def check_cfl(s: SolverState):
        nonlocal warned_cfl
        if warned_cfl:
            return
        cfl = max_speed(fft_inverse(s.v)) * config.dt / grid.dx
        if cfl > config.cfl_warning:
            logger.warning(
                "advective CFL number %.3f exceeds %.3f at t=%.6g; "
                "results may be underresolved in time",
                cfl, config.cfl_warning, s.t)
            warned_cfl = True

    check_cfl(state)
    for obs in observers:
        obs(state)
    for _ in range(steps):
        state = advance(state)
        if state.step_index % _CFL_CHECK_STRIDE == 0:
            check_cfl(state)
        for obs in observers:
            obs(state)
    return state
