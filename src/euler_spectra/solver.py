"""Time integration of the incompressible Euler / Navier-Stokes equations.

The momentum equation is advanced in rotational form,

    dv/dt = P[ v x omega ] - nu * |k|^2 * v ,

where P is the solenoidal projection and the cross product is evaluated
pointwise in physical space and truncated to the run's band before
projection.  On the 2/3-rule band the rotational form conserves kinetic
energy exactly in the spatial semidiscretization (the pressure-gradient
part is removed by P; the aliasing residue by the truncation), so at
nu = 0 energy drift measures only the time integrator.

Time stepping is the classical fourth-order Runge-Kutta scheme.  The
state is re-projected after each full step: the RK combination of
projected stages is already solenoidal in exact arithmetic, so this
only sweeps up rounding, but it pins the divergence at machine zero
over long runs.

Every run integrates the Fourier-Galerkin system of a band
|k_j| <= m (:class:`~euler_spectra.grid.Band`), which has no other
modes.  A dealiased run takes m = n//3, the band the 2/3 rule keeps.
A run with ``dealias`` off takes m = n//2 - 1, every mode but the
Nyquist planes: its products alias, which such a run exists to show,
but no mode of its state loses its derivative, so its deformation
tensor stays trace-free.  ``run`` cuts the projected start to the band
and keeps the state on the compact band layout, whose forward
transform computes only the band modes, from the start to the end of
the run: every step runs on it, the observers get it as it is
(:class:`SolverState` names its band), and ``run`` returns the last of
them, so a record, a CFL sample or a snapshot transforms the band and
skips the lines outside it.

A band step forms v, omega and v x omega in physical space one x-slab
at a time, between the x pass of the inverse transforms and the x pass
of the forward one, so it holds no physical vector field of the whole
grid.  It shares every phase of its evaluations with the worker thread
when :mod:`euler_spectra.workers` allows one, and its buffers follow
that module's memory rules; the result is the same bit for bit as on
one thread, and :func:`step_threads` reports the choice.
"""

import logging
from dataclasses import dataclass

import numpy as np

from euler_spectra.errors import ConfigurationError, NumericsError
from euler_spectra.fields import (
    _FIELD_PARTS,
    _band_forward_x,
    _band_forward_y,
    _band_forward_z,
    _band_max_speed,
    _band_pad_inverse_x,
    _cross_component,
    _curl_component,
    _inverse_yz,
    _max_speed_specs,
    band_inverse,
    check_velocity,
    fft_forward,
    leray_project,
)
from euler_spectra.grid import Band, Grid
from euler_spectra.workers import (
    _carve,
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
# rhs evaluation, so checking every step would tax small grids.  The
# sample transforms the band one x-slab at a time (_band_max_speed), so
# it holds no physical field of the whole grid.
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
        run() a no-op that returns the projected initial state on its
        band).
    nu : float
        Kinematic viscosity, >= 0; zero selects the inviscid equations.
    dealias : bool
        On, step on the 2/3-rule band, whose products do not alias;
        off, on the Nyquist-free band (see the module docstring), which
        is only useful for demonstrating aliasing errors.
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
        self.step_count()

    def step_count(self) -> int:
        """Number of steps to reach t_final, validating divisibility;
        a count beyond the float range is infinite and fails the test."""
        steps = np.rint(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(self.dt, 1.0):
            raise ConfigurationError(
                f"t_final={self.t_final} is not an integer multiple of "
                f"dt={self.dt}")
        return int(steps)


@dataclass
class SolverState:
    """Solver state: spectral velocity plus clock and step counter.

    ``v`` is the compact band array ``(3, 2m + 1, 2m + 1, m + 1)`` of
    the :class:`Band` ``band``.
    """

    t: float
    v: np.ndarray
    step_index: int
    band: Band

    def physical(self) -> np.ndarray:
        """The physical velocity ``(3, n, n, n)``: ``band_inverse`` of
        the band, the values of ``fft_inverse`` of the half spectrum
        without the lines outside the band."""
        return band_inverse(self.band, self.v)


def rhs(band: Band, v: np.ndarray, nu: float = 0.0,
        workspace: "_BandWorkspace | None" = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the momentum equation for a compact velocity.

    Rotational form: transform v and omega = curl v to physical space,
    form v x omega, come back, project, and add the diffusion term.
    ``band`` is the :class:`Band` of ``v``, whose forward transform
    computes only its modes, which truncates the product to the band.
    The work may be shared with the worker thread (see the module
    docstring); the result is the same bit for bit.  ``workspace``
    holds the buffers of the :func:`step_rk4` call that evaluates this;
    a call without one makes its own.  The result is written into
    ``out`` when it is given.
    """
    if workspace is None:
        workspace = _BandWorkspace(band)
    return workspace.evaluate(v, nu, np.empty_like(v) if out is None
                              else out)


class _BandWorkspace:
    """Buffers for the band evaluations of one step.

    Every buffer is a view of one block that lives as long as this
    object, one RK4 step, by the rules of :mod:`euler_spectra.workers`.
    The buffers: ``padded``, v and omega zero-padded to the planes
    kz <= m, whose v half also takes the forward passes; ``acc``, ``k``
    and ``stage`` of :func:`step_rk4`, where ``k`` also holds omega's
    compact components during the inverse pass of every evaluation
    (the step never needs its old value then); and per thread ("lane",
    :func:`euler_spectra.workers._split_lanes`) the temporary of a curl
    component, the physical v and omega of a slab, a component of their
    cross product and its subtracted product, the ``rfft`` along z of
    that component, and the temporaries of ``leray_project`` on an x
    half.
    """

    def __init__(self, band: Band):
        n, m = band.n, band.m
        self.band = band
        self.worker = _worker(n)
        self.slabs = _slabs(n)
        lanes, planes = _lanes(self.worker), self.slabs[0].stop
        compact = (3, 2 * m + 1, 2 * m + 1, m + 1)
        c, f = np.complex128, np.float64
        (self.padded, self.acc, self.k, self.stage, self.curl_work,
         self.slab_fields, self.slab_products, self.slab_spectra,
         self.half_work) = _carve(
            ((2, 3, n, n, m + 1), c), (compact, c), (compact, c),
            (compact, c), ((lanes,) + compact[1:], c),
            ((lanes, 2, 3, planes, n, n), f), ((lanes, 2, planes, n, n), f),
            ((lanes, planes, n, n // 2 + 1), c),
            ((lanes, 2, m + 1, 2 * m + 1, m + 1), c))

    def by_halves(self, job):
        """Call ``job(rows, half, work)`` for each ``half`` of
        ``band.x_halves``, split between the threads: ``rows`` are the
        half's rows of a compact array, ``work`` the thread's
        ``leray_project`` temporaries cut to them."""
        def part(half, lane):
            rows = half.rows
            job(rows, half, self.half_work[lane][:, :rows.stop - rows.start])

        _split_lanes(self.worker, part, self.band.x_halves)

    def evaluate(self, u: np.ndarray, nu: float,
                 out: np.ndarray) -> np.ndarray:
        """``rhs(band, u, nu)`` into ``out``, which may be ``k``.

        The pass helpers of :func:`~euler_spectra.fields.band_inverse`
        and the band forward passes of :mod:`euler_spectra.fields`, each
        phase split between the threads: each component of v and of
        omega (whose curl component the same thread forms) is
        zero-padded and transformed along x; each x-slab is transformed
        along y and z, and each component of its v x omega is formed and
        transformed back along z into the planes kz <= m of v's padded
        buffer, which the slab has consumed; the x pass runs by y
        halves; and each x half of the band runs the y pass, the gather
        of its band modes into ``out``, the projection and the viscous
        term.  Every line goes through
        the arithmetic of the whole-field transforms and operators, so
        the result is the same bit for bit on one thread or two.
        """
        band, padded, omega, n = self.band, self.padded, self.k, self.band.n

        def inverse_x(part, lane):
            field, i = part
            coeffs = (u[i] if field == 0 else _curl_component(
                band, u, i, omega[i], work=self.curl_work[lane]))
            _band_pad_inverse_x(band, coeffs, padded[field, i])

        def slab(x, lane):
            v_slab, omega_slab = self.slab_fields[lane]
            product, work = self.slab_products[lane]
            _inverse_yz(padded[:, :, x], n, out=self.slab_fields[lane])
            for i in range(3):
                _cross_component(v_slab, omega_slab, i, product, work=work)
                _band_forward_z(band, product, padded[0, i, x],
                                work=self.slab_spectra[lane])

        def half_tail(rows, half, work):
            part = out[:, rows]
            _band_forward_y(band, padded[0], half, part)
            leray_project(half, part, out=part, work=work)
            if nu != 0.0:
                # nu |k|^2 as complex, as numpy casts it for the product.
                np.multiply(nu, half.k_squared, out=work[0])
                for i in range(3):
                    np.multiply(work[0], u[i, rows], out=work[1])
                    np.subtract(part[i], work[1], out=part[i])

        _split_lanes(self.worker, inverse_x, _FIELD_PARTS)
        _split_lanes(self.worker, slab, self.slabs)
        _split(self.worker, lambda y_rows: _band_forward_x(padded[0], y_rows),
               (slice(0, n // 2), slice(n // 2, n)))
        self.by_halves(half_tail)
        return out


def step_threads(grid: Grid) -> int:
    """Threads the steps of ``run(grid, ...)`` use: 2 when
    :mod:`euler_spectra.workers` allows a worker, else 1."""
    return 2 if _threaded(grid.n) else 1


def _check_finite(v: np.ndarray, step_index: int, t: float):
    """Raise a NumericsError naming the first non-finite component of
    ``v``, the projected start at step 0 or the state after a step."""
    for label, arr in zip("123", v):
        if not np.all(np.isfinite(arr)):
            message = (f"non-finite initial velocity component v{label}"
                       if step_index == 0 else
                       f"non-finite velocity component v{label} after step "
                       f"{step_index} (t={t:.6g}); last good state was "
                       f"step {step_index - 1}")
            raise NumericsError(message, step_index=step_index, time=t)


def step_rk4(state: SolverState, config: SolverConfig) -> SolverState:
    """Advance one classical RK4 step and re-project the result.

    The four evaluations on ``state.band`` share one set of buffers,
    and the stage arithmetic and the final projection run by x halves
    of the band on both threads.  The stages and the combination are
    formed in place, in the order of
    ``v + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, so they round as that
    expression does.  The new state names the same band.

    Raises
    ------
    NumericsError
        If the updated velocity contains NaN or Inf; the exception
        records the failing step index and time.
    """
    dt, nu = config.dt, config.nu
    v, band = state.v, state.band
    new_v = np.empty_like(v)
    workspace = _BandWorkspace(band)
    acc, k, stage = workspace.acc, workspace.k, workspace.stage

    def next_stage(scale, weight=None):
        """The next stage v + scale * k_s on the given rows, then
        acc += weight * k_s; k_1 is acc itself (no weight)."""
        source = acc if weight is None else k

        def job(x, tables, work):
            np.multiply(scale, source[:, x], out=stage[:, x])
            np.add(v[:, x], stage[:, x], out=stage[:, x])
            if weight is not None:
                np.multiply(weight, k[:, x], out=k[:, x])
                np.add(acc[:, x], k[:, x], out=acc[:, x])
        return job

    def combine(x, tables, work):
        np.add(acc[:, x], k[:, x], out=acc[:, x])
        np.multiply(dt / 6.0, acc[:, x], out=acc[:, x])
        np.add(v[:, x], acc[:, x], out=acc[:, x])
        leray_project(tables, acc[:, x], out=new_v[:, x], work=work)

    rhs(band, v, nu, workspace, out=acc)
    workspace.by_halves(next_stage(0.5 * dt))
    rhs(band, stage, nu, workspace, out=k)
    workspace.by_halves(next_stage(0.5 * dt, 2.0))
    rhs(band, stage, nu, workspace, out=k)
    workspace.by_halves(next_stage(dt, 2.0))
    rhs(band, stage, nu, workspace, out=k)
    workspace.by_halves(combine)
    new_index = state.step_index + 1
    new_t = new_index * dt + (state.t - state.step_index * dt)
    _check_finite(new_v, new_index, new_t)
    return SolverState(new_t, new_v, new_index, band)


def run(grid: Grid, initial: np.ndarray, config: SolverConfig,
        observers=()) -> SolverState:
    """Integrate from t = 0 to t_final, notifying observers each step.

    The initial velocity (physical ``(3, n, n, n)`` float64, which is
    transformed first, or spectral ``(3, n, n, n//2 + 1)`` complex128)
    is projected and cut to the run's band: the 2/3-rule band when
    ``config.dealias`` is on, the Nyquist-free one when it is off (see
    the module docstring).  The observers are called once on that
    initial state and then after every step, and the last state they
    saw is returned.  Every state is on the band (``state.v`` compact;
    :meth:`SolverState.physical` transforms it).  Observer exceptions
    propagate to the caller, aborting the run.  The run keeps no
    reference to ``initial`` or to the start state once it has stepped
    past it, so a caller that hands over its only reference frees them.

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
    band = Band(grid, grid.n // 3 if config.dealias else grid.n // 2 - 1)
    state = SolverState(0.0, band.restrict(v0), 0, band)
    del v0  # the state holds the start's band modes alone

    warned_cfl = False
    sample_specs = _max_speed_specs(band)

    def check_cfl(s: SolverState):
        nonlocal warned_cfl
        if warned_cfl:
            return
        speed = _band_max_speed(band, s.v, *_carve(*sample_specs))
        cfl = speed * config.dt / grid.dx
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
        state = step_rk4(state, config)
        if state.step_index % _CFL_CHECK_STRIDE == 0:
            check_cfl(state)
        for obs in observers:
            obs(state)
    return state
