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
grid.  It shares every phase of its evaluations with one worker thread
when :mod:`euler_spectra.workers` allows one (n >= 64 and two CPUs or
more, the rule that diagnostics records follow too): the inverse x
pass by component, the slabs in turn, the forward x pass by y halves,
and by x halves of the band the y pass, the projection, the viscous
term, the RK4 stage arithmetic and the final projection.  The thread
is started by the step and joined at its end.  The step's buffers are
views of one block that the calling thread allocates per step, which
from the second step on glibc serves from pages it has already mapped
(see :class:`_BandWorkspace`), and the result is the same bit for bit
as on one thread.  No setting selects this; :func:`step_threads`
reports the choice.
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
    _band_pad_inverse_x,
    _curl_component,
    _inverse_yz,
    band_inverse,
    check_velocity,
    cross_product,
    fft_forward,
    leray_project,
    max_speed,
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
# sample transforms the band (band_inverse), which skips the lines
# outside it.
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
    The work may be shared with a worker thread (see the module
    docstring); the result is the same bit for bit.  ``workspace``
    holds the buffers and the worker of the :func:`step_rk4` call that
    evaluates this; a call without one makes its own.  The result is
    written into ``out`` when it is given.
    """
    if workspace is None:
        with _BandWorkspace(band) as own:
            return rhs(band, v, nu, own, out)
    return workspace.evaluate(v, nu, np.empty_like(v) if out is None
                              else out)


class _BandWorkspace:
    """Buffers and worker thread for the band evaluations of one step.

    Every buffer is a view of one ``np.empty`` block
    (:func:`euler_spectra.workers._carve`), allocated by the calling
    thread, that lives as long as this object: one RK4 step.  One block,
    because glibc gives a freed block above its mmap threshold back to
    the OS and then raises the threshold to that block's size (up to
    32 MB): from the second step on the block comes from the heap, whose
    pages stay mapped, where a dozen buffers of a few megabytes would
    each be mapped and faulted in again every step.  The block is not
    kept for a whole run, and records do not share it: a diagnostics
    record carves a block of its own for its duration
    (:func:`euler_spectra.diagnostics.compute_record`), and a block that
    is never freed would keep glibc's mmap threshold low, so that every
    other array of grid size (a record's compact curl, a snapshot's
    physical field) would be mapped and faulted in again.  Nothing is
    allocated by the worker thread, whose arrays would land in a malloc
    arena of its own.

    The buffers: ``padded``, v and omega zero-padded to the planes
    kz <= m, whose v half also takes the forward passes; ``acc``, ``k``
    and ``stage`` of :func:`step_rk4`, where ``k`` also holds omega's
    compact components during the inverse pass of every evaluation
    (the step never needs its old value then); and per thread ("lane",
    :func:`euler_spectra.workers._split_lanes`) the temporary of a curl
    component, the physical v, omega and v x omega of a slab, the
    products of ``cross_product``, the ``rfft`` along z of a slab, and
    the temporaries of ``leray_project`` on an x half.  The worker is a
    one-thread executor (:func:`euler_spectra.workers._worker`), made
    here and joined on exit.
    """

    def __init__(self, band: Band):
        n, m = band.n, band.m
        self.band = band
        self._pool = _worker(n)
        self.worker = self._pool.__enter__()
        self.slabs = _slabs(n)
        lanes, planes = _lanes(self.worker), self.slabs[0].stop
        compact = (3, 2 * m + 1, 2 * m + 1, m + 1)
        c, f = np.complex128, np.float64
        (self.padded, self.acc, self.k, self.stage, self.curl_work,
         self.slab_fields, self.slab_products, self.slab_spectra,
         self.half_work) = _carve(
            ((2, 3, n, n, m + 1), c), (compact, c), (compact, c),
            (compact, c), ((lanes,) + compact[1:], c),
            ((lanes, 3, 3, planes, n, n), f), ((lanes, planes, n, n), f),
            ((lanes, 3, planes, n, n // 2 + 1), c),
            ((lanes, 2, m + 1, 2 * m + 1, m + 1), c))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pool.__exit__(*exc_info)

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
        along y and z, multiplied, and transformed back along z into the
        planes kz <= m of v's padded buffer, which the slab has
        consumed; the x pass runs by y halves; and each x half of the
        band runs the y pass, the gather of its band modes into ``out``,
        the projection and the viscous term.  Every line goes through
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
            fields = self.slab_fields[lane]  # v, omega, v x omega
            _inverse_yz(padded[:, :, x], n, out=fields[:2])
            cross_product(fields[0], fields[1], fields[2],
                          work=self.slab_products[lane])
            _band_forward_z(band, fields[2], padded[0, :, x],
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
    :mod:`euler_spectra.workers` allows a worker (n >= 64, two CPUs or
    more), else 1."""
    return 2 if _threaded(grid.n) else 1


def _check_finite(v: np.ndarray, step_index: int, t: float):
    for label, arr in zip("123", v):
        if not np.all(np.isfinite(arr)):
            raise NumericsError(
                f"non-finite velocity component v{label} after step "
                f"{step_index} (t={t:.6g}); last good state was step "
                f"{step_index - 1}",
                step_index=step_index, time=t)


def step_rk4(band: Band, state: SolverState,
             config: SolverConfig) -> SolverState:
    """Advance one classical RK4 step and re-project the result.

    ``band`` is the :class:`Band` of ``state.v``, as for :func:`rhs`;
    the four evaluations share one set of buffers and one worker
    thread, and the stage arithmetic and the final projection run by x
    halves of the band on both threads.  The stages and the combination
    are formed in place, in the order of
    ``v + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, so they round as that
    expression does.  The new state names ``band``.

    Raises
    ------
    NumericsError
        If the updated velocity contains NaN or Inf; the exception
        records the failing step index and time.
    """
    dt, nu = config.dt, config.nu
    v = state.v
    new_v = np.empty_like(v)
    with _BandWorkspace(band) as workspace:
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

    def check_cfl(s: SolverState):
        nonlocal warned_cfl
        if warned_cfl:
            return
        cfl = max_speed(s.physical()) * config.dt / grid.dx
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
        state = step_rk4(band, state, config)
        if state.step_index % _CFL_CHECK_STRIDE == 0:
            check_cfl(state)
        for obs in observers:
            obs(state)
    return state
