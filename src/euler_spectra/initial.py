"""Initial velocity fields: classical benchmarks and random ensembles.

Every generator returns a *spectral* (complex128, half-spectrum shape
``(3, n, n, n//2 + 1)``), solenoidally-projected, dealiased velocity,
ready to hand to the solver.
Generators are deterministic: the same arguments (and seed, where
applicable) reproduce the same field bit for bit.
"""

import numpy as np

from euler_spectra.errors import ConfigurationError
from euler_spectra.fields import (
    fft_forward,
    fft_inverse,
    integrate_domain,
    leray_project,
    magnitude_squared,
)
from euler_spectra.grid import Grid


def _finalize(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    """Project and dealias a freshly built spectral field, in place.

    The values of ``leray_project(grid, vhat)`` with every mode outside
    the 2/3-rule ball zeroed, without a second or third spectrum alive
    at once.
    """
    leray_project(grid, vhat, out=vhat)
    np.copyto(vhat, 0.0, where=~grid.dealias_mask)
    return vhat


def _axes(grid: Grid):
    """The coordinates x, y, z as 1-D axes that broadcast to the grid.

    Every term built from them has the values that dense ij-indexed
    meshgrids of the axes give, without three dense arrays of them
    (50 MB less at n=128).
    """
    axis = np.arange(grid.n, dtype=np.float64) * grid.dx
    return axis[:, None, None], axis[None, :, None], axis[None, None, :]


def _stack(grid: Grid, components) -> np.ndarray:
    """The physical vector field of three broadcast components."""
    shape = (grid.n,) * 3
    return np.stack([np.broadcast_to(u, shape) for u in components])


def taylor_green(grid: Grid) -> np.ndarray:
    """Taylor-Green vortex.

    v = (sin x cos y cos z, -cos x sin y cos z, 0).  Zero helicity,
    mirror-symmetric, and exactly divergence-free; the classical
    stretching benchmark.
    """
    x, y, z = _axes(grid)
    u1 = np.sin(x) * np.cos(y) * np.cos(z)
    u2 = -np.cos(x) * np.sin(y) * np.cos(z)
    return _finalize(grid, fft_forward(_stack(grid, (u1, u2, 0.0))))


def abc_flow(grid: Grid, a: float = 1.0, b: float = 1.0,
             c: float = 1.0) -> np.ndarray:
    """Arnold-Beltrami-Childress flow.

    v = (a sin z + c cos y, b sin x + a cos z, c sin y + b cos x).
    An eigenfunction of curl (curl v = v), hence a steady solution of
    the inviscid equations — ideal for conservation and steadiness
    checks.
    """
    x, y, z = _axes(grid)
    u1 = a * np.sin(z) + c * np.cos(y)
    u2 = b * np.sin(x) + a * np.cos(z)
    u3 = c * np.sin(y) + b * np.cos(x)
    return _finalize(grid, fft_forward(_stack(grid, (u1, u2, u3))))


def shear_flow(grid: Grid) -> np.ndarray:
    """Plane shear v = (sin y, 0, 0): unidirectional, zero middle eigenvalue."""
    _, y, _ = _axes(grid)
    return _finalize(grid, fft_forward(_stack(grid, (np.sin(y), 0.0, 0.0))))


def random_solenoidal(grid: Grid, seed: int, peak_k: float = 4.0,
                      slope: float = 2.0,
                      amplitude: float = 1.0) -> np.ndarray:
    """Random divergence-free field with a bump spectrum.

    White Gaussian noise is shaped by the radial envelope
    ``k**slope * exp(-(k/peak_k)**2)``, projected, restricted to the
    dealiased ball, and rescaled so the kinetic energy equals
    ``amplitude``.

    Raises
    ------
    ConfigurationError
        If ``peak_k`` does not fit inside the dealiased band or the
        amplitude is not positive.
    """
    if not peak_k > 0.0:
        raise ConfigurationError(f"peak_k must be positive, got {peak_k}")
    if peak_k >= grid.dealias_limit:
        raise ConfigurationError(
            f"peak_k={peak_k} does not fit in the dealiased band "
            f"(|k| <= {grid.dealias_limit}) of an n={grid.n} grid")
    if not amplitude > 0.0:
        raise ConfigurationError(
            f"amplitude must be positive, got {amplitude}")

    rng = np.random.default_rng(seed)
    vhat = fft_forward(rng.standard_normal((3, grid.n, grid.n, grid.n)))

    kmag = grid.mode_radius()
    with np.errstate(divide="ignore"):
        envelope = np.where(
            kmag > 0.0,
            kmag ** slope * np.exp(-((kmag / peak_k) ** 2)),
            0.0)
    shaped = _finalize(grid, np.multiply(vhat, envelope, out=vhat))

    energy = 0.5 * integrate_domain(grid,
                                    magnitude_squared(fft_inverse(shaped)))
    if energy <= 0.0:
        raise ConfigurationError(
            "random field degenerated to zero energy; check the spectrum "
            "parameters")
    shaped *= float(np.sqrt(amplitude / energy))
    return shaped

