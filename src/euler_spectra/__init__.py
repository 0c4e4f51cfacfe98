"""Pseudospectral 3D incompressible Euler solver on the periodic cube.

The package integrates the incompressible Euler (and, optionally, lightly
viscous Navier-Stokes) equations with a dealiased Fourier collocation
method and instruments every run with diagnostics built from the
eigenvalues of the velocity deformation tensor: conserved quantities,
exact integral identities, pointwise decompositions of the velocity
gradient, and a priori growth envelopes for the vorticity.

Fields are plain ndarrays with the components on a leading axis and
the dtype giving the representation (float64 physical, complex128
spectral); see :mod:`euler_spectra.fields`.
"""

from euler_spectra.errors import (
    ConfigurationError,
    ContractViolationError,
    EulerSpectraError,
    NumericsError,
    SnapshotFormatError,
)
from euler_spectra.grid import Grid

__all__ = [
    "ConfigurationError",
    "ContractViolationError",
    "EulerSpectraError",
    "Grid",
    "NumericsError",
    "SnapshotFormatError",
]

__version__ = "0.1.0"
