"""Uniform collocation grid on the periodic cube [0, L)^3.

A :class:`Grid` owns every wavenumber table the spectral operators need,
so downstream code never rebuilds (or worse, rebuilds inconsistently)
the derivative wavenumbers, projection wavenumbers, or dealiasing mask.

The tables broadcast against the half spectrum ``(n, n, n//2 + 1)``
(see :mod:`euler_spectra.fields`).

Two distinct wavenumber tables coexist on purpose:

``k_deriv``
    Physical-unit wavenumbers with the Nyquist mode zeroed.  Multiplying
    by ``1j * k_deriv`` differentiates; zeroing the unpaired Nyquist
    mode keeps the discrete derivative skew-adjoint, so quantities like
    the trace of the deformation tensor vanish to rounding.

``k_true``
    The full integer wavenumbers including Nyquist.  The solenoidal
    projection uses these so that it is exactly idempotent on every
    representable mode, Nyquist included.

A :class:`Grid` keeps only the one-dimensional tables, which broadcast;
the tables of the whole half spectrum (|k|^2, the 2/3-rule mask) are
built when read, for the few callers that need them once.  A
:class:`Band` holds the same tables cut to the modes |k_j| <= m, for
the state of a solver run, which lives on that band alone: the modes
the 2/3 rule keeps (m = n//3) on a dealiased run, every mode but the
Nyquist planes (m = n//2 - 1) on the others.  A :class:`BandHalf` holds
the projection tables of one x half of the band, for work split by x
rows.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from euler_spectra.errors import ConfigurationError

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid with n collocation points per axis.

    Parameters
    ----------
    n : int
        Points per axis.  Must be even and at least 8; powers of two
        give the fastest transforms.
    length : float, optional
        Box edge length, default ``2*pi``.

    Notes
    -----
    The one-dimensional tables are computed once in ``__post_init__``
    and attached to the (frozen) instance:

    - ``dx``, ``cell_volume``, ``volume``
    - ``freq``: integer mode numbers along the x or y axis, FFT layout
      (n entries)
    - ``freq_z``: integer mode numbers along the half-spectrum z axis,
      the first n//2 + 1 entries of ``freq`` (0, 1, ..., n/2 - 1, -n/2)
    - ``k_deriv_x/y/z``: broadcastable derivative wavenumbers (Nyquist
      zeroed, physical units)
    - ``k_true_x/y/z``: broadcastable projection wavenumbers
    - ``parseval_weight``: shape (1, 1, n//2 + 1), 1 on the kz = 0 and
      kz = n/2 planes and 2 on every other plane, so that
      ``volume * sum(parseval_weight * |fhat|^2)`` is the integral of
      ``f^2`` over the box

    The tables of the half spectrum, shape ``spectral_shape`` =
    (n, n, n//2 + 1), are properties built on every read, as
    ``mode_radius()`` is, so that no grid holds one through a run or a
    ``diagnose``:

    - ``k_squared``, ``k_squared_safe``: |k|^2 from the true
      wavenumbers; the safe one has 1 at k = 0
    - ``dealias_mask``: boolean keep-mask for the 2/3-rule ball

    The z-axis Nyquist entry keeps the sign of the x and y tables
    (-n/2), so every table equals the full-spectrum one restricted to
    its first n//2 + 1 z planes.
    """

    n: int
    length: float = TAU

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ConfigurationError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ConfigurationError(
                f"grid size must be even and >= 8, got {self.n}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ConfigurationError(
                f"box length must be positive and finite, got {self.length}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

        n = self.n
        object.__setattr__(self, "dx", self.length / n)
        object.__setattr__(self, "cell_volume", (self.length / n) ** 3)
        object.__setattr__(self, "volume", self.length ** 3)

        # Integer mode numbers in FFT layout: 0, 1, ..., n/2-1, -n/2, ..., -1
        freq = np.fft.fftfreq(n, d=1.0 / n).astype(np.float64)
        object.__setattr__(self, "freq", freq)
        half = n // 2 + 1
        object.__setattr__(self, "freq_z", freq[:half].copy())

        scale = TAU / self.length
        k_deriv = scale * freq
        k_deriv[n // 2] = 0.0  # unpaired Nyquist mode carries no derivative
        k_true = scale * freq

        object.__setattr__(self, "k_deriv_x", k_deriv.reshape(n, 1, 1))
        object.__setattr__(self, "k_deriv_y", k_deriv.reshape(1, n, 1))
        object.__setattr__(self, "k_deriv_z",
                           k_deriv[:half].reshape(1, 1, half))
        object.__setattr__(self, "k_true_x", k_true.reshape(n, 1, 1))
        object.__setattr__(self, "k_true_y", k_true.reshape(1, n, 1))
        object.__setattr__(self, "k_true_z",
                           k_true[:half].reshape(1, 1, half))

        # Interior z planes stand for their omitted conjugates as well.
        weight = np.full(half, 2.0)
        weight[0] = weight[-1] = 1.0
        object.__setattr__(self, "parseval_weight", weight.reshape(1, 1, half))

    @property
    def spectral_shape(self) -> tuple:
        """The space shape of a half spectrum, ``(n, n, n//2 + 1)``."""
        return (self.n, self.n, self.n // 2 + 1)

    @property
    def k_squared(self) -> np.ndarray:
        """|k|^2 from the true wavenumbers, shaped like the half
        spectrum; built on read (see the class notes)."""
        return _k_squared(self.k_true_x, self.k_true_y, self.k_true_z)

    @property
    def k_squared_safe(self) -> np.ndarray:
        """:attr:`k_squared` with 1 at k = 0, built on read."""
        return _safe(self.k_squared)

    @property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the 2/3-rule ball (3|k_j| <= n on every
        axis), shaped like the half spectrum; built on read."""
        n, half = self.n, self.n // 2 + 1
        keep_1d = 3 * np.abs(self.freq) <= n
        return (keep_1d.reshape(n, 1, 1)
                & keep_1d.reshape(1, n, 1)
                & keep_1d[:half].reshape(1, 1, half))

    def mode_radius(self):
        """Integer-wavenumber magnitude sqrt(kx^2+ky^2+kz^2).

        Shaped ``(n, n, n//2 + 1)`` like the half spectrum.
        """
        fx = self.freq.reshape(self.n, 1, 1)
        fy = self.freq.reshape(1, self.n, 1)
        fz = self.freq_z.reshape(1, 1, -1)
        return np.sqrt(fx * fx + fy * fy + fz * fz)

    @property
    def dealias_limit(self) -> int:
        """Largest integer mode magnitude retained per axis by the 2/3 rule."""
        return self.n // 3


class Band:
    """The band |k_j| <= m of a grid, as a compact layout.

    ``m`` defaults to n//3, the 2/3-rule band; it may be at most
    n//2 - 1, the band of every mode but the Nyquist planes.  A band
    array has space shape ``(2m + 1, 2m + 1, m + 1)``: the x and y axes
    hold the modes 0, 1, ..., m, -m, ..., -1 (FFT order with the gap
    removed), the z axis kz = 0, ..., m.  The band never contains a
    Nyquist mode; ``spectral_shape`` is that space shape.  The
    wavenumber tables are the :class:`Grid` tables restricted to the
    band, under the same names (``n`` and ``cell_volume`` too), so the
    per-mode operators and the records run on a ``Band`` unchanged.
    The one-dimensional ones are cut from the grid's; the band forms
    its ``k_squared`` and ``k_squared_safe`` itself at their first read
    (a solver run's projection; ``diagnose`` reads none), from its own
    ``k_true_x/y/z`` by the grid's expression, so they are the grid's
    tables cut to the band bit for bit without the grid ever forming
    its own.
    ``restrict`` cuts a half spectrum to the band.  ``x_halves`` cuts
    the band into the x rows of the two ``halves``.
    """

    def __init__(self, grid: Grid, m: int | None = None):
        n, m = grid.n, grid.n // 3 if m is None else m
        self.n, self.m, self.cell_volume = n, m, grid.cell_volume
        # Along x or y: the modes 0..m and -m..-1 as slices of the FFT
        # layout, and the FFT-layout position of each band row.
        self.halves = (slice(0, m + 1), slice(n - m, n))
        rows = np.r_[self.halves]
        # The band modes of a spectrum whose z axis holds kz = 0..m or more.
        self.index = (Ellipsis, rows[:, None], rows, slice(0, m + 1))
        self.k_deriv_x = grid.k_deriv_x[rows]
        self.k_deriv_y = grid.k_deriv_y[:, rows]
        self.k_deriv_z = grid.k_deriv_z[..., :m + 1]
        self.k_true_x = grid.k_true_x[rows]
        self.k_true_y = grid.k_true_y[:, rows]
        self.k_true_z = grid.k_true_z[..., :m + 1]
        self.spectral_shape = (2 * m + 1, 2 * m + 1, m + 1)
        self.x_halves = (BandHalf(self, self.halves[0], slice(0, m + 1)),
                         BandHalf(self, self.halves[1],
                                  slice(m + 1, 2 * m + 1)))

    @functools.cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 of the band's true wavenumbers, formed at first read."""
        return _k_squared(self.k_true_x, self.k_true_y, self.k_true_z)

    @functools.cached_property
    def k_squared_safe(self) -> np.ndarray:
        """:attr:`k_squared` with 1 at k = 0, formed at first read."""
        return _safe(self.k_squared.copy())

    def restrict(self, coeffs: np.ndarray) -> np.ndarray:
        """The band modes of a half spectrum, as a compact array."""
        return coeffs[self.index]


class BandHalf:
    """The band modes whose kx lies in one of :attr:`Band.halves`.

    ``fft_rows`` are its x rows in the FFT layout and ``rows`` the same
    rows of a compact band array.  The projection tables ``k_true_x/y/z``,
    ``k_squared`` and ``k_squared_safe`` are the :class:`Band` tables cut
    to those rows, so :func:`~euler_spectra.fields.leray_project` runs on
    the half ``coeffs[:, rows]`` of a compact spectrum unchanged.
    """

    def __init__(self, band: Band, fft_rows: slice, rows: slice):
        self.band, self.fft_rows, self.rows = band, fft_rows, rows
        self.k_true_x = band.k_true_x[rows]
        self.k_true_y = band.k_true_y
        self.k_true_z = band.k_true_z

    @property
    def k_squared(self) -> np.ndarray:
        """The band's :attr:`Band.k_squared` cut to the half's rows."""
        return self.band.k_squared[self.rows]

    @property
    def k_squared_safe(self) -> np.ndarray:
        """The band's :attr:`Band.k_squared_safe` cut to the rows."""
        return self.band.k_squared_safe[self.rows]


def _k_squared(kx: np.ndarray, ky: np.ndarray, kz: np.ndarray) -> np.ndarray:
    """|k|^2 of broadcastable wavenumber tables, ``kx**2 + ky**2 + kz**2``
    in that order, so that a cut of the tables gives the same bits as
    the cut of the whole table."""
    return kx ** 2 + ky ** 2 + kz ** 2


def _safe(k_squared: np.ndarray) -> np.ndarray:
    """``k_squared`` with 1 at k = 0, in place."""
    k_squared[0, 0, 0] = 1.0
    return k_squared
