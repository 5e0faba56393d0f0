"""Spectral (DFT) evolution of densities under a generator symbol.

The transform convention is g_hat(k) = int e^{+i k.x} g(x) dx, so a symbol
psi plugs in without conjugation; on the discrete grid this makes the
multiplier application  fftn(psi * ifftn(values)).  Grids are periodic
truncations of free space, so densities must be negligible at the box
boundary; a boundary-mass check fails loudly when they are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import NumericalError, _center
from .sampler import sample_inverse_subordinator
from .symbols import GeneratorSymbol

__all__ = [
    "SpectralGrid",
    "DensityField",
    "BoundaryMassError",
    "delta_density",
    "gaussian_density",
    "evolve_spectral",
    "evolve_time_fractional",
    "TimeFractionalResult",
    "density_from_samples",
    "compare_densities",
    "spectral_apply",
    "continuum_dft_abs2",
]


class BoundaryMassError(NumericalError):
    """Too much probability mass near the periodic boundary."""


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L)^n with N points per axis.

    Wavenumbers per axis are k_j = pi*j/L for j in {-N/2, ..., N/2 - 1}
    (fftfreq ordering).
    """

    dimension: int
    half_width: float
    n_points: int

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2, or 3")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.n_points < 8 or self.n_points % 2:
            raise ValueError("n_points must be even and at least 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)

    def points(self) -> np.ndarray:
        """(N^n, n) array of grid coordinates."""
        mesh = np.meshgrid(*([self.axis()] * self.dimension), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def k_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def k_points(self) -> np.ndarray:
        """(N^n, n) array of wavenumbers in fftfreq ordering."""
        mesh = np.meshgrid(*([self.k_axis()] * self.dimension), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def shape(self) -> tuple:
        return (self.n_points,) * self.dimension


@dataclass(frozen=True)
class DensityField:
    """Density sampled on a periodic grid.

    ringing_estimate bounds the oscillatory error from spectral content at
    the grid cutoff; evolution from nonnegative data can undershoot zero by
    at most that amount (plus rounding)."""

    grid: SpectralGrid
    values: np.ndarray
    time: float = 0.0
    ringing_estimate: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape():
            raise ValueError(f"values must have shape {self.grid.shape()}")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def total_mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    def boundary_mass_fraction(self) -> float:
        """Share of |mass| in the outermost shell of cells."""
        v = np.abs(self.values)
        total = v.sum()
        if total == 0:
            return 0.0
        core = np.zeros_like(v, dtype=bool)
        core[tuple(slice(1, -1) for _ in range(self.grid.dimension))] = True
        return float(v[~core].sum() / total)


def _grid_center(center, grid: SpectralGrid) -> np.ndarray:
    """_center of a density on grid; ValueError unless every coordinate lies
    in [-L, L], since the periodic box would wrap or lose the mass."""
    c = _center(center, grid.dimension)
    if not np.all(np.abs(c) <= grid.half_width):
        L = grid.half_width
        raise ValueError(f"center {c.tolist()!r} lies outside the box [{-L!r}, {L!r}]"
                         f"^{grid.dimension}")
    return c


def delta_density(grid: SpectralGrid, center=None) -> DensityField:
    """Unit mass concentrated in the cell nearest to center."""
    c = _grid_center(center, grid)
    idx = tuple(
        int(round((ci + grid.half_width) / grid.spacing)) % grid.n_points for ci in c
    )
    v = np.zeros(grid.shape())
    v[idx] = 1.0 / grid.cell_volume
    return DensityField(grid, v, 0.0)


def gaussian_density(grid: SpectralGrid, variance: float, center=None) -> DensityField:
    c = _grid_center(center, grid)
    pts = grid.points()
    d2 = np.sum((pts - c) ** 2, axis=-1)
    vals = np.exp(-0.5 * d2 / variance) / (2.0 * math.pi * variance) ** (grid.dimension / 2.0)
    return DensityField(grid, vals.reshape(grid.shape()), 0.0)


def spectral_apply(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier under the e^{+ikx} forward convention."""
    return np.real(np.fft.fftn(multiplier * np.fft.ifftn(values)))


def _nyquist_shell_mass(transform: np.ndarray, grid: SpectralGrid) -> float:
    """Sum of |transform| over the extreme-frequency shell: an upper estimate
    for truncation ringing.  The ifftn of density values is already in
    density units, since (2L)^n (dk / 2 pi)^n = 1 for dk = pi / L."""
    n = grid.dimension
    N = grid.n_points
    shell = np.zeros(grid.shape(), dtype=bool)
    for ax in range(n):
        sl = [slice(None)] * n
        sl[ax] = N // 2  # the unpaired most-negative frequency plane
        shell[tuple(sl)] = True
    return float(np.abs(transform[shell]).sum())


def evolve_spectral(p0: DensityField, symbol: GeneratorSymbol, t: float, *,
                    check_boundary: bool = True) -> DensityField:
    """Exact grid semigroup: multiply the transform by exp(t*psi(k)).

    psi is the symbol's on_grid (the quadrature evaluators run once per pair
    +-k), cached per grid, so repeated evolutions on one grid evaluate it
    once.  With check_boundary, BoundaryMassError is raised when the
    outermost cells hold more than 1e-6 of the mass."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    psi = symbol.on_grid(p0.grid)
    phat = np.exp(t * psi) * np.fft.ifftn(p0.values)
    out = np.real(np.fft.fftn(phat))
    result = DensityField(p0.grid, out, p0.time + t, _nyquist_shell_mass(phat, p0.grid))
    if check_boundary:
        frac = result.boundary_mass_fraction()
        if frac > 1e-6:
            raise BoundaryMassError(
                f"boundary cells hold {frac:.2e} of the mass (> 1.0e-06); enlarge the box")
    return result


@dataclass(frozen=True)
class TimeFractionalResult:
    density: DensityField
    stderr: np.ndarray
    n_samples: int
    tau_mean: float


def evolve_time_fractional(p0: DensityField, symbol: GeneratorSymbol, alpha: float, t: float,
                           n_subordination_samples: int, rng) -> TimeFractionalResult:
    """Subordinated evolution: average the semigroup over inverse-subordinator
    times E(t); the Monte Carlo standard-error field is reported."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    taus = sample_inverse_subordinator(alpha, t, rng, size=n_subordination_samples)
    psi = symbol.on_grid(p0.grid)
    base = np.fft.ifftn(p0.values)
    mean = np.zeros(p0.grid.shape())
    m2 = np.zeros(p0.grid.shape())
    for i, tau in enumerate(np.asarray(taus, dtype=float)):
        vals = np.real(np.fft.fftn(np.exp(tau * psi) * base))
        delta = vals - mean
        mean += delta / (i + 1)
        m2 += delta * (vals - mean)
    n = len(taus)
    stderr = np.sqrt(m2 / max(n - 1, 1) / n)
    return TimeFractionalResult(DensityField(p0.grid, mean, p0.time + t), stderr, n,
                                float(np.mean(taus)))


def density_from_samples(endpoints: np.ndarray, grid: SpectralGrid) -> DensityField:
    """Normalised histogram of sample endpoints on the grid cells.

    Cells are centred on the grid points; points outside the box are counted
    and ValueError is raised when they exceed 1% of the total.
    """
    pts = np.asarray(endpoints, dtype=float)
    if pts.size == 0:
        raise ValueError("empty sample ensemble")
    if grid.dimension == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != grid.dimension:
        raise ValueError("endpoints must have shape (N, n)")
    n_total = len(pts)
    idx = np.round((pts + grid.half_width) / grid.spacing).astype(int)
    inside = np.all((idx >= 0) & (idx < grid.n_points), axis=1)
    n_out = int(n_total - inside.sum())
    if n_out > 0.01 * n_total:
        raise ValueError(
            f"{n_out} of {n_total} samples fall outside the box; enlarge it"
        )
    idx = idx[inside]
    counts = np.zeros(grid.shape())
    np.add.at(counts, tuple(idx.T), 1.0)
    vals = counts / (n_total * grid.cell_volume)
    return DensityField(grid, vals, 0.0)


def compare_densities(a: DensityField, b: DensityField) -> dict:
    """Riemann-sum L1, L2 and max distances between two fields on one grid."""
    if a.grid != b.grid:
        raise ValueError("density fields live on different grids")
    d = a.values - b.values
    cell = a.grid.cell_volume
    return {
        "l1": float(np.abs(d).sum() * cell),
        "l2": float(math.sqrt((d * d).sum() * cell)),
        "max": float(np.abs(d).max()),
    }


def continuum_dft_abs2(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """|g_hat(k)|^2 on the fftfreq grid for g sampled on the spatial grid."""
    ghat = np.fft.ifftn(values) * (2.0 * grid.half_width) ** grid.dimension
    return np.abs(ghat) ** 2
