"""Directional probability measures on the unit sphere in 1, 2, and 3 dimensions.

A measure is a mixture of point atoms and piecewise-constant angular bands.
In 2D a band is an arc parametrised by its polar angle; in 3D it is a
latitude-longitude rectangle with density taken with respect to the surface
measure sin(theta) dtheta dphi.  In 1D the "sphere" is the two-point set
{-1, +1} and only atoms are allowed.

Band angles become unit vectors in one place, _unit_vectors, for every
quadrature rule, the analysis probe grids and the jump sampler: cos and sin
from the half-angle tangent, and in 3D the cos theta node itself as z.

to_json and from_json are the one JSON format of the config dataclasses
built on measures (symbols, jump laws, state models, profiles, grids).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "AngularBand",
    "DirectionalMeasure",
    "MomentSummary",
    "StabilityProfile",
    "make_atomic_measure",
    "make_banded_measure",
    "make_measure",
    "uniform_measure",
    "sphere_integrate",
    "band_nodes",
    "measure_nodes",
    "support_directions",
    "is_nondegenerate",
    "moments",
    "measure_to_json",
    "measure_from_json",
    "to_json",
    "from_json",
    "is_symmetric",
    "NumericalError",
]

MASS_TOL = 1e-10
RANK_TOL = 1e-8
_SYMMETRY_TOL = 1e-12
_TWO_PI = 2.0 * math.pi


class NumericalError(RuntimeError):
    """A numerical method failed to reach its accuracy (boundary mass,
    quadrature tail, rejection sampling, a continued fraction, a symbol
    invariant); the CLI reports it with exit code 3."""


def _worker_cap() -> int:
    """Thread-pool size: ANISOLAP_THREADS, or one per core when unset or 0.
    Any other value than a nonnegative integer raises ValueError."""
    raw = os.environ.get("ANISOLAP_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"ANISOLAP_THREADS must be a nonnegative integer, not {raw!r}")
    return n or os.cpu_count() or 1


def _pool_map(fn, items) -> list:
    """[fn(x) for x in items] on up to _worker_cap() threads, in item order;
    the first exception raised by fn, in item order, propagates."""
    items = list(items)
    workers = min(len(items), _worker_cap())
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _row_blocks(n: int, size: int) -> list:
    """Slices of range(n) in equal blocks of at most size rows.  With size >= 4
    no block has a single row unless n is 1: BLAS takes its matrix-vector path
    for one row, which rounds differently."""
    n_blocks = max(1, -(-n // size))
    edges = [n * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _as_rows(x, n: int):
    """Normalise an (..., n) array of points (wavenumbers or positions) to a
    (P, n) array plus the shape of one value per point: () for one point."""
    x = np.asarray(x, dtype=float)
    if n == 1:
        if x.ndim == 0:
            return x.reshape(1, 1), ()
        if x.shape[-1] == 1:
            return x.reshape(-1, 1), x.shape[:-1]
        return x.reshape(-1, 1), x.shape
    if x.shape == (n,):
        return x.reshape(1, n), ()
    if x.ndim >= 1 and x.shape[-1] == n:
        return x.reshape(-1, n), x.shape[:-1]
    raise ValueError(f"point array must have last axis of length {n}")


def _from_rows(vals: np.ndarray, shape):
    """One value per row of _as_rows back in its shape; a Python scalar for one point."""
    if shape == ():
        return vals[0].item()
    return vals.reshape(shape)


def _center(center, n: int) -> np.ndarray:
    """The center of an n-dimensional field or density, the origin for None;
    ValueError unless it has n components."""
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"center {c.tolist()!r} does not have {n} components")
    return c


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return v / norm


@dataclass(frozen=True)
class AngularBand:
    """Constant-density angular region of the unit sphere.

    bounds is (theta0, theta1) in 2D with the arc [theta0, theta1), and
    (theta0, theta1, phi0, phi1) in 3D where theta is the polar angle from
    the +z axis and phi the azimuth.  The density is constant with respect
    to arc length (2D) / surface area (3D).
    """

    bounds: tuple
    density: float

    def __post_init__(self):
        b = tuple(float(x) for x in self.bounds)
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "density", float(self.density))
        if self.density < 0:
            raise ValueError("band density must be nonnegative")
        if len(b) == 2:
            t0, t1 = b
            if not 0.0 < t1 - t0 <= _TWO_PI + 1e-12:
                raise ValueError("2D band must have width in (0, 2*pi]")
        elif len(b) == 4:
            t0, t1, p0, p1 = b
            if not (0.0 <= t0 < t1 <= math.pi + 1e-12):
                raise ValueError("3D band polar bounds must satisfy 0 <= theta0 < theta1 <= pi")
            if not 0.0 < p1 - p0 <= _TWO_PI + 1e-12:
                raise ValueError("3D band azimuthal width must be in (0, 2*pi]")
        else:
            raise ValueError("bounds must have length 2 (2D) or 4 (3D)")

    @property
    def dimension(self) -> int:
        return 2 if len(self.bounds) == 2 else 3

    def angular_measure(self) -> float:
        """Surface measure of the region (arc length in 2D)."""
        if self.dimension == 2:
            t0, t1 = self.bounds
            return t1 - t0
        t0, t1, p0, p1 = self.bounds
        return (math.cos(t0) - math.cos(t1)) * (p1 - p0)

    def mass(self) -> float:
        return self.density * self.angular_measure()


def _half_angle_trig(t: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """cos x = (1 - t^2) / (1 + t^2) and sin x = 2 t / (1 + t^2) from
    t = tan(x / 2), written into cos_out and sin_out (neither may be t).

    Both are within 2^-52 of np.cos and np.sin, and t = tan(x / 2) is finite
    for every double x.  np.tan is vectorised where np.cos and np.sin may
    run as scalar libm, so this is the cheaper way to both on large arrays."""
    np.multiply(t, t, out=cos_out)
    np.add(1.0, cos_out, out=sin_out)
    np.subtract(1.0, cos_out, out=cos_out)
    np.divide(cos_out, sin_out, out=cos_out)
    np.divide(t, sin_out, out=sin_out)
    sin_out *= 2.0


def _unit_vectors(phi, cos_theta=None, out=None) -> np.ndarray:
    """The unit vectors (cos phi, sin phi) in 2D, or (sin theta cos phi,
    sin theta sin phi, cos theta) in 3D with sin theta = sqrt(1 - c c) from
    c = cos_theta; cos phi and sin phi come from tan(phi / 2)
    (_half_angle_trig).

    Returns a new (..., n) array, or writes the coordinate rows out[0],
    ..., out[n - 1] in place and returns out; phi may be out[1] and
    cos_theta out[2].  Every step is elementwise, so the bits do not depend
    on the layout."""
    if out is None:
        vecs = np.empty(np.shape(phi) + (2 if cos_theta is None else 3,))
        _unit_vectors(phi, cos_theta, np.moveaxis(vecs, -1, 0))
        return vecs
    t = np.multiply(phi, 0.5)
    np.tan(t, out=t)
    _half_angle_trig(t, out[0], out[1])
    if cos_theta is not None:
        np.multiply(cos_theta, cos_theta, out=t)
        np.subtract(1.0, t, out=t)
        np.sqrt(t, out=t)
        out[:2] *= t
        out[2] = cos_theta
    return out


@dataclass(frozen=True)
class DirectionalMeasure:
    """Probability measure on the unit sphere: atoms plus constant-density bands."""

    dimension: int
    atoms: tuple  # of (direction ndarray, weight)
    bands: tuple  # of AngularBand

    def __post_init__(self):
        n = int(self.dimension)
        if n not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2, or 3")
        object.__setattr__(self, "dimension", n)
        atoms = []
        for coords, w in self.atoms:
            d = _unit(coords)
            if d.shape != (n,):
                raise ValueError(f"atom direction has wrong dimension: {d.shape}")
            w = float(w)
            if w < 0:
                raise ValueError("atom weights must be nonnegative")
            d.setflags(write=False)
            atoms.append((d, w))
        object.__setattr__(self, "atoms", tuple(atoms))
        bands = tuple(self.bands)
        if bands and n == 1:
            raise ValueError("1D measures admit only atoms at +1 and -1")
        for b in bands:
            if b.dimension != n:
                raise ValueError("band dimensionality does not match the measure")
        _check_disjoint(bands)
        object.__setattr__(self, "bands", bands)
        total = self.total_mass()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")

    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms) + sum(b.mass() for b in self.bands)

    @property
    def n_components(self) -> int:
        return len(self.atoms) + len(self.bands)

    def component_masses(self) -> np.ndarray:
        """Mass per component, atoms first then bands."""
        return np.array([w for _, w in self.atoms] + [b.mass() for b in self.bands])


def _arcs(lo, hi) -> list:
    """The arc [lo, hi) as one or two intervals of [0, 2*pi], split at 2*pi."""
    lo_m = lo % _TWO_PI
    hi_m = lo_m + (hi - lo)
    if hi_m <= _TWO_PI + 1e-15:
        return [(lo_m, hi_m)]
    return [(lo_m, _TWO_PI), (0.0, hi_m - _TWO_PI)]


def _check_disjoint(bands) -> None:
    # pairwise overlap test on interval interiors, arcs (2D angles, 3D azimuths) mod 2*pi
    def overlap(a0, a1, b0, b1):
        return min(a1, b1) - max(a0, b0) > 1e-12

    for i in range(len(bands)):
        for j in range(i + 1, len(bands)):
            bi, bj = bands[i].bounds, bands[j].bounds
            polar = len(bi) == 2 or overlap(*bi[:2], *bj[:2])
            if polar and any(overlap(*u, *v) for u in _arcs(*bi[-2:]) for v in _arcs(*bj[-2:])):
                raise ValueError("angular bands must be pairwise disjoint")


def make_measure(dimension, atoms=(), bands=()) -> DirectionalMeasure:
    """General constructor; total mass must already be 1 within tolerance."""
    bands = tuple(b if isinstance(b, AngularBand) else AngularBand(*b) for b in bands)
    return DirectionalMeasure(dimension, tuple(atoms), bands)


def make_atomic_measure(dimension, atoms) -> DirectionalMeasure:
    """Purely atomic measure; weights are renormalised to sum to one."""
    atoms = list(atoms)
    if not atoms:
        raise ValueError("atom list must be nonempty")
    total = sum(float(w) for _, w in atoms)
    if total <= 0:
        raise ValueError("total atom weight must be positive")
    atoms = [(c, float(w) / total) for c, w in atoms]
    return DirectionalMeasure(dimension, tuple(atoms), ())


def make_banded_measure(dimension, bands) -> DirectionalMeasure:
    """Banded measure; the densities must integrate to one (no renormalisation)."""
    bands = tuple(b if isinstance(b, AngularBand) else AngularBand(*b) for b in bands)
    if not bands:
        raise ValueError("band list must be nonempty")
    return DirectionalMeasure(dimension, (), bands)


def uniform_measure(dimension) -> DirectionalMeasure:
    """Isotropic measure: density 1/omega_n, with atoms at +-1 in 1D."""
    if dimension == 1:
        return make_atomic_measure(1, [((1.0,), 0.5), ((-1.0,), 0.5)])
    if dimension == 2:
        return make_banded_measure(2, [AngularBand((0.0, _TWO_PI), 1.0 / _TWO_PI)])
    return make_banded_measure(3, [AngularBand((0.0, math.pi, 0.0, _TWO_PI), 1.0 / (4.0 * math.pi))])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}
_BLOCK_PANELS = 1024  # panels per integrand call of the adaptive band quadrature
# Active panels one integrand may hold at one level of the adaptive band
# quadrature.  The tests and the benchmark need at most 578; an integrand noisy
# at rounding level along an arc doubles its panels at every level instead.
_PANEL_BUDGET = 1 << 15


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def _composite_gl(edges, order):
    """Gauss-Legendre of the given order on each panel between consecutive
    edges; returns (nodes, weights), panel by panel."""
    x, w = _gl(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def band_nodes(band: AngularBand, refinement: int):
    """Fixed quadrature nodes/weights (w.r.t. the sphere surface measure).

    Returns (directions (M, n), weights (M,)); weights include the density.
    In 2D, composite Gauss-Legendre of order 8 on max(2, refinement)
    equal panels of the arc; in 3D, a tensor rule on max(2, refinement // 4)
    panels per axis of (cos theta, phi), whose cos theta nodes are the z
    coordinates as they stand.  Directions come from _unit_vectors.
    """
    if band.dimension == 2:
        t0, t1 = band.bounds
        theta, w = _composite_gl(np.linspace(t0, t1, max(2, refinement) + 1), 8)
        return _unit_vectors(theta), w * band.density
    # 3D: tensor rule in (cos(theta), phi); surface measure absorbed by the substitution
    t0, t1, p0, p1 = band.bounds
    n_edges = max(2, refinement // 4) + 1
    ct, wt = _composite_gl(np.linspace(math.cos(t1), math.cos(t0), n_edges), 8)
    ph, wp = _composite_gl(np.linspace(p0, p1, n_edges), 8)
    CT, PH = np.meshgrid(ct, ph, indexing="ij")
    return _unit_vectors(PH.ravel(), CT.ravel()), (np.outer(wt, wp) * band.density).ravel()


def measure_nodes(measure: DirectionalMeasure, refinement: int):
    """All quadrature nodes of a measure: exact atoms plus band rules.

    Returns (directions (M, n), weights (M,), component_index (M,)) where
    component_index labels atoms then bands in measure order.
    """
    dirs, weights, comp = [], [], []
    for i, (d, w) in enumerate(measure.atoms):
        dirs.append(d[None, :])
        weights.append(np.array([w]))
        comp.append(np.array([i]))
    for j, band in enumerate(measure.bands):
        d, w = band_nodes(band, refinement=refinement)
        dirs.append(d)
        weights.append(w)
        comp.append(np.full(len(w), len(measure.atoms) + j, dtype=int))
    return np.concatenate(dirs), np.concatenate(weights), np.concatenate(comp)


def _panel_sums(box, owner, f, kinks):
    """15-point Gauss-Legendre integral over each theta interval box[i] of the
    integrand owner[i], taken _BLOCK_PANELS panels at a time; the integrand
    sees the nodes as (cos theta, sin theta) from _unit_vectors, and their
    products u with its kink vector."""
    out = np.empty(len(box), dtype=complex)
    x, w = _gl(15)
    for s in range(0, len(box), _BLOCK_PANELS):
        rows = slice(s, s + _BLOCK_PANELS)
        lo, hi = box[rows, :1], box[rows, 1:]
        dirs = _unit_vectors(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        # a stacked matrix product rounds u as dirs @ kinks[i] does per integrand
        u = (dirs @ kinks[owner[rows]][:, :, None])[..., 0]
        out[rows] = (0.5 * (hi - lo) * w * f(dirs, owner[rows], u)).sum(axis=1)
    return out


def _integrate_band_adaptive(band, f, tol, kinks):
    """Adaptive integrals of len(kinks) integrands over one band.

    f(dirs, owner, u) returns, for a (P, M, n) block of directions, the
    values (P, M) of the integrands owner (P,), and raises its caller's error
    on a value that is not finite; u (P, M) is k . phi of the directions with
    k = kinks[owner].  A 2D arc is cut where kinks[i] . phi
    = 0 for integrand i, at theta_k +- pi/2 (a zero row: no cut), into 15-point
    Gauss-Legendre panels.  A panel is accepted when its 2 halves sum to within
    max(tol, 1e-16) of it, or at depth 40; an integrand with more than
    _PANEL_BUDGET active panels at one level raises NumericalError.  Each
    level evaluates the active panels of all integrands together and adds
    the accepted sums of each integrand in the order of its own panels, so
    the result does not depend on the batching.  A 3D band is this rule in
    phi over the integrals of this rule in theta along the meridians, to
    tol / 100 and weighted by sin(theta); there u is the meridian's own 2D
    product of (k_z, k_x cos(phi) + k_y sin(phi)) and (cos(theta),
    sin(theta)), smooth in theta also where k_x cos(phi) + k_y sin(phi) ~ 0.
    """
    kinks = np.asarray(kinks, dtype=float)
    if band.dimension == 3:
        t0, t1, p0, p1 = band.bounds

        def meridians(m, owner, u):
            # the theta integrals on the meridians m = (cos phi, sin phi) of the integrands owner
            shape = m.shape[:2]
            m, owner = m.reshape(-1, 2), owner.repeat(shape[1])
            k = kinks[owner]

            def g(v, j, u):
                # v = (cos theta, sin theta) on the meridians j
                dirs = np.concatenate([v[..., 1:] * m[j, None], v[..., :1]], axis=-1)
                return f(dirs, owner[j], u) * v[..., 1]

            plane = np.stack([k[:, 2], k[:, 0] * m[:, 0] + k[:, 1] * m[:, 1]], axis=-1)
            return _integrate_band_adaptive(AngularBand((t0, t1), 1.0), g, tol / 100.0,
                                            plane).reshape(shape)

        return _integrate_band_adaptive(AngularBand((p0, p1), band.density), meridians, tol,
                                        np.zeros((len(kinks), 2)))
    t0, t1 = band.bounds
    max_depth = 40
    box, owner = [], []
    for i, (kx, ky) in enumerate(kinks.tolist()):
        tk = math.atan2(ky, kx)
        ends = [t0 + (s - t0) % _TWO_PI for s in (tk - 0.5 * math.pi, tk + 0.5 * math.pi)]
        cuts = sorted({t0, t1} | {e for e in ends if (kx or ky) and t0 + 1e-13 < e < t1 - 1e-13})
        box += zip(cuts[:-1], cuts[1:])
        owner += [i] * (len(cuts) - 1)
    box = np.array(box, dtype=float).reshape(-1, 2)
    owner = np.array(owner, dtype=np.intp)
    coarse = _panel_sums(box, owner, f, kinks)
    totals = np.zeros(len(kinks), dtype=complex)
    for depth in range(max_depth + 1):
        if len(owner) > _PANEL_BUDGET and np.bincount(owner).max() > _PANEL_BUDGET:
            raise NumericalError(
                f"adaptive band quadrature needs more than {_PANEL_BUDGET} panels of one "
                f"integrand at depth {depth} (tol = {tol:.3g}); the integrand is "
                "noisy at rounding level along an arc")
        mid = 0.5 * (box[:, 0] + box[:, 1])
        kids = np.stack([box[:, 0], mid, mid, box[:, 1]], axis=-1).reshape(-1, 2, 2)
        vals = _panel_sums(kids.reshape(-1, 2), owner.repeat(2), f, kinks).reshape(-1, 2)
        fine = vals[:, 0] + vals[:, 1]
        # np.hypot, not np.abs: the complex abs ufunc rounds differently
        # from the scalar abs of the per-panel reference
        err = np.hypot((fine - coarse).real, (fine - coarse).imag)
        done = (err < max(tol, 1e-16)) | (depth == max_depth)
        # unbuffered and in array order: each integrand's sums in its panels' order
        np.add.at(totals, owner[done], fine[done])
        if done.all():
            break
        box, coarse = kids[~done].reshape(-1, 2), vals[~done].ravel()
        owner = owner[~done].repeat(2)
    return totals * band.density


def sphere_integrate(measure: DirectionalMeasure, integrand, tol: float = 1e-10):
    """Integrate a function of the direction against the measure.

    integrand is called with an (M, n) array of unit vectors and must return
    an (M,) array (real or complex).  Atoms are summed exactly; bands are
    integrated adaptively to absolute tolerance tol by composite 15-point
    Gauss-Legendre: over the arc in 2D, and in 3D over the azimuth of the
    polar-angle integrals along the meridians.
    """
    total = 0.0 + 0.0j
    for d, w in measure.atoms:
        val = np.asarray(integrand(d[None, :]))[0]
        if not np.isfinite(complex(val)):
            raise ValueError("non-finite integrand value on the sphere")
        total += w * complex(val)
    n_bands = max(1, len(measure.bands))

    def f(dirs, owner, u):
        flat = dirs.reshape(-1, dirs.shape[-1])
        vals = np.broadcast_to(integrand(flat), flat.shape[:1]).reshape(dirs.shape[:2])
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand value on the sphere")
        return vals

    for band in measure.bands:
        total += _integrate_band_adaptive(band, f, tol / n_bands,
                                          np.zeros((1, measure.dimension)))[0]
    return complex(total)


# ---------------------------------------------------------------------------
# moments, nondegeneracy, symmetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSummary:
    """Second moment matrix A = int phi phi^T dm and mean b = int phi dm."""

    covariance: np.ndarray
    mean: np.ndarray


def moments(measure: DirectionalMeasure) -> MomentSummary:
    """Mean and second moment matrix, each entry by sphere_integrate to 1e-12."""
    n = measure.dimension
    A = np.empty((n, n))
    b = np.empty(n)
    for i in range(n):
        b[i] = sphere_integrate(measure, lambda d, i=i: d[:, i], tol=1e-12).real
        for j in range(i, n):
            A[i, j] = A[j, i] = sphere_integrate(
                measure, lambda d, i=i, j=j: d[:, i] * d[:, j], tol=1e-12
            ).real
    A.setflags(write=False)
    b.setflags(write=False)
    return MomentSummary(A, b)


def support_directions(measure: DirectionalMeasure) -> np.ndarray:
    """Sample directions covering the support of the measure."""
    dirs = [d for d, w in measure.atoms if w > 0]
    for band in measure.bands:
        if band.density <= 0:
            continue
        if band.dimension == 2:
            t0, t1 = band.bounds
            frac = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])
            dirs.extend(_unit_vectors(t0 + frac * (t1 - t0)))
        else:
            t0, t1, p0, p1 = band.bounds
            ft = np.array([0.25, 0.5, 0.75, 0.5, 0.5])
            fp = np.array([0.5, 0.5, 0.5, 0.25, 0.75])
            ct = _unit_vectors(t0 + ft * (t1 - t0))[:, 0]
            dirs.extend(_unit_vectors(p0 + fp * (p1 - p0), ct))
    return np.asarray(dirs).reshape(-1, measure.dimension)


def _null_directions(dirs: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to the span of the rows dirs (as from
    support_directions), as rows, none when they span R^n: the right singular
    vectors whose singular value is at most RANK_TOL times the largest."""
    n = dirs.shape[1]
    _, s, vt = np.linalg.svd(dirs)
    return vt[np.concatenate([s, np.zeros(n - len(s))]) <= RANK_TOL * s[0]]


def is_nondegenerate(measure: DirectionalMeasure):
    """Whether the support spans R^n; returns (flag, spanning directions or None).

    The support spans R^n when _null_directions finds no direction orthogonal
    to it (singular values of the stacked support directions, relative
    threshold RANK_TOL); the spanning directions are then the first n
    independent support directions, chosen greedily.
    """
    dirs = support_directions(measure)
    if len(_null_directions(dirs)):
        return False, None
    n = measure.dimension
    chosen = []
    for d in dirs:
        trial = np.asarray(chosen + [d])
        if np.linalg.matrix_rank(trial, tol=RANK_TOL) == len(trial):
            chosen.append(d)
        if len(chosen) == n:
            break
    return True, [np.array(c) for c in chosen]


def is_symmetric(measure: DirectionalMeasure) -> bool:
    """m(phi) == m(-phi), decided exactly up to _SYMMETRY_TOL = 1e-12.

    Atoms: the weights at d and at -d have equal sums, directions within the
    tolerance counting as one.  Bands: |m - Rm| has at most that mass on each
    cell of the common refinement of the band edges and their reflections:
    arcs mod 2 pi in 2D, reflected by theta -> theta + pi; (theta, phi)
    rectangles in 3D, reflected by theta -> pi - theta, phi -> phi + pi.
    """
    d = np.array([a for a, _ in measure.atoms]).reshape(-1, measure.dimension)
    w = np.array([x for _, x in measure.atoms])
    same = np.linalg.norm(d[:, None] - d, axis=-1) <= _SYMMETRY_TOL
    anti = np.linalg.norm(d[:, None] + d, axis=-1) <= _SYMMETRY_TOL
    three = measure.dimension == 3
    arcs = [_arcs(*b.bounds[-2:]) for b in measure.bands]
    polar = [b.bounds[:2] if three else (0.0, math.pi) for b in measure.bands]
    ends = np.array([0.0, _TWO_PI] + [e for a in arcs for u in a for e in u])
    phi = np.unique(np.concatenate([ends, (ends + math.pi) % _TWO_PI]))
    theta = np.unique([x for t0, t1 in polar for x in (0.0, t0, t1, math.pi - t0, math.pi - t1)])

    def density(t, p):
        # summed band density at polar angles t (a column) and azimuths p (a row)
        return sum(b.density * ((t0 <= t) & (t < t1))
                   * np.any([(u <= p) & (p < v) for u, v in a], axis=0)
                   for b, (t0, t1), a in zip(measure.bands, polar, arcs))

    t, p = 0.5 * (theta[:-1] + theta[1:])[:, None], 0.5 * (phi[:-1] + phi[1:])
    diff = density(t, p) - density(math.pi - t, (p + math.pi) % _TWO_PI)
    area = np.outer(np.cos(theta[:-1]) - np.cos(theta[1:]) if three else 1.0, np.diff(phi))
    return bool(np.all(np.abs(same @ w - anti @ w) <= _SYMMETRY_TOL)
                and np.all(np.abs(diff) * area <= _SYMMETRY_TOL))


# ---------------------------------------------------------------------------
# stability profiles
# ---------------------------------------------------------------------------

def _component_spreads(measure: DirectionalMeasure, sigmas) -> np.ndarray:
    """One positive spread per component of measure (a number serves all); else ValueError."""
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape == ():
        sig = np.full(measure.n_components, float(sig))
    if sig.shape != (measure.n_components,) or not np.all(sig > 0):
        raise ValueError("sigmas must give one positive spread per measure component")
    return sig


def _check_exponent(beta: float, what: str = "beta") -> None:
    """Raise ValueError unless beta lies in (0,1) or (1,2); exponents within
    1e-6 of 1 belong to the exponent-1 formulas."""
    if not (0.0 < beta < 2.0) or abs(beta - 1.0) < 1e-6:
        raise ValueError(f"{what} must lie in (0,1) or (1,2)")


@dataclass(frozen=True)
class StabilityProfile:
    """Per-component jump exponent and tempering rate, aligned with the
    measure's components (atoms first, then bands).

    Every beta lies in (0,1) or (1,2) and is at least 1e-6 away from 1
    (_check_exponent), so the profile symbol and the real-space operator take
    any profile as given; exponents 1 and 2 have their own symbols
    (beta1_symbol, beta2_symbol) and no profile form.
    """

    betas: tuple[float, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        lams = tuple(float(l) for l in self.lambdas)
        if len(betas) != len(lams):
            raise ValueError("betas and lambdas must have equal length")
        for b in betas:
            _check_exponent(b, f"profile exponent {b}")
        for l in lams:
            if l < 0:
                raise ValueError("lambda must be nonnegative")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "lambdas", lams)

    @classmethod
    def constant(cls, measure: DirectionalMeasure, beta: float, lam: float):
        m = measure.n_components
        return cls((beta,) * m, (lam,) * m)

    def for_measure(self, measure: DirectionalMeasure):
        if len(self.betas) != measure.n_components:
            raise ValueError("profile length does not match measure components")
        return self


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------

def measure_to_json(measure: DirectionalMeasure) -> dict:
    return {
        "dimension": measure.dimension,
        "atoms": [[list(map(float, d)), float(w)] for d, w in measure.atoms],
        "bands": [
            {"region": list(b.bounds), "density": b.density} for b in measure.bands
        ],
    }


def measure_from_json(doc) -> DirectionalMeasure:
    """The measure of measure_to_json's document; an unknown or missing key,
    at the measure or at a band, or a value of the wrong JSON type raises
    ValueError."""
    _check_keys(doc, {"dimension", "atoms", "bands"}, {"dimension"}, "measure")
    for b in doc.get("bands", []):
        _check_keys(b, {"region", "density"}, {"region", "density"}, "measure band")
    try:
        atoms = tuple((np.array(_decode(tuple[float, ...], c)), _decode(float, w))
                      for c, w in doc.get("atoms", []))
        bands = tuple(AngularBand(_decode(tuple[float, ...], b["region"]),
                                  _decode(float, b["density"]))
                      for b in doc.get("bands", []))
        dimension = _decode(int, doc["dimension"])
    except TypeError as exc:
        raise ValueError(f"measure: {exc}") from None
    return DirectionalMeasure(dimension, atoms, bands)


def _check_keys(doc, allowed: set, required: set, what: str) -> None:
    """ValueError unless doc is a JSON object whose keys are all in allowed
    and include every key in required."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {doc!r}")
    for kind, names in (("unknown", set(doc) - allowed), ("missing", required - set(doc))):
        if names:
            listed = ", ".join(map(repr, sorted(names)))
            raise ValueError(f"{kind} field {listed} in {what}")


def _check_kind(obj, table: dict, shared: tuple) -> None:
    """ValueError unless config dataclass obj sets what its kind reads, with
    table[obj.kind] = (required, optional) and shared read by every kind: each
    required field not None, any other None, its default or 0, and a measure
    of obj's dimension."""
    if obj.kind not in table:
        raise ValueError(f"unknown {type(obj).__name__} kind {obj.kind!r}")
    required, optional = table[obj.kind]
    reads = {"kind", *shared, *required, *optional}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name in required and v is None:
            what = "a directional measure" if f.name == "measure" else f"field {f.name!r}"
            raise ValueError(f"{obj.kind} requires {what}")
        if f.name in reads or v is None or (np.isscalar(v) and v in (0, f.default)):
            continue
        alt = [k for k, (r, o) in table.items() if {*required, *optional, f.name} <= {*r, *o}]
        raise ValueError(f"{obj.kind} does not read field {f.name!r}"
                         + (f"; use kind {alt[0]!r}" if alt else ""))
    if getattr(obj, "measure", None) is not None and obj.measure.dimension != obj.dimension:
        raise ValueError("measure dimension mismatch")


def to_json(obj):
    """JSON document of a config dataclass, read back by from_json: fields
    that are None or at their default are left out, a measure is written by
    measure_to_json, and arrays and tuples become lists."""
    if isinstance(obj, DirectionalMeasure):
        return measure_to_json(obj)
    if is_dataclass(obj):
        return {f.name: to_json(v) for f in fields(obj)
                if (v := getattr(obj, f.name)) is not None
                and (f.default is MISSING or v != f.default)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _read_fields(doc, what: str, spec: dict) -> list:
    """The values of the fields of the JSON object doc, in the order of spec.
    spec maps each field to its type, or to (type, default) for an optional
    one; each value is converted to its type by _decode.  An unknown field, a
    missing required field or a value that does not convert raises
    ValueError naming what and the field."""
    _check_keys(doc, set(spec), {k for k, t in spec.items() if not isinstance(t, tuple)}, what)
    values = []
    for name, tp in spec.items():
        if name not in doc:
            values.append(tp[1])
            continue
        try:
            values.append(_decode(tp[0] if isinstance(tp, tuple) else tp, doc[name]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field {name!r} of {what}: {exc}") from None
    return values


def from_json(cls, doc):
    """The config dataclass cls from its JSON document: _read_fields with
    the annotated type of each field, and its default if it has one."""
    hints = get_type_hints(cls)
    spec = {f.name: hints[f.name] if f.default is MISSING else (hints[f.name], f.default)
            for f in fields(cls)}
    return cls(**dict(zip(spec, _read_fields(doc, cls.__name__, spec))))


def _decode(tp, value):
    """value as type tp: int (a number, not a bool, a string or a fractional
    number), float (a number, not a bool or a string), str,
    tuple[X, ...], Optional[X] (the only type that reads null), a measure or a
    config dataclass; any other type takes the value as it is."""
    if get_origin(tp) is Union:  # Optional[X], the only fields that may be null
        return None if value is None else _decode(get_args(tp)[0], value)
    if get_origin(tp) is tuple:
        return tuple(_decode(get_args(tp)[0], v) for v in value)
    if tp is DirectionalMeasure:
        return measure_from_json(value)
    if is_dataclass(tp):
        return from_json(tp, value)
    if tp in (str, dict) and not isinstance(value, tp):
        raise TypeError(f"{value!r} is not a {'string' if tp is str else 'JSON object'}")
    if tp in (int, float) and (isinstance(value, (bool, str))
                               or tp is int and isinstance(value, float)
                               and not value.is_integer()):
        raise TypeError(f"{value!r} is not {'an integer' if tp is int else 'a number'}")
    if tp in (int, float, str):
        return tp(value)
    return value
