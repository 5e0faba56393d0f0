"""Generator symbols (Fourier multipliers) of the nonlocal diffusion operators.

Every evaluator returns the symbol psi(k) of a Markov generator, so psi(0) = 0,
Re psi <= 0, and psi(-k) = conj(psi(k)).  Fractional powers use the principal
branch through the polar representation

    (lam - i*u)^beta = (lam^2 + u^2)^(beta/2) * exp(-i*beta*eta),
    eta = arctan2(u, lam),

which is exact for lam = 0 as well (eta = +-pi/2).
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import scipy.special as sc

from .measures import (
    DirectionalMeasure,
    StabilityProfile,
    _composite_gl,
    _integrate_band_adaptive,
    band_nodes,
    is_symmetric,
    measure_nodes,
    moments,
)

__all__ = [
    "GeneratorSymbol",
    "MixedStabilityRangeWarning",
    "gaussian_symbol",
    "tempered_symbol",
    "beta1_symbol",
    "beta2_symbol",
    "general_profile_symbol",
    "isotropic_reference_symbol",
    "make_generator",
]

_BETA1_GAP = 1e-6
_BLOCK_ROWS = 64  # wavenumbers per block of the fixed-node quadrature
_GRID_CACHE_SIZE = 4  # grids whose symbol values a GeneratorSymbol keeps


class MixedStabilityRangeWarning(UserWarning):
    """A direction-dependent exponent profile mixes (0,1) and (1,2); the
    sign prefactor is applied per component."""


def _k_points(k, n: int):
    """Normalise wavenumber input to an (P, n) array plus the output shape."""
    k = np.asarray(k, dtype=float)
    if n == 1:
        if k.ndim == 0:
            return k.reshape(1, 1), ()
        if k.shape[-1] == 1:
            return k.reshape(-1, 1), k.shape[:-1]
        return k.reshape(-1, 1), k.shape
    if k.shape == (n,):
        return k.reshape(1, n), ()
    if k.ndim >= 1 and k.shape[-1] == n:
        return k.reshape(-1, n), k.shape[:-1]
    raise ValueError(f"wavenumber array must have last axis of length {n}")


def _restore(vals: np.ndarray, shape):
    if shape == ():
        return complex(vals[0])
    return vals.reshape(shape)


def _bracket(u, beta: float, lam: float):
    """(lam - i*u)^beta - lam^beta on the principal branch (vectorised).

    The u = 0 value is pinned to exactly zero (it vanishes identically);
    array and scalar pow differ in the last ulp otherwise."""
    u = np.asarray(u, dtype=float)
    eta = np.arctan2(u, lam)
    mag = (lam * lam + u * u) ** (0.5 * beta)
    out = mag * np.exp(-1j * beta * eta) - lam ** beta
    return np.where(u == 0.0, 0.0 + 0.0j, out)


def _ceil_sign(beta: float) -> float:
    return (-1.0) ** math.ceil(beta)


# ---------------------------------------------------------------------------
# closed-form |cos|^beta integrals for untempered band contributions
# ---------------------------------------------------------------------------

def _F_cos_pow(x, beta: float):
    """int_0^x cos(t)^beta dt for x in [-pi/2, pi/2] (odd in x)."""
    x = np.asarray(x, dtype=float)
    s = np.sin(np.clip(x, -0.5 * math.pi, 0.5 * math.pi))
    total = 0.5 * sc.beta(0.5, 0.5 * (beta + 1.0))
    return np.sign(x) * total * sc.betainc(0.5, 0.5 * (beta + 1.0), s * s)


def _cos_pow_band(a, b, beta: float):
    """(Cpos, Cneg): integrals of |cos w|^beta over [a, b] restricted to
    cos w > 0 and cos w < 0.  a, b arrays with 0 < b - a <= 2*pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cpos = np.zeros_like(a)
    cneg = np.zeros_like(a)
    j0 = np.floor((a + 0.5 * math.pi) / math.pi)
    for off in range(4):
        j = j0 + off
        lo = np.maximum(a, -0.5 * math.pi + j * math.pi)
        hi = np.minimum(b, 0.5 * math.pi + j * math.pi)
        seg = np.clip(hi - lo, 0.0, None)
        active = seg > 0
        if not np.any(active):
            continue
        val = np.where(
            active, _F_cos_pow(hi - j * math.pi, beta) - _F_cos_pow(lo - j * math.pi, beta), 0.0
        )
        even = (np.mod(j, 2.0) == 0.0)
        cpos += np.where(active & even, val, 0.0)
        cneg += np.where(active & ~even, val, 0.0)
    return cpos, cneg


def _stable_band_2d(pts, band, beta: float):
    """Exact band contribution to int (-i k.phi)^beta m(phi) dphi for lam = 0."""
    kn = np.hypot(pts[:, 0], pts[:, 1])
    theta_k = np.arctan2(pts[:, 1], pts[:, 0])
    t0, t1 = band.bounds
    cpos, cneg = _cos_pow_band(t0 - theta_k, t1 - theta_k, beta)
    rot = np.exp(-1j * beta * 0.5 * math.pi)
    out = band.density * kn ** beta * (cpos * rot + cneg * np.conj(rot))
    return np.where(kn > 0, out, 0.0 + 0.0j)


# ---------------------------------------------------------------------------
# symbol evaluators
# ---------------------------------------------------------------------------

def _worker_cap() -> int:
    """Thread-pool size: ANISOLAP_THREADS, or one per core when unset or 0."""
    return int(os.environ.get("ANISOLAP_THREADS", "0")) or os.cpu_count() or 1


def _band_sum(pts, node_sets):
    """Fixed-node quadrature: one column per (g, dirs, w) node set.

    Column j of the (P, len(node_sets)) result is (g(u) * w).sum(axis=1) with
    u = pts @ dirs.T, taken over fixed blocks of at most _BLOCK_ROWS rows, so
    memory is O(block x M) rather than O(P x M).  Blocks run on up to
    ANISOLAP_THREADS workers; the boundaries depend only on P, so the sums do
    not depend on the worker count.
    """
    P = pts.shape[0]
    out = np.empty((P, len(node_sets)), dtype=complex)
    n_blocks = max(1, -(-P // _BLOCK_ROWS))
    # equal blocks, so none has a single row: BLAS takes its matrix-vector
    # path for one row, which rounds u differently
    edges = [P * i // n_blocks for i in range(n_blocks + 1)]

    def block(i):
        rows = slice(edges[i], edges[i + 1])
        for j, (g, dirs, w) in enumerate(node_sets):
            out[rows, j] = (g(pts[rows] @ dirs.T) * w).sum(axis=1)

    workers = min(n_blocks, _worker_cap())
    if workers == 1:
        for i in range(n_blocks):
            block(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(block, range(n_blocks)))
    return out


def _node_sets(bands, g, refinement, order):
    return [(g, *band_nodes(band, refinement=refinement, order=order)) for band in bands]


def _resolve_method(method: str, n_points: int, measure) -> str:
    if method != "auto":
        return method
    if not measure.bands:
        return "nodes"
    return "adaptive" if n_points <= 64 else "nodes"


def _adaptive_bands(pts, bands, integrand_of_u, tol):
    """Adaptive band integrals of integrand_of_u(k.phi), one integrand per
    wavenumber, with 2D panels split at the kinks theta_k +- pi/2."""
    splits = [()] * pts.shape[0]
    for p, kvec in enumerate(pts):
        if pts.shape[1] == 2 and (kvec[0] != 0 or kvec[1] != 0):
            tk = math.atan2(kvec[1], kvec[0])
            splits[p] = (tk - 0.5 * math.pi, tk + 0.5 * math.pi)

    def f(dirs, owner):
        # a stacked matrix product rounds u as dirs @ kvec does per wavenumber
        return integrand_of_u((dirs @ pts[owner][:, :, None])[..., 0])

    out = np.zeros(pts.shape[0], dtype=complex)
    for band in bands:
        out += _integrate_band_adaptive(band, f, tol, splits)
    return out


def tempered_symbol(measure: DirectionalMeasure, beta: float, lam: float, k, *,
                    method: str = "auto", refinement: int = 96, order: int = 8,
                    tol: float = 1e-12):
    """Symbol of the anisotropic (tempered) stable generator.

    Returns (-1)^ceil(beta) * int ((lam - i k.phi)^beta - lam^beta) m(phi) dphi.
    beta must lie in (0,1) or (1,2); beta near 1 is rejected (use beta1_symbol)
    and beta = 2 has its own quadratic reduction (beta2_symbol).
    """
    if not (0.0 < beta < 2.0) or abs(beta - 1.0) < _BETA1_GAP:
        raise ValueError("beta must lie in (0,1) or (1,2); use beta1_symbol/beta2_symbol otherwise")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _k_points(k, measure.dimension)
    sign = _ceil_sign(beta)
    out = np.zeros(pts.shape[0], dtype=complex)
    for d, w in measure.atoms:
        out += w * _bracket(pts @ d, beta, lam)
    if measure.bands:
        if lam == 0.0 and measure.dimension == 2:
            for band in measure.bands:
                out += _stable_band_2d(pts, band, beta)
        elif _resolve_method(method, pts.shape[0], measure) == "adaptive":
            out += _adaptive_bands(pts, measure.bands, partial(_bracket, beta=beta, lam=lam), tol)
        else:
            g = partial(_bracket, beta=beta, lam=lam)
            for col in _band_sum(pts, _node_sets(measure.bands, g, refinement, order)).T:
                out += col
    return _restore(sign * out, shape)


def beta1_symbol(measure: DirectionalMeasure, lam: float, k, *,
                 method: str = "auto", refinement: int = 96, order: int = 8,
                 tol: float = 1e-12, _skip_symmetry_check: bool = False):
    """Generator symbol for exponent 1 (symmetric measures only).

    lam = 0:  -(pi/2) * int |k.phi| m(phi) dphi.
    lam > 0:  -int [ u*arctan(u/lam) - (lam/2)*log1p(u^2/lam^2) ] m(phi) dphi
    with u = k.phi; the lam*log(lam) terms cancel in this arrangement, making
    psi(0) = 0 exact.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not _skip_symmetry_check and not is_symmetric(measure):
        raise ValueError("the exponent-1 symbol is defined here only for symmetric measures")
    pts, shape = _k_points(k, measure.dimension)

    if lam == 0.0:
        def g(u):
            return 0.5 * math.pi * np.abs(u)
    else:
        def g(u):
            u = np.asarray(u, dtype=float)
            return u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)

    out = np.zeros(pts.shape[0], dtype=complex)
    for d, w in measure.atoms:
        out += w * g(pts @ d)
    if measure.bands:
        if lam == 0.0 and measure.dimension == 2:
            kn = np.hypot(pts[:, 0], pts[:, 1])
            theta_k = np.arctan2(pts[:, 1], pts[:, 0])
            for band in measure.bands:
                t0, t1 = band.bounds
                cpos, cneg = _cos_pow_band(t0 - theta_k, t1 - theta_k, 1.0)
                out += 0.5 * math.pi * band.density * kn * (cpos + cneg)
        elif _resolve_method(method, pts.shape[0], measure) == "adaptive":
            out += _adaptive_bands(pts, measure.bands, g, tol)
        else:
            for col in _band_sum(pts, _node_sets(measure.bands, g, refinement, order)).T:
                out += col
    return _restore(-out, shape)


def beta2_symbol(measure: DirectionalMeasure, lam: float, k):
    """Quadratic reduction at exponent 2: (ik)^T A (ik) - 2*lam*(ik)^T b."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _k_points(k, measure.dimension)
    mom = moments(measure)
    quad = np.einsum("pi,ij,pj->p", pts, mom.covariance, pts)
    drift = pts @ mom.mean
    return _restore(-quad - 2j * lam * drift, shape)


def general_profile_symbol(measure: DirectionalMeasure, profile: StabilityProfile, k, *,
                           method: str = "auto", refinement: int = 96, order: int = 8,
                           tol: float = 1e-12):
    """Symbol with direction-dependent beta(phi), lambda(phi).

    Each atom/band carries its own (beta, lambda) and the sign prefactor
    (-1)^ceil(beta) is applied inside the integral per component.  Profiles
    mixing the ranges (0,1) and (1,2) are admitted but flagged with
    MixedStabilityRangeWarning since the global sign convention is ambiguous.
    """
    profile = profile.for_measure(measure)
    for b in profile.betas:
        if not (0.0 < b < 2.0) or abs(b - 1.0) < _BETA1_GAP:
            raise ValueError("profile exponents must lie in (0,1) or (1,2)")
    lo = any(b < 1.0 for b in profile.betas)
    hi = any(b > 1.0 for b in profile.betas)
    if lo and hi:
        warnings.warn(
            "profile mixes exponents below and above 1; per-component sign applied",
            MixedStabilityRangeWarning,
        )
    pts, shape = _k_points(k, measure.dimension)
    out = np.zeros(pts.shape[0], dtype=complex)
    for i, (d, w) in enumerate(measure.atoms):
        bi, li = profile.betas[i], profile.lambdas[i]
        out += _ceil_sign(bi) * w * _bracket(pts @ d, bi, li)
    n_atoms = len(measure.atoms)
    rules = [(profile.betas[n_atoms + j], profile.lambdas[n_atoms + j])
             for j in range(len(measure.bands))]
    gs = [partial(_bracket, beta=bj, lam=lj) for bj, lj in rules]
    closed = [lj == 0.0 and measure.dimension == 2 for _, lj in rules]
    adaptive = _resolve_method(method, pts.shape[0], measure) == "adaptive"
    on_nodes = [] if adaptive else [j for j, c in enumerate(closed) if not c]
    if on_nodes:
        sums = _band_sum(pts, [
            (gs[j], *band_nodes(measure.bands[j], refinement=refinement, order=order))
            for j in on_nodes])
    for j, band in enumerate(measure.bands):
        bj = rules[j][0]
        sign = _ceil_sign(bj)
        if closed[j]:
            out += sign * _stable_band_2d(pts, band, bj)
        elif adaptive:
            out += sign * _adaptive_bands(pts, [band], gs[j], tol)
        else:
            out += sign * sums[:, on_nodes.index(j)]
    return _restore(out, shape)


def gaussian_symbol(variant: str, k, *, sigma: Optional[float] = None,
                    measure: Optional[DirectionalMeasure] = None,
                    sigmas=None, dimension: int = 2,
                    refinement: int = 96, order: int = 8):
    """Phi_0(k) - 1 for compound-Poisson Gaussian jump laws.

    iso:  exp(-sigma^2 |k|^2 / 2) - 1.
    axes: mean over coordinate axes of exp(-sigma^2 k_i^2 / 2), minus 1.
    aniso: normalised radial-Gaussian mixture over a 2D directional measure
           with per-component spread sigmas (Rayleigh radial law per ray),
           summed as c_m sum w (radial - s^2) with c_m = 1 / sum w s^2 rather
           than c_m sum w radial - 1, so that psi(0) = 0 exactly.
    """
    if variant in ("iso", "axes"):
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive")
        pts, shape = _k_points(k, dimension)
        if variant == "iso":
            vals = np.exp(-0.5 * sigma ** 2 * np.sum(pts ** 2, axis=-1)) - 1.0
        else:
            vals = np.mean(np.exp(-0.5 * sigma ** 2 * pts ** 2), axis=-1) - 1.0
        return _restore(vals.astype(complex), shape)
    if variant != "aniso":
        raise ValueError(f"unknown gaussian variant {variant!r}")
    if measure is None or measure.dimension != 2:
        raise ValueError("the aniso variant requires a 2D directional measure")
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape == ():
        sig = np.full(measure.n_components, float(sig))
    if sig.shape != (measure.n_components,) or np.any(sig <= 0):
        raise ValueError("sigmas must give one positive spread per measure component")
    pts, shape = _k_points(k, 2)
    dirs, w, comp = measure_nodes(measure, refinement=refinement, order=order)
    s = sig[comp]

    def radial_dev(u):
        # radial - s^2, where radial = s^2 - u s^3 sqrt(2) dawsn(x)
        # + i u s^3 sqrt(pi/2) exp(-(u s)^2 / 2) is s^2 times the Rayleigh
        # characteristic function at u = k.phi; every term carries a factor u,
        # so the sum vanishes exactly at k = 0
        x = u * s / math.sqrt(2.0)
        return (
            - u * s ** 3 * math.sqrt(2.0) * sc.dawsn(x)
            + 1j * u * s ** 3 * math.sqrt(0.5 * math.pi) * np.exp(-0.5 * (u * s) ** 2)
        )

    c_m = 1.0 / np.sum(w * s ** 2)
    return _restore(c_m * _band_sum(pts, [(radial_dev, dirs, w)])[:, 0], shape)


def isotropic_reference_symbol(beta: float, lam: float, k, n: int, *,
                               n_panels: int = 40, order: int = 12):
    """Nonnegative reference multiplier of the isotropic operator.

    Returns (-1)^ceil(beta) * (1/omega_n) * int (lam^beta -
    (lam^2 + (k.phi)^2)^(beta/2) cos(beta*eta)) dphi, a real value >= 0 used
    as the denominator of the coercivity ratio.
    """
    if not (0.0 < beta < 2.0) or abs(beta - 1.0) < _BETA1_GAP:
        raise ValueError("beta must lie in (0,1) or (1,2)")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _k_points(k, n)
    kn = np.linalg.norm(pts, axis=-1)
    sign = _ceil_sign(beta)

    def f(u):
        u = np.asarray(u, dtype=float)
        eta = np.arctan2(u, lam)
        val = sign * (lam ** beta
                      - (lam * lam + u * u) ** (0.5 * beta) * np.cos(beta * eta))
        return np.where(u == 0.0, 0.0, val)

    if n == 1:
        out = f(kn)
    elif lam == 0.0:
        cbeta = abs(math.cos(0.5 * math.pi * beta))
        if n == 2:
            mean_cos = sc.beta(0.5, 0.5 * (beta + 1.0)) / math.pi
        else:
            mean_cos = 1.0 / (beta + 1.0)
        out = cbeta * kn ** beta * mean_cos
    elif n == 2:
        # (2/pi) * int_0^{pi/2} f(|k| cos(theta)) dtheta with panels graded
        # toward theta = pi/2, where f has its (smoothed) |u|^beta kink
        theta_edges = 0.5 * math.pi - np.concatenate(
            [0.5 * math.pi * np.geomspace(1e-10, 1.0, n_panels)[::-1], [0.0]]
        )
        t, tw = _composite_gl(theta_edges, order)
        vals = f(kn[:, None] * np.cos(t)[None, :])
        out = (2.0 / math.pi) * (vals * tw[None, :]).sum(axis=1)
    else:
        # int_0^1 f(|k| t) dt, graded toward the kink at t = 0
        t_edges = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, n_panels)])
        t, tw = _composite_gl(t_edges, order)
        vals = f(kn[:, None] * t[None, :])
        out = (vals * tw[None, :]).sum(axis=1)
    out = np.maximum(out, 0.0)
    if shape == ():
        return float(out[0])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# generator objects
# ---------------------------------------------------------------------------

_KINDS = (
    "gaussian_iso", "gaussian_axes", "gaussian_aniso", "stable_aniso",
    "tempered_aniso", "beta1_aniso", "beta2_quadratic", "general_profile",
    "isotropic_reference",
)


@dataclass(frozen=True)
class GeneratorSymbol:
    """Immutable symbol evaluator psi(k) for one operator family.

    zeta scales the whole symbol (jump rate of the compound-Poisson picture,
    or a plain diffusion-coefficient rescale); evaluation is pure and safe to
    share across threads.  on_grid evaluates psi on a SpectralGrid's lattice
    from half of its wavenumbers and caches the result per grid on the
    instance.
    """

    kind: str
    dimension: int
    zeta: float = 1.0
    measure: Optional[DirectionalMeasure] = None
    profile: Optional[StabilityProfile] = None
    beta: Optional[float] = None
    lam: Optional[float] = None
    sigma: Optional[float] = None
    sigmas: Optional[tuple] = None
    method: str = "auto"
    refinement: int = 96

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.method not in ("auto", "nodes", "adaptive"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.kind == "beta1_aniso" and not is_symmetric(self.measure):
            raise ValueError("exponent-1 symbols require a symmetric measure")
        if self.kind in ("gaussian_aniso", "stable_aniso", "tempered_aniso",
                         "beta1_aniso", "beta2_quadratic", "general_profile"):
            if self.measure is None:
                raise ValueError(f"{self.kind} requires a directional measure")
            if self.measure.dimension != self.dimension:
                raise ValueError("measure dimension mismatch")
        object.__setattr__(self, "_grid_cache", {})
        object.__setattr__(self, "_grid_lock", threading.Lock())

    def evaluate(self, k, method: Optional[str] = None):
        """psi(k); method overrides self.method for this call."""
        kind = self.kind
        method = self.method if method is None else method
        if kind == "gaussian_iso":
            base = gaussian_symbol("iso", k, sigma=self.sigma, dimension=self.dimension)
        elif kind == "gaussian_axes":
            base = gaussian_symbol("axes", k, sigma=self.sigma, dimension=self.dimension)
        elif kind == "gaussian_aniso":
            base = gaussian_symbol("aniso", k, measure=self.measure,
                                   sigmas=self.sigmas, refinement=self.refinement)
        elif kind == "stable_aniso":
            base = tempered_symbol(self.measure, self.beta, 0.0, k,
                                   method=method, refinement=self.refinement)
        elif kind == "tempered_aniso":
            base = tempered_symbol(self.measure, self.beta, self.lam, k,
                                   method=method, refinement=self.refinement)
        elif kind == "beta1_aniso":
            base = beta1_symbol(self.measure, self.lam, k, method=method,
                                refinement=self.refinement, _skip_symmetry_check=True)
        elif kind == "beta2_quadratic":
            base = beta2_symbol(self.measure, self.lam or 0.0, k)
        elif kind == "general_profile":
            base = general_profile_symbol(self.measure, self.profile, k,
                                          method=method, refinement=self.refinement)
        else:  # isotropic_reference, as a generator: the negated reference value
            base = -1.0 * isotropic_reference_symbol(self.beta, self.lam or 0.0, k, self.dimension)
        arr = np.atleast_1d(np.asarray(base))
        slack = 1e-10 * max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(arr.real)) > slack:
            raise RuntimeError(
                f"{self.kind} symbol violated Re psi <= 0 (quadrature failure?)")
        return self.zeta * base

    __call__ = evaluate

    def on_grid(self, grid) -> np.ndarray:
        """Read-only psi on the fftfreq lattice of grid, shaped grid.shape().

        One wavenumber of each pair (k, -k) is evaluated, plus every point on
        a Nyquist plane (its mirror lies off the lattice); the rest is filled
        in by psi(-k) = conj psi(k).  method="auto" resolves on the full
        number of lattice points.  The last _GRID_CACHE_SIZE grids are cached.
        """
        with self._grid_lock:
            psi = self._grid_cache.get(grid)
            if psi is None:
                psi = self._half_spectrum(grid)
                self._grid_cache[grid] = psi
                if len(self._grid_cache) > _GRID_CACHE_SIZE:
                    del self._grid_cache[next(iter(self._grid_cache))]
        return psi

    def _half_spectrum(self, grid) -> np.ndarray:
        shape, N = grid.shape(), grid.n_points
        idx = np.indices(shape).reshape(grid.dimension, -1)
        flat = np.arange(idx.shape[1])
        mirror = np.ravel_multi_index((N - idx) % N, shape)
        own = np.any(idx == N // 2, axis=0) | (flat <= mirror)
        method = self.method
        if self.measure is not None:
            method = _resolve_method(method, flat.size, self.measure)
        vals = np.empty(flat.size, dtype=complex)
        vals[own] = self.evaluate(grid.k_points()[own], method=method)
        vals[~own] = np.conj(vals[mirror[~own]])
        psi = vals.reshape(shape)
        psi.setflags(write=False)
        return psi


def make_generator(kind: str, dimension: int, **params) -> GeneratorSymbol:
    return GeneratorSymbol(kind=kind, dimension=dimension, **params)


def symbol_to_json(sym: GeneratorSymbol) -> dict:
    from .measures import measure_to_json

    doc = {"kind": sym.kind, "dimension": sym.dimension, "zeta": sym.zeta}
    if sym.measure is not None:
        doc["measure"] = measure_to_json(sym.measure)
    if sym.profile is not None:
        doc["profile"] = {"betas": list(sym.profile.betas),
                          "lambdas": list(sym.profile.lambdas)}
    for name in ("beta", "lam", "sigma"):
        if getattr(sym, name) is not None:
            doc[name] = getattr(sym, name)
    if sym.sigmas is not None:
        doc["sigmas"] = list(sym.sigmas)
    doc["method"] = sym.method
    doc["refinement"] = sym.refinement
    return doc


def symbol_from_json(doc: dict) -> GeneratorSymbol:
    from .measures import measure_from_json

    measure = measure_from_json(doc["measure"]) if "measure" in doc else None
    profile = None
    if "profile" in doc:
        profile = StabilityProfile(tuple(doc["profile"]["betas"]),
                                   tuple(doc["profile"]["lambdas"]))
    return GeneratorSymbol(
        kind=doc["kind"],
        dimension=int(doc["dimension"]),
        zeta=float(doc.get("zeta", 1.0)),
        measure=measure,
        profile=profile,
        beta=doc.get("beta"),
        lam=doc.get("lam"),
        sigma=doc.get("sigma"),
        sigmas=tuple(doc["sigmas"]) if "sigmas" in doc else None,
        method=doc.get("method", "auto"),
        refinement=int(doc.get("refinement", 96)),
    )
