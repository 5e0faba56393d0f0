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
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import scipy.special as sc

from .measures import (
    DirectionalMeasure,
    NumericalError,
    StabilityProfile,
    _check_exponent,
    _composite_gl,
    _integrate_band_adaptive,
    _pool_map,
    _row_blocks,
    band_nodes,
    from_json,
    is_symmetric,
    measure_nodes,
    moments,
    to_json,
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


def _cos_pow_parts(pts, band, beta: float):
    """|k| and (Cpos, Cneg): the integrals of |cos w|^beta, w = theta - theta_k,
    over a 2D band's arc restricted to cos w > 0 and cos w < 0."""
    kn = np.hypot(pts[:, 0], pts[:, 1])
    theta_k = np.arctan2(pts[:, 1], pts[:, 0])
    a, b = band.bounds[0] - theta_k, band.bounds[1] - theta_k
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
    return kn, cpos, cneg


def _stable_band_2d(pts, band, beta: float):
    """Exact band contribution to int (-i k.phi)^beta m(phi) dphi for lam = 0."""
    kn, cpos, cneg = _cos_pow_parts(pts, band, beta)
    rot = np.exp(-1j * beta * 0.5 * math.pi)
    out = band.density * kn ** beta * (cpos * rot + cneg * np.conj(rot))
    return np.where(kn > 0, out, 0.0 + 0.0j)


def _cos_pow_band(pts, band):
    """Exact band contribution to (pi/2) int |k.phi| m(phi) dphi (exponent 1, lam = 0)."""
    kn, cpos, cneg = _cos_pow_parts(pts, band, 1.0)
    return 0.5 * math.pi * band.density * kn * (cpos + cneg)


# ---------------------------------------------------------------------------
# symbol evaluators
# ---------------------------------------------------------------------------

def _band_sum(pts, node_sets):
    """Fixed-node quadrature: one column per (g, dirs, w) node set.

    Column j of the (P, len(node_sets)) result is (g(u) * w).sum(axis=1) with
    u = pts @ dirs.T, taken over fixed blocks of at most _BLOCK_ROWS rows, so
    memory is O(block x M) rather than O(P x M).  Blocks run on up to
    ANISOLAP_THREADS workers; the boundaries depend only on P, so the sums do
    not depend on the worker count.
    """
    out = np.empty((pts.shape[0], len(node_sets)), dtype=complex)

    def block(rows):
        for j, (g, dirs, w) in enumerate(node_sets):
            out[rows, j] = (g(pts[rows] @ dirs.T) * w).sum(axis=1)

    _pool_map(block, _row_blocks(pts.shape[0], _BLOCK_ROWS))
    return out


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


def _measure_integral(measure, pts, comps, method, refinement, tol):
    """sum over the components c of sign_c * int g_c(k.phi) m_c(dphi).

    comps holds one (sign, g, closed) per component of measure, atoms first;
    closed(pts, band) is the exact band integral, or None.  Atoms are summed
    exactly; each band takes its closed form if it has one, else adaptive
    quadrature or the fixed nodes, as method resolves for len(pts).  The
    components are added in measure order.
    """
    out = np.zeros(pts.shape[0], dtype=complex)
    for (d, w), (sign, g, _) in zip(measure.atoms, comps):
        out += sign * w * g(pts @ d)
    bands = list(zip(measure.bands, comps[len(measure.atoms):]))
    adaptive = _resolve_method(method, pts.shape[0], measure) == "adaptive"
    on_nodes = [] if adaptive else [
        (g, *band_nodes(band, refinement=refinement))
        for band, (_, g, closed) in bands if closed is None]
    sums = iter(_band_sum(pts, on_nodes).T if on_nodes else ())
    for band, (sign, g, closed) in bands:
        if closed is not None:
            out += sign * closed(pts, band)
        elif adaptive:
            out += sign * _adaptive_bands(pts, [band], g, tol)
        else:
            out += sign * next(sums)
    return out


def _stable_symbol(measure, betas, lams, k, method, refinement, tol):
    """The (tempered) stable symbol with exponent betas[c] and rate lams[c] on
    component c; untempered 2D bands take the closed form."""
    pts, shape = _k_points(k, measure.dimension)
    comps = [(_ceil_sign(b), partial(_bracket, beta=b, lam=l),
              partial(_stable_band_2d, beta=b) if l == 0.0 and measure.dimension == 2 else None)
             for b, l in zip(betas, lams)]
    return _restore(_measure_integral(measure, pts, comps, method, refinement, tol), shape)


def tempered_symbol(measure: DirectionalMeasure, beta: float, lam: float, k, *,
                    method: str = "auto", refinement: int = 96, tol: float = 1e-12):
    """Symbol of the anisotropic (tempered) stable generator.

    Returns (-1)^ceil(beta) * int ((lam - i k.phi)^beta - lam^beta) m(phi) dphi,
    the constant-profile case of general_profile_symbol.  beta must lie in
    (0,1) or (1,2); beta near 1 is rejected (use beta1_symbol) and beta = 2
    has its own quadratic reduction (beta2_symbol).
    """
    _check_exponent(beta, hint="; use beta1_symbol/beta2_symbol otherwise")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    m = measure.n_components
    return _stable_symbol(measure, (beta,) * m, (lam,) * m, k, method, refinement, tol)


def beta1_symbol(measure: DirectionalMeasure, lam: float, k, *,
                 method: str = "auto", refinement: int = 96):
    """Generator symbol for exponent 1 (symmetric measures only).

    lam = 0:  -(pi/2) * int |k.phi| m(phi) dphi.
    lam > 0:  -int [ u*arctan(u/lam) - (lam/2)*log1p(u^2/lam^2) ] m(phi) dphi
    with u = k.phi; the lam*log(lam) terms cancel in this arrangement, making
    psi(0) = 0 exact.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not is_symmetric(measure):
        raise ValueError("the exponent-1 symbol is defined here only for symmetric measures")
    pts, shape = _k_points(k, measure.dimension)

    if lam == 0.0:
        def g(u):
            return 0.5 * math.pi * np.abs(u)
    else:
        def g(u):
            u = np.asarray(u, dtype=float)
            return u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)

    closed = _cos_pow_band if lam == 0.0 and measure.dimension == 2 else None
    comps = [(-1.0, g, closed)] * measure.n_components
    return _restore(_measure_integral(measure, pts, comps, method, refinement, 1e-12), shape)


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
                           method: str = "auto", refinement: int = 96, tol: float = 1e-12):
    """Symbol with direction-dependent beta(phi), lambda(phi).

    Each atom/band carries its own (beta, lambda) and the sign prefactor
    (-1)^ceil(beta) is applied inside the integral per component.  Profiles
    mixing the ranges (0,1) and (1,2) are admitted but flagged with
    MixedStabilityRangeWarning since the global sign convention is ambiguous.
    """
    profile = profile.for_measure(measure)
    for b in profile.betas:
        _check_exponent(b, "profile exponents")
    lo = any(b < 1.0 for b in profile.betas)
    hi = any(b > 1.0 for b in profile.betas)
    if lo and hi:
        warnings.warn(
            "profile mixes exponents below and above 1; per-component sign applied",
            MixedStabilityRangeWarning,
        )
    return _stable_symbol(measure, profile.betas, profile.lambdas, k, method, refinement, tol)


def gaussian_symbol(variant: str, k, *, sigma: Optional[float] = None,
                    measure: Optional[DirectionalMeasure] = None,
                    sigmas=None, dimension: int = 2, refinement: int = 96):
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
    dirs, w, comp = measure_nodes(measure, refinement=refinement)
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


def isotropic_reference_symbol(beta: float, lam: float, k, n: int):
    """Nonnegative reference multiplier of the isotropic operator.

    Returns (-1)^ceil(beta) * (1/omega_n) * int (lam^beta -
    (lam^2 + (k.phi)^2)^(beta/2) cos(beta*eta)) dphi, a real value >= 0 used
    as the denominator of the coercivity ratio: in closed form for n = 1 or
    lam = 0, else by 40 graded Gauss-Legendre panels of order 12.
    """
    _check_exponent(beta)
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
            [0.5 * math.pi * np.geomspace(1e-10, 1.0, 40)[::-1], [0.0]]
        )
        t, tw = _composite_gl(theta_edges, 12)
        vals = f(kn[:, None] * np.cos(t)[None, :])
        out = (2.0 / math.pi) * (vals * tw[None, :]).sum(axis=1)
    else:
        # int_0^1 f(|k| t) dt, graded toward the kink at t = 0
        t_edges = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 40)])
        t, tw = _composite_gl(t_edges, 12)
        vals = f(kn[:, None] * t[None, :])
        out = (vals * tw[None, :]).sum(axis=1)
    out = np.maximum(out, 0.0)
    if shape == ():
        return float(out[0])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# generator objects
# ---------------------------------------------------------------------------

# kind -> psi(sym, k, method); each entry looks up its evaluator at call
# time, so a rebinding of the module-level name reaches GeneratorSymbol
_EVALUATORS = {
    "gaussian_iso": lambda s, k, method: gaussian_symbol(
        "iso", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_axes": lambda s, k, method: gaussian_symbol(
        "axes", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_aniso": lambda s, k, method: gaussian_symbol(
        "aniso", k, measure=s.measure, sigmas=s.sigmas, refinement=s.refinement),
    "stable_aniso": lambda s, k, method: tempered_symbol(
        s.measure, s.beta, 0.0, k, method=method, refinement=s.refinement),
    "tempered_aniso": lambda s, k, method: tempered_symbol(
        s.measure, s.beta, s.lam, k, method=method, refinement=s.refinement),
    "beta1_aniso": lambda s, k, method: beta1_symbol(
        s.measure, s.lam, k, method=method, refinement=s.refinement),
    "beta2_quadratic": lambda s, k, method: beta2_symbol(s.measure, s.lam or 0.0, k),
    "general_profile": lambda s, k, method: general_profile_symbol(
        s.measure, s.profile, k, method=method, refinement=s.refinement),
    # as a generator: the negated reference value
    "isotropic_reference": lambda s, k, method: -1.0 * isotropic_reference_symbol(
        s.beta, s.lam or 0.0, k, s.dimension),
}
_KINDS = tuple(_EVALUATORS)


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
    sigmas: Optional[tuple[float, ...]] = None
    method: str = "auto"
    refinement: int = 96

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.method not in ("auto", "nodes", "adaptive"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.kind in ("gaussian_aniso", "stable_aniso", "tempered_aniso",
                         "beta1_aniso", "beta2_quadratic", "general_profile"):
            if self.measure is None:
                raise ValueError(f"{self.kind} requires a directional measure")
            if self.measure.dimension != self.dimension:
                raise ValueError("measure dimension mismatch")
        if self.kind == "beta1_aniso" and not is_symmetric(self.measure):
            raise ValueError("exponent-1 symbols require a symmetric measure")
        object.__setattr__(self, "_grid_cache", {})
        object.__setattr__(self, "_grid_lock", threading.Lock())

    def evaluate(self, k, method: Optional[str] = None):
        """psi(k); method overrides self.method for this call."""
        method = self.method if method is None else method
        base = _EVALUATORS[self.kind](self, k, method)
        arr = np.atleast_1d(np.asarray(base))
        slack = 1e-10 * max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(arr.real)) > slack:
            raise NumericalError(
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
    return to_json(sym)


def symbol_from_json(doc: dict) -> GeneratorSymbol:
    return from_json(GeneratorSymbol, doc)
