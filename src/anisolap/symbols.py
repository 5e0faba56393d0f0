"""Generator symbols (Fourier multipliers) of the nonlocal diffusion operators.

Every evaluator returns the symbol psi(k) of a Markov generator, so psi(0) = 0,
Re psi <= 0, and psi(-k) = conj(psi(k)), bit for bit.  Fractional powers use
the principal branch through the polar representation

    (lam - i*u)^beta = (lam^2 + u^2)^(beta/2) * exp(-i*beta*eta),
    eta = arctan2(u, lam),

which is exact for lam = 0 as well (eta = +-pi/2).  The phase is taken from
the half-angle tangent tan(beta*eta/2) (measures._half_angle_trig), which
numpy evaluates vectorised where cos and sin may run as scalar libm.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._special import dawsn, incbeta
from .measures import (
    DirectionalMeasure,
    NumericalError,
    StabilityProfile,
    _as_rows,
    _check_exponent,
    _check_kind,
    _component_spreads,
    _composite_gl,
    _from_rows,
    _half_angle_trig,
    _integrate_band_adaptive,
    _pool_map,
    _row_blocks,
    band_nodes,
    from_json,
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

_BLOCK_ROWS = 64  # wavenumbers per block of the fixed-node quadrature
_ADAPTIVE_TOL = 1e-12  # absolute panel tolerance of the adaptive band rule
_GRID_CACHE_SIZE = 4  # grids whose symbol values a GeneratorSymbol keeps


class MixedStabilityRangeWarning(UserWarning):
    """A direction-dependent exponent profile mixes (0,1) and (1,2); the
    sign prefactor is applied per component."""


def _bracket(u, beta: float, lam: float):
    """(lam - i*u)^beta - lam^beta on the principal branch (vectorised).

    The phase exp(-i*beta*eta) comes from t = tan(beta*eta/2) at |u|, finite
    since beta*eta/2 < pi/2, and t takes the sign of u, so g(-u) == conj g(u)
    exactly.  The u = 0 value is pinned to exactly zero (it vanishes
    identically); array and scalar pow differ in the last ulp otherwise.  At
    lam = 0 the magnitude is |u|^beta, which does not underflow with u^2."""
    u = np.asarray(u, dtype=float)
    # at least 1D: a ufunc on a 0-d array returns a scalar, not a buffer
    a = np.abs(np.atleast_1d(u))
    t = np.arctan2(a, lam)
    t *= 0.5 * beta
    np.tan(t, out=t)
    np.copysign(t, u, out=t)
    out = np.empty(a.shape, dtype=complex)
    _half_angle_trig(t, out.real, out.imag)
    # t becomes the magnitude (lam^2 + u^2)^(beta/2)
    if lam == 0.0:
        np.power(a, beta, out=t)
    else:
        np.multiply(a, a, out=t)
        t += lam * lam
        t **= 0.5 * beta
    out.real *= t
    out.real -= lam ** beta
    np.negative(t, out=t)
    out.imag *= t
    np.copyto(out, 0.0, where=a == 0.0)
    return out.reshape(u.shape)


def _ceil_sign(beta: float) -> float:
    return (-1.0) ** math.ceil(beta)


# ---------------------------------------------------------------------------
# closed-form |cos|^beta integrals for untempered band contributions
# ---------------------------------------------------------------------------

def _cos_pow_band_integrals(pts, band, beta: float):
    """|k| and (E, O): the integrals of |cos w|^beta and of sign(cos w) |cos w|^beta,
    w = theta - theta_k, over a 2D band's arc.

    With w = j pi + y, |y| <= pi/2, F(y) = int_0^y cos^beta and H = F(pi/2),
    their antiderivatives are 2 j H + F(y) and (-1)^j F(y), differenced at
    the band ends.  Each is carried as an integer multiple of H plus a
    remainder, and the two parts are differenced apart: for |y| > pi/4 the
    remainder of F is -sign(y) H I(sin^2 z; (beta+1)/2, 1/2), z = pi/2 - |y|,
    which stays small near a kink, so a narrow band does not lose the
    difference of two values near H."""
    kn = np.hypot(pts[:, 0], pts[:, 1])
    theta_k = np.arctan2(pts[:, 1], pts[:, 0])
    a = 0.5 * (beta + 1.0)
    h = 0.5 * math.sqrt(math.pi) * math.gamma(a) / math.gamma(a + 0.5)  # B(1/2, a) / 2

    def antiderivatives(theta):
        w = theta - theta_k
        j = np.rint(w / math.pi)
        y = np.clip(w - j * math.pi, -0.5 * math.pi, 0.5 * math.pi)
        sign = np.sign(y)
        near = np.abs(y) > 0.25 * math.pi
        s = np.sin(np.where(near, 0.5 * math.pi - np.abs(y), y))
        f = np.where(near, -sign, sign) * 0.5 * incbeta(np.where(near, a, 0.5),
                                                        np.where(near, 0.5, a), s * s)
        n = np.where(near, sign, 0.0)
        parity = 1.0 - 2.0 * (j % 2.0)
        return 2.0 * j + n, f, parity * n, parity * f

    (e0, f0, o0, g0), (e1, f1, o1, g1) = (antiderivatives(t) for t in band.bounds)
    return kn, (e1 - e0) * h + (f1 - f0), (o1 - o0) * h + (g1 - g0)


def _stable_band_2d(pts, band, beta: float):
    """Exact band contribution to int (-i k.phi)^beta m(phi) dphi for lam = 0."""
    kn, even, odd = _cos_pow_band_integrals(pts, band, beta)
    return band.density * kn ** beta * (even * math.cos(0.5 * math.pi * beta)
                                        - 1j * odd * math.sin(0.5 * math.pi * beta))


def _cos_pow_band(pts, band):
    """Exact band contribution to (pi/2) int |k.phi| m(phi) dphi (exponent 1, lam = 0)."""
    kn, even, _ = _cos_pow_band_integrals(pts, band, 1.0)
    return 0.5 * math.pi * band.density * kn * even


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


def _adaptive_bands(pts, bands, integrand_of_u, tol):
    """Adaptive band integrals of integrand_of_u(k.phi), one integrand per
    wavenumber, with panels split where k.phi = 0.  A value that is not
    finite raises NumericalError, as on the fixed nodes."""

    def f(dirs, owner):
        # a stacked matrix product rounds u as dirs @ kvec does per wavenumber
        vals = integrand_of_u((dirs @ pts[owner][:, :, None])[..., 0])
        if not np.all(np.isfinite(vals)):
            raise NumericalError("adaptive band quadrature: the symbol integrand is not "
                                 "finite (|k.phi| overflow?)")
        return vals

    out = np.zeros(pts.shape[0], dtype=complex)
    for band in bands:
        out += _integrate_band_adaptive(band, f, tol, pts)
    return out


def _paired(pts, fn):
    """fn evaluated once per pair +-k of the rows of pts.

    Each row is flipped so that its first nonzero coordinate is positive, and
    equal rows are grouped by one stable sort.  fn runs on the first occurrence
    of each group, in order of first occurrence; its values are scattered back
    and conjugated on the flipped rows, so psi(-k) == conj psi(k) exactly.
    """
    n = pts.shape[0]
    first = pts[np.arange(n), np.argmax(pts != 0.0, axis=1)]
    flip = first < 0.0
    pts = np.where(flip[:, None], -pts, pts)
    order = np.lexsort(pts.T[::-1])
    srt = pts[order]
    start = np.ones(n, dtype=bool)
    start[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    lead = np.empty(n, dtype=np.intp)  # the first occurrence of each row's group
    lead[order] = order[start][np.cumsum(start) - 1]
    is_lead = lead == np.arange(n)
    out = fn(pts[is_lead])[np.cumsum(is_lead)[lead] - 1]
    np.conjugate(out, out=out, where=flip)
    return out


def _measure_integral(measure, pts, comps, method, refinement):
    """sum over the components c of sign_c * int g_c(k.phi) m_c(dphi).

    comps holds one (sign, g, closed) per component of measure, atoms first;
    closed(pts, band) is the exact band integral, or None.  Atoms are summed
    exactly; each band takes its closed form if it has one, else adaptive
    quadrature (method "adaptive", or "auto" on at most 64 wavenumbers) or
    the fixed nodes.  The components are added in measure order, once per
    pair +-k (_paired).
    """
    adaptive = method == "adaptive" or (method == "auto" and len(pts) <= 64)
    bands = list(zip(measure.bands, comps[len(measure.atoms):]))
    on_nodes = [] if adaptive else [
        (g, *band_nodes(band, refinement=refinement))
        for band, (_, g, closed) in bands if closed is None]

    def integral(pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        for (d, w), (sign, g, _) in zip(measure.atoms, comps):
            out += sign * w * g(pts @ d)
        sums = iter(_band_sum(pts, on_nodes).T if on_nodes else ())
        for band, (sign, g, closed) in bands:
            if closed is not None:
                out += sign * closed(pts, band)
            elif adaptive:
                out += sign * _adaptive_bands(pts, [band], g, _ADAPTIVE_TOL)
            else:
                out += sign * next(sums)
        return out

    return _paired(pts, integral)


def _stable_symbol(measure, profile, k, method, refinement):
    """The (tempered) stable symbol with the exponent and rate of profile on
    each measure component; untempered 2D bands take the closed form."""
    pts, shape = _as_rows(k, measure.dimension)
    comps = [(_ceil_sign(b), partial(_bracket, beta=b, lam=l),
              partial(_stable_band_2d, beta=b) if l == 0.0 and measure.dimension == 2 else None)
             for b, l in zip(profile.betas, profile.lambdas)]
    return _from_rows(_measure_integral(measure, pts, comps, method, refinement), shape)


def tempered_symbol(measure: DirectionalMeasure, beta: float, lam: float, k, *,
                    method: str = "auto", refinement: int = 96):
    """Symbol of the anisotropic (tempered) stable generator.

    Returns (-1)^ceil(beta) * int ((lam - i k.phi)^beta - lam^beta) m(phi) dphi,
    the constant-profile case of general_profile_symbol.  beta must lie in
    (0,1) or (1,2) (StabilityProfile); beta near 1 has its own symbol
    (beta1_symbol) and beta = 2 its own quadratic reduction (beta2_symbol).
    """
    profile = StabilityProfile.constant(measure, beta, lam)
    return _stable_symbol(measure, profile, k, method, refinement)


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
    pts, shape = _as_rows(k, measure.dimension)

    if lam == 0.0:
        def g(u):
            return 0.5 * math.pi * np.abs(u)
    else:
        def g(u):
            u = np.asarray(u, dtype=float)
            return u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)

    closed = _cos_pow_band if lam == 0.0 and measure.dimension == 2 else None
    comps = [(-1.0, g, closed)] * measure.n_components
    return _from_rows(_measure_integral(measure, pts, comps, method, refinement), shape)


def beta2_symbol(measure: DirectionalMeasure, lam: float, k):
    """Quadratic reduction at exponent 2: (ik)^T A (ik) - 2*lam*(ik)^T b."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _as_rows(k, measure.dimension)
    mom = moments(measure)
    quad = np.einsum("pi,ij,pj->p", pts, mom.covariance, pts)
    drift = pts @ mom.mean
    return _from_rows(-quad - 2j * lam * drift, shape)


def general_profile_symbol(measure: DirectionalMeasure, profile: StabilityProfile, k, *,
                           method: str = "auto", refinement: int = 96):
    """Symbol with direction-dependent beta(phi), lambda(phi).

    Each atom/band carries its own (beta, lambda), as checked by
    StabilityProfile, and the sign prefactor (-1)^ceil(beta) is applied
    inside the integral per component.  Profiles
    mixing the ranges (0,1) and (1,2) are admitted but flagged with
    MixedStabilityRangeWarning since the global sign convention is ambiguous.
    """
    profile = profile.for_measure(measure)
    lo = any(b < 1.0 for b in profile.betas)
    hi = any(b > 1.0 for b in profile.betas)
    if lo and hi:
        warnings.warn(
            "profile mixes exponents below and above 1; per-component sign applied",
            MixedStabilityRangeWarning,
        )
    return _stable_symbol(measure, profile, k, method, refinement)


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
        pts, shape = _as_rows(k, dimension)
        if variant == "iso":
            vals = np.exp(-0.5 * sigma ** 2 * np.sum(pts ** 2, axis=-1)) - 1.0
        else:
            vals = np.mean(np.exp(-0.5 * sigma ** 2 * pts ** 2), axis=-1) - 1.0
        return _from_rows(vals.astype(complex), shape)
    if variant != "aniso":
        raise ValueError(f"unknown gaussian variant {variant!r}")
    if measure is None or measure.dimension != 2:
        raise ValueError("the aniso variant requires a 2D directional measure")
    sig = _component_spreads(measure, sigmas)
    pts, shape = _as_rows(k, 2)
    dirs, w, comp = measure_nodes(measure, refinement=refinement)
    s = sig[comp]

    def radial_dev(u):
        # radial - s^2, where radial = s^2 - u s^3 sqrt(2) D(x)
        # + i u s^3 sqrt(pi/2) exp(-(u s)^2 / 2), D Dawson's integral, is s^2
        # times the Rayleigh characteristic function at u = k.phi; every term
        # carries a factor u, so the sum vanishes exactly at k = 0
        x = u * s / math.sqrt(2.0)
        return (
            - u * s ** 3 * math.sqrt(2.0) * dawsn(x)
            + 1j * u * s ** 3 * math.sqrt(0.5 * math.pi) * np.exp(-0.5 * (u * s) ** 2)
        )

    c_m = 1.0 / np.sum(w * s ** 2)
    vals = _paired(pts, lambda p: _band_sum(p, [(radial_dev, dirs, w)])[:, 0])
    return _from_rows(c_m * vals, shape)


def isotropic_reference_symbol(beta: float, lam: float, k, n: int):
    """Nonnegative reference multiplier of the isotropic operator.

    Returns (-1)^ceil(beta) * (1/omega_n) * int (lam^beta -
    (lam^2 + (k.phi)^2)^(beta/2) cos(beta*eta)) dphi, the real part of
    _bracket, a real value >= 0 used as the denominator of the coercivity
    ratio.  For n = 1 it is f(|k|).  For n = 2 and 3 at lam = 0 it is the
    closed form |cos(beta pi/2)| |k|^beta times the sphere mean of
    |cos|^beta, one evaluation per point, since the isotropic_reference
    generator evaluates whole lattices through it.  At lam > 0 it is the
    mean of f(|k| sin s) over s in (0, pi/2) in 2D and of f(|k| s) over s
    in (0, 1) in 3D, s measured from the kink of f at k.phi = 0, by 40
    panels of order 12 graded toward it, in the row blocks of _band_sum.
    """
    _check_exponent(beta)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _as_rows(k, n)
    kn = np.linalg.norm(pts, axis=-1)
    sign = _ceil_sign(beta)

    def f(u):
        return -sign * _bracket(u, beta, lam).real

    if n == 1:
        out = f(kn)
    elif lam == 0.0:
        cbeta = abs(math.cos(0.5 * math.pi * beta))
        if n == 2:
            mean_cos = math.gamma(beta / 2 + 0.5) / math.gamma(beta / 2 + 1.0) / math.sqrt(math.pi)
        else:
            mean_cos = 1.0 / (beta + 1.0)
        out = cbeta * kn ** beta * mean_cos
    else:
        top = 0.5 * math.pi if n == 2 else 1.0
        s, sw = _composite_gl(top * np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 40)]), 12)
        nodes = (np.sin(s) if n == 2 else s)[:, None]  # u = |k| s: one product, no sum
        out = _band_sum(kn[:, None], [(f, nodes, sw / top)])[:, 0].real
    return _from_rows(np.maximum(out, 0.0), shape)


# ---------------------------------------------------------------------------
# generator objects
# ---------------------------------------------------------------------------

# kind -> psi(sym, k); each entry looks up its evaluator at call time, so a
# rebinding of the module-level name reaches GeneratorSymbol.  Evaluators that
# integrate over a measure form the pairs +-k themselves (_paired)
_EVALUATORS = {
    "gaussian_iso": lambda s, k: gaussian_symbol(
        "iso", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_axes": lambda s, k: gaussian_symbol(
        "axes", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_aniso": lambda s, k: gaussian_symbol(
        "aniso", k, measure=s.measure, sigmas=s.sigmas, refinement=s.refinement),
    "stable_aniso": lambda s, k: tempered_symbol(
        s.measure, s.beta, 0.0, k, method=s.method, refinement=s.refinement),
    "tempered_aniso": lambda s, k: tempered_symbol(
        s.measure, s.beta, s.lam, k, method=s.method, refinement=s.refinement),
    "beta1_aniso": lambda s, k: beta1_symbol(
        s.measure, s.lam, k, method=s.method, refinement=s.refinement),
    "beta2_quadratic": lambda s, k: beta2_symbol(s.measure, s.lam or 0.0, k),
    "general_profile": lambda s, k: general_profile_symbol(
        s.measure, s.profile, k, method=s.method, refinement=s.refinement),
    # as a generator: the negated reference value
    "isotropic_reference": lambda s, k: -1.0 * isotropic_reference_symbol(
        s.beta, s.lam or 0.0, k, s.dimension),
}
_KINDS = tuple(_EVALUATORS)
# kind -> the (required, optional) fields its evaluator reads; __post_init__ names the shared ones
_BANDS = ("method", "refinement")  # the band quadrature
_FIELDS = {"gaussian_iso": (("sigma",), ()), "gaussian_axes": (("sigma",), ()),
           "gaussian_aniso": (("measure", "sigmas"), ("refinement",)),
           "stable_aniso": (("measure", "beta"), _BANDS),
           "tempered_aniso": (("measure", "beta", "lam"), _BANDS),
           "beta1_aniso": (("measure", "lam"), _BANDS), "beta2_quadratic": (("measure",), ("lam",)),
           "general_profile": (("measure", "profile"), _BANDS),
           "isotropic_reference": (("beta",), ("lam",))}


@dataclass(frozen=True)
class GeneratorSymbol:
    """Immutable symbol evaluator psi(k) for one operator family.

    zeta scales the whole symbol (jump rate of the compound-Poisson picture,
    or a plain diffusion-coefficient rescale); evaluation is pure and safe to
    share across threads.  on_grid evaluates psi on a SpectralGrid's lattice
    and caches the result per grid on the instance.
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
        _check_kind(self, _FIELDS, ("dimension", "zeta"))
        if self.method not in ("auto", "nodes", "adaptive"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if not 0.0 < self.zeta < math.inf:
            raise ValueError("zeta must be finite and positive")
        if self.kind == "beta1_aniso" and not is_symmetric(self.measure):
            raise ValueError("exponent-1 symbols require a symmetric measure")
        object.__setattr__(self, "_grid_cache", {})
        object.__setattr__(self, "_grid_lock", threading.Lock())

    def evaluate(self, k):
        """psi(k) at a wavenumber or an (..., n) array of them."""
        base = _EVALUATORS[self.kind](self, k)
        arr = np.atleast_1d(np.asarray(base))
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"{self.kind} symbol is not finite (quadrature overflow?)")
        slack = 1e-10 * max(1.0, float(np.max(np.abs(arr), initial=0.0)))
        if float(np.max(arr.real, initial=0.0)) > slack:
            raise NumericalError(
                f"{self.kind} symbol violated Re psi <= 0 (quadrature failure?)")
        return self.zeta * base

    __call__ = evaluate

    def on_grid(self, grid) -> np.ndarray:
        """Read-only psi on the fftfreq lattice of grid, shaped grid.shape().

        The whole lattice goes through evaluate, so method="auto" resolves on
        its number of points; the quadrature evaluators run once per pair
        +-k.  The last _GRID_CACHE_SIZE grids are cached.
        """
        with self._grid_lock:
            psi = self._grid_cache.get(grid)
            if psi is None:
                psi = np.asarray(self.evaluate(grid.k_points()), dtype=complex)
                psi = psi.reshape(grid.shape())
                psi.setflags(write=False)
                self._grid_cache[grid] = psi
                if len(self._grid_cache) > _GRID_CACHE_SIZE:
                    del self._grid_cache[next(iter(self._grid_cache))]
        return psi


def make_generator(kind: str, dimension: int, **params) -> GeneratorSymbol:
    return GeneratorSymbol(kind=kind, dimension=dimension, **params)


def symbol_from_json(doc: dict) -> GeneratorSymbol:
    return from_json(GeneratorSymbol, doc)
