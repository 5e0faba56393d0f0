"""Monte Carlo machinery for the jump processes behind the nonlocal operators.

Power-law jump radii use an inner cutoff r0 (compound-Poisson regularisation
of the stable law); tempering is exact rejection with acceptance e^{-lam r}.
All draws go through a numpy Generator, so a fixed seed reproduces every
trajectory bit for bit; parallel ensembles split the master seed per chunk
with SeedSequence.spawn, which keeps results independent of the worker count.
Directions and jumps are filled into one component-major (dim, n) buffer,
and the (n, dim) arrays returned are its transpose.  Components are the
uniforms of rng.choice counted against its cumulative masses, with no label
array, and the angles and the first tempering round are drawn in fixed
position slices; neither moves a draw.  The angles become directions through
measures._unit_vectors, the one map of every quadrature rule: cos and sin of
the azimuth from its half-angle tangent, within 2^-52 of np.cos and np.sin.
An ensemble endpoint is the sum of its own path's jumps, with no
prefix sum over the whole ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._special import CF_MAX_ITER, NotConverged, legendre_cf, zetac_table
from .measures import (
    DirectionalMeasure, NumericalError, _check_kind, _component_spreads, _pool_map, _unit_vectors,
    from_json, measure_nodes,
)
from .realspace import radial_moment_upper
from .symbols import gaussian_symbol

__all__ = [
    "JumpSpec",
    "Trajectory",
    "EcfEstimate",
    "sample_direction",
    "sample_jump",
    "simulate_compound_poisson",
    "compound_poisson_endpoints",
    "empirical_cf",
    "sample_one_sided_stable",
    "sample_inverse_subordinator",
    "matched_rate",
    "jump_cf",
]

# kind -> the (required, optional) fields its sampler reads, besides dimension
_JUMP_FIELDS = {"gaussian_iso": (("sigma",), ()), "gaussian_axes": (("sigma",), ()),
                "gaussian_aniso": (("measure",), ("sigmas",)),
                "stable": (("measure", "beta"), ("r0",)),
                "tempered_stable": (("measure", "beta"), ("lam", "r0"))}
_JUMP_KINDS = tuple(_JUMP_FIELDS)
# the rounds of tempered radius rejection before NumericalError
_MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class JumpSpec:
    """One jump law: Gaussian variants or (tempered) power-law radius with
    direction drawn from a directional measure.  r0 > 0 is the inner radial
    cutoff of the power-law kinds."""

    kind: str
    dimension: int
    sigma: Optional[float] = None
    sigmas: Optional[tuple[float, ...]] = None
    measure: Optional[DirectionalMeasure] = None
    beta: Optional[float] = None
    lam: float = 0.0
    r0: float = 1e-3

    def __post_init__(self):
        _check_kind(self, _JUMP_FIELDS, ("dimension",))
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.beta is not None and not 0.0 < self.beta < 2.0:
            raise ValueError("beta must lie in (0,2)")
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if not self.lam >= 0:
            raise ValueError("lambda must be nonnegative")
        if self.kind == "gaussian_aniso":
            if self.measure.dimension != 2:
                raise ValueError("gaussian_aniso requires a 2D measure")
            spreads = _component_spreads(self.measure, self.sigmas)
            object.__setattr__(self, "sigmas", tuple(spreads.tolist()))


@dataclass(frozen=True)
class Trajectory:
    """Event times (starting at 0), positions at those times, and the
    optional internal-state labels / accumulated functional values."""

    times: np.ndarray
    positions: np.ndarray
    states: Optional[np.ndarray] = None
    functional: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.ndim != 1 or len(t) != len(x):
            raise ValueError("times and positions must have equal length")
        if len(t) and (t[0] != 0.0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must start at 0 and be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)


@dataclass(frozen=True)
class EcfEstimate:
    value: complex
    stderr: float


# ---------------------------------------------------------------------------
# directions and jumps
# ---------------------------------------------------------------------------

def _component_sampler(measure: DirectionalMeasure):
    masses = measure.component_masses()
    return masses / masses.sum()


# Angles, the draws of a component callback and the first tempering round are
# drawn _SLICE positions at a time, in position order: the same stream as one
# draw over all the positions, without an n-sized temporary per draw.
_SLICE = 1 << 16


def _positions(u, cdf, ci):
    """The positions p with cdf[ci - 1] <= u[p] < cdf[ci], which
    cdf.searchsorted(u, side="right") labels ci, in position order, one
    nonempty _SLICE of u at a time."""
    for s in range(0, len(u), _SLICE):
        us = u[s:s + _SLICE]
        sel = us < cdf[ci]
        if ci:
            sel &= us >= cdf[ci - 1]
        idx = np.flatnonzero(sel)
        if len(idx):
            idx += s
            yield idx


def _directions(measure: DirectionalMeasure, probs, n: int, rng, draw=None) -> np.ndarray:
    """n unit directions as one (dim, n) array, from components drawn with
    probabilities probs, in the draw order of sample_direction; draw(ci, idx),
    if given, draws more for component ci at its positions idx right after
    that component's angles.  The components are the uniforms u that
    rng.choice(len(probs), n, p=probs) draws, counted against its cumulative
    masses cdf (_positions), so no label array is built.  A band's azimuth
    goes into row 1 of a zero buffer and, in 3D, its cos theta into row 2;
    measures._unit_vectors then maps every column in place, _SLICE columns
    at a time, and the atoms, which draw no angles, are written last."""
    u = rng.random(n)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    dim = measure.dimension
    out = np.zeros((dim, n))
    n_atoms = len(measure.atoms)
    for ci in range(len(probs)):
        angles = []
        if ci >= n_atoms and dim == 2:
            angles = [(1, *measure.bands[ci - n_atoms].bounds)]
        elif ci >= n_atoms:
            t0, t1, p0, p1 = measure.bands[ci - n_atoms].bounds
            angles = [(2, math.cos(t1), math.cos(t0)), (1, p0, p1)]
        for row, lo, hi in angles:
            for idx in _positions(u, cdf, ci):
                out[row, idx] = rng.uniform(lo, hi, size=len(idx))
        if draw is not None:
            for idx in _positions(u, cdf, ci):
                draw(ci, idx)
    if measure.bands:
        for s in range(0, n, _SLICE):
            rows = out[:, s:s + _SLICE]
            _unit_vectors(rows[1], rows[2] if dim == 3 else None, out=rows)
    for ci, (d, _) in enumerate(measure.atoms):
        for idx in _positions(u, cdf, ci):
            out[:, idx] = d[:, None]
    return out


def sample_direction(measure: DirectionalMeasure, rng, size: Optional[int] = None):
    """Draw directions from the measure: atoms by weight, bands uniformly
    within their region (with respect to the sphere surface measure).  The
    (size, dim) result is the transpose of a component-major buffer.

    Draw order: the uniforms of one rng.choice over the components, then the
    angles of each band component in component order (in 3D all cos theta,
    then all phi)."""
    n = 1 if size is None else int(size)
    out = _directions(measure, _component_sampler(measure), n, rng).T
    return out[0] if size is None else out


def _pareto_radii(beta: float, r0: float, rng, n: int) -> np.ndarray:
    r = rng.uniform(size=n)
    r **= -1.0 / beta
    r *= r0
    return r


def _tempered_radii(beta: float, lam: float, r0: float, rng, n: int) -> np.ndarray:
    out = _pareto_radii(beta, r0, rng, n)
    # the first round: its acceptance uniforms and exp(-lam r), _SLICE at a time
    u, accept, todo = np.empty(min(n, _SLICE)), np.empty(min(n, _SLICE)), []
    for s in range(0, n, _SLICE):
        m = min(n - s, _SLICE)
        np.multiply(out[s:s + m], -lam, out=accept[:m])
        np.exp(accept[:m], out=accept[:m])
        todo.append(np.flatnonzero(rng.random(out=u[:m]) > accept[:m]) + s)
    todo = np.concatenate(todo) if todo else np.empty(0, dtype=np.intp)
    for _ in range(_MAX_REJECTIONS - 1):
        if len(todo) == 0:
            return out
        prop = _pareto_radii(beta, r0, rng, len(todo))
        accept = rng.uniform(size=len(todo)) <= np.exp(-lam * prop)
        out[todo[accept]] = prop[accept]
        todo = todo[~accept]
    if len(todo) == 0:
        return out
    raise NumericalError(
        f"tempered radius rejection exceeded {_MAX_REJECTIONS} rounds "
        f"(lambda*r0 = {lam * r0:.3g})"
    )


def sample_jump(spec: JumpSpec, rng, size: Optional[int] = None) -> np.ndarray:
    """Draw jump vectors from the spec's law; with a directional measure, as
    the transpose of a component-major buffer."""
    n = 1 if size is None else int(size)
    dim = spec.dimension
    if spec.kind == "gaussian_iso":
        out = spec.sigma * rng.standard_normal((n, dim))
    elif spec.kind == "gaussian_axes":
        axis = rng.integers(0, dim, size=n)
        amp = spec.sigma * rng.standard_normal(n)
        out = np.zeros((n, dim))
        out[np.arange(n), axis] = amp
    elif spec.kind == "gaussian_aniso":
        # direction density prop. to m(phi) sigma(phi)^2, radius Rayleigh(sigma)
        sig = np.asarray(spec.sigmas)
        w = _component_sampler(spec.measure) * sig ** 2
        r = np.empty(n)

        def radii(ci, idx):
            r[idx] = sig[ci] * np.sqrt(2.0 * rng.exponential(size=len(idx)))

        out = _directions(spec.measure, w / w.sum(), n, rng, radii)
        out *= r
        out = out.T
    else:
        out = _directions(spec.measure, _component_sampler(spec.measure), n, rng)
        if spec.lam > 0:
            out *= _tempered_radii(spec.beta, spec.lam, spec.r0, rng, n)
        else:
            out *= _pareto_radii(spec.beta, spec.r0, rng, n)
        out = out.T
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# compound Poisson
# ---------------------------------------------------------------------------

def simulate_compound_poisson(spec: JumpSpec, zeta: float, T: float, start,
                              rng) -> Trajectory:
    """Rate-zeta Poisson events on [0, T] as a Poisson(zeta T) count of sorted
    uniform times (the law of Exponential(zeta) gaps); one jump per event."""
    if zeta <= 0 or T <= 0:
        raise ValueError("zeta and T must be positive")
    x = np.asarray(start, dtype=float).reshape(spec.dimension)
    n_jumps = int(rng.poisson(zeta * T))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, n_jumps))])
    pos = np.empty((n_jumps + 1, spec.dimension))
    pos[0] = x
    if n_jumps:
        pos[1:] = x + np.cumsum(sample_jump(spec, rng, size=n_jumps), axis=0)
    return Trajectory(times, pos)


def compound_poisson_endpoints(spec: JumpSpec, zeta: float, t: float,
                               n_paths: int, rng) -> np.ndarray:
    """Vectorised endpoint ensemble X(t) for n_paths independent walks from
    the origin.

    Draws the Poisson(zeta t) jump counts of every path, then all jumps at
    once (sample_jump); each endpoint is the sum of its own path's jumps, so
    it is exact to the rounding of that one sum."""
    if zeta <= 0 or t < 0:
        raise ValueError("zeta must be positive and t nonnegative")
    counts = rng.poisson(zeta * t, size=n_paths)
    out = np.zeros((n_paths, spec.dimension))
    # reduceat returns the start element for an empty segment, so paths
    # without a jump are left out of the sums
    hit = counts > 0
    if not hit.any():
        return out
    jumps = sample_jump(spec, rng, size=int(counts.sum()))
    starts = np.cumsum(counts) - counts
    out[hit] += np.add.reduceat(jumps, starts[hit], axis=0)
    return out


# The ensemble splits its seed into this many chunks, whatever the worker
# count.  The chunking is part of the seeded stream: another count draws other
# endpoints from the same seed.
_ENSEMBLE_CHUNKS = 16


def ensemble_endpoints_parallel(spec: JumpSpec, zeta: float, t: float,
                                n_paths: int, seed: int) -> np.ndarray:
    """Chunk-deterministic ensemble of _ENSEMBLE_CHUNKS seeded chunks; results
    do not depend on the worker count (ANISOLAP_THREADS bounds the pool)."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    seqs = np.random.SeedSequence(seed).spawn(_ENSEMBLE_CHUNKS)
    q, r = divmod(n_paths, _ENSEMBLE_CHUNKS)
    sizes = [q + (1 if i < r else 0) for i in range(_ENSEMBLE_CHUNKS)]

    def work(args):
        sq, sz = args
        return compound_poisson_endpoints(spec, zeta, t, sz, np.random.default_rng(sq))

    return np.concatenate(_pool_map(work, zip(seqs, sizes)), axis=0)


def empirical_cf(endpoints: np.ndarray, k) -> EcfEstimate:
    """(1/N) sum exp(i k.X_j) with the 1/sqrt(N) standard-error scale."""
    pts = np.asarray(endpoints, dtype=float)
    if pts.size == 0:
        raise ValueError("empty ensemble")
    if pts.ndim == 1:
        pts = pts[:, None]
    k = np.asarray(k, dtype=float).reshape(pts.shape[1])
    phases = pts @ k
    val = complex(np.mean(np.exp(1j * phases)))
    return EcfEstimate(val, 1.0 / math.sqrt(len(pts)))


# ---------------------------------------------------------------------------
# one-sided stable subordination
# ---------------------------------------------------------------------------

def sample_one_sided_stable(alpha: float, rng, size: Optional[int] = None):
    """Standard totally skewed positive stable variable, E e^{-sS} = e^{-s^alpha}
    (Kanter's representation)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    n = 1 if size is None else int(size)
    u = rng.uniform(0.0, math.pi, size=n)
    w = rng.exponential(size=n)
    s = (
        np.sin(alpha * u)
        * np.sin((1.0 - alpha) * u) ** ((1.0 - alpha) / alpha)
        / (np.sin(u) ** (1.0 / alpha) * w ** ((1.0 - alpha) / alpha))
    )
    return s[0] if size is None else s


def sample_inverse_subordinator(alpha: float, t: float, rng,
                                size: Optional[int] = None):
    """First-passage inverse E(t) = inf{tau : S(tau) > t} of the stable
    subordinator, simulated on a tau-grid of step 1e-3 * t^alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    if t <= 0:
        raise ValueError("t must be positive")
    n = 1 if size is None else int(size)
    dtau = 1e-3 * t ** alpha
    scale = dtau ** (1.0 / alpha)
    s = np.zeros(n)
    tau = np.zeros(n)
    active = np.ones(n, dtype=bool)
    while np.any(active):
        idx = np.flatnonzero(active)
        incr = scale * sample_one_sided_stable(alpha, rng, size=len(idx))
        s[idx] += incr
        tau[idx] += dtau
        active[idx] = s[idx] <= t
    return tau[0] if size is None else tau


# ---------------------------------------------------------------------------
# symbol-side helpers for the compound-Poisson picture
# ---------------------------------------------------------------------------

def matched_rate(spec: JumpSpec) -> float:
    """Jump rate zeta for which zeta*(Phi_0(k)-1) approximates the Levy symbol
    of the same (beta, lambda, measure): the kernel mass above the cutoff over
    |Gamma(-beta)|.  Undefined at beta = 1, where Gamma(-beta) has a pole."""
    if spec.kind not in ("stable", "tempered_stable"):
        raise ValueError("matched_rate applies to power-law jump kinds")
    if spec.beta == 1.0:
        raise ValueError("the matched rate is undefined at beta = 1 (Gamma(-beta) has a pole)")
    mass = radial_moment_upper(0, spec.beta, spec.lam, spec.r0)
    return mass / abs(math.gamma(-spec.beta))


def jump_cf(spec: JumpSpec, k) -> complex:
    """Characteristic function Phi_0(k) = E exp(i k.Y) of a single jump.

    Power-law kinds average the radial transform Phi(k.phi) over the
    measure's quadrature directions (refinement 64).  Phi(u) - 1 is one array
    expression in double precision over all directions: with x = (lam - iu) r0
    it is the series of the lower incomplete gamma function, written as a
    difference from u = 0 with the two terms that have a pole at beta = 1
    taken together as a regular function of beta - 1, when |x| <= 1, and
    Legendre's continued fraction (modified Lentz) when |x| > 1.  So
    Phi_0(0) = 1 and Phi_0(-k) = conj Phi_0(k) exactly.  Against 40-digit
    mpmath the absolute error on Phi is below 5e-14 for every beta, and below
    2e-14 for |beta - 1| <= 0.05.  A continued fraction that does not
    converge raises NumericalError."""
    k = np.asarray(k, dtype=float).reshape(spec.dimension)
    if spec.kind == "gaussian_iso":
        return complex(math.exp(-0.5 * spec.sigma ** 2 * float(k @ k)))
    if spec.kind == "gaussian_axes":
        return complex(np.mean(np.exp(-0.5 * spec.sigma ** 2 * k ** 2)))
    if spec.kind == "gaussian_aniso":
        return 1.0 + complex(gaussian_symbol("aniso", k, measure=spec.measure,
                                             sigmas=spec.sigmas))
    dirs, w, _ = measure_nodes(spec.measure, refinement=64)
    # the mean of Phi - 1, which is 0 exactly at k = 0 whatever the summation order
    phi_m1 = _truncated_power_cf_minus_one(spec.beta, spec.lam, spec.r0, dirs @ k)
    return 1.0 + complex((w * phi_m1).sum() / w.sum())


# |x| <= 1: the n-th series term is at most 2n / (n! (n - beta)), below 1e-21 at n = 24
_SERIES_TERMS = 24
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(2, _SERIES_TERMS + 1)])


def _truncated_power_cf_minus_one(beta: float, lam: float, r0: float, u) -> np.ndarray:
    """Phi(u) - 1, elementwise over u, for the radius law prop. to
    e^{-lam r} r^{-1-beta} on [r0, inf).

    With x = (lam - iu) r0 and g(x) = x^beta Gamma(-beta, x)
    = int_1^inf e^{-xt} t^{-1-beta} dt, Phi(u) = g(x) / g(lam r0)."""
    s = np.asarray(u, dtype=float) * r0
    y = lam * r0
    x = y - 1j * s
    try:
        norm = _scaled_upper_gamma(beta, np.array([complex(y)]))[0]
        out = np.empty_like(x)
        near = np.abs(x) <= 1.0
        out[near] = _series_difference(beta, x[near], y) / norm
        out[~near] = _scaled_upper_gamma(beta, x[~near]) / norm - 1.0
    except NotConverged as exc:
        raise NumericalError(
            f"incomplete-gamma continued fraction did not converge in {CF_MAX_ITER} "
            f"iterations (beta = {beta}, lambda = {lam}, r0 = {r0}, |x| = {exc.args[0]:.6g})"
        ) from None
    # at u = 0 the quotient g(x) / g(lam r0) divides two separately vectorised
    # evaluations, which may differ in the last bit
    return np.where(s == 0.0, 0.0j, out)


def _scaled_upper_gamma(beta: float, x: np.ndarray) -> np.ndarray:
    """g(x) = x^beta Gamma(-beta, x) for Re x >= 0: the continued fraction
    for |x| > 1 and the series for |x| <= 1."""
    out = np.empty_like(x)
    far = np.abs(x) > 1.0
    out[far] = np.exp(-x[far]) * legendre_cf(-beta, x[far])
    out[~far] = 1.0 / beta + _series_difference(beta, x[~far], 0.0)
    return out


def _pole_parts(beta: float):
    """Gamma(2 - beta) / beta and (Gamma(2 - beta) - beta) / (beta (beta - 1))
    as regular functions of e = beta - 1, from log Gamma(1 - e) = -log1p(-e)
    - (1 - gamma) e + sum_{n >= 2} (zeta(n) - 1) e^n / n, whose terms are below
    2^-n / n for |e| < 1, so 1e-19 after n = 60."""
    e = beta - 1.0
    if e == 0.0:
        return 1.0, np.euler_gamma - 1.0
    n = np.arange(2, 60)
    gm1 = math.expm1(-math.log1p(-e) - (1.0 - np.euler_gamma) * e
                     + float(np.sum(zetac_table() * e ** n / n)))
    return (1.0 + gm1) / beta, (gm1 / e - 1.0) / beta


def _power_m1(beta: float, log_z):
    """(z^(beta - 1) - 1) / (beta - 1) from log z; log z at beta = 1."""
    return log_z if beta == 1.0 else np.expm1((beta - 1.0) * log_z) / (beta - 1.0)


def _series_difference(beta: float, x: np.ndarray, y: float) -> np.ndarray:
    """g(x) - g(y) for |x| <= 1, Re x >= 0, and either x = y - is with y > 0
    and s real, or y = 0, from g(x) = Gamma(-beta) x^beta - sum_n (-x)^n / (n! (n - beta)).
    The n = 0 terms cancel, so the difference is exactly 0 at x = y and keeps
    its relative accuracy near it.  Gamma(-beta) x^beta and the n = 1 term,
    which have a pole at beta = 1, are taken together through _pole_parts and,
    with E = _power_m1, (x^beta - y^beta - (x - y)) / (beta - 1)
    = (x - y) E(x) + y^beta E(x / y)."""
    step = y - x
    if y > 0:
        t = x.imag / y
        log1p_it = 0.5 * np.log1p(t * t) + 1j * np.arctan(t)
        log_x = math.log(y) + log1p_it
        ydiff = y ** beta * _power_m1(beta, log1p_it)
    else:
        log_x = np.log(np.where(x == 0, 1.0, x))
        ydiff = 0.0
    ratio, shift = _pole_parts(beta)
    pole = ratio * (ydiff - step * _power_m1(beta, log_x)) - step * shift
    # d_n = (-x)^n - (-y)^n = -x d_{n-1} + (y - x) (-y)^{n-1}
    d = step
    total = 0.0
    ypow = 1.0
    n = np.arange(2, _SERIES_TERMS + 1)
    for c in 1.0 / (_FACTORIALS * (n - beta)):
        ypow *= -y
        d = -x * d + step * ypow
        total = total + c * d
    return pole - total


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def jump_from_json(doc: dict) -> JumpSpec:
    return from_json(JumpSpec, doc)
