"""Singular-integral (real-space) evaluation of the nonlocal operators.

All operators are applied in polar form: a directional quadrature from the
measure times a graded radial rule for the kernel r^(-1-beta) e^(-lam r).
The radial integral is split as [0, delta] (second-order Taylor correction),
[delta, R] (log-spaced Gauss-Legendre panels) and [R, inf) (closed-form
moments assuming the field has decayed, with the neglected remainder
reported).  The directions are the measure_nodes of the rule of the
dimension, _REFINEMENT; the same sum on the half rule estimates their error.
This is a reference-accuracy oracle, not a fast solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import lower_gamma, upper_gamma
from .measures import (
    DirectionalMeasure, NumericalError, StabilityProfile, _as_rows, _center, _component_spreads,
    _composite_gl, _from_rows, _pool_map, _row_blocks, is_symmetric, measure_nodes,
)

__all__ = [
    "ScalarField",
    "gaussian_bump",
    "QuadratureError",
    "apply_gaussian_nonlocal",
    "apply_caseI",
    "apply_caseII",
    "apply_general",
    "bilinear_form",
    "upper_gamma",
    "radial_moment_lower",
    "radial_moment_upper",
]


class QuadratureError(NumericalError):
    """The estimated tail remainder plus direction error exceeds the requested
    tolerance."""


@dataclass(frozen=True)
class ScalarField:
    """Scalar test function with its analytic derivatives.

    f maps (..., n) arrays to (...) values.  The stable operators need grad
    and hess and raise ValueError for a field without them; the Gaussian-jump
    operators need f alone.  support_radius is a radius
    beyond which |f| <= cutoff; fields that never decay use infinity, in
    which case far-field truncation is estimated by probing instead of the
    closed-form tail.
    """

    dimension: int
    f: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    support_radius: float = math.inf
    cutoff: float = 0.0

    def gradient(self, x):
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)

    def hess_quadform(self, x, dirs):
        """phi^T H(x) phi for each row of dirs."""
        H = np.asarray(self.hess(np.asarray(x, dtype=float)), dtype=float)
        return np.einsum("ai,ij,aj->a", dirs, H, dirs)


def gaussian_bump(dimension: int, center=None, width: float = 1.0,
                  amplitude: float = 1.0) -> ScalarField:
    """Smooth rapidly decaying test field A*exp(-|x-c|^2 / (2 w^2))."""
    c = _center(center, dimension)
    w2 = width * width

    def f(x):
        # one coordinate at a time and in place: no temporary of the shape of x
        x = np.asarray(x, dtype=float)
        s = x[..., 0] - c[0]
        s *= s
        for i in range(1, dimension):
            d = x[..., i] - c[i]
            d *= d
            s += d
        if np.ndim(s) == 0:  # one point: a numpy scalar has no buffer to write to
            return amplitude * np.exp(-0.5 * s / w2)
        s *= -0.5
        s /= w2
        np.exp(s, out=s)
        s *= amplitude
        return s

    def grad(x):
        d = np.asarray(x, dtype=float) - c
        return -(d / w2) * f(x)[..., None]

    def hess(x):
        d = np.asarray(x, dtype=float) - c
        outer = d[..., :, None] * d[..., None, :] / (w2 * w2)
        return (outer - np.eye(dimension) / w2) * f(x)[..., None, None]

    # radius where the bump drops below ~1e-16 of its amplitude
    radius = float(np.linalg.norm(c)) + width * math.sqrt(2.0 * 37.0)
    return ScalarField(dimension, f, grad, hess, support_radius=radius,
                       cutoff=amplitude * 1e-16)


# ---------------------------------------------------------------------------
# kernel radial moments
# ---------------------------------------------------------------------------

def radial_moment_lower(j: int, beta: float, lam: float, delta: float) -> float:
    """int_0^delta r^(j-1-beta) e^(-lam r) dr; requires j > beta."""
    a = j - beta
    if a <= 0:
        raise ValueError("moment diverges at the origin")
    if lam == 0.0:
        return delta ** a / a
    return lam ** (-a) * lower_gamma(a, lam * delta)


def radial_moment_upper(j: int, beta: float, lam: float, R: float) -> float:
    """int_R^inf r^(j-1-beta) e^(-lam r) dr."""
    a = j - beta
    if lam == 0.0:
        if a >= 0:
            raise ValueError("tail moment diverges without tempering")
        return R ** a / (-a)
    return lam ** (-a) * upper_gamma(a, lam * R)


def _graded_radial_rule(delta: float, R: float, panels_per_decade: int = 8,
                        order: int = 8):
    n_panels = max(4, int(math.ceil(panels_per_decade * math.log10(R / delta))))
    edges = np.geomspace(delta, R, n_panels + 1)
    return _composite_gl(edges, order)


# the tube r < _TUBE_RADIUS around each point is replaced by its Taylor moment
_TUBE_RADIUS = 1e-4


def _radial_kernel(beta: float, lam: float, R: float):
    """Graded radial nodes r on [_TUBE_RADIUS, R] and kernel weights
    wr * r^(-1-beta) e^(-lam r)."""
    r, wr = _graded_radial_rule(_TUBE_RADIUS, R)
    return r, wr * r ** (-1.0 - beta) * (np.exp(-lam * r) if lam > 0 else 1.0)


# ---------------------------------------------------------------------------
# (tempered) stable operators
# ---------------------------------------------------------------------------

def _resolve_R(field: ScalarField, x, lam: float) -> float:
    if math.isfinite(field.support_radius):
        return field.support_radius + float(np.linalg.norm(x)) + 1.0
    if lam > 0:
        return 45.0 / lam
    # non-decaying field, untempered kernel: fall back to a wide window and
    # rely on the probe-based tail estimate to flag any real leakage
    return 50.0 * (1.0 + float(np.linalg.norm(x)))


# radial x direction values in one chunk of _apply_pointwise: the 768
# directions of two bands at refinement 48 times the 328 radial nodes of a
# unit-width 2D bump fit in one chunk, and a 3D point holds about 6 MB of
# displaced points per worker
_CHUNK_VALUES = 1 << 18

# the band_nodes refinement of the direction rule in each dimension (1D
# measures are atoms only).  A smooth field has no kink in direction, so 8
# panels of order 8 per 2D band reach the rounding floor of refinement 64.
# 3D keeps 32: band_nodes takes refinement // 4 panels per axis, so 3D
# refinement 8 is within 4.5e-8 only, and its half rule is the same rule.
_REFINEMENT = {1: 8, 2: 8, 3: 32}


def _apply_pointwise(field, x, dirs, wdir, coarse, beta, lam, R, drift_vec):
    """Operator value at one point for one (beta, lam) kernel block, with
    the estimates of its tail remainder and of its direction error.

    The bracket is one-sided, f(x - r phi) - f(x), below exponent 1 and
    gradient-regularised, f(x - r phi) - f(x) + r phi . grad f(x), above it;
    drift_vec . grad f(x) is subtracted.  The 1/|Gamma(-beta)| factor is
    included.  coarse is the block's (dirs, wdir) on the half rule, or None;
    the direction estimate is |sum on dirs, wdir - sum on coarse| over
    |Gamma(-beta)|, and 0 without coarse.
    """
    x = np.asarray(x, dtype=float)
    fx = float(field.f(x))
    grad = field.gradient(x)
    r, kern = _radial_kernel(beta, lam, R)
    gnorm = abs(math.gamma(-beta))
    finite_support = math.isfinite(field.support_radius)
    regularised = beta > 1.0
    # radial moments of the tube [0, _TUBE_RADIUS] and of the far field [R, inf)
    m2 = radial_moment_lower(2, beta, lam, _TUBE_RADIUS)
    e0 = radial_moment_upper(0, beta, lam, R)
    if regularised:
        e1 = radial_moment_upper(1, beta, lam, R)
    else:
        m1 = radial_moment_lower(1, beta, lam, _TUBE_RADIUS)

    def direction_sum(dirs, wdir):
        # the weighted sum over the directions, and the largest tail probe
        total = 0.0
        tail_probe = 0.0
        chunk = max(1, _CHUNK_VALUES // len(r))
        for a0 in range(0, len(wdir), chunk):
            d = dirs[a0:a0 + chunk]
            w = wdir[a0:a0 + chunk]
            slope = d @ grad
            # the displaced points x - r phi reuse the buffer of r phi
            disp = r[:, None, None] * d[None, :, :]
            bracket = field.f(np.subtract(x, disp, out=disp)) - fx
            if regularised:
                bracket += r[:, None] * slope[None, :]
            total += float(w @ (kern @ bracket))

            # inner Taylor correction on [0, _TUBE_RADIUS]
            inner = 0.5 * field.hess_quadform(x, d) * m2
            if not regularised:
                inner = inner - slope * m1
            total += float(w @ inner)

            # analytic far field for decayed fields
            if finite_support:
                far = -fx * e0 + slope * e1 if regularised else np.full(len(w), -fx * e0)
                total += float(w @ far)
                tail_probe = max(tail_probe, field.cutoff * e0)
            else:
                probe_r = np.array([R, 1.5 * R, 3.0 * R])
                pf = field.f(x[None, None, :] - probe_r[:, None, None] * d[None, :, :])
                tail_probe = max(tail_probe, float(np.max(np.abs(pf - fx))) * e0)
        return total, tail_probe

    total, tail_probe = direction_sum(dirs, wdir)
    direction = 0.0 if coarse is None else abs(total - direction_sum(*coarse)[0])
    value = total / gnorm - float(drift_vec @ grad)
    return value, tail_probe / gnorm, direction / gnorm


def _point_map(value, x, n):
    """value(xi) at each point of x, an (..., n) array, in the shape of x
    without its last axis (a scalar for one point).  The points run on up to
    ANISOLAP_THREADS workers; each value is computed alone, so the worker
    count does not change it."""
    pts, shape = _as_rows(x, n)
    return _from_rows(np.array(_pool_map(value, pts), dtype=float), shape)


def _drift(beta: float, lam: float, b):
    """Finite-part drift Gamma(1-beta) lam^(beta-1) / |Gamma(-beta)| * b above
    exponent 1; zero at lam = 0 and below exponent 1."""
    if beta > 1.0 and lam > 0:
        return (math.gamma(1.0 - beta) * lam ** (beta - 1.0) / abs(math.gamma(-beta))) * b
    return np.zeros_like(b)


def _apply_profile(field, measure, profile, x, refinement, tol):
    """Operator values at the points x (_point_map) with exponent
    profile.betas[c] and tempering profile.lambdas[c] on component c of the
    measure, on its measure_nodes at refinement (None: _REFINEMENT).

    The components that share a (beta, lam) form one kernel block over their
    nodes, in order of first occurrence, with the drift of the block's own
    nodes; each point sums _apply_pointwise over the blocks in block order.
    With tol, a block with bands also sums its nodes on the half rule,
    refinement // 2, and a point whose tail plus direction estimates, summed
    over the blocks, exceed tol raises QuadratureError.  Raises ValueError
    first for a field without an analytic gradient or Hessian, and for a
    measure with bands whose half rule is its rule."""
    if field.grad is None:
        raise ValueError("the real-space operators require an analytic gradient")
    if field.hess is None:
        raise ValueError("the Taylor correction near r = 0 requires an analytic Hessian")
    if refinement is None:
        refinement = _REFINEMENT[measure.dimension]
    dirs, wdir, comp = measure_nodes(measure, refinement=refinement)
    half_dirs, half_w, half_comp = measure_nodes(measure, refinement=refinement // 2)
    if measure.bands and len(half_w) == len(wdir):
        raise ValueError(f"refinement {refinement} has no coarser half rule in "
                         f"{measure.dimension}D to estimate its direction error")
    keys = list(zip(profile.betas, profile.lambdas))
    blocks = []
    for beta, lam in dict.fromkeys(keys):
        comps = [c for c, key in enumerate(keys) if key == (beta, lam)]
        own = np.isin(comp, comps)
        d, w = dirs[own], wdir[own]
        coarse = None
        if tol is not None and comps[-1] >= len(measure.atoms):  # the block has a band
            half = np.isin(half_comp, comps)
            coarse = (half_dirs[half], half_w[half])
        blocks.append((d, w, coarse, beta, lam, _drift(beta, lam, (w[:, None] * d).sum(axis=0))))

    def value(xi):
        total = tail = direction = 0.0
        for d, w, coarse, beta, lam, drift in blocks:
            v, t, e = _apply_pointwise(field, xi, d, w, coarse, beta, lam,
                                       _resolve_R(field, xi, lam), drift)
            total += v
            tail += t
            direction += e
        if tol is not None and tail + direction > tol:
            raise QuadratureError(
                f"estimated quadrature error {tail + direction:.3e} exceeds tol {tol:.3e} "
                f"(tail remainder {tail:.3e}, direction rule {direction:.3e})")
        return total

    return _point_map(value, x, measure.dimension)


def apply_caseI(field: ScalarField, measure: DirectionalMeasure, beta: float,
                lam: float, x, *, refinement: int | None = None, tol: float | None = None):
    """Difference-kernel form, valid for beta < 1 or symmetric measures.

    For beta in (1,2) the measure must be symmetric; its mean vanishes, so
    the operator is case II's gradient-regularised form and equals
    apply_caseII.  refinement is the band_nodes refinement of the
    directions (None: 8 in 2D, 32 in 3D); with tol, a point whose estimated
    tail remainder plus direction error (against the half rule) exceeds tol
    raises QuadratureError.
    """
    profile = StabilityProfile.constant(measure, beta, lam)
    if beta > 1.0 and not is_symmetric(measure):
        raise ValueError("beta in (1,2) requires a symmetric measure here; "
                         "use apply_caseII for asymmetric measures")
    return _apply_profile(field, measure, profile, x, refinement, tol)


def apply_caseII(field: ScalarField, measure: DirectionalMeasure, beta: float,
                 lam: float, x, *, refinement: int | None = None, tol: float | None = None):
    """Gradient-regularised (finite-part) form for beta in (1,2).

    Adds the drift correction -Gamma(1-beta) lam^(beta-1) / |Gamma(-beta)|
    (b . grad f) with b = int phi dm summed on the quadrature nodes; at
    lam = 0 the drift constant vanishes by continuity.  refinement and tol
    as for apply_caseI.
    """
    if not (1.0 < beta < 2.0):
        raise ValueError("beta must lie in (1,2)")
    return _apply_profile(field, measure, StabilityProfile.constant(measure, beta, lam), x,
                          refinement, tol)


def apply_general(field: ScalarField, measure: DirectionalMeasure,
                  profile: StabilityProfile, x, *, tol: float | None = None):
    """Direction-dependent (beta(phi), lambda(phi)) operator.

    Applies the one-sided logic per component with exponent < 1 and the
    gradient-regularised logic per component with exponent > 1, including the
    drift b_c = Gamma(1-beta_c) lam_c^(beta_c-1) / |Gamma(-beta_c)| int phi dm
    over the components that share (beta_c, lam_c).  A constant profile is
    apply_caseI or apply_caseII at their default refinement, value for value;
    tol as for apply_caseI.
    """
    return _apply_profile(field, measure, profile.for_measure(measure), x, None, tol)


# ---------------------------------------------------------------------------
# Gaussian-jump nonlocal operators
# ---------------------------------------------------------------------------

def apply_gaussian_nonlocal(field: ScalarField, variant: str, x, *,
                            sigma: float | None = None,
                            measure: DirectionalMeasure | None = None,
                            sigmas=None):
    """(smoothing - identity) for the Gaussian jump laws at jump rate 1.

    Each variant is a rule of jumps Y with weights W, applied at every point
    as W @ (f(x - Y) - f(x)) through the point map of the stable operators,
    so constants are annihilated exactly.  iso: the tensor Gauss-Hermite
    nodes (order 24) of sigma Z, Z standard normal; axes: the 1D rule on
    each axis with weight 1/n; aniso: the normalised directional Rayleigh
    mixture, radii sigma_c t on a t e^(-t^2/2) rule times the measure nodes.
    """
    n = field.dimension
    t, wt = np.polynomial.hermite.hermgauss(24)
    z = math.sqrt(2.0) * t
    wz = wt / math.sqrt(math.pi)
    if variant in ("iso", "axes"):
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive")
    if variant == "iso":
        Y = sigma * np.stack([g.ravel() for g in np.meshgrid(*([z] * n), indexing="ij")],
                             axis=-1)
        W = np.ones(len(Y))
        for g in np.meshgrid(*([wz] * n), indexing="ij"):
            W = W * g.ravel()
    elif variant == "axes":
        Y = np.zeros((n * len(z), n))
        for ax in range(n):
            Y[ax * len(z):(ax + 1) * len(z), ax] = sigma * z
        W = np.tile(wz / n, n)
    elif variant == "aniso":
        if measure is None or measure.dimension != 2:
            raise ValueError("the aniso variant requires a 2D measure")
        sig = _component_spreads(measure, sigmas)
        dirs, wdir, comp = measure_nodes(measure, refinement=48)
        s = sig[comp]
        c_m = 1.0 / float(wdir @ s ** 2)
        # radial rule on t = r / sigma_dir: int_0^inf g(sigma t) e^{-t^2/2} t dt
        tt, tw = _composite_gl(np.linspace(0.0, 8.5, 18), 10)
        tw = tw * tt * np.exp(-0.5 * tt * tt)
        Y = ((tt[:, None, None] * s[None, :, None]) * dirs[None, :, :]).reshape(-1, 2)
        W = (c_m * tw[:, None] * (wdir * s ** 2)[None, :]).ravel()
    else:
        raise ValueError(f"unknown gaussian variant {variant!r}")
    return _point_map(lambda xi: float(W @ (field.f(xi - Y) - field.f(xi))), x, n)


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

_LATTICE_ROWS = 512  # lattice points per block of the bilinear form


def bilinear_form(field_p: ScalarField, field_q: ScalarField,
                  measure: DirectionalMeasure, beta: float, lam: float, *,
                  half_width: float, n_points: int):
    """Symmetric-kernel double form (no 1/|Gamma(-beta)| factor):

        a(p,q) = int int (p(x)-p(y)) (q(x)-q(y)) m((x-y)/|x-y|)
                 e^(-lam|x-y|) |x-y|^(-n-beta) dx dy.

    Computed with y in polar coordinates around each lattice point x, on the
    measure_nodes of the measure at the rule of its dimension (_REFINEMENT),
    every direction of one block of lattice rows in one task: the diagonal tube
    r < _TUBE_RADIUS is replaced by its Taylor-corrected moment, with the
    second moment matrix sum w phi phi^T of the same nodes, and the far field
    r > R = 2 half_width by the decayed-field closed form.  Returns the value
    and a report of both corrections and of the lattice truncation.
    """
    if not is_symmetric(measure):
        raise ValueError("the symmetric-kernel bilinear form requires a symmetric measure")
    n = measure.dimension
    if n > 2:
        raise ValueError("double quadrature is supported in 1 and 2 dimensions")
    L, M = float(half_width), int(n_points)
    h = 2.0 * L / M
    axes = [-L + h * np.arange(M) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in mesh], axis=-1)
    cell = h ** n

    # the Parseval check passes one field twice; evaluate it once
    same = field_q is field_p
    P = field_p.f(X)
    Q = P if same else field_q.f(X)
    GP = field_p.grad(X) if field_p.grad else None
    GQ = GP if same else (field_q.grad(X) if field_q.grad else None)
    if GP is None or GQ is None:
        raise ValueError("bilinear_form requires analytic gradients for the tube correction")

    R = 2.0 * L
    r, kern = _radial_kernel(beta, lam, R)
    dirs, wdir, _ = measure_nodes(measure, refinement=_REFINEMENT[n])
    A = (wdir[:, None] * dirs).T @ dirs  # second moment matrix on the same nodes

    def radial(Y, rows):
        # the radial integrals at the lattice rows of their displaced points Y
        dp = P[rows, None] - field_p.f(Y)
        dq = dp if same else Q[rows, None] - field_q.f(Y)
        return (dp * dq) @ kern

    def block_sum(rows):
        # the weighted radial integrals of every direction at the lattice
        # rows; the displaced points of each direction reuse one buffer,
        # which spares the page faults of a fresh mapping per direction
        Y = np.empty((rows.stop - rows.start, len(r), n))
        total = 0.0
        for d, w in zip(dirs, wdir):
            np.multiply(r[:, None], d, out=Y)
            Y += X[rows, None, :]
            total += w * float(radial(Y, rows).sum())
        return total

    # lattice rows in fixed blocks on up to ANISOLAP_THREADS workers, added
    # in block order: memory is O(workers x block x radial nodes)
    total = 0.0
    for block in _pool_map(block_sum, _row_blocks(len(X), _LATTICE_ROWS)):
        total += block * cell

    # diagonal tube: integrand ~ (grad p . z)(grad q . z) |z|^(-n-beta) e^(-lam|z|)
    m2 = radial_moment_lower(2, beta, lam, _TUBE_RADIUS)
    tube = float(np.einsum("pi,ij,pj->", GP, A, GQ)) * cell * m2

    # far field: once both fields have decayed at distance R the pair
    # difference product tends to p(x) q(x); skipped for fields without a
    # finite support radius (their differences need not decay)
    e0 = radial_moment_upper(0, beta, lam, R)
    if math.isfinite(max(field_p.support_radius, field_q.support_radius)):
        far = float(P @ Q) * cell * e0
    else:
        far = 0.0

    boundary = max(float(np.max(np.abs(P.reshape([M] * n)[0]))),
                   float(np.max(np.abs(Q.reshape([M] * n)[0]))))
    return total + tube + far, {"tube_correction": tube, "far_field_correction": far,
                                "boundary_value": boundary, "truncation_radius": R}
