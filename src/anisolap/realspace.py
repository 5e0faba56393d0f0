"""Singular-integral (real-space) evaluation of the nonlocal operators.

All operators are applied in polar form: a directional quadrature from the
measure times a graded radial rule for the kernel r^(-1-beta) e^(-lam r).
The radial integral is split as [0, delta] (second-order Taylor correction),
[delta, R] (log-spaced Gauss-Legendre panels) and [R, inf) (closed-form
moments assuming the field has decayed, with the neglected remainder
reported).  This is a reference-accuracy oracle, not a fast solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.special as sc

from .measures import (
    DirectionalMeasure, StabilityProfile, _composite_gl, is_symmetric, measure_nodes, moments,
)

__all__ = [
    "ScalarField",
    "gaussian_bump",
    "QuadratureTailError",
    "apply_gaussian_nonlocal",
    "apply_caseI",
    "apply_caseII",
    "apply_general",
    "bilinear_form",
    "upper_gamma",
    "radial_moment_lower",
    "radial_moment_upper",
]


class QuadratureTailError(RuntimeError):
    """The estimated truncation remainder exceeds the requested tolerance."""


@dataclass(frozen=True)
class ScalarField:
    """Scalar test function with optional analytic derivatives.

    f maps (..., n) arrays to (...) values.  support_radius is a radius
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

    def __call__(self, x):
        return self.f(np.asarray(x, dtype=float))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        g = np.empty(self.dimension)
        for i in range(self.dimension):
            e = np.zeros(self.dimension)
            e[i] = h
            g[i] = (self.f(x + e) - self.f(x - e)) / (2 * h)
        return g

    def hess_quadform(self, x, dirs):
        """phi^T H(x) phi for each row of dirs."""
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            H = np.asarray(self.hess(x), dtype=float)
            return np.einsum("ai,ij,aj->a", dirs, H, dirs)
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
        fx = self.f(x)
        plus = self.f(x[None, :] + h * dirs)
        minus = self.f(x[None, :] - h * dirs)
        return (plus - 2.0 * fx + minus) / (h * h)


def gaussian_bump(dimension: int, center=None, width: float = 1.0,
                  amplitude: float = 1.0) -> ScalarField:
    """Smooth rapidly decaying test field A*exp(-|x-c|^2 / (2 w^2))."""
    c = np.zeros(dimension) if center is None else np.asarray(center, dtype=float)
    w2 = width * width

    def f(x):
        d = np.asarray(x, dtype=float) - c
        s = d[..., 0] * d[..., 0]
        for i in range(1, dimension):
            s = s + d[..., i] * d[..., i]
        return amplitude * np.exp(-0.5 * s / w2)

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

def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) for x > 0 and any non-pole real a."""
    if x <= 0:
        raise ValueError("x must be positive")
    if a > 0:
        return sc.gammaincc(a, x) * sc.gamma(a)
    # downward in a: Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a
    shift = math.ceil(-a) + 1
    val = sc.gammaincc(a + shift, x) * sc.gamma(a + shift)
    for m in range(shift - 1, -1, -1):
        am = a + m
        val = (val - x ** am * math.exp(-x)) / am
    return val


def radial_moment_lower(j: int, beta: float, lam: float, delta: float) -> float:
    """int_0^delta r^(j-1-beta) e^(-lam r) dr; requires j > beta."""
    a = j - beta
    if a <= 0:
        raise ValueError("moment diverges at the origin")
    if lam == 0.0:
        return delta ** a / a
    return lam ** (-a) * sc.gammainc(a, lam * delta) * sc.gamma(a)


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


# ---------------------------------------------------------------------------
# (tempered) stable operators
# ---------------------------------------------------------------------------

def _resolve_R(field: ScalarField, x, lam: float, R: float | None) -> float:
    if R is not None:
        return R
    if math.isfinite(field.support_radius):
        return field.support_radius + float(np.linalg.norm(x)) + 1.0
    if lam > 0:
        return 45.0 / lam
    # non-decaying field, untempered kernel: fall back to a wide window and
    # rely on the probe-based tail estimate to flag any real leakage
    return 50.0 * (1.0 + float(np.linalg.norm(x)))


def _apply_pointwise(field, x, dirs, wdir, beta, lam, mode, delta, R,
                     panels_per_decade, order, drift_vec, tail_tol):
    """Operator value at one point for one (beta, lam) kernel block.

    mode: 'one_sided' (exponent < 1), 'symmetric' (second differences, any
    exponent, symmetric weights), 'gradient' (exponent > 1, regularised).
    Returns (value, tail_estimate); the 1/|Gamma(-beta)| factor is included.
    """
    x = np.asarray(x, dtype=float)
    fx = float(field.f(x))
    r, wr = _graded_radial_rule(delta, R, panels_per_decade, order)
    kern = wr * r ** (-1.0 - beta) * (np.exp(-lam * r) if lam > 0 else 1.0)
    gnorm = abs(sc.gamma(-beta))
    grad = None if mode == "symmetric" else field.gradient(x)
    finite_support = math.isfinite(field.support_radius)

    total = 0.0
    tail_probe = 0.0
    chunk = max(1, int(2e6 // len(r)))
    for a0 in range(0, len(wdir), chunk):
        d = dirs[a0:a0 + chunk]
        w = wdir[a0:a0 + chunk]
        pts_minus = x[None, None, :] - r[:, None, None] * d[None, :, :]
        fm = field.f(pts_minus)
        if mode == "symmetric":
            fp = field.f(x[None, None, :] + r[:, None, None] * d[None, :, :])
            bracket = fm + fp - 2.0 * fx
        elif mode == "gradient":
            bracket = fm - fx + r[:, None] * (d @ grad)[None, :]
        else:
            bracket = fm - fx
        radial = kern @ bracket
        total += float(w @ radial)

        # inner Taylor correction on [0, delta]; the paired second difference
        # carries twice the quadratic term of the one-sided bracket
        quad = field.hess_quadform(x, d)
        m2 = radial_moment_lower(2, beta, lam, delta)
        if mode == "symmetric":
            inner = quad * m2
        else:
            inner = 0.5 * quad * m2
            if mode == "one_sided":
                m1 = radial_moment_lower(1, beta, lam, delta)
                inner = inner - (d @ grad) * m1
        total += float(w @ inner)

        # analytic far field for decayed fields
        e0 = radial_moment_upper(0, beta, lam, R)
        if finite_support:
            if mode == "gradient":
                e1 = radial_moment_upper(1, beta, lam, R)
                far = -fx * e0 + (d @ grad) * e1
            elif mode == "symmetric":
                far = np.full(len(w), -2.0 * fx * e0)
            else:
                far = np.full(len(w), -fx * e0)
            total += float(w @ far)
            tail_probe = max(tail_probe, field.cutoff * e0)
        else:
            probe_r = np.array([R, 1.5 * R, 3.0 * R])
            pf = field.f(x[None, None, :] - probe_r[:, None, None] * d[None, :, :])
            tail_probe = max(tail_probe, float(np.max(np.abs(pf - fx))) * e0)

    if mode == "symmetric":
        total *= 0.5
    value = total / gnorm
    if drift_vec is not None:
        value -= float(drift_vec @ grad)
    tail_est = tail_probe / gnorm
    if tail_tol is not None and tail_est > tail_tol:
        raise QuadratureTailError(
            f"estimated tail remainder {tail_est:.3e} exceeds {tail_tol:.3e}"
        )
    return value, tail_est


def _as_points(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape == (n,) or (n == 1 and x.ndim == 0):
        return x.reshape(1, n), True
    if x.ndim == 2 and x.shape[1] == n:
        return x, False
    if n == 1 and x.ndim == 1:
        return x.reshape(-1, 1), False
    raise ValueError(f"points must have shape (n,) or (P, {n})")


def apply_caseI(field: ScalarField, measure: DirectionalMeasure, beta: float,
                lam: float, x, *, delta: float = 1e-4, R: float | None = None,
                panels_per_decade: int = 8, order: int = 8, refinement: int = 32,
                tail_tol: float | None = None, return_report: bool = False):
    """Difference-kernel form, valid for beta < 1 or symmetric measures.

    For beta in (1,2) the measure must be symmetric and paired second
    differences are used, which keeps every intermediate finite.
    """
    if not (0.0 < beta < 2.0) or abs(beta - 1.0) < 1e-6:
        raise ValueError("beta must lie in (0,1) or (1,2)")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    mode = "one_sided"
    if beta > 1.0:
        if not is_symmetric(measure):
            raise ValueError("beta in (1,2) requires a symmetric measure here; "
                             "use apply_caseII for asymmetric measures")
        mode = "symmetric"
    dirs, wdir, _ = measure_nodes(measure, refinement=refinement)
    pts, single = _as_points(x, measure.dimension)
    vals = np.empty(len(pts))
    tails = np.empty(len(pts))
    for i, xi in enumerate(pts):
        Ri = _resolve_R(field, xi, lam, R)
        vals[i], tails[i] = _apply_pointwise(
            field, xi, dirs, wdir, beta, lam, mode, delta, Ri,
            panels_per_decade, order, None, tail_tol,
        )
    out = vals[0] if single else vals
    if return_report:
        return out, {"tail_estimate": tails[0] if single else tails}
    return out


def apply_caseII(field: ScalarField, measure: DirectionalMeasure, beta: float,
                 lam: float, x, *, delta: float = 1e-4, R: float | None = None,
                 panels_per_decade: int = 8, order: int = 8, refinement: int = 32,
                 tail_tol: float | None = None, return_report: bool = False):
    """Gradient-regularised (finite-part) form for beta in (1,2).

    Adds the drift correction -Gamma(1-beta) lam^(beta-1) / |Gamma(-beta)|
    (b . grad f) with b the measure mean; at lam = 0 the drift constant
    vanishes by continuity.
    """
    if not (1.0 < beta < 2.0):
        raise ValueError("beta must lie in (1,2)")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if field.grad is None:
        raise ValueError("the gradient-regularised form requires an analytic gradient")
    b = moments(measure).mean
    if lam > 0:
        drift = (sc.gamma(1.0 - beta) * lam ** (beta - 1.0) / abs(sc.gamma(-beta))) * b
    else:
        drift = np.zeros_like(b)
    dirs, wdir, _ = measure_nodes(measure, refinement=refinement)
    pts, single = _as_points(x, measure.dimension)
    vals = np.empty(len(pts))
    tails = np.empty(len(pts))
    for i, xi in enumerate(pts):
        Ri = _resolve_R(field, xi, lam, R)
        vals[i], tails[i] = _apply_pointwise(
            field, xi, dirs, wdir, beta, lam, "gradient", delta, Ri,
            panels_per_decade, order, drift, tail_tol,
        )
    out = vals[0] if single else vals
    if return_report:
        return out, {"tail_estimate": tails[0] if single else tails}
    return out


def apply_general(field: ScalarField, measure: DirectionalMeasure,
                  profile: StabilityProfile, x, *, delta: float = 1e-4,
                  R: float | None = None, panels_per_decade: int = 8,
                  order: int = 8, refinement: int = 32,
                  tail_tol: float | None = None):
    """Direction-dependent (beta(phi), lambda(phi)) operator.

    Applies the one-sided logic per component with exponent < 1 and the
    gradient-regularised logic per component with exponent > 1, including the
    per-component drift b_c = Gamma(1-beta_c) lam_c^(beta_c-1) / |Gamma(-beta_c)|
    int_c phi dm.
    """
    profile = profile.for_measure(measure)
    needs_grad = any(b > 1.0 for b in profile.betas)
    if needs_grad and field.grad is None:
        raise ValueError("components with exponent above 1 require a gradient")
    dirs, wdir, comp = measure_nodes(measure, refinement=refinement)
    pts, single = _as_points(x, measure.dimension)
    vals = np.zeros(len(pts))
    for ci in range(measure.n_components):
        bi, li = profile.betas[ci], profile.lambdas[ci]
        if not (0.0 < bi < 2.0) or abs(bi - 1.0) < 1e-6:
            raise ValueError("profile exponents must lie in (0,1) or (1,2)")
        sel = comp == ci
        d, w = dirs[sel], wdir[sel]
        if bi > 1.0:
            mode = "gradient"
            b_c = (w[:, None] * d).sum(axis=0)
            if li > 0:
                drift = (sc.gamma(1.0 - bi) * li ** (bi - 1.0) / abs(sc.gamma(-bi))) * b_c
            else:
                drift = np.zeros(measure.dimension)
        else:
            mode = "one_sided"
            drift = None
        for i, xi in enumerate(pts):
            Ri = _resolve_R(field, xi, li, R)
            v, _ = _apply_pointwise(
                field, xi, d, w, bi, li, mode, delta, Ri,
                panels_per_decade, order, drift, tail_tol,
            )
            vals[i] += v
    return vals[0] if single else vals


# ---------------------------------------------------------------------------
# Gaussian-jump nonlocal operators
# ---------------------------------------------------------------------------

def apply_gaussian_nonlocal(field: ScalarField, variant: str, x, *,
                            sigma: float | None = None,
                            measure: DirectionalMeasure | None = None,
                            sigmas=None, zeta: float = 1.0, order: int = 24):
    """zeta * (smoothing - identity) for the Gaussian jump laws.

    iso:  zeta*(E f(x - sigma Z) - f(x)), Z standard normal, via tensor
          Gauss-Hermite; axes: the axis mixture of 1D smoothings; aniso: the
          normalised directional Rayleigh mixture.
    """
    pts, single = _as_points(x, field.dimension)
    t, wt = sc.roots_hermite(order)
    z = math.sqrt(2.0) * t
    wz = wt / math.sqrt(math.pi)
    out = np.empty(len(pts))
    if variant == "iso":
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive")
        n = field.dimension
        grids = np.meshgrid(*([z] * n), indexing="ij")
        Z = np.stack([g.ravel() for g in grids], axis=-1)
        W = np.ones(len(Z))
        for g in np.meshgrid(*([wz] * n), indexing="ij"):
            W = W * g.ravel()
        for i, xi in enumerate(pts):
            out[i] = zeta * (W @ field.f(xi[None, :] - sigma * Z) - field.f(xi))
    elif variant == "axes":
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive")
        n = field.dimension
        for i, xi in enumerate(pts):
            acc = 0.0
            for ax in range(n):
                shift = np.zeros((order, n))
                shift[:, ax] = sigma * z
                acc += wz @ field.f(xi[None, :] - shift)
            out[i] = zeta * (acc / n - field.f(xi))
    elif variant == "aniso":
        if measure is None or measure.dimension != 2:
            raise ValueError("the aniso variant requires a 2D measure")
        sig = np.asarray(sigmas, dtype=float)
        if sig.shape == ():
            sig = np.full(measure.n_components, float(sig))
        if np.any(sig <= 0):
            raise ValueError("sigmas must be positive")
        dirs, wdir, comp = measure_nodes(measure, refinement=48)
        s = sig[comp]
        c_m = 1.0 / float(wdir @ s ** 2)
        # radial rule on t = r / sigma_dir: int_0^inf g(sigma t) e^{-t^2/2} t dt
        edges = np.linspace(0.0, 8.5, 18)
        tt, tw = _composite_gl(edges, 10)
        tw = tw * tt * np.exp(-0.5 * tt * tt)
        for i, xi in enumerate(pts):
            fx = field.f(xi)
            Y = xi[None, None, :] - (tt[:, None, None] * s[None, :, None]) * dirs[None, :, :]
            vals = field.f(Y) - fx
            radial = tw @ vals  # per direction, already times sigma^2 via scaling
            out[i] = zeta * c_m * float((wdir * s ** 2) @ radial)
    else:
        raise ValueError(f"unknown gaussian variant {variant!r}")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def bilinear_form(field_p: ScalarField, field_q: ScalarField,
                  measure: DirectionalMeasure, beta: float, lam: float, *,
                  half_width: float = 10.0, n_points: int = 256,
                  delta: float = 1e-4, R: float | None = None,
                  panels_per_decade: int = 8, order: int = 8,
                  refinement: int = 32, return_report: bool = False):
    """Symmetric-kernel double form (no 1/|Gamma(-beta)| factor):

        a(p,q) = int int (p(x)-p(y)) (q(x)-q(y)) m((x-y)/|x-y|)
                 e^(-lam|x-y|) |x-y|^(-n-beta) dx dy.

    Computed with y in polar coordinates around each lattice point x: the
    diagonal tube r < delta is replaced by its Taylor-corrected moment and
    the far field r > R by the decayed-field closed form; both corrections
    and the lattice truncation are reported.
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

    if R is None:
        R = 2.0 * L
    r, wr = _graded_radial_rule(delta, R, panels_per_decade, order)
    kern = wr * r ** (-1.0 - beta) * (np.exp(-lam * r) if lam > 0 else 1.0)
    dirs, wdir, _ = measure_nodes(measure, refinement=refinement)

    total = 0.0
    for a in range(len(wdir)):
        d = dirs[a]
        Y = X[:, None, :] + r[None, :, None] * d[None, None, :]
        dp = P[:, None] - field_p.f(Y)
        dq = dp if same else Q[:, None] - field_q.f(Y)
        total += wdir[a] * float(((dp * dq) @ kern).sum()) * cell

    # diagonal tube: integrand ~ (grad p . z)(grad q . z) |z|^(-n-beta) e^(-lam|z|)
    m2 = radial_moment_lower(2, beta, lam, delta)
    A = moments(measure).covariance
    tube = float(np.einsum("pi,ij,pj->", GP, A, GQ)) * cell * m2

    # far field: once both fields have decayed at distance R the pair
    # difference product tends to p(x) q(x); skipped for fields without a
    # finite support radius (their differences need not decay)
    e0 = radial_moment_upper(0, beta, lam, R)
    if math.isfinite(max(field_p.support_radius, field_q.support_radius)):
        far = float(P @ Q) * cell * e0
    else:
        far = 0.0

    value = total + tube + far
    if return_report:
        boundary = max(
            float(np.max(np.abs(P.reshape([M] * n)[0]))),
            float(np.max(np.abs(Q.reshape([M] * n)[0]))),
        )
        report = {
            "tube_correction": tube,
            "far_field_correction": far,
            "boundary_value": boundary,
            "truncation_radius": R,
        }
        return value, report
    return value
