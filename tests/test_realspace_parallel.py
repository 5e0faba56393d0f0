"""The real-space quadrature on the thread pool against the serial loops it
replaced.

The Gaussian bump, the moded _apply_pointwise, the block-major loop of
_apply_blocks and bilinear_form of the serial code are kept here verbatim as
the reference, and the kernel blocks that each operator handed to that loop
are built here as the serial code built them.  Each point is still summed
over its kernel blocks in block order, so the pool changes only which thread
computes it: every operator value is asserted equal across worker counts,
and equal, not close, to the reference where the operator keeps its
arithmetic.  Two keep it only to a stated relative bound: case I above
exponent 1 now takes the gradient-regularised bracket in place of paired
second differences, and a 3D point sums its directions in chunks of 2^18
radial x direction values.  The bilinear form is asserted equal across
worker counts and close to the reference: the reference takes one
matrix-vector product over the whole lattice, whose rounding of a row
depends on how BLAS splits the rows among its own threads.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

import anisolap.measures as measures
from anisolap.measures import (
    StabilityProfile,
    is_symmetric,
    make_atomic_measure,
    make_banded_measure,
    measure_nodes,
    moments,
    uniform_measure,
)
from anisolap.realspace import (
    QuadratureError,
    ScalarField,
    _REFINEMENT,
    _TUBE_RADIUS,
    _radial_kernel,
    _resolve_R,
    apply_caseI,
    apply_caseII,
    apply_general,
    bilinear_form,
    gaussian_bump,
    radial_moment_lower,
    radial_moment_upper,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the serial reference
# ---------------------------------------------------------------------------

def reference_bump(dimension: int, center=None, width: float = 1.0,
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


def _apply_pointwise(field, x, dirs, wdir, beta, lam, mode, R, drift_vec, tail_tol):
    """Operator value at one point for one (beta, lam) kernel block.

    mode: 'one_sided' (exponent < 1), 'symmetric' (second differences, any
    exponent, symmetric weights), 'gradient' (exponent > 1, regularised).
    The 1/|Gamma(-beta)| factor is included.  Raises QuadratureError if
    the estimated tail remainder exceeds tail_tol.
    """
    x = np.asarray(x, dtype=float)
    fx = float(field.f(x))
    r, kern = _radial_kernel(beta, lam, R)
    gnorm = abs(math.gamma(-beta))
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

        # inner Taylor correction on [0, _TUBE_RADIUS]; the paired second difference
        # carries twice the quadratic term of the one-sided bracket
        quad = field.hess_quadform(x, d)
        m2 = radial_moment_lower(2, beta, lam, _TUBE_RADIUS)
        if mode == "symmetric":
            inner = quad * m2
        else:
            inner = 0.5 * quad * m2
            if mode == "one_sided":
                m1 = radial_moment_lower(1, beta, lam, _TUBE_RADIUS)
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
        raise QuadratureError(
            f"estimated tail remainder {tail_est:.3e} exceeds {tail_tol:.3e}"
        )
    return value


def _apply_blocks(field, measure, x, blocks, tail_tol):
    """Operator values at the points x: the sum over kernel blocks
    (dirs, w, beta, lam, mode, drift) of _apply_pointwise, blocks outside and
    points inside.  Raises ValueError first if the field lacks a derivative
    that a block's mode uses."""
    if field.grad is None and any(mode != "symmetric" for _, _, _, _, mode, _ in blocks):
        raise ValueError("this operator form requires an analytic gradient")
    if field.hess is None:
        raise ValueError("the Taylor correction near r = 0 requires an analytic Hessian")
    pts, single = np.atleast_2d(x), np.ndim(x) == 1
    vals = np.zeros(len(pts))
    for dirs, w, beta, lam, mode, drift in blocks:
        for i, xi in enumerate(pts):
            vals[i] += _apply_pointwise(field, xi, dirs, w, beta, lam, mode,
                                        _resolve_R(field, xi, lam), drift, tail_tol)
    return vals[0] if single else vals


def reference_drift(beta, lam, b):
    """Finite-part drift Gamma(1-beta) lam^(beta-1) / |Gamma(-beta)| * b; zero at lam = 0."""
    if lam > 0:
        return (math.gamma(1.0 - beta) * lam ** (beta - 1.0) / abs(math.gamma(-beta))) * b
    return np.zeros_like(b)


def caseI_blocks(measure, beta, lam):
    """One-sided below exponent 1, paired second differences above it."""
    dirs, wdir, _ = measure_nodes(measure, refinement=_REFINEMENT[measure.dimension])
    return [(dirs, wdir, beta, lam, "one_sided" if beta < 1.0 else "symmetric", None)]


def caseII_blocks(measure, beta, lam):
    """The gradient form with the drift of the adaptive measure mean."""
    dirs, wdir, _ = measure_nodes(measure, refinement=_REFINEMENT[measure.dimension])
    return [(dirs, wdir, beta, lam, "gradient",
             reference_drift(beta, lam, moments(measure).mean))]


def general_blocks(measure, profile):
    """One block per component, with the drift of its own nodes above exponent 1."""
    dirs, wdir, comp = measure_nodes(measure, refinement=_REFINEMENT[measure.dimension])
    blocks = []
    for ci, (bi, li) in enumerate(zip(profile.betas, profile.lambdas)):
        d, w = dirs[comp == ci], wdir[comp == ci]
        if bi < 1.0:
            blocks.append((d, w, bi, li, "one_sided", None))
        else:
            blocks.append((d, w, bi, li, "gradient",
                           reference_drift(bi, li, (w[:, None] * d).sum(axis=0))))
    return blocks


def reference_bilinear_form(field_p: ScalarField, field_q: ScalarField,
                            measure, beta: float, lam: float, *,
                            half_width: float = 10.0, n_points: int = 256,
                            return_report: bool = False):
    """Symmetric-kernel double form (no 1/|Gamma(-beta)| factor):

        a(p,q) = int int (p(x)-p(y)) (q(x)-q(y)) m((x-y)/|x-y|)
                 e^(-lam|x-y|) |x-y|^(-n-beta) dx dy.

    Computed with y in polar coordinates around each lattice point x: the
    diagonal tube r < _TUBE_RADIUS is replaced by its Taylor-corrected moment
    and the far field r > R = 2 half_width by the decayed-field closed form;
    both corrections and the lattice truncation are reported.
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
    dirs, wdir, _ = measure_nodes(measure, refinement=32)

    total = 0.0
    for a in range(len(wdir)):
        d = dirs[a]
        Y = X[:, None, :] + r[None, :, None] * d[None, None, :]
        dp = P[:, None] - field_p.f(Y)
        dq = dp if same else Q[:, None] - field_q.f(Y)
        total += wdir[a] * float(((dp * dq) @ kern).sum()) * cell

    # diagonal tube: integrand ~ (grad p . z)(grad q . z) |z|^(-n-beta) e^(-lam|z|)
    m2 = radial_moment_lower(2, beta, lam, _TUBE_RADIUS)
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


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

FIG1 = make_banded_measure(2, [((0.0, math.pi), 2.0 / (3.0 * math.pi)),
                               ((math.pi, TWO_PI), 1.0 / (3.0 * math.pi))])
HALVES = make_banded_measure(2, [((0.0, math.pi), 0.5 / math.pi),
                                 ((math.pi, TWO_PI), 0.5 / math.pi)])
CROSS = make_atomic_measure(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
ASYM = make_atomic_measure(2, [((1, 0), 2), ((0.3, 1), 1)])

HALVES_PROFILE = StabilityProfile((1.8, 1.4), (0.3, 0.0))

# name -> (operator, reference blocks, measure, dimension, relative bound);
# operator(field, measure, x) and blocks(measure).  The bound, on the largest
# difference over the largest reference value, is 0 where the arithmetic is
# the reference's; the measured differences are at most 1.1e-11 (cross) and
# 1.0e-15 (3D).
OPERATORS = {
    "caseI_fig1": (lambda f, m, x: apply_caseI(f, m, 0.8, 0.5, x),
                   lambda m: caseI_blocks(m, 0.8, 0.5), FIG1, 2, 0.0),
    "general_halves": (lambda f, m, x: apply_general(f, m, HALVES_PROFILE, x),
                       lambda m: general_blocks(m, HALVES_PROFILE), HALVES, 2, 0.0),
    "caseI_paired_cross": (lambda f, m, x: apply_caseI(f, m, 1.5, 0.3, x),
                           lambda m: caseI_blocks(m, 1.5, 0.3), CROSS, 2, 1e-10),
    "caseII_drift_asym": (lambda f, m, x: apply_caseII(f, m, 1.4, 0.6, x),
                          lambda m: caseII_blocks(m, 1.4, 0.6), ASYM, 2, 0.0),
    "caseI_uniform3d": (lambda f, m, x: apply_caseI(f, m, 0.7, 0.4, x),
                        lambda m: caseI_blocks(m, 0.7, 0.4), uniform_measure(3), 3, 1e-14),
}
CENTERS = {2: [0.1, -0.2], 3: [0.1, -0.2, 0.05]}


def points(count: int, dim: int):
    x = np.random.default_rng([count, dim]).uniform(-2.0, 2.0, (count, dim))
    return x[0] if count == 1 else x


def run(monkeypatch, threads: str, fn, *args, **kw):
    monkeypatch.setenv("ANISOLAP_THREADS", threads)
    return fn(*args, **kw)


# ---------------------------------------------------------------------------
# operators at points
# ---------------------------------------------------------------------------

# the 3D measure has 4,096 nodes per point, so it runs at 1 and 2 points only
@pytest.mark.parametrize("name, count", [
    (name, count) for name in sorted(OPERATORS) for count in (1, 2, 37)
    if OPERATORS[name][3] == 2 or count < 37])
def test_operator_values_match_serial_loop(monkeypatch, name, count):
    op, blocks, measure, dim, bound = OPERATORS[name]
    x = points(count, dim)
    new = gaussian_bump(dim, center=CENTERS[dim], width=1.1)
    want = _apply_blocks(reference_bump(dim, center=CENTERS[dim], width=1.1), measure, x,
                         blocks(measure), None)
    got = {threads: run(monkeypatch, threads, op, new, measure, x) for threads in ("1", "2")}
    assert np.array_equal(got["1"], got["2"])
    assert np.shape(got["1"]) == np.shape(want)
    if bound == 0.0:
        assert np.array_equal(got["1"], want)
    else:
        assert np.max(np.abs(got["1"] - want)) <= bound * np.max(np.abs(want))


def test_gaussian_bump_matches_serial_expression():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        c = rng.uniform(-1, 1, dim)
        new, ref = gaussian_bump(dim, center=c, width=0.7, amplitude=1.3), \
            reference_bump(dim, center=c, width=0.7, amplitude=1.3)
        for shape in ((dim,), (5, dim), (4, 3, dim)):
            x = rng.uniform(-3, 3, shape)
            assert np.array_equal(new.f(x), ref.f(x))
            assert np.array_equal(new.hess(x), ref.hess(x))
        x = rng.uniform(-3, 3, (6, dim))
        before = x.copy()
        new.f(x)
        assert np.array_equal(x, before)


def test_tail_error_surfaces_from_the_pool(monkeypatch):
    # a plane wave never decays, so the far field is estimated by probing
    kvec = np.array([1.0])
    fld = ScalarField(1, lambda x: np.cos(np.asarray(x) @ kvec),
                      lambda x: -np.sin(np.asarray(x) @ kvec)[..., None] * kvec,
                      lambda x: -np.cos(np.asarray(x) @ kvec)[..., None, None]
                      * np.outer(kvec, kvec))
    sym1d = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
    x = np.linspace(-1.0, 1.0, 6)[:, None]
    for threads in ("1", "2"):
        monkeypatch.setenv("ANISOLAP_THREADS", threads)
        with pytest.raises(QuadratureError, match="tail remainder"):
            apply_caseI(fld, sym1d, 0.6, 0.0, x, tol=1e-12)


def test_3d_point_memory_is_bounded(monkeypatch):
    # 4,096 directions x 328 radial nodes per 3D point: one chunk of all of
    # them peaked at 123 MB on 2 workers, chunks of 2^18 values at 29 MB
    monkeypatch.setenv("ANISOLAP_THREADS", "2")
    tracemalloc.start()
    try:
        apply_caseI(gaussian_bump(3), uniform_measure(3), 0.7, 0.4, points(4, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_points", [50, 96])
def test_bilinear_form_matches_serial_loop(monkeypatch, n_points):
    # 50^2 and 96^2 lattice points are 5 and 18 blocks of 500 and 512 rows
    kw = dict(half_width=10.0, n_points=n_points)
    p, q = gaussian_bump(2, center=[0.1, -0.2], width=1.1), gaussian_bump(2, center=[0.3, 0.1])
    rp, rq = reference_bump(2, center=[0.1, -0.2], width=1.1), reference_bump(2, center=[0.3, 0.1])
    want_same, want_report = reference_bilinear_form(rp, rp, CROSS, 1.3, 0.5,
                                                     return_report=True, **kw)
    want_pq = reference_bilinear_form(rp, rq, CROSS, 1.3, 0.5, **kw)
    got = {}
    for threads in ("1", "2"):
        same, report = run(monkeypatch, threads, bilinear_form, p, p, CROSS, 1.3, 0.5, **kw)
        pq, _ = run(monkeypatch, threads, bilinear_form, p, q, CROSS, 1.3, 0.5, **kw)
        got[threads] = (same, pq)
        assert report == want_report
        assert same == pytest.approx(want_same, rel=1e-14, abs=0.0)
        assert pq == pytest.approx(want_pq, rel=1e-14, abs=0.0)
    assert got["1"] == got["2"]


def test_bilinear_form_1d_single_block(monkeypatch):
    # 200 lattice points fit in one block: the same product as the reference
    q = gaussian_bump(1, center=[0.3], width=0.8)
    sym1d = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
    want = reference_bilinear_form(reference_bump(1, center=[0.3], width=0.8),
                                   reference_bump(1, center=[0.3], width=0.8),
                                   sym1d, 0.5, 1.0, half_width=10.0, n_points=200)
    for threads in ("1", "2"):
        got, _ = run(monkeypatch, threads, bilinear_form, q, q, sym1d, 0.5, 1.0,
                     half_width=10.0, n_points=200)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_bilinear_form_memory_does_not_grow_with_the_lattice(monkeypatch):
    monkeypatch.setenv("ANISOLAP_THREADS", "2")
    q = gaussian_bump(2)
    peaks = {}
    for n in (96, 192):
        tracemalloc.start()
        try:
            bilinear_form(q, q, CROSS, 1.3, 0.5, half_width=10.0, n_points=n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # four times the lattice points: the per-direction arrays of the serial
    # loop made this ratio 4
    assert peaks[192] <= 1.5 * peaks[96]


# ---------------------------------------------------------------------------
# the pool helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_invalid_thread_cap_raises_before_any_thread(monkeypatch, value):
    def no_pool(*args, **kw):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(measures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("ANISOLAP_THREADS", value)
    with pytest.raises(ValueError, match=f"ANISOLAP_THREADS must be a nonnegative integer, "
                                         f"not '{value}'"):
        apply_caseI(gaussian_bump(2), FIG1, 0.8, 0.5, points(4, 2))
    with pytest.raises(ValueError, match="ANISOLAP_THREADS"):
        bilinear_form(gaussian_bump(2), gaussian_bump(2), CROSS, 1.3, 0.5, n_points=40)


@pytest.mark.parametrize("value", ["0", "1", "3", None])
def test_valid_thread_cap(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("ANISOLAP_THREADS", raising=False)
    else:
        monkeypatch.setenv("ANISOLAP_THREADS", value)
    want = int(value or "0") or os.cpu_count() or 1
    assert measures._worker_cap() == want
    assert measures._pool_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]


def test_row_blocks_are_equal_and_never_single():
    for size in (4, 64, 512):
        for n in range(1, 1200):
            blocks = measures._row_blocks(n, size)
            lengths = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
            assert n == 1 or min(lengths) >= 2
