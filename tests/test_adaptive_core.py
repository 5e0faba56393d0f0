"""The level-synchronous adaptive band quadrature.

In 2D against a scalar breadth-first pass of the same per-panel rule, on the
same direction map (measures._unit_vectors), and every 2D case asserts equal
values, not close ones: the batched core visits the same panels and adds each
integrand's sums level by level, in the order of its own panels, whatever the
batching.  A 3D band runs the same rule twice, over the azimuth of the
polar-angle integrals along the meridians; the 3D cases assert accuracy
against closed forms and a tensor Gauss-Legendre rule whose directions come
from np.cos and np.sin, and equal values under any batching.  The symbols'
adaptive route, which only 3D bands take, asserts equal values against the
breadth-first pass in phi over breadth-first passes along the meridians."""

import math
import tracemalloc
from collections import deque
from functools import partial

import numpy as np
import pytest

import anisolap.measures as measures_mod
import anisolap.symbols as symbols_mod
from anisolap.measures import (
    _TWO_PI,
    AngularBand,
    NumericalError,
    StabilityProfile,
    _gl,
    _unit_vectors,
    make_banded_measure,
    make_measure,
    moments,
    sphere_integrate,
    uniform_measure,
)
from anisolap.symbols import (
    _adaptive_bands,
    _bracket,
    beta1_symbol,
    general_profile_symbol,
    isotropic_reference_symbol,
    tempered_symbol,
)
from shared_measures import fig1_measure


# ---------------------------------------------------------------------------
# the breadth-first reference
# ---------------------------------------------------------------------------

def _segment_nodes(a, b, order):
    x, w = _gl(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def reference_band(band, f, tol, split_angles, order=15):
    """Adaptive composite Gauss-Legendre over one 2D band, one panel at a
    time, breadth first."""
    t0, t1 = band.bounds
    cuts = sorted({t0, t1} | {
        t0 + ((s - t0) % _TWO_PI)
        for s in split_angles
        if t0 + 1e-13 < t0 + ((s - t0) % _TWO_PI) < t1 - 1e-13
    })

    def eval_seg(a, b):
        x, w = _segment_nodes(a, b, order)
        vals = f(_unit_vectors(x))
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand value on the sphere")
        return np.sum(w * vals)

    total = 0.0 + 0.0j
    queue = deque((a, b, eval_seg(a, b), 0) for a, b in zip(cuts[:-1], cuts[1:]))
    while queue:
        a, b, coarse, depth = queue.popleft()
        mid = 0.5 * (a + b)
        left, right = eval_seg(a, mid), eval_seg(mid, b)
        if abs(left + right - coarse) < max(tol, 1e-16) or depth >= 40:
            total += left + right
        else:
            queue.append((a, mid, left, depth + 1))
            queue.append((mid, b, right, depth + 1))
    return complex(total) * band.density


def _kink_splits(k):
    """The angles theta_k +- pi/2 where the 2-vector k meets phi at a right
    angle: none for k = 0."""
    if k[0] == 0 and k[1] == 0:
        return ()
    tk = math.atan2(k[1], k[0])
    return (tk - 0.5 * math.pi, tk + 0.5 * math.pi)


def reference_band_3d(band, f, kvec, tol):
    """One 3D band as the breadth-first rule in phi over the breadth-first
    rules in theta along the meridians, each weighted by sin(theta) and cut
    where (k_z, k_x cos(phi) + k_y sin(phi)) . (cos(theta), sin(theta)) = 0."""
    t0, t1, p0, p1 = band.bounds
    meridian = AngularBand((t0, t1), 1.0)

    def meridians(u):
        out = np.empty(len(u), dtype=complex)
        for j in range(len(u)):
            def g(v, j=j):
                return f(np.concatenate([v[:, 1:] * u[j], v[:, :1]], axis=1)) * v[:, 1]

            plane = (kvec[2], kvec[0] * u[j, 0] + kvec[1] * u[j, 1])
            out[j] = reference_band(meridian, g, tol / 100.0, _kink_splits(plane))
        return out

    return reference_band(AngularBand((p0, p1), band.density), meridians, tol, ())


def reference_adaptive_bands(pts, bands, integrand_of_u, tol):
    """Per-point adaptive integration over 2D or 3D bands with kink-aware splitting."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for p in range(pts.shape[0]):
        kvec = pts[p]

        def f(d):
            return integrand_of_u(d @ kvec)

        for band in bands:
            if band.dimension == 3:
                out[p] += reference_band_3d(band, f, kvec, tol)
            else:
                out[p] += reference_band(band, f, tol, _kink_splits(kvec))
    return out


def reference_sphere_integrate(measure, integrand, tol=1e-10, order=15):
    total = 0.0 + 0.0j
    for d, w in measure.atoms:
        val = np.asarray(integrand(d[None, :]))[0]
        if not np.isfinite(complex(val)):
            raise ValueError("non-finite integrand value on the sphere")
        total += w * complex(val)
    n_bands = max(1, len(measure.bands))
    for band in measure.bands:
        total += reference_band(band, integrand, tol / n_bands, (), order=order)
    return complex(total)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def halves_measure():
    return make_banded_measure(2, [((0.0, math.pi), 0.5 / math.pi),
                                   ((math.pi, _TWO_PI), 0.5 / math.pi)])


def wrapped_measure():
    # one arc from 3pi/2 past 2pi to 5pi/2
    return make_banded_measure(2, [((1.5 * math.pi, 2.5 * math.pi), 1.0 / math.pi)])


MEASURES_2D = {"fig1": fig1_measure, "halves": halves_measure,
               "uniform": partial(uniform_measure, 2), "wrapped": wrapped_measure}

BANDS_3D = {
    "uniform": AngularBand((0.0, math.pi, 0.0, _TWO_PI), 1.0 / (4.0 * math.pi)),
    "hemisphere": AngularBand((0.0, 0.5 * math.pi, 0.0, _TWO_PI), 1.0 / _TWO_PI),
    "polar_cap": AngularBand((0.0, 0.4, 0.0, _TWO_PI),
                             1.0 / ((1.0 - math.cos(0.4)) * _TWO_PI)),
}


def wavenumbers():
    """A coarse coercivity probe plus k = 0 and wavenumbers whose kink angles
    fall on the band edges 0 and pi (and on 3pi/2 +- 0 mod 2pi)."""
    radii = np.geomspace(1e-3, 1e3, 5)
    th = np.linspace(0.0, _TWO_PI, 8, endpoint=False) + 0.05
    probe = radii[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    edges = np.array([[0.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [1.0, 0.0]])
    return np.concatenate([probe.reshape(-1, 2), edges])


INTEGRANDS_OF_U = {
    "tempered": partial(_bracket, beta=1.3, lam=0.7),
    "stable": partial(_bracket, beta=0.6, lam=0.0),
    "beta1": lambda u: u * np.arctan(u / 0.5) - 0.25 * np.log1p((u / 0.5) ** 2),
}


def tensor_reference(band, f, order=64):
    """f integrated over a 3D band by one Gauss-Legendre tensor rule in
    (theta, phi), exact to rounding for the smooth integrands below."""
    t0, t1, p0, p1 = band.bounds
    (t, wt), (p, wp) = _segment_nodes(t0, t1, order), _segment_nodes(p0, p1, order)
    T, P = np.meshgrid(t, p, indexing="ij")
    T, P = T.ravel(), P.ravel()
    dirs = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    vals = f(dirs).reshape(len(t), len(p))
    return band.density * ((wt * np.sin(t)) @ vals @ wp)


def smooth_integrands(n):
    """Smooth integrands on the sphere in R^n: the odd monomials d_i and d_i^3,
    d_i d_j^2 for i < j, exp(d . (1, ..., n)) and cos(1.7 d_1 + d_2)."""
    tests = []
    for i in range(n):
        tests.append(lambda d, i=i: d[:, i])
        tests.append(lambda d, i=i: d[:, i] ** 3)
        for j in range(i + 1, n):
            tests.append(lambda d, i=i, j=j: d[:, i] * d[:, j] ** 2)
    tests.append(lambda d: np.exp(np.sum(d * np.arange(1, n + 1), axis=-1)))
    tests.append(lambda d: np.cos(1.7 * d[:, 0] + (d[:, 1] if n > 1 else 0.0)))
    return tests


@pytest.fixture(params=[None, 1, 7], ids=["default_block", "block1", "block7"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(measures_mod, "_BLOCK_PANELS", request.param)
    return request.param


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestAdaptiveBands:
    @pytest.mark.parametrize("name", sorted(MEASURES_2D))
    @pytest.mark.parametrize("g", sorted(INTEGRANDS_OF_U))
    def test_matches_breadth_first(self, name, g):
        pts = wavenumbers()
        bands = MEASURES_2D[name]().bands
        new = _adaptive_bands(pts, bands, INTEGRANDS_OF_U[g], 1e-12)
        ref = reference_adaptive_bands(pts, bands, INTEGRANDS_OF_U[g], 1e-12)
        assert np.array_equal(new, ref)

    def test_block_size_does_not_matter(self, block):
        pts = wavenumbers()
        bands = fig1_measure().bands
        g = INTEGRANDS_OF_U["tempered"]
        full = _adaptive_bands(pts, bands, g, 1e-12)
        assert np.array_equal(full, reference_adaptive_bands(pts, bands, g, 1e-12))
        # fewer wavenumbers sharing the levels, in another order
        rows = np.random.default_rng(41).permutation(len(pts))[:17]
        assert np.array_equal(_adaptive_bands(pts[rows], bands, g, 1e-12), full[rows])

    def test_no_wavenumbers(self):
        out = _adaptive_bands(np.zeros((0, 2)), fig1_measure().bands,
                              INTEGRANDS_OF_U["tempered"], 1e-12)
        assert out.shape == (0,) and out.dtype == complex

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericalError, match="symbol integrand is not finite"):
            _adaptive_bands(wavenumbers(), fig1_measure().bands,
                            lambda u: 1.0 / (u - u), 1e-12)


def wavenumbers_3d():
    """Random wavenumbers plus k = 0 and two on the axes, whose meridian
    kinks fall on the hemisphere's rim or on no meridian at all."""
    rng = np.random.default_rng(43)
    return np.concatenate([rng.normal(scale=3.0, size=(4, 3)),
                           [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.5, 0.0, 0.0]]])


def hemispheres_measure():
    return make_banded_measure(3, [((0.0, 0.5 * math.pi, 0.0, _TWO_PI), 0.25 / math.pi),
                                   ((0.5 * math.pi, math.pi, 0.0, _TWO_PI), 0.25 / math.pi)])


class TestSymbolsAdaptive:
    """The symbols' adaptive route, which only 3D bands take, against the
    breadth-first reference in its place."""

    def both(self, monkeypatch, call):
        new = call()
        monkeypatch.setattr(symbols_mod, "_adaptive_bands", reference_adaptive_bands)
        return new, call()

    def test_tempered(self, monkeypatch):
        new, ref = self.both(monkeypatch, lambda: tempered_symbol(
            make_banded_measure(3, [BANDS_3D["hemisphere"]]), 1.3, 0.7, wavenumbers_3d(),
            method="adaptive"))
        assert np.array_equal(new, ref)

    def test_tempered_3d(self):
        # the isotropic symbol at random off-axis wavenumbers, against the
        # closed form (lam = 0) and the graded rule (lam > 0) of the reference
        k = np.random.default_rng(31).normal(scale=3.0, size=(3, 3))
        for beta in (0.6, 1.4):
            for lam in (0.0, 0.5):
                got = tempered_symbol(uniform_measure(3), beta, lam, k, method="adaptive")
                want = -isotropic_reference_symbol(beta, lam, k, 3)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_beta1(self, monkeypatch):
        new, ref = self.both(monkeypatch, lambda: beta1_symbol(
            hemispheres_measure(), 0.5, wavenumbers_3d()))
        assert np.array_equal(new, ref)

    def test_general_profile(self, monkeypatch):
        # lam > 0 on both components: an untempered 3D band takes the
        # reference tens of seconds
        profile = StabilityProfile((1.3, 1.7), (0.3, 0.6))
        new, ref = self.both(monkeypatch, lambda: general_profile_symbol(
            hemispheres_measure(), profile, wavenumbers_3d()))
        assert np.array_equal(new, ref)


class TestSphereIntegrate:
    def test_2d_atoms_and_bands(self):
        m = make_measure(2, atoms=[((1.0, 0.0), 0.25)], bands=[
            ((0.0, math.pi), 0.5 / math.pi), ((4.0, 4.0 + 0.25 * math.pi), 1.0 / math.pi)])

        def f(d):
            th = np.arctan2(d[:, 1], d[:, 0])
            return np.abs(np.sin(th - 0.7)) * np.exp(d[:, 0])

        assert sphere_integrate(m, f) == reference_sphere_integrate(m, f)

    @pytest.mark.parametrize("name", sorted(BANDS_3D))
    def test_3d_symmetry_functions(self, name):
        band = BANDS_3D[name]
        m = make_banded_measure(3, [band])
        for f in smooth_integrands(3):
            assert sphere_integrate(m, f, tol=1e-12) == pytest.approx(
                tensor_reference(band, f), rel=1e-14, abs=1e-14)

    def test_3d_block_size_does_not_matter(self, block, monkeypatch):
        # the kink of |k.phi|^1.3 is not split here, so the panels are many
        m = make_banded_measure(3, [BANDS_3D["hemisphere"]])

        def f(d):
            return np.abs(d @ [0.3, -1.2, 0.8]) ** 1.3

        got = sphere_integrate(m, f, tol=1e-9)
        monkeypatch.setattr(measures_mod, "_BLOCK_PANELS", 10 ** 6)
        assert got == sphere_integrate(m, f, tol=1e-9)

    def test_3d_exp_closed_form(self):
        # the average of exp(a.phi) over the sphere is sinh|a| / |a|
        for a in np.random.default_rng(37).normal(scale=2.0, size=(3, 3)):
            r = float(np.linalg.norm(a))
            got = sphere_integrate(uniform_measure(3), lambda d: np.exp(d @ a), tol=1e-12)
            assert got == pytest.approx(math.sinh(r) / r, rel=1e-13)

    def test_3d_moments_closed_form(self):
        # nine (theta, phi) cells of unequal density; each moment is a sum
        # over the cells of a theta integral times a phi integral
        tb, pb = (0.0, 0.7, 1.9, math.pi), (0.0, 2.0, 4.1, _TWO_PI)
        cells = [AngularBand((tb[i], tb[i + 1], pb[j], pb[j + 1]), 1.0 + 3 * i + j)
                 for i in range(3) for j in range(3)]
        total = sum(c.mass() for c in cells)
        m = make_banded_measure(3, [AngularBand(c.bounds, c.density / total) for c in cells])
        # antiderivatives of sin(t) * (sin^2, sin^3, sin cos, sin^2 cos, cos^2)
        # / sin(t) in theta, and of 1, cos, sin, cos^2, sin^2, cos sin in phi
        theta = {"ss": lambda t: t / 2 - math.sin(2 * t) / 4,
                 "sss": lambda t: math.cos(t) ** 3 / 3 - math.cos(t),
                 "sc": lambda t: math.sin(t) ** 2 / 2, "ssc": lambda t: math.sin(t) ** 3 / 3,
                 "scc": lambda t: -math.cos(t) ** 3 / 3}
        phi = {"1": lambda p: p, "c": math.sin, "s": lambda p: -math.cos(p),
               "cc": lambda p: p / 2 + math.sin(2 * p) / 4,
               "ss": lambda p: p / 2 - math.sin(2 * p) / 4, "cs": lambda p: math.sin(p) ** 2 / 2}

        def closed(t, p):
            return sum(b.density * (theta[t](b.bounds[1]) - theta[t](b.bounds[0]))
                       * (phi[p](b.bounds[3]) - phi[p](b.bounds[2])) for b in m.bands)

        mom = moments(m)
        for i, (t, p) in enumerate([("ss", "c"), ("ss", "s"), ("sc", "1")]):
            assert abs(mom.mean[i] - closed(t, p)) <= 1e-14
        for (i, j), (t, p) in {(0, 0): ("sss", "cc"), (0, 1): ("sss", "cs"),
                               (0, 2): ("ssc", "c"), (1, 1): ("sss", "ss"),
                               (1, 2): ("ssc", "s"), (2, 2): ("scc", "1")}.items():
            assert abs(mom.covariance[i, j] - closed(t, p)) <= 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_3d_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite integrand value on the sphere"):
            sphere_integrate(uniform_measure(3), lambda d: 1.0 / (d[:, 0] - d[:, 0]))


class TestDepthCaps:
    """Integrands no panel rule resolves, so refinement stops at depth 40:
    one coarse call plus one call per level, 41 levels, in each loop."""

    def count(self, monkeypatch, measure, f):
        monkeypatch.setattr(measures_mod, "_BLOCK_PANELS", 10 ** 6)
        calls = []

        def counted(d):
            calls.append(len(d))
            return f(d)

        value = sphere_integrate(measure, counted, tol=0.0)
        return value, len(calls)

    def test_2d_jump(self, monkeypatch):
        m = uniform_measure(2)

        def step(d):
            return np.where(np.arctan2(d[:, 1], d[:, 0]) > 1.0, 1.0, 0.0)

        value, calls = self.count(monkeypatch, m, step)
        assert calls == 1 + 41
        assert value == reference_sphere_integrate(m, step, tol=0.0)

    def test_3d_steps(self, monkeypatch):
        # a step across the parallel theta = 1.03, the same on every
        # meridian, and one across the meridian phi = 0.56, on a small band
        bounds = (1.0, 1.1, 0.5, 0.6)
        rho = 1.0 / AngularBand(bounds, 1.0).mass()
        m = make_banded_measure(3, [AngularBand(bounds, rho)])

        def polar(d):
            return np.where(d[:, 2] < math.cos(1.03), 1.0, 0.0)

        def both(d):
            east = d[:, 0] * math.sin(0.56) < d[:, 1] * math.cos(0.56)
            return polar(d) + np.where(east, 1.0, 0.0)

        # each meridian's loop stops at the cap; the azimuthal loop, whose
        # integrand is then constant, accepts its first level
        value, calls = self.count(monkeypatch, m, polar)
        assert calls == 2 * (1 + 41)
        assert value == pytest.approx(rho * 0.1 * (math.cos(1.03) - math.cos(1.1)), rel=1e-12)
        # every meridian's loop stops at the cap, the azimuthal loop at most there
        value, calls = self.count(monkeypatch, m, both)
        assert calls % (1 + 41) == 0 and 2 < calls // (1 + 41) <= 1 + 41
        assert value == pytest.approx(rho * (0.1 * (math.cos(1.03) - math.cos(1.1))
                                             + 0.04 * (math.cos(1.0) - math.cos(1.1))), rel=1e-12)


class TestPanelBudget:
    """Integrands that are noisy at rounding level along a whole arc never
    pass the halves test, so their active panels double at every level; the
    budget stops them with NumericalError long before memory runs out."""

    def raises(self, measure, f):
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="panels of one integrand"):
                sphere_integrate(measure, f, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_2d_noisy_arc(self):
        # |phi|^2 of a computed unit vector is 1 or 1 +- 1 ulp: a step everywhere
        m = make_banded_measure(2, [AngularBand((0.0, 1.0), 1.0)])
        self.raises(m, lambda d: np.where(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] > 1.0, 1.0, 0.0))

    def test_3d_azimuth_step_through_arctan2(self):
        # arctan2(d_y, d_x) is phi only to rounding, so near phi = 0.58 the
        # step flips along the meridian, and that meridian's loop never ends
        bounds = (1.0, 1.1, 0.5, 0.6)
        m = make_banded_measure(3, [AngularBand(bounds, 1.0 / AngularBand(bounds, 1.0).mass())])
        self.raises(m, lambda d: np.where(np.arctan2(d[:, 1], d[:, 0]) > 0.58, 1.0, 0.0))

    def test_budget_is_per_integrand(self, monkeypatch):
        # the 44 wavenumbers start with more than 10 panels together, and
        # none of them holds more than 10 at one level
        pts = wavenumbers()
        bands = fig1_measure().bands
        g = INTEGRANDS_OF_U["tempered"]
        want = _adaptive_bands(pts, bands, g, 1e-12)
        monkeypatch.setattr(measures_mod, "_PANEL_BUDGET", 10)
        assert np.array_equal(_adaptive_bands(pts, bands, g, 1e-12), want)
        monkeypatch.setattr(measures_mod, "_PANEL_BUDGET", 9)
        with pytest.raises(NumericalError, match="more than 9 panels of one integrand at depth 3"):
            _adaptive_bands(pts, bands, g, 1e-12)
