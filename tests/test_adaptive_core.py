"""The level-synchronous adaptive band quadrature against the depth-first
pass it replaced.  That pass is kept here verbatim as the reference, and every
case asserts equal values, not close ones: the batched core visits the same
panels and adds their sums in the same order."""

import math
from functools import partial

import numpy as np
import pytest

import anisolap.measures as measures_mod
import anisolap.symbols as symbols_mod
from anisolap.measures import (
    _TWO_PI,
    AngularBand,
    StabilityProfile,
    _angles_to_dirs_2d,
    _angles_to_dirs_3d,
    _gl,
    make_banded_measure,
    make_measure,
    sphere_integrate,
    uniform_measure,
)
from anisolap.symbols import (
    _adaptive_bands,
    _bracket,
    beta1_symbol,
    general_profile_symbol,
    tempered_symbol,
)


# ---------------------------------------------------------------------------
# the depth-first reference
# ---------------------------------------------------------------------------

def _segment_nodes(a, b, order):
    x, w = _gl(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def reference_band(band, f, tol, split_angles, order=15):
    """Adaptive composite Gauss-Legendre over one band."""
    if band.dimension == 2:
        t0, t1 = band.bounds
        cuts = sorted({t0, t1} | {
            t0 + ((s - t0) % _TWO_PI)
            for s in split_angles
            if t0 + 1e-13 < t0 + ((s - t0) % _TWO_PI) < t1 - 1e-13
        })

        def eval_seg(a, b):
            x, w = _segment_nodes(a, b, order)
            vals = f(_angles_to_dirs_2d(x))
            if not np.all(np.isfinite(vals)):
                raise ValueError("non-finite integrand value on the sphere")
            return np.sum(w * vals)

        total = 0.0 + 0.0j
        stack = [(a, b, eval_seg(a, b), 0) for a, b in zip(cuts[:-1], cuts[1:])]
        while stack:
            a, b, coarse, depth = stack.pop()
            mid = 0.5 * (a + b)
            left, right = eval_seg(a, mid), eval_seg(mid, b)
            if abs(left + right - coarse) < max(tol, 1e-16) or depth >= 40:
                total += left + right
            else:
                stack.append((a, mid, left, depth + 1))
                stack.append((mid, b, right, depth + 1))
        return complex(total) * band.density

    t0, t1, p0, p1 = band.bounds

    def eval_rect(c0, c1, q0, q1):
        xt, wt = _segment_nodes(c0, c1, 7)
        xp, wp = _segment_nodes(q0, q1, 7)
        CT, PH = np.meshgrid(xt, xp, indexing="ij")
        theta = np.arccos(np.clip(CT.ravel(), -1.0, 1.0))
        vals = f(_angles_to_dirs_3d(theta, PH.ravel()))
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand value on the sphere")
        return np.sum(np.outer(wt, wp).ravel() * vals)

    c0, c1 = math.cos(t1), math.cos(t0)
    total = 0.0 + 0.0j
    stack = [(c0, c1, p0, p1, eval_rect(c0, c1, p0, p1), 0)]
    while stack:
        a, b, q0, q1, coarse, depth = stack.pop()
        am, qm = 0.5 * (a + b), 0.5 * (q0 + q1)
        parts = [
            (a, am, q0, qm), (am, b, q0, qm), (a, am, qm, q1), (am, b, qm, q1)
        ]
        fine_vals = [eval_rect(*p) for p in parts]
        fine = sum(fine_vals)
        if abs(fine - coarse) < max(tol, 1e-16) or depth >= 14:
            total += fine
        else:
            for p, v in zip(parts, fine_vals):
                stack.append((*p, v, depth + 1))
    return complex(total) * band.density


def reference_adaptive_bands(pts, bands, integrand_of_u, tol):
    """Per-point adaptive band integration with kink-aware splitting (2D)."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for p in range(pts.shape[0]):
        kvec = pts[p]
        splits = ()
        if pts.shape[1] == 2 and (kvec[0] != 0 or kvec[1] != 0):
            tk = math.atan2(kvec[1], kvec[0])
            splits = (tk - 0.5 * math.pi, tk + 0.5 * math.pi)
        for band in bands:
            out[p] += reference_band(
                band, lambda d: integrand_of_u(d @ kvec), tol, splits
            )
    return out


def reference_sphere_integrate(measure, integrand, tol=1e-10, split_angles=(), order=15):
    total = 0.0 + 0.0j
    for d, w in measure.atoms:
        val = np.asarray(integrand(d[None, :]))[0]
        if not np.isfinite(complex(val)):
            raise ValueError("non-finite integrand value on the sphere")
        total += w * complex(val)
    n_bands = max(1, len(measure.bands))
    for band in measure.bands:
        total += reference_band(band, integrand, tol / n_bands,
                                split_angles, order=order)
    return complex(total)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def fig1_measure():
    return make_banded_measure(2, [((0.0, math.pi), 2.0 / (3.0 * math.pi)),
                                   ((math.pi, _TWO_PI), 1.0 / (3.0 * math.pi))])


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
    def test_matches_depth_first(self, name, g):
        pts = wavenumbers()
        bands = MEASURES_2D[name]().bands
        new = _adaptive_bands(pts, bands, INTEGRANDS_OF_U[g], 1e-12)
        ref = reference_adaptive_bands(pts, bands, INTEGRANDS_OF_U[g], 1e-12)
        assert np.array_equal(new, ref)

    def test_block_size_does_not_matter(self, block):
        pts = wavenumbers()
        bands = fig1_measure().bands
        g = INTEGRANDS_OF_U["tempered"]
        assert np.array_equal(_adaptive_bands(pts, bands, g, 1e-12),
                              reference_adaptive_bands(pts, bands, g, 1e-12))

    def test_no_wavenumbers(self):
        out = _adaptive_bands(np.zeros((0, 2)), fig1_measure().bands,
                              INTEGRANDS_OF_U["tempered"], 1e-12)
        assert out.shape == (0,) and out.dtype == complex

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite integrand value on the sphere"):
            _adaptive_bands(wavenumbers(), fig1_measure().bands,
                            lambda u: 1.0 / (u - u), 1e-12)


class TestSymbolsAdaptive:
    def both(self, monkeypatch, call):
        new = call()
        monkeypatch.setattr(symbols_mod, "_adaptive_bands", reference_adaptive_bands)
        return new, call()

    def test_tempered(self, monkeypatch):
        new, ref = self.both(monkeypatch, lambda: tempered_symbol(
            fig1_measure(), 1.3, 0.7, wavenumbers(), method="adaptive"))
        assert np.array_equal(new, ref)

    def test_tempered_3d(self, monkeypatch):
        m = make_banded_measure(3, [BANDS_3D["hemisphere"]])
        k = np.array([[0.0, 0.0, 0.0], [0.3, -1.2, 0.8], [2.0, 0.5, -4.0]])
        new, ref = self.both(monkeypatch, lambda: tempered_symbol(
            m, 1.3, 0.7, k, method="adaptive", tol=1e-6))
        assert np.array_equal(new, ref)

    def test_beta1(self, monkeypatch):
        new, ref = self.both(monkeypatch, lambda: beta1_symbol(
            halves_measure(), 0.5, wavenumbers(), method="adaptive"))
        assert np.array_equal(new, ref)

    def test_general_profile(self, monkeypatch):
        profile = StabilityProfile((1.3, 1.7), (0.3, 0.0))
        new, ref = self.both(monkeypatch, lambda: general_profile_symbol(
            fig1_measure(), profile, wavenumbers(), method="adaptive"))
        assert np.array_equal(new, ref)


class TestSphereIntegrate:
    def test_2d_split_angles(self):
        m = make_measure(2, atoms=[((1.0, 0.0), 0.25)], bands=[
            ((0.0, math.pi), 0.5 / math.pi), ((4.0, 4.0 + 0.25 * math.pi), 1.0 / math.pi)])

        def f(d):
            th = np.arctan2(d[:, 1], d[:, 0])
            return np.abs(np.sin(th - 0.7)) * np.exp(d[:, 0])

        for splits in [(), (0.7, 0.7 + math.pi, 4.3)]:
            assert (sphere_integrate(m, f, split_angles=splits)
                    == reference_sphere_integrate(m, f, split_angles=splits))

    @pytest.mark.parametrize("name", sorted(BANDS_3D))
    def test_3d_symmetry_functions(self, name):
        m = make_banded_measure(3, [BANDS_3D[name]])
        for f in smooth_integrands(3):
            assert sphere_integrate(m, f, tol=1e-7) == reference_sphere_integrate(m, f, tol=1e-7)

    def test_3d_block_size_does_not_matter(self, block):
        m = make_banded_measure(3, [BANDS_3D["hemisphere"]])
        f = smooth_integrands(3)[-1]
        assert sphere_integrate(m, f, tol=1e-9) == reference_sphere_integrate(m, f, tol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_3d_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite integrand value on the sphere"):
            sphere_integrate(uniform_measure(3), lambda d: 1.0 / (d[:, 0] - d[:, 0]))


class TestDepthCaps:
    """Integrands no panel rule resolves, so refinement stops at the cap:
    one coarse call plus one call per level, 41 levels in 2D and 15 in 3D."""

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

    def test_3d_point_discontinuity(self, monkeypatch):
        # bounded, smooth except at d0, where its limit depends on the
        # direction; a small band keeps the panels around d0 few
        bounds = (1.0, 1.1, 0.5, 0.6)
        m = make_banded_measure(3, [AngularBand(bounds, 1.0 / AngularBand(bounds, 1.0).mass())])
        d0 = _angles_to_dirs_3d(np.array(1.03), np.array(0.56))

        def kink(d):
            diff = d - d0
            return diff[:, 0] / np.linalg.norm(diff, axis=-1)

        value, calls = self.count(monkeypatch, m, kink)
        assert calls == 1 + 15
        assert value == reference_sphere_integrate(m, kink, tol=0.0)
