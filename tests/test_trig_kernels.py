"""The trigonometric kernels against independent references.

measures._half_angle_trig (cos x and sin x from t = tan(x/2)) and the
direction map built on it, measures._unit_vectors, against np.cos and np.sin,
and symbols._bracket ((lam - i u)^beta - lam^beta) against 40-digit mpmath."""

import math

import numpy as np
import pytest

import anisolap.sampler as sampler
from anisolap.measures import (
    AngularBand, _composite_gl, _half_angle_trig, _unit_vectors, band_nodes, make_banded_measure,
)
from anisolap.symbols import _bracket

ULP1 = 2.0 ** -52  # one ulp of 1
TWO_PI = 2.0 * math.pi


def half_angle(x):
    x = np.asarray(x, dtype=float)
    c, s = np.empty_like(x), np.empty_like(x)
    _half_angle_trig(np.tan(0.5 * x), c, s)
    return c, s


def assert_near_libm(x):
    c, s = half_angle(x)
    assert np.all(np.abs(c - np.cos(x)) <= ULP1)
    assert np.all(np.abs(s - np.sin(x)) <= ULP1)


class TestHalfAngle:
    def test_uniform_angles(self):
        assert_near_libm(np.random.default_rng(0).uniform(0.0, TWO_PI, 10 ** 6))

    def test_edges(self):
        pi = math.pi
        x = np.array([0.0, -0.0, pi, np.nextafter(pi, 0.0), np.nextafter(pi, 4.0),
                      np.nextafter(TWO_PI, 0.0), 0.5 * pi, -0.5 * pi, 1e-300, -1e-9])
        assert_near_libm(x)
        c, s = half_angle(x)
        assert c[0] == 1.0 and s[0] == 0.0 and c[2] == -1.0
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))

    def test_angles_outside_one_turn(self):
        # band bounds are not normalised: arcs below 0 and past 2 pi
        rng = np.random.default_rng(1)
        assert_near_libm(np.concatenate([rng.uniform(-40.0, 0.0, 10 ** 5),
                                         rng.uniform(TWO_PI, 40.0, 10 ** 5),
                                         [-TWO_PI, 3.0 * math.pi, 1e3, -1e4]]))

    def test_3d_band_rows(self):
        # azimuths of a 3D band that wraps past 2 pi, written into the rows of
        # a (3, n) block and into the parts of a complex array: strided
        # outputs take the same bits as contiguous ones
        phi = np.random.default_rng(2).uniform(5.0, 5.0 + TWO_PI, 4099)
        assert_near_libm(phi)
        c, s = half_angle(phi)
        rows = np.empty((3, len(phi)))
        _half_angle_trig(np.tan(0.5 * phi), rows[0], rows[1])
        parts = np.empty(len(phi), dtype=complex)
        _half_angle_trig(np.tan(0.5 * phi), parts.real, parts.imag)
        for got_c, got_s in ((rows[0], rows[1]), (parts.real, parts.imag)):
            assert np.array_equal(got_c, c) and np.array_equal(got_s, s)

    @pytest.mark.parametrize("bounds", [(0.2, 1.1, 0.5, 4.0), (0.0, math.pi, 5.0, 5.0 + TWO_PI)])
    def test_3d_band_directions(self, bounds):
        # the sampler's directions against the same draws through np.cos/np.sin
        t0, t1, p0, p1 = bounds
        m = make_banded_measure(3, [(bounds, 1.0 / ((math.cos(t0) - math.cos(t1)) * (p1 - p0)))])
        n = 3 * sampler._SLICE + 17
        rng = np.random.default_rng(3)
        rng.random(n)
        ct = rng.uniform(math.cos(t1), math.cos(t0), n)
        phi = rng.uniform(p0, p1, n)
        st = np.sqrt(1.0 - ct * ct)
        want = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
        got = sampler.sample_direction(m, np.random.default_rng(3), size=n)
        assert np.array_equal(got[:, 2], want[:, 2])
        assert np.all(np.abs(got - want) <= 2.0 * ULP1)


def wrapped_angles(rng, n):
    return np.concatenate([rng.uniform(-40.0, 40.0, n),
                           [0.0, math.pi, -math.pi, TWO_PI, 3.0 * math.pi, -0.5 * math.pi]])


class TestUnitVectors:
    def test_2d_against_libm(self):
        phi = wrapped_angles(np.random.default_rng(5), 10 ** 5)
        d = _unit_vectors(phi)
        assert d.shape == (len(phi), 2)
        assert np.all(np.abs(d[:, 0] - np.cos(phi)) <= 2.0 * ULP1)
        assert np.all(np.abs(d[:, 1] - np.sin(phi)) <= 2.0 * ULP1)

    def test_3d_against_libm(self):
        rng = np.random.default_rng(6)
        phi = wrapped_angles(rng, 10 ** 5)
        ct = rng.uniform(-1.0, 1.0, len(phi))
        ct[:3] = [-1.0, 0.0, 1.0]
        st = np.sqrt(1.0 - ct * ct)
        d = _unit_vectors(phi, ct)
        assert d.shape == (len(phi), 3)
        assert np.all(np.abs(d[:, 0] - st * np.cos(phi)) <= 2.0 * ULP1)
        assert np.all(np.abs(d[:, 1] - st * np.sin(phi)) <= 2.0 * ULP1)
        assert np.array_equal(d[:, 2], ct)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_in_place_rows_match_fresh(self, dim):
        # the sampler's use: phi in row 1 and cos theta in row 2 of the output
        rng = np.random.default_rng(7)
        phi, ct = rng.uniform(-10.0, 10.0, 1001), rng.uniform(-1.0, 1.0, 1001)
        want = _unit_vectors(phi, ct if dim == 3 else None)
        rows = np.zeros((dim, len(phi)))
        rows[1] = phi
        if dim == 3:
            rows[2] = ct
        got = _unit_vectors(rows[1], rows[2] if dim == 3 else None, out=rows)
        assert got is rows and np.array_equal(rows.T, want)
        # a panel block (P, M) gives (P, M, n) with the same bits
        block = _unit_vectors(phi[:1000].reshape(8, 125), ct[:1000].reshape(8, 125)
                              if dim == 3 else None)
        assert np.array_equal(block.reshape(-1, dim), want[:1000])

    @pytest.mark.parametrize("bounds", [(0.2, 1.2, 0.5, 4.0), (0.0, math.pi, 0.0, TWO_PI)])
    def test_3d_band_nodes_z_is_the_rule(self, bounds):
        # z is the rule's cos theta node itself, not cos(arccos(node))
        t0, t1 = bounds[:2]
        dirs, _ = band_nodes(AngularBand(bounds, 1.0), refinement=96)
        ct, _ = _composite_gl(np.linspace(math.cos(t1), math.cos(t0), 96 // 4 + 1), 8)
        assert np.array_equal(dirs[:, 2], np.repeat(ct, len(dirs) // len(ct)))


BETAS = [0.3, 0.8, 1.3, 1.7, 1.99]
LAMS = [0.0, 1e-3, 0.5, 3.0]
U = np.array([0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, 1e3, -1e3, 1e6, -1e6])


class TestBracket:
    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_against_mpmath(self, beta, lam):
        mpmath = pytest.importorskip("mpmath")
        got = _bracket(U, beta, lam)
        with mpmath.workdps(40):
            b, lm = mpmath.mpf(beta), mpmath.mpf(lam)
            for u, g in zip(U.tolist(), got.tolist()):
                z = lm - 1j * mpmath.mpf(u)
                want = z ** b - lm ** b if u else mpmath.mpc(0)
                # relative to the size of the two terms; a value below the
                # double range rounds to 0 or the smallest subnormal
                bound = 1e-15 * (abs(z) ** b + lm ** b) + np.finfo(float).smallest_subnormal
                assert abs(mpmath.mpc(g) - want) <= bound, (u, g, complex(want))

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_zero_and_conjugate_symmetry(self, beta, lam):
        got = _bracket(U, beta, lam)
        assert got[0] == 0
        assert np.array_equal(_bracket(-U, beta, lam), np.conj(got))
        assert abs(_bracket(U[7], beta, lam) - got[7]) <= 1e-15 * abs(got[7])  # a 0-d u
        u = np.random.default_rng(4).standard_normal((7, 300)) * 10.0
        assert np.array_equal(_bracket(-u, beta, lam), np.conj(_bracket(u, beta, lam)))
