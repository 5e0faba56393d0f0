"""anisolap._special against scipy and against mpmath.

scipy is a test-only dependency here; the mpmath cases skip when mpmath is
absent.  The relative bounds are set a little above the largest error
measured on these grids."""

import math

import numpy as np
import pytest
import scipy.linalg as sl
import scipy.special as sc

from anisolap._special import dawsn, expm, incbeta, lower_gamma, upper_gamma, zetac_table
from anisolap.realspace import radial_moment_upper


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


def rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

XS = [1e-8, 1e-3, 0.3, 0.5, 0.99, 1.0, 1.5, 2.0, 3.4, 7.5, 30.0]


@pytest.mark.parametrize("a", [0.0, -1.0, -2.0, -0.5, -1.3, 2.5, -0.01, 0.01, 0.7, 1.0])
def test_upper_gamma_every_real_order(mp, a):
    for x in XS:
        assert rel(upper_gamma(a, x), float(mp.gammainc(a, x))) < 2e-14, x


def test_upper_gamma_at_poles_of_gamma():
    # a downward recurrence in a divides by a + m = 0 at integer a <= 0
    assert upper_gamma(-1.0, 0.5) == pytest.approx(0.6532877, rel=1e-7)
    assert radial_moment_upper(0, 1.0, 0.5, 2.0) == 0.5 * upper_gamma(-1.0, 1.0)
    assert math.isfinite(upper_gamma(-1.0, 1.0))
    with pytest.raises(ValueError):
        upper_gamma(0.5, 0.0)


@pytest.mark.parametrize("a", [0.01, 0.3, 0.7, 1.0, 1.3, 2.5, 3.7])
def test_lower_gamma(mp, a):
    for x in XS:
        assert rel(lower_gamma(a, x), float(mp.gammainc(a, 0, x))) < 2e-15, x
    assert lower_gamma(a, 0.0) == 0.0


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 7.0])
def test_incomplete_gamma_against_scipy(a):
    for x in XS:
        assert rel(lower_gamma(a, x), sc.gammainc(a, x) * sc.gamma(a)) < 2e-14, x
        assert rel(upper_gamma(a, x), sc.gammaincc(a, x) * sc.gamma(a)) < 2e-14, x


# ---------------------------------------------------------------------------
# zeta(n) - 1 and Gauss-Hermite nodes
# ---------------------------------------------------------------------------

def test_zetac_table_is_scipys_bit_for_bit():
    table = zetac_table()
    assert np.array_equal(table, sc.zetac(np.arange(2, 60)))
    assert not table.flags.writeable


def test_hermgauss_is_roots_hermite():
    t, w = np.polynomial.hermite.hermgauss(24)
    t_ref, w_ref = sc.roots_hermite(24)
    assert np.max(np.abs(t - t_ref)) < 1e-15
    assert np.max(np.abs(w / w_ref - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# incomplete beta integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.4, 0.8, 1.0, 1.3, 1.9])
@pytest.mark.parametrize("order", ["a_half", "half_a"])
def test_incbeta(mp, beta, order):
    a = 0.5 * (beta + 1.0)
    p, q = (a, 0.5) if order == "a_half" else (0.5, a)
    x = np.sin(np.linspace(0.0, 0.25 * math.pi, 401)) ** 2
    got = incbeta(p, q, x)
    assert got[0] == 0.0
    want = np.array([float(mp.betainc(p, q, 0, mp.mpf(v))) for v in x[1:]])
    assert np.max(np.abs(got[1:] / want - 1.0)) < 2e-15
    assert np.max(np.abs(got[1:] / (sc.betainc(p, q, x[1:]) * sc.beta(p, q)) - 1.0)) < 4e-15


# ---------------------------------------------------------------------------
# Dawson's integral
# ---------------------------------------------------------------------------

def test_dawsn(mp):
    rng = np.random.default_rng(7)
    x = np.concatenate([np.linspace(0.0, 12.0, 1201)[1:], rng.uniform(0.0, 80.0, 400),
                        10.0 ** rng.uniform(-300.0, 0.0, 100),
                        [9.999999999999998, 10.0, 10.000000000000002, 80.0]])
    x = np.concatenate([x, -x])
    want = np.array([float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(v) ** 2) * mp.erfi(mp.mpf(v)))
                     for v in x])
    got = dawsn(x)
    assert np.max(np.abs(got / want - 1.0)) < 2e-15
    assert np.array_equal(dawsn(-x), -got)
    edge = dawsn(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert np.array_equal(np.signbit(edge[:4]), [False, True, False, True])
    assert np.all(edge[:4] == 0.0) and np.isnan(edge[4])


def test_dawsn_against_scipy():
    # sc.dawsn itself is up to 1.6e-14 from mpmath on this block
    x = np.random.default_rng(8).normal(scale=3.0, size=(64, 1536))
    assert np.max(np.abs(dawsn(x) / sc.dawsn(x) - 1.0)) < 3e-14


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expm_against_scipy(n):
    rng = np.random.default_rng(n)
    for scale in (0.01, 0.3, 1.0, 4.0, 20.0):
        a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        want = sl.expm(a)
        # halving is used above theta_13 = 5.37, so the large scales square
        assert np.max(np.abs(expm(a) - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_closed_form():
    # [[x, y], [y, x]] has eigenvectors (1, +-1): exp = e^x [[cosh y, sinh y], [sinh y, cosh y]]
    for x, y in [(0.3, 0.2), (-1.5, 4.0), (2.0 + 1.0j, 11.0 - 3.0j)]:
        got = expm(np.array([[x, y], [y, x]]))
        want = np.exp(x) * np.array([[np.cosh(y), np.sinh(y)], [np.sinh(y), np.cosh(y)]])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
