"""The constant-profile operators are the profile operators with one (beta,
lam) on every component, and both go through one measure-quadrature core
(symbols) and one builder of kernel blocks (real space).  So the two routes
must give equal values, not close ones; and so must real-space case I and
case II above exponent 1 on a symmetric measure, which share that block."""

import math

import numpy as np
import pytest

from anisolap.measures import (
    StabilityProfile,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    uniform_measure,
)
import anisolap.symbols as symbols
from anisolap.realspace import apply_caseI, apply_caseII, apply_general, gaussian_bump
from anisolap.symbols import general_profile_symbol, tempered_symbol

TWO_PI = 2.0 * math.pi

MEASURES = {
    "atoms": lambda: make_atomic_measure(2, [((1.0, 0.0), 0.6), ((-0.6, 0.8), 0.4)]),
    "fig1": lambda: make_banded_measure(2, [((0.0, math.pi), 2.0 / (3.0 * math.pi)),
                                            ((math.pi, TWO_PI), 1.0 / (3.0 * math.pi))]),
    "mixed": lambda: make_measure(2, atoms=[((1.0, 0.0), 0.25)], bands=[
        ((0.0, math.pi), 0.5 / math.pi), ((4.0, 4.0 + 0.25 * math.pi), 1.0 / math.pi)]),
    "hemisphere_3d": lambda: make_banded_measure(
        3, [((0.0, 0.5 * math.pi, 0.0, TWO_PI), 1.0 / TWO_PI)]),
}


def wavenumbers(n, rows):
    rng = np.random.default_rng(7)
    return np.vstack([np.zeros(n), rng.normal(scale=3.0, size=(rows, n))])


# 3D bands take adaptive quadrature on at most 64 wavenumbers and the fixed
# nodes, here at refinement 32, on more
@pytest.mark.parametrize("name", sorted(MEASURES))
@pytest.mark.parametrize("rows", [12, 79], ids=["adaptive", "nodes"])
@pytest.mark.parametrize("beta, lam", [(0.6, 0.0), (0.6, 0.4), (1.3, 0.0), (1.3, 0.7)])
def test_tempered_is_constant_profile(monkeypatch, name, rows, beta, lam):
    monkeypatch.setattr(symbols, "_NODES_REFINEMENT", 32)
    m = MEASURES[name]()
    k = wavenumbers(m.dimension, rows)
    prof = StabilityProfile.constant(m, beta, lam)
    assert np.array_equal(tempered_symbol(m, beta, lam, k),
                          general_profile_symbol(m, prof, k))


ONE_COMPONENT = {
    "arc": lambda: make_banded_measure(2, [((0.3, 2.2), 1.0 / 1.9)]),
    "uniform": lambda: uniform_measure(2),
    "atom": lambda: make_atomic_measure(2, [((0.6, 0.8), 1.0)]),
}


REAL_SPACE = {**ONE_COMPONENT, **MEASURES}
POINTS = np.array([[0.0, 0.0, 0.1], [0.3, -0.2, 0.0], [-0.5, 0.4, -0.3]])


@pytest.mark.parametrize("name", sorted(REAL_SPACE))
@pytest.mark.parametrize("case, beta, lam", [("I", 0.6, 0.4), ("II", 1.5, 0.0), ("II", 1.3, 0.7)])
def test_general_is_one_component_case(name, case, beta, lam):
    m = REAL_SPACE[name]()
    field = gaussian_bump(m.dimension, width=0.8)
    pts = POINTS[:, :m.dimension]
    fn = apply_caseI if case == "I" else apply_caseII
    got = apply_general(field, m, StabilityProfile.constant(m, beta, lam), pts)
    assert np.array_equal(got, fn(field, m, beta, lam, pts))


SYMMETRIC = {
    "uniform": lambda: uniform_measure(2),
    "halves": lambda: make_banded_measure(2, [((0.0, math.pi), 0.5 / math.pi),
                                              ((math.pi, TWO_PI), 0.5 / math.pi)]),
    "cross": lambda: make_atomic_measure(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
@pytest.mark.parametrize("beta, lam", [(1.5, 0.0), (1.3, 0.7)])
def test_caseI_is_caseII_above_one(name, beta, lam):
    m = SYMMETRIC[name]()
    field = gaussian_bump(2, width=0.8)
    pts = POINTS[:, :2]
    assert np.array_equal(apply_caseI(field, m, beta, lam, pts),
                          apply_caseII(field, m, beta, lam, pts))
