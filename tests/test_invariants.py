"""The generator invariants of every GeneratorSymbol kind on random atom and
band measures: psi(0) == 0 exactly, Re psi <= 0 up to the slack of
GeneratorSymbol.evaluate, psi(-k) == conj psi(k), and a jump law on the same
measure has jump_cf(spec, 0) == 1.  The exponent-1 kind gets its measures
symmetrised exactly, which measures.is_symmetric must accept.

psi(-k) == conj psi(k) holds bit for bit on every route: the measure
integrals evaluate one member of each pair +-k and conjugate for the other,
and the remaining kinds see k only through even or odd functions of it."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisolap.symbols as symbols_mod
from anisolap.measures import (
    AngularBand,
    StabilityProfile,
    is_symmetric,
    make_measure,
    uniform_measure,
)
from anisolap.sampler import JumpSpec, jump_cf
from anisolap.symbols import GeneratorSymbol

TWO_PI = 2.0 * math.pi
FAST = settings(max_examples=60, deadline=None, database=None, derandomize=True)

positive = st.floats(0.05, 5.0)
exponent = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 1.95))
density = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
rate = st.sampled_from([0.3, 0.0, 2.0])


def edges(draw, lo, span, max_cuts):
    cuts = draw(st.sets(st.integers(1, 19), max_size=max_cuts))
    return [lo + span * c / 20 for c in [0, *sorted(cuts), 20]]


def reflected(bounds):
    """The bounds of the band's image under phi -> -phi."""
    if len(bounds) == 2:
        return (bounds[0] + math.pi, bounds[1] + math.pi)
    t0, t1, p0, p1 = bounds
    return (math.pi - t1, math.pi - t0, p0 + math.pi, p1 + math.pi)


@st.composite
def measures(draw, dimension, symmetric=False):
    """Atoms, bands or both, scaled to mass 1.  2D bands cut an arc at a
    random offset, 3D bands a (theta, phi) grid whose azimuths may wrap past
    2 pi; some have density 0.  With symmetric, each atom and band covers
    half the sphere at most and comes with its exact reflection."""
    layout = "atoms" if dimension == 1 else draw(st.sampled_from(["bands", "both", "atoms"]))
    atoms = []
    for _ in range(0 if layout == "bands" else draw(st.integers(1, 3))):
        if dimension == 1:
            d = np.array([draw(st.sampled_from([1.0, -1.0]))])
        else:
            d = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dimension,
                                       max_size=dimension)))
            if np.linalg.norm(d) < 0.1:
                d = np.eye(dimension)[0]
        atoms.append((d, draw(st.floats(0.1, 1.0))))
    bands = []
    if dimension == 2 and layout != "atoms":
        t = edges(draw, draw(st.floats(0.0, TWO_PI)), math.pi if symmetric else TWO_PI, 3)
        bands = [((a, b), draw(density)) for a, b in zip(t, t[1:])]
    if dimension == 3 and layout != "atoms":
        t = edges(draw, 0.0, math.pi, 2)
        p = edges(draw, draw(st.floats(0.0, TWO_PI)), math.pi if symmetric else TWO_PI, 2)
        bands = [((t0, t1, p0, p1), draw(density))
                 for t0, t1 in zip(t, t[1:]) for p0, p1 in zip(p, p[1:])]
    if symmetric:
        atoms += [(-d, w) for d, w in atoms]
        bands += [(reflected(b), rho) for b, rho in bands]
    total = sum(w for _, w in atoms) + sum(AngularBand(b, rho).mass() for b, rho in bands)
    if total == 0.0:
        return uniform_measure(dimension)
    return make_measure(dimension, atoms=[(d, w / total) for d, w in atoms],
                        bands=[(b, rho / total) for b, rho in bands])


@st.composite
def cases(draw, kind):
    """(symbol, a jump law on the same measure or of the same family, the
    most wavenumbers on which its 3D bands take adaptive quadrature): the
    kinds that integrate over bands draw their 3D rule, the fixed nodes (-1),
    the rule's own choice or adaptive quadrature (inf)."""
    dim = 2 if kind == "gaussian_aniso" else draw(st.sampled_from([2, 3, 1]))
    m = draw(measures(dim, symmetric=kind == "beta1_aniso"))
    beta, lam = draw(exponent), draw(rate)
    kw = {"zeta": draw(positive)}
    adaptive_max = symbols_mod._ADAPTIVE_MAX
    if kind in ("stable_aniso", "tempered_aniso", "beta1_aniso", "general_profile"):
        adaptive_max = draw(st.sampled_from([-1, adaptive_max, math.inf]))
    spec = JumpSpec("tempered_stable", dim, measure=m, beta=beta, lam=lam,
                    r0=draw(st.floats(1e-3, 1.0)))
    if kind in ("gaussian_iso", "gaussian_axes"):
        kw["sigma"] = draw(positive)
        spec = JumpSpec(kind, dim, sigma=kw["sigma"])
    elif kind == "isotropic_reference":
        kw.update(beta=beta, lam=lam)
    else:
        kw["measure"] = m
    if kind == "gaussian_aniso":
        kw["sigmas"] = tuple(draw(positive) for _ in range(m.n_components))
        spec = JumpSpec(kind, dim, measure=m, sigmas=kw["sigmas"])
    if kind in ("stable_aniso", "tempered_aniso"):
        kw["beta"] = beta
    if kind in ("tempered_aniso", "beta1_aniso", "beta2_quadratic"):
        kw["lam"] = lam
    if kind == "beta1_aniso":
        spec = JumpSpec("tempered_stable", dim, measure=m, beta=1.0, lam=lam, r0=spec.r0)
    if kind == "general_profile":
        size = m.n_components
        kw["profile"] = StabilityProfile(
            tuple(draw(exponent) for _ in range(size)),
            tuple(draw(rate) for _ in range(size)))
    return GeneratorSymbol(kind, dim, **kw), spec, adaptive_max


@pytest.mark.filterwarnings("ignore::anisolap.symbols.MixedStabilityRangeWarning")
@pytest.mark.parametrize("kind", symbols_mod._KINDS)
@FAST
@given(data=st.data())
def test_generator_invariants(kind, data):
    sym, spec, adaptive_max = data.draw(cases(kind))
    n = sym.dimension
    k = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=3 * n, max_size=3 * n)))
    k = np.vstack([np.zeros(n), k.reshape(3, n)])
    with mock.patch.object(symbols_mod, "_ADAPTIVE_MAX", adaptive_max):
        plus, minus = sym.evaluate(k), sym.evaluate(-k)
    assert plus[0] == 0 and minus[0] == 0
    slack = 1e-10 * max(1.0, float(np.abs(plus).max()))
    assert np.all(plus.real <= slack) and np.all(minus.real <= slack)
    assert np.array_equal(minus, np.conj(plus))
    assert jump_cf(spec, np.zeros(n)) == 1
    if kind == "beta1_aniso":
        assert is_symmetric(sym.measure)
