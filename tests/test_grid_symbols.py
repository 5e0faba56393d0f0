"""Grid symbols: the blocked fixed-node quadrature and the cached grid
route GeneratorSymbol.on_grid."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import anisolap.symbols as symbols
from anisolap._special import dawsn
from anisolap.analysis import mass_conservation_check
from anisolap.evolve import SpectralGrid, gaussian_density
from anisolap.measures import (
    StabilityProfile,
    band_nodes,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    measure_nodes,
    uniform_measure,
)
from anisolap.symbols import (
    _bracket,
    beta1_symbol,
    gaussian_symbol,
    general_profile_symbol,
    make_generator,
    tempered_symbol,
)

TWO_PI = 2.0 * math.pi


def fig1_measure():
    return make_banded_measure(2, [
        ((0.0, math.pi), 2.0 / (3.0 * math.pi)),
        ((math.pi, TWO_PI), 1.0 / (3.0 * math.pi)),
    ])


def mixed_measure():
    return make_measure(2, atoms=[((1.0, 0.0), 0.3)], bands=[
        ((0.0, math.pi), 0.35 / math.pi), ((math.pi, TWO_PI), 0.35 / math.pi)])


def band3d_measure():
    # upper and lower hemispheres with unequal mass
    return make_banded_measure(3, [
        ((0.0, 0.5 * math.pi, 0.0, TWO_PI), 0.7 / TWO_PI),
        ((0.5 * math.pi, math.pi, 0.0, TWO_PI), 0.3 / TWO_PI),
    ])


def grid_k(n, N, half_width=8.0):
    return SpectralGrid(n, half_width, N).k_points()


# ---------------------------------------------------------------------------
# the blocked core against an unblocked per-band reference
# ---------------------------------------------------------------------------

def _reference(pts, node_sets, out):
    for g, dirs, w in node_sets:
        out = out + (g(pts @ dirs.T) * w).sum(axis=1)
    return out


class TestBlockedCore:
    pts = grid_k(2, 64)

    def test_tempered(self):
        m = fig1_measure()
        got = tempered_symbol(m, 0.8, 0.5, self.pts, method="nodes")
        g = lambda u: _bracket(u, 0.8, 0.5)
        sets = [(g, *band_nodes(b, refinement=96, order=8)) for b in m.bands]
        want = -_reference(self.pts, sets, np.zeros(len(self.pts), dtype=complex))
        assert np.array_equal(got, want)

    def test_beta1(self):
        m = uniform_measure(2)
        lam = 0.5
        got = beta1_symbol(m, lam, self.pts, method="nodes")
        g = lambda u: u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)
        sets = [(g, *band_nodes(b, refinement=96, order=8)) for b in m.bands]
        want = -_reference(self.pts, sets, np.zeros(len(self.pts), dtype=complex))
        assert np.array_equal(got, want)

    def test_general_profile(self):
        m = mixed_measure()
        prof = StabilityProfile((0.6, 1.3, 1.7), (0.4, 0.1, 0.2))
        with pytest.warns(symbols.MixedStabilityRangeWarning):
            got = general_profile_symbol(m, prof, self.pts, method="nodes")
        (d, w), = m.atoms
        want = -w * _bracket(self.pts @ d, 0.6, 0.4)
        for band, beta, lam in zip(m.bands, (1.3, 1.7), (0.1, 0.2)):
            g = lambda u, b=beta, l=lam: _bracket(u, b, l)
            want = want + _reference(self.pts, [(g, *band_nodes(band, refinement=96, order=8))],
                                     np.zeros(len(self.pts), dtype=complex))
        assert np.array_equal(got, want)

    def test_gaussian_aniso(self):
        m = fig1_measure()
        sig = np.array([0.8, 1.2])
        got = gaussian_symbol("aniso", self.pts, measure=m, sigmas=sig)
        dirs, w, comp = measure_nodes(m, refinement=96, order=8)
        s = sig[comp]
        u = self.pts @ dirs.T
        dev = (- u * s ** 3 * math.sqrt(2.0) * dawsn(u * s / math.sqrt(2.0))
               + 1j * u * s ** 3 * math.sqrt(0.5 * math.pi) * np.exp(-0.5 * (u * s) ** 2))
        want = (1.0 / np.sum(w * s ** 2)) * (dev * w).sum(axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("P", [1, 2, 255, 256, 257, 513])
    def test_block_edges(self, P):
        # a lone trailing row would take BLAS's matrix-vector path
        m = fig1_measure()
        pts = self.pts[:P]
        g = lambda u: _bracket(u, 1.3, 0.2)
        sets = [(g, *band_nodes(b, refinement=96, order=8)) for b in m.bands]
        want = _reference(pts, sets, np.zeros(P, dtype=complex))  # sign +1 for beta > 1
        assert np.array_equal(tempered_symbol(m, 1.3, 0.2, pts, method="nodes"), want)

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        m = fig1_measure()
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ANISOLAP_THREADS", threads)
            sym = make_generator("tempered_aniso", 2, measure=m, beta=0.8, lam=0.5)
            outs.append((tempered_symbol(m, 1.3, 0.5, self.pts, method="nodes"),
                         gaussian_symbol("aniso", self.pts, measure=m, sigmas=(0.8, 1.2)),
                         sym.on_grid(SpectralGrid(2, 16.0, 64))))
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        m = fig1_measure()
        grid = SpectralGrid(2, 16.0, 32)
        pts = grid.k_points()
        monkeypatch.setenv("ANISOLAP_THREADS", "1")
        want = tempered_symbol(m, 0.8, 0.5, pts, method="nodes")
        monkeypatch.setenv("ANISOLAP_THREADS", "8")
        sym = make_generator("tempered_aniso", 2, measure=m, beta=0.8, lam=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = tempered_symbol(m, 0.8, 0.5, pts, method="nodes")
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [ex.submit(sym.on_grid, grid) for _ in range(8)]
                psis = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)
        assert all(p is psis[0] for p in psis)
        assert np.array_equal(psis[0].ravel(), sym.evaluate(pts))


# ---------------------------------------------------------------------------
# the grid route
# ---------------------------------------------------------------------------

SYM2 = make_atomic_measure(2, [((1, 0), .25), ((-1, 0), .25), ((0, 1), .25), ((0, -1), .25)])
SYM1 = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
ONE1 = make_atomic_measure(1, [((1,), 0.7), ((-1,), 0.3)])
SYM3 = make_atomic_measure(3, [(s * e, 1.0 / 6.0) for e in np.eye(3) for s in (1.0, -1.0)])

# (id, dimension, params)
CASES = [
    ("gaussian_iso_1d", 1, dict(kind="gaussian_iso", sigma=0.8)),
    ("gaussian_axes_1d", 1, dict(kind="gaussian_axes", sigma=0.8)),
    ("stable_1d", 1, dict(kind="stable_aniso", measure=ONE1, beta=0.6)),
    ("tempered_1d", 1, dict(kind="tempered_aniso", measure=ONE1, beta=1.3, lam=0.5)),
    ("beta1_1d", 1, dict(kind="beta1_aniso", measure=SYM1, lam=0.5)),
    ("beta2_1d", 1, dict(kind="beta2_quadratic", measure=ONE1, lam=0.3)),
    ("profile_1d", 1, dict(kind="general_profile", measure=ONE1,
                           profile=StabilityProfile((1.3, 1.6), (0.2, 0.0)))),
    ("isoref_1d", 1, dict(kind="isotropic_reference", beta=1.3, lam=0.5)),
    ("gaussian_iso_2d", 2, dict(kind="gaussian_iso", sigma=0.8)),
    ("gaussian_axes_2d", 2, dict(kind="gaussian_axes", sigma=0.8)),
    ("gaussian_aniso_2d", 2, dict(kind="gaussian_aniso", measure=fig1_measure(),
                                  sigmas=(0.8, 1.2))),
    ("stable_bands_2d", 2, dict(kind="stable_aniso", measure=fig1_measure(), beta=1.3)),
    ("stable_atoms_2d", 2, dict(kind="stable_aniso", measure=SYM2, beta=0.7)),
    ("tempered_2d", 2, dict(kind="tempered_aniso", measure=fig1_measure(),
                            beta=0.8, lam=0.5)),
    ("beta1_closed_2d", 2, dict(kind="beta1_aniso", measure=uniform_measure(2), lam=0.0)),
    ("beta1_nodes_2d", 2, dict(kind="beta1_aniso", measure=uniform_measure(2), lam=0.5)),
    ("beta2_2d", 2, dict(kind="beta2_quadratic", measure=fig1_measure(), lam=0.3)),
    ("profile_mixed_2d", 2, dict(kind="general_profile", measure=fig1_measure(),
                                 profile=StabilityProfile((1.3, 1.7), (0.0, 0.4)))),
    ("profile_nodes_2d", 2, dict(kind="general_profile", measure=mixed_measure(),
                                 profile=StabilityProfile((1.2, 1.3, 1.7), (0.3, 0.1, 0.4)))),
    ("isoref_2d", 2, dict(kind="isotropic_reference", beta=1.3, lam=0.5)),
    ("gaussian_iso_3d", 3, dict(kind="gaussian_iso", sigma=0.8)),
    ("gaussian_axes_3d", 3, dict(kind="gaussian_axes", sigma=0.8)),
    ("stable_3d", 3, dict(kind="stable_aniso", measure=band3d_measure(), beta=0.7,
                          refinement=16)),
    ("tempered_3d", 3, dict(kind="tempered_aniso", measure=band3d_measure(), beta=1.3,
                            lam=0.5, refinement=16)),
    # atoms: the exponent-1 symbol needs a symmetric measure, and the two
    # hemispheres of band3d_measure carry unequal mass
    ("beta1_3d", 3, dict(kind="beta1_aniso", measure=SYM3, lam=0.5)),
    ("beta2_3d", 3, dict(kind="beta2_quadratic", measure=band3d_measure(), lam=0.3)),
    ("profile_3d", 3, dict(kind="general_profile", measure=band3d_measure(),
                           profile=StabilityProfile((1.3, 1.6), (0.2, 0.5)),
                           refinement=16)),
    ("isoref_3d", 3, dict(kind="isotropic_reference", beta=1.3, lam=0.5)),
]
GRID_N = {1: 16, 2: 16, 3: 8}


def _nyquist(grid):
    idx = np.indices(grid.shape())
    return np.any(idx == grid.n_points // 2, axis=0)


def _mirror(psi):
    """psi at -k for every k on the fftfreq lattice."""
    out = psi
    for ax in range(psi.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_grid_route_matches_direct_evaluation(case):
    _, n, params = case
    sym = make_generator(dimension=n, zeta=1.7, **params)
    grid = SpectralGrid(n, 8.0, GRID_N[n])
    got = sym.on_grid(grid)
    want = np.asarray(sym.evaluate(grid.k_points()), dtype=complex).reshape(grid.shape())
    assert np.array_equal(got, want)
    off = ~_nyquist(grid)
    assert np.array_equal(_mirror(got)[off], np.conj(got[off]))


def test_auto_method_resolves_on_the_full_grid(monkeypatch):
    # 10^2 = 100 lattice points select the node rule; the fewer than 64
    # points evaluated, one per pair +-k, would alone select adaptive quadrature
    calls = []
    inner = symbols._band_sum

    def spy(pts, node_sets):
        calls.append(len(pts))
        return inner(pts, node_sets)

    monkeypatch.setattr(symbols, "_band_sum", spy)
    sym = make_generator("tempered_aniso", 2, measure=fig1_measure(), beta=0.8, lam=0.5)
    sym.on_grid(SpectralGrid(2, 8.0, 10))
    (n_eval,) = calls
    assert n_eval < 64


def test_mass_check_evaluates_once_and_caches_read_only(monkeypatch):
    calls = []
    inner = symbols.GeneratorSymbol.evaluate

    def counting(self, k):
        calls.append(len(np.asarray(k)))
        return inner(self, k)

    monkeypatch.setattr(symbols.GeneratorSymbol, "evaluate", counting)
    sym = make_generator("tempered_aniso", 2, measure=fig1_measure(), beta=0.8, lam=0.5)
    grid = SpectralGrid(2, 12.0, 32)
    rep = mass_conservation_check(sym, gaussian_density(grid, 0.5), (0.3, 0.9, 1.5))
    assert rep.passed
    assert len(calls) == 1
    psi = sym.on_grid(grid)
    assert psi is sym.on_grid(grid) and len(calls) == 1
    assert not psi.flags.writeable
    with pytest.raises(ValueError):
        psi[0, 0] = 1.0


def test_cache_keeps_a_fixed_number_of_grids():
    sym = make_generator("gaussian_iso", 1, sigma=1.0)
    grids = [SpectralGrid(1, 4.0, 8 + 2 * i) for i in range(symbols._GRID_CACHE_SIZE + 2)]
    for g in grids:
        sym.on_grid(g)
    assert list(sym._grid_cache) == grids[-symbols._GRID_CACHE_SIZE:]


def test_plain_callable_is_evaluated_on_every_wavenumber():
    from anisolap.evolve import _symbol_on_grid

    seen = []

    def psi(k):
        seen.append(len(k))
        return -np.sum(np.asarray(k) ** 2, axis=-1)

    grid = SpectralGrid(2, 4.0, 8)
    _symbol_on_grid(psi, grid)
    assert seen == [64]
