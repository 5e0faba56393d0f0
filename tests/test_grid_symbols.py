"""Grid symbols: the 2D band tables against adaptive quadrature and
mpmath, the blocked fixed-node quadrature of 3D bands, and the cached grid
route GeneratorSymbol.on_grid."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import anisolap.symbols as symbols
from anisolap.analysis import mass_conservation_check
from anisolap.evolve import SpectralGrid, gaussian_density
from anisolap.measures import (
    AngularBand,
    NumericalError,
    StabilityProfile,
    band_nodes,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    sphere_integrate,
    uniform_measure,
)
from anisolap.symbols import (
    _bracket,
    _rayleigh_dev,
    beta1_symbol,
    gaussian_symbol,
    general_profile_symbol,
    isotropic_reference_symbol,
    make_generator,
    tempered_symbol,
)
from shared_measures import fig1_measure

TWO_PI = 2.0 * math.pi


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


def reference(measure, g, pts, sign=1.0, rel=1e-16):
    """sign * int g(k.phi) m(dphi) per wavenumber by sphere_integrate, to an
    absolute tolerance rel times a first estimate of |psi(k)|."""
    out = []
    for k in pts:
        def f(dirs):
            return g(dirs @ k)
        size = abs(sphere_integrate(measure, f, tol=1e-8))
        out.append(sign * sphere_integrate(measure, f, tol=max(rel * size, 1e-300)))
    return np.array(out)


# ---------------------------------------------------------------------------
# the 2D band tables
# ---------------------------------------------------------------------------

class TestBandTables:
    # 200 wavenumbers of the 128^2 grid of half width 16
    pts = grid_k(2, 128, 16.0)[np.random.default_rng(7).choice(128 * 128, 200, replace=False)]

    @pytest.mark.parametrize("beta, lam", [(0.8, 0.5), (0.8, 0.05), (1.3, 0.01), (1.3, 0.0)])
    def test_fig1_cases_against_adaptive_quadrature(self, beta, lam):
        # the fixed nodes of refinement 96 were 1.1e-7 and 8.8e-8 off on
        # (0.8, 0.05) and (1.3, 0.01); the tables measured <= 7.5e-16
        m = fig1_measure()
        got = tempered_symbol(m, beta, lam, self.pts)
        want = reference(m, lambda u: _bracket(u, beta, lam), self.pts,
                         sign=symbols._ceil_sign(beta))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["tempered_0.8_0.5", "tempered_1.3_0.01", "beta1",
                                      "gaussian", "isotropic_reference"])
    def test_radii_from_1e_minus_3_to_1e4(self, kind):
        # each wavenumber against its own size, real parts against theirs:
        # the real part is O(|k|^2) below lam, where the bracket cancelled
        rng = np.random.default_rng(31)
        th = rng.uniform(0.0, TWO_PI, 22)
        pts = np.geomspace(1e-3, 1e4, 22)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
        m, sigmas = fig1_measure(), (0.8, 1.2)
        if kind.startswith("tempered"):
            beta, lam = (float(v) for v in kind.split("_")[1:])
            got = tempered_symbol(m, beta, lam, pts)
            want = reference(m, lambda u: _bracket(u, beta, lam), pts, symbols._ceil_sign(beta))
        elif kind == "beta1":
            m = uniform_measure(2)
            got = beta1_symbol(m, 0.5, pts)
            want = reference(m, lambda u: u * np.arctan(u / 0.5) - 0.25 * np.log1p((u / 0.5) ** 2),
                             pts, -1.0)
        elif kind == "gaussian":
            got = gaussian_symbol("aniso", pts, measure=m, sigmas=sigmas)
            s2 = np.dot(m.component_masses(), np.square(sigmas))
            want = sum(reference(make_banded_measure(2, [AngularBand(b.bounds, 1.0 / b.angular_measure())]),
                                 lambda u, s=s: _rayleigh_dev(u, s), pts, b.mass() / s2)
                       for b, s in zip(m.bands, sigmas))
        else:
            got = isotropic_reference_symbol(1.3, 0.5, pts, 2)
            want = reference(uniform_measure(2), lambda u: _bracket(u, 1.3, 0.5).real, pts, -1.0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert np.all(np.abs(got.real - want.real) <= 1e-12 * np.abs(want.real))

    @pytest.mark.parametrize("width", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("kink", ["inside", "at_end", "two_widths_out", "far_out"])
    @pytest.mark.parametrize("beta, lam", [(0.8, 0.05), (1.3, 0.01)])
    def test_narrow_band_against_mpmath(self, width, kink, beta, lam):
        # one band (1, 1 + width) with the kink theta_k + pi/2 inside it, 1e-3
        # widths and two widths before it, and 0.03 before it; no worse than
        # the fixed nodes of refinement 96 (whose error grows as 1/width near
        # the kink: 3.8e-11 at width 1e-6), or within 1e-15
        mp = pytest.importorskip("mpmath")
        band = AngularBand((1.0, 1.0 + width), 1.0 / width)
        m = make_banded_measure(2, [band])
        offset = {"inside": 0.3 * width, "at_end": -1e-3 * width,
                  "two_widths_out": -2.0 * width, "far_out": -0.03}[kink]
        tk = 1.0 + offset - 0.5 * math.pi
        sign = symbols._ceil_sign(beta)
        dirs, w = band_nodes(band, refinement=96)
        for r in (0.7, 9.0, 300.0):
            k = r * np.array([math.cos(tk), math.sin(tk)])
            with mp.workdps(30):
                kx, ky = mp.mpf(k[0]), mp.mpf(k[1])
                cuts = sorted({mp.mpf(1.0), mp.mpf(band.bounds[1])} | {
                    c for c in (mp.atan2(ky, kx) + mp.pi / 2,) if 1.0 < c < band.bounds[1]})
                want = sign * band.density * complex(mp.quad(
                    lambda t: (lam - 1j * (kx * mp.cos(t) + ky * mp.sin(t))) ** beta
                    - mp.mpf(lam) ** beta, cuts))
            got = tempered_symbol(m, beta, lam, k)
            nodes = sign * (_bracket(dirs @ k, beta, lam) * w).sum()
            assert abs(got - want) <= max(abs(nodes - want), 1e-15 * abs(want))

    def test_bits_do_not_depend_on_the_batch(self, monkeypatch):
        pts = np.concatenate([[[0.0, 0.0]], self.pts[:80], -self.pts[:5], self.pts[:3]])
        m = fig1_measure()
        sym = uniform_measure(2)
        prof = StabilityProfile((0.6, 1.3, 1.7), (0.4, 0.1, 0.2))
        evaluators = [
            lambda k: tempered_symbol(m, 0.8, 0.05, k),
            lambda k: gaussian_symbol("aniso", k, measure=m, sigmas=(0.8, 1.2)),
            lambda k: beta1_symbol(sym, 0.5, k),
            lambda k: general_profile_symbol(mixed_measure(), prof, k),
            lambda k: isotropic_reference_symbol(0.7, 1.1, k, 2),
        ]
        perm = np.random.default_rng(3).permutation(len(pts))
        for threads in ("1", "2"):
            monkeypatch.setenv("ANISOLAP_THREADS", threads)
            with pytest.warns(symbols.MixedStabilityRangeWarning):
                for f in evaluators:
                    full = f(pts)
                    assert full[0] == 0
                    assert np.array_equal(f(pts[perm]), full[perm])
                    assert np.array_equal([f(p) for p in pts[::7]], full[::7])
                    assert np.array_equal(f(-pts), np.conj(full))
                    assert np.all(full.real <= 0.0) or f is evaluators[-1]

    def test_half_rule_estimate_raises(self, monkeypatch):
        # tables cut to the uniform panels cannot follow the kink at lam / |k|;
        # H then differs from its coarser half by 7.8e-5 relative
        m = fig1_measure()
        k = np.array([[10.0, 0.0]])
        tempered_symbol(m, 0.3, 1e-3, k)
        monkeypatch.setattr(symbols, "_TABLE_MAX_LEVEL", 0)
        with pytest.raises(NumericalError, match="coarser half rule"):
            tempered_symbol(m, 0.3, 1e-3, k)


# ---------------------------------------------------------------------------
# the blocked fixed-node core of 3D bands against an unblocked per-band reference
# ---------------------------------------------------------------------------

def _reference(pts, node_sets):
    """_band_sum's columns, each summed on all of pts at once."""
    return np.stack([(g(pts @ dirs.T) * w).sum(axis=1) for g, dirs, w in node_sets], axis=1)


def _node_sets(measure, integrands):
    return [(g, *band_nodes(b, refinement=16)) for g, b in zip(integrands, measure.bands)]


def _beta1_integrand(u, lam=0.5):
    return u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)


# the 3D bands' integrands of tempered_symbol, beta1_symbol and general_profile_symbol
CORE_CASES = {
    "tempered": lambda: _node_sets(band3d_measure(), [partial(_bracket, beta=0.8, lam=0.5)] * 2),
    "beta1": lambda: _node_sets(uniform_measure(3), [_beta1_integrand]),
    "general_profile": lambda: _node_sets(band3d_measure(), [
        partial(_bracket, beta=0.6, lam=0.4), partial(_bracket, beta=1.3, lam=0.1)]),
}


@pytest.fixture
def coarse_nodes(monkeypatch):
    """3D bands on the fixed nodes of refinement 16, where a test runs
    whole symbols on them and needs no more."""
    monkeypatch.setattr(symbols, "_NODES_REFINEMENT", 16)


class TestBlockedCore:
    pts = grid_k(3, 8)

    @pytest.mark.parametrize("case", CORE_CASES)
    def test_matches_unblocked_reference(self, case):
        sets = CORE_CASES[case]()
        assert np.array_equal(symbols._band_sum(self.pts, sets), _reference(self.pts, sets))

    @pytest.mark.parametrize("P", [1, 2, 63, 64, 65, 255, 256, 257, 512])
    def test_block_edges(self, P):
        # a lone trailing row would take BLAS's matrix-vector path
        pts = self.pts[:P]
        sets = _node_sets(band3d_measure(), [partial(_bracket, beta=1.3, lam=0.2)] * 2)
        assert np.array_equal(symbols._band_sum(pts, sets), _reference(pts, sets))

    def test_symbol_takes_the_core(self, coarse_nodes):
        m = band3d_measure()
        got = tempered_symbol(m, 0.8, 0.5, self.pts, method="nodes")
        sets = CORE_CASES["tempered"]()
        assert np.array_equal(got, -_reference(self.pts, sets).sum(axis=1))

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        m = fig1_measure()
        pts2 = grid_k(2, 64)
        sets = CORE_CASES["general_profile"]()
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ANISOLAP_THREADS", threads)
            sym = make_generator("tempered_aniso", 2, measure=m, beta=0.8, lam=0.5)
            outs.append((symbols._band_sum(self.pts, sets),
                         gaussian_symbol("aniso", pts2, measure=m, sigmas=(0.8, 1.2)),
                         sym.on_grid(SpectralGrid(2, 16.0, 64))))
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch, coarse_nodes):
        m = band3d_measure()
        grid = SpectralGrid(3, 16.0, 8)
        pts = grid.k_points()
        monkeypatch.setenv("ANISOLAP_THREADS", "1")
        want = tempered_symbol(m, 0.8, 0.5, pts, method="nodes")
        monkeypatch.setenv("ANISOLAP_THREADS", "8")
        sym = make_generator("tempered_aniso", 3, measure=m, beta=0.8, lam=0.5)
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
    ("stable_3d", 3, dict(kind="stable_aniso", measure=band3d_measure(), beta=0.7)),
    ("tempered_3d", 3, dict(kind="tempered_aniso", measure=band3d_measure(), beta=1.3,
                            lam=0.5)),
    # atoms: the exponent-1 symbol needs a symmetric measure, and the two
    # hemispheres of band3d_measure carry unequal mass
    ("beta1_3d", 3, dict(kind="beta1_aniso", measure=SYM3, lam=0.5)),
    ("beta2_3d", 3, dict(kind="beta2_quadratic", measure=band3d_measure(), lam=0.3)),
    ("profile_3d", 3, dict(kind="general_profile", measure=band3d_measure(),
                           profile=StabilityProfile((1.3, 1.6), (0.2, 0.5)))),
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
def test_grid_route_matches_direct_evaluation(case, coarse_nodes):
    _, n, params = case
    sym = make_generator(dimension=n, zeta=1.7, **params)
    grid = SpectralGrid(n, 8.0, GRID_N[n])
    got = sym.on_grid(grid)
    want = np.asarray(sym.evaluate(grid.k_points()), dtype=complex).reshape(grid.shape())
    assert np.array_equal(got, want)
    off = ~_nyquist(grid)
    assert np.array_equal(_mirror(got)[off], np.conj(got[off]))


CASES_2D = [c for c in CASES if c[1] == 2]


@pytest.mark.parametrize("case", CASES_2D, ids=[c[0] for c in CASES_2D])
def test_evaluate_memory_is_bounded_on_a_large_lattice(case):
    # every quadrature route sums fixed blocks of wavenumbers: one
    # (points x nodes) array of the isotropic reference at lam > 0 would
    # take about 300 MiB on a 128^2 lattice
    _, n, params = case
    sym = make_generator(dimension=n, **params)
    k = grid_k(n, 128)
    tracemalloc.start()
    try:
        sym.evaluate(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_auto_method_resolves_on_the_full_grid(monkeypatch, coarse_nodes):
    # 5^3 = 125 points of a lattice symmetric about 0 select the node rule
    # for 3D bands; the 63 points evaluated, one per pair +-k, would alone
    # select adaptive quadrature (a SpectralGrid of 3D, n_points even and at
    # least 8, has more than 64 pairs)
    calls = []
    inner = symbols._band_sum

    def spy(pts, node_sets):
        calls.append(len(pts))
        return inner(pts, node_sets)

    monkeypatch.setattr(symbols, "_band_sum", spy)
    sym = make_generator("tempered_aniso", 3, measure=band3d_measure(), beta=0.8, lam=0.5)
    axis = np.arange(-2.0, 3.0)
    sym.evaluate(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1))
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
