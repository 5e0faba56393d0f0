import math
import re

import numpy as np
import pytest

from anisolap.evolve import (
    BoundaryMassError,
    SpectralGrid,
    compare_densities,
    delta_density,
    density_from_samples,
    evolve_spectral,
    evolve_time_fractional,
    gaussian_density,
)
from anisolap.measures import NumericalError, make_atomic_measure, uniform_measure
from anisolap.realspace import gaussian_bump
from anisolap.sampler import JumpSpec, compound_poisson_endpoints
from anisolap.symbols import make_generator

TWO_PI = 2.0 * math.pi


def overflowing_symbol():
    # |k|^1.5 overflows on a box of half-width 1e-300, whose wavenumbers reach 1e302
    grid = SpectralGrid(1, 1e-300, 64)
    return grid, make_generator("tempered_aniso", 1, measure=uniform_measure(1),
                                beta=1.5, lam=0.5)


def zero_symbol(dimension):
    # exp(-sigma^2 |k|^2 / 2) - 1 is exactly 0 where sigma^2 underflows
    return make_generator("gaussian_iso", dimension, sigma=1e-200)


def heat_symbol(K1):
    # -K1 |k|^2 through the quadratic kind on the isotropic measure (A = I/2)
    return make_generator("beta2_quadratic", 2, measure=uniform_measure(2),
                          lam=0.0, zeta=2.0 * K1)


class TestGrid:
    def test_wavenumbers_symmetric(self):
        g = SpectralGrid(1, 8.0, 64)
        k = np.sort(g.k_axis())
        assert np.allclose(k + k[::-1], np.full(64, k[0] + k[-1]))
        assert g.k_axis()[1] == pytest.approx(math.pi / 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(2, 8.0, 63)
        with pytest.raises(ValueError):
            SpectralGrid(2, 8.0, 4)
        with pytest.raises(ValueError):
            SpectralGrid(2, -1.0, 64)

    @pytest.mark.parametrize("center", [[0.5], [0.5, 0.0, 9.0]])
    def test_delta_center_needs_one_component_per_axis(self, center):
        # one component on a 2D grid would fill a whole row: mass 32, not 1
        with pytest.raises(ValueError, match="does not have 2 components"):
            delta_density(SpectralGrid(2, 8.0, 32), center=center)
        assert delta_density(SpectralGrid(2, 8.0, 32), center=[0.5, 0.0]).total_mass() == 1.0

    @pytest.mark.parametrize("center", [[0.5], [0.5, 0.0, 9.0]])
    def test_gaussian_center_needs_one_component_per_axis(self, center):
        # one component would broadcast to (0.5, 0.5)
        with pytest.raises(ValueError, match="does not have 2 components"):
            gaussian_density(SpectralGrid(2, 8.0, 32), 1.0, center=center)

    # the periodic box would put the mass of a delta at (4, 0) and hold none
    # of a gaussian
    @pytest.mark.parametrize("center", [[100.0, 0.0], [0.0, -8.5], [math.nan, 0.0]])
    def test_center_outside_the_box_is_refused(self, center):
        g = SpectralGrid(2, 8.0, 32)
        message = re.escape(f"center {center!r} lies outside the box [-8.0, 8.0]^2")
        with pytest.raises(ValueError, match=message):
            delta_density(g, center=center)
        with pytest.raises(ValueError, match=message):
            gaussian_density(g, 0.5, center=center)

    def test_center_on_the_box_edge_is_accepted(self):
        g = SpectralGrid(2, 8.0, 32)
        # +L and -L are one periodic point
        assert np.array_equal(delta_density(g, center=[8.0, -8.0]).values,
                              delta_density(g, center=[-8.0, -8.0]).values)
        assert gaussian_density(g, 0.5, center=[8.0, 0.0]).total_mass() > 0.0
        # a field lives off any grid, so its center may lie anywhere
        assert gaussian_bump(2, [100.0, 0.0]).f(np.array([[100.0, 0.0]]))[0] == 1.0


class TestEvolveSpectral:
    def test_zero_time_is_identity(self):
        g = SpectralGrid(2, 8.0, 64)
        p0 = gaussian_density(g, 1.0)
        out = evolve_spectral(p0, make_generator("gaussian_iso", 2, sigma=1.0), 0.0)
        assert np.max(np.abs(out.values - p0.values)) < 1e-12

    def test_heat_kernel_variance_growth(self):
        K1 = 0.4
        g = SpectralGrid(2, 14.0, 256)
        p0 = gaussian_density(g, 1.0)
        t = 1.5
        out = evolve_spectral(p0, heat_symbol(K1), t)
        want = gaussian_density(g, 1.0 + 2.0 * K1 * t).values
        assert np.max(np.abs(out.values - want)) < 1e-8

    def test_semigroup(self):
        m = make_atomic_measure(2, [((1, 0), 0.7), ((0, 1), 0.3)])
        sym = make_generator("tempered_aniso", 2, measure=m, beta=1.5, lam=0.5)
        g = SpectralGrid(2, 12.0, 64)
        p0 = gaussian_density(g, 0.5)
        one = evolve_spectral(evolve_spectral(p0, sym, 0.4, check_boundary=False),
                              sym, 0.8, check_boundary=False)
        direct = evolve_spectral(p0, sym, 1.2, check_boundary=False)
        assert np.max(np.abs(one.values - direct.values)) < 1e-10

    def test_mass_conservation(self):
        m = make_atomic_measure(2, [((1, 0), 0.7), ((0, 1), 0.3)])
        sym = make_generator("tempered_aniso", 2, measure=m, beta=1.3, lam=0.2)
        g = SpectralGrid(2, 12.0, 64)
        p0 = delta_density(g)
        out = evolve_spectral(p0, sym, 1.0, check_boundary=False)
        assert abs(out.total_mass() - p0.total_mass()) < 1e-12

    def test_symmetry_preserved(self):
        sym = make_generator("gaussian_iso", 2, sigma=0.8)
        g = SpectralGrid(2, 10.0, 64)
        p0 = gaussian_density(g, 0.7)
        out = evolve_spectral(p0, sym, 1.0).values
        # x -> -x on the periodic lattice is a flip plus a one-cell roll
        flipped = np.roll(np.roll(out[::-1, ::-1], 1, axis=0), 1, axis=1)
        assert np.max(np.abs(out - flipped)) < 1e-10

    def test_drift_direction_of_asymmetric_symbol(self):
        # quadratic symbol with mean b = e1 and tempering: transport term
        # 2*lam*b.grad moves the density toward -x1
        m = make_atomic_measure(2, [((1, 0), 1.0)])
        lam, t = 0.8, 1.0
        sym = make_generator("beta2_quadratic", 2, measure=m, lam=lam)
        g = SpectralGrid(2, 14.0, 128)
        p0 = gaussian_density(g, 0.6)
        out = evolve_spectral(p0, sym, t)
        pts = g.points()
        mean = (pts * out.values.ravel()[:, None]).sum(axis=0) * g.cell_volume
        assert mean[0] == pytest.approx(-2.0 * lam * t, abs=1e-6)
        assert mean[1] == pytest.approx(0.0, abs=1e-10)

    def test_boundary_mass_check(self):
        sym = make_generator("gaussian_iso", 2, sigma=1.0, zeta=5.0)
        g = SpectralGrid(2, 3.0, 32)
        p0 = gaussian_density(g, 0.25)
        with pytest.raises(BoundaryMassError):
            evolve_spectral(p0, sym, 4.0)

    def test_non_finite_symbol_is_a_numerical_error(self):
        grid, sym = overflowing_symbol()
        with pytest.raises(NumericalError, match="tempered_aniso symbol is not finite"):
            evolve_spectral(delta_density(grid), sym, 1.0)


class TestHistograms:
    def test_single_cell_spike(self):
        g = SpectralGrid(2, 4.0, 16)
        rho = density_from_samples(np.zeros((50, 2)), g)
        assert rho.total_mass() == pytest.approx(1.0)
        idx = (8, 8)
        assert rho.values[idx] == pytest.approx(1.0 / g.cell_volume)

    def test_empty_rejected(self):
        g = SpectralGrid(1, 4.0, 16)
        with pytest.raises(ValueError):
            density_from_samples(np.empty((0, 1)), g)

    def test_out_of_box_rejected(self):
        g = SpectralGrid(1, 1.0, 16)
        pts = np.concatenate([np.zeros(50), np.full(10, 99.0)])[:, None]
        with pytest.raises(ValueError, match="outside"):
            density_from_samples(pts, g)

    def test_gaussian_sample_l1(self):
        rng = np.random.default_rng(0)
        n = 200_000
        g = SpectralGrid(2, 6.0, 32)
        pts = rng.standard_normal((n, 2))
        rho = density_from_samples(pts, g)
        # compare against the cell-averaged analytic density via the spectral
        # smoothing of the lattice delta
        ref = evolve_spectral(delta_density(g), heat_symbol(0.5), 1.0,
                              check_boundary=False)
        d = compare_densities(rho, ref)
        assert d["l1"] < 4.0 * math.sqrt(32 * 32 / math.pi / n)  # noise-level scale
        assert d["l1"] > 0


class TestCompare:
    def test_identical(self):
        g = SpectralGrid(1, 4.0, 32)
        a = gaussian_density(g, 1.0)
        rep = compare_densities(a, a)
        assert rep == {"l1": 0.0, "l2": 0.0, "max": 0.0}

    def test_displaced_gaussians_closed_form(self):
        g = SpectralGrid(1, 20.0, 2048)
        v = 1.0
        d = 0.7
        a = gaussian_density(g, v)
        b = gaussian_density(g, v, center=[d])
        rep = compare_densities(a, b)
        # || G1 - G2 ||_2^2 = 2 (4 pi v)^(-1/2) (1 - exp(-d^2/(4 v)))
        want = math.sqrt(2.0 / math.sqrt(4.0 * math.pi * v)
                         * (1.0 - math.exp(-d * d / (4.0 * v))))
        assert rep["l2"] == pytest.approx(want, abs=1e-6)

    def test_grid_mismatch(self):
        a = gaussian_density(SpectralGrid(1, 4.0, 32), 1.0)
        b = gaussian_density(SpectralGrid(1, 4.0, 64), 1.0)
        with pytest.raises(ValueError):
            compare_densities(a, b)

    def test_mc_vs_spectral_case2(self):
        rng = np.random.default_rng(1)
        n = 200_000
        sigma, zeta, t = 1.0, 1.0, 1.0
        g = SpectralGrid(2, 8.0, 32)
        ends = compound_poisson_endpoints(JumpSpec("gaussian_axes", 2, sigma=sigma),
                                          zeta, t, n, rng)
        hist = density_from_samples(ends, g)
        sym = make_generator("gaussian_axes", 2, sigma=sigma, zeta=zeta)
        ref = evolve_spectral(delta_density(g), sym, t, check_boundary=False)
        assert compare_densities(hist, ref)["l1"] < 0.025


class TestTimeFractional:
    def test_zero_symbol_identity(self):
        g = SpectralGrid(1, 6.0, 64)
        p0 = gaussian_density(g, 1.0)
        sym = zero_symbol(1)
        assert not np.any(sym.on_grid(g))
        res = evolve_time_fractional(p0, sym, 0.6, 1.0, 40, np.random.default_rng(2))
        assert np.max(np.abs(res.density.values - p0.values)) < 1e-12
        assert np.max(res.stderr) < 1e-12

    def test_mass_preserved(self):
        sym = make_generator("gaussian_iso", 2, sigma=0.7)
        g = SpectralGrid(2, 8.0, 32)
        p0 = delta_density(g)
        res = evolve_time_fractional(p0, sym, 0.7, 1.0, 60, np.random.default_rng(3))
        assert res.density.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_near_one_matches_plain_evolution(self):
        sym = make_generator("gaussian_iso", 1, sigma=1.0, zeta=1.0)
        g = SpectralGrid(1, 12.0, 256)
        p0 = gaussian_density(g, 0.5)
        plain = evolve_spectral(p0, sym, 1.0)
        res = evolve_time_fractional(p0, sym, 0.99, 1.0, 200, np.random.default_rng(4))
        assert compare_densities(res.density, plain)["l1"] <= 0.05

    def test_alpha_validation(self):
        g = SpectralGrid(1, 6.0, 64)
        p0 = gaussian_density(g, 1.0)
        with pytest.raises(ValueError):
            evolve_time_fractional(p0, zero_symbol(1), 1.2, 1.0, 10, np.random.default_rng(0))

    def test_non_finite_symbol_is_a_numerical_error(self):
        grid, sym = overflowing_symbol()
        with pytest.raises(NumericalError, match="tempered_aniso symbol is not finite"):
            evolve_time_fractional(delta_density(grid), sym, 0.6, 1.0, 10,
                                   np.random.default_rng(0))


class TestScalingMerge:
    def test_case1_case2_densities_converge(self):
        # matched diffusion constants: the two Gaussian-jump densities merge
        # as sigma -> 0, monotonically in L1
        K1 = 0.5
        g = SpectralGrid(2, 10.0, 64)
        p0 = delta_density(g)
        t = 1.0
        dists = []
        for s in (1.0, 0.5, 0.25):
            zeta_iso = 2.0 * K1 / s ** 2
            zeta_axes = 2.0 * zeta_iso  # same limiting constant K1
            a = evolve_spectral(p0, make_generator("gaussian_iso", 2, sigma=s,
                                                   zeta=zeta_iso), t,
                                check_boundary=False)
            b = evolve_spectral(p0, make_generator("gaussian_axes", 2, sigma=s,
                                                   zeta=zeta_axes), t,
                                check_boundary=False)
            dists.append(compare_densities(a, b)["l1"])
        assert dists[0] > dists[1] > dists[2]


class TestRingingBound:
    def test_negative_undershoot_within_estimate(self):
        # smooth, resolved: negligible ringing and negligible negatives
        g = SpectralGrid(1, 16.0, 128)
        p0 = gaussian_density(g, 1.0)
        sym = make_generator("gaussian_iso", 1, sigma=1.0)
        out = evolve_spectral(p0, sym, 1.0)
        undershoot = max(0.0, -float(out.values.min()))
        slack = 1e-12 * float(np.abs(out.values).max())
        assert undershoot <= out.ringing_estimate + slack

    def test_underresolved_initial_is_flagged(self):
        # barely resolved initial data: the estimate grows to cover the
        # visible oscillation
        g = SpectralGrid(1, 16.0, 64)
        p0 = gaussian_density(g, 0.04)
        sym = make_generator("gaussian_iso", 1, sigma=1.0)
        out = evolve_spectral(p0, sym, 0.5, check_boundary=False)
        undershoot = max(0.0, -float(out.values.min()))
        assert undershoot > 0
        assert undershoot <= out.ringing_estimate + 1e-12
