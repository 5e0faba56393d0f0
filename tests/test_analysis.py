import math

import numpy as np
import pytest

from anisolap.analysis import (
    coercivity_ratio,
    counterexample_1d,
    mass_conservation_check,
    parseval_bilinear_check,
    scaling_limit_check,
    symbol_asymptotic_slopes,
)
from anisolap.evolve import SpectralGrid, delta_density, gaussian_density
from anisolap.measures import make_atomic_measure, uniform_measure
from anisolap.realspace import gaussian_bump
from anisolap.symbols import make_generator
from shared_measures import fig1_measure



class TestCoercivity:
    def test_isotropic_ratio_is_one(self):
        rep = coercivity_ratio(uniform_measure(2), 1.3, 0.5)
        assert rep.verdict == "coercive"
        assert rep.ratio_infimum == pytest.approx(1.0, abs=1e-6)

    def test_one_dimensional_ratio_is_one(self):
        # in 1D the real part only sees the total mass, so any measure gives
        # the isotropic numerator
        m = make_atomic_measure(1, [((1,), 0.8), ((-1,), 0.2)])
        rep = coercivity_ratio(m, 1.5, 0.7)
        assert rep.ratio_infimum == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_line_measure(self):
        m = make_atomic_measure(2, [((1, 0), 0.5), ((-1, 0), 0.5)])
        rep = coercivity_ratio(m, 1.5, 0.5)
        assert rep.verdict == "degenerate-direction-found"
        assert rep.witness_numerator <= 1e-10
        assert rep.witness_denominator > 0
        # the witness wavenumber is orthogonal to the support line
        assert abs(rep.argmin_k[0]) < 1e-12

    def test_nondegenerate_floor(self):
        m = make_atomic_measure(2, [((1, 0), 0.5), ((0, 1), 0.5)])
        rep = coercivity_ratio(m, 1.5, 0.5)
        assert rep.verdict == "coercive"
        assert rep.ratio_infimum >= 0.895  # frozen from a fine-grid probe run

    def test_asymmetric_band_ratio_is_one(self):
        # the numerator only sees the symmetrised measure, which is isotropic
        # for this band pair
        rep = coercivity_ratio(fig1_measure(), 1.3, 0.7)
        assert rep.ratio_infimum == pytest.approx(1.0, abs=1e-4)

    def test_asymptotic_slopes(self):
        m = make_atomic_measure(2, [((1, 0), 0.5), ((0, 1), 0.5)])
        for beta in (0.7, 1.5):
            sl = symbol_asymptotic_slopes(m, beta, 0.5)
            assert sl["numerator_small"] == pytest.approx(2.0, rel=0.05)
            assert sl["reference_small"] == pytest.approx(2.0, rel=0.05)
            assert sl["numerator_large"] == pytest.approx(beta, rel=0.05)
            assert sl["reference_large"] == pytest.approx(beta, rel=0.05)

    def test_slopes_need_tempering(self):
        m = uniform_measure(2)
        with pytest.raises(ValueError):
            symbol_asymptotic_slopes(m, 1.3, 0.0)


class TestParseval:
    def test_1d_symmetric_atoms(self):
        m = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
        rep = parseval_bilinear_check(gaussian_bump(1), m, 0.5, 1.0,
                                      half_width=12.0, n_points=384, budget=1e-2)
        assert rep.relative_deviation <= 1e-2

    def test_budget_enforced(self):
        m = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
        rep = parseval_bilinear_check(gaussian_bump(1), m, 0.5, 1.0,
                                      half_width=12.0, n_points=384, budget=1e-12)
        assert not rep.passed
        assert rep.relative_deviation > 1e-12
        assert rep.quadrature_budget["budget"] == 1e-12

    def test_zero_field(self):
        from anisolap.realspace import ScalarField, bilinear_form

        zero = ScalarField(1, f=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                           grad=lambda x: np.zeros(np.asarray(x).shape),
                           support_radius=1.0, cutoff=0.0)
        m = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
        assert bilinear_form(zero, zero, m, 0.5, 1.0, half_width=6.0,
                             n_points=64)[0] == 0.0


class TestCounterexample:
    def test_positive_monotone_with_zero_seminorm(self):
        rep = counterexample_1d(beta=0.5, lam=1.0,
                                truncations=(1.0, 2.0, 5.0, 10.0, 20.0))
        assert rep.all_positive and rep.monotone
        assert rep.seminorm_product == 0.0
        R10 = rep.values[list(rep.truncations).index(10.0)]
        assert R10 > 0
        # converges to the closed-form full-space value 2 Gamma(1-b) l^(b-1)
        assert rep.values[-1] == pytest.approx(rep.limit_value, rel=1e-4)

    def test_nested_domain_oracle(self):
        # independent nested double quadrature on a coarse ladder
        import scipy.integrate as si

        beta, lam = 0.5, 1.0
        for T, val in zip((1.0, 2.0), counterexample_1d(
                beta=beta, lam=lam, truncations=(1.0, 2.0)).values):
            ref = 2.0 * si.dblquad(
                lambda x, y: math.exp(-lam * (x - y)) * (x - y) ** (-1 - beta),
                -T, 0.0, 0.0, T)[0]
            assert val == pytest.approx(ref, rel=1e-6)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            counterexample_1d(beta=1.5, lam=1.0, truncations=(1.0, 2.0))

    def test_growing_kernel_is_refused(self):
        # e^(+r) makes the value trivially positive and monotone
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            counterexample_1d(beta=0.5, lam=-1.0, truncations=(1.0, 2.0))
        rep = counterexample_1d(beta=0.5, lam=0.0, truncations=(1.0, 2.0))
        assert rep.all_positive and rep.monotone and rep.limit_value is None


class TestMassConservation:
    def test_valid_symbol_passes(self):
        m = fig1_measure()
        sym = make_generator("tempered_aniso", 2, measure=m, beta=1.3, lam=0.5)
        grid = SpectralGrid(2, 10.0, 64)
        rep = mass_conservation_check(sym, gaussian_density(grid, 0.5),
                                      times=(0.25, 0.5, 1.0))
        assert rep.passed and rep.max_drift <= 1e-12

    def test_corrupted_symbol_fails_with_exponential_decay(self):
        grid = SpectralGrid(1, 8.0, 64)
        leak = 0.1

        def bad_symbol(k):
            return np.full(np.asarray(k).shape[:-1], -leak, dtype=complex)

        p0 = gaussian_density(grid, 0.5)
        rep = mass_conservation_check(bad_symbol, p0, times=(0.5, 1.0, 2.0))
        assert not rep.passed
        want = p0.total_mass() * np.exp(-leak * rep.times)
        assert np.allclose(rep.masses, want, rtol=1e-10)

    def test_delta_initial(self):
        sym = make_generator("gaussian_axes", 2, sigma=1.0)
        grid = SpectralGrid(2, 8.0, 32)
        rep = mass_conservation_check(sym, delta_density(grid), times=(1.0, 2.0))
        assert rep.passed


class TestScalingLimit:
    def test_quarter_per_halving(self):
        rep = scaling_limit_check((0.4, 0.2, 0.1, 0.05), 1.0,
                                  ((0.5, 0.0), (1.0, 0.7), (0.3, -0.4)))
        assert rep.passed
        assert np.allclose(rep.rung_ratios_iso, 4.0, rtol=0.2)
        assert np.allclose(rep.rung_ratios_axes, 4.0, rtol=0.2)
        assert np.all(np.diff(rep.deviations_iso) < 0)
        assert np.all(np.diff(rep.deviations_axes) < 0)

    @pytest.mark.parametrize("probes", [
        ((0.5,), (1.2,)), ((0.5, 0.0), (1.0, 0.7)), ((1.0, 0.0, 0.0), (0.3, -0.4, 0.6))],
        ids=["1d", "2d", "3d"])
    def test_axis_limit_in_every_dimension(self, probes):
        # in n dimensions the axis variant tends to -(K1/n)|k|^2
        rep = scaling_limit_check((0.4, 0.2, 0.1, 0.05), 1.0, probes)
        assert rep.passed
        assert np.allclose(rep.rung_ratios_iso, 4.0, rtol=0.05)
        assert np.allclose(rep.rung_ratios_axes, 4.0, rtol=0.05)

    def test_zero_probe_exact(self):
        rep = scaling_limit_check((0.4, 0.2), 1.0, ((0.0, 0.0),))
        assert np.all(rep.deviations_iso == 0.0)
        assert np.all(rep.deviations_axes == 0.0)
