import cmath
import json
import math
from functools import partial

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sc

import anisolap.symbols as symbols_mod
from anisolap.measures import (
    AngularBand,
    NumericalError,
    StabilityProfile,
    make_atomic_measure,
    make_banded_measure,
    measure_to_json,
    to_json,
    uniform_measure,
)
from anisolap.symbols import (
    MixedStabilityRangeWarning,
    beta1_symbol,
    beta2_symbol,
    gaussian_symbol,
    general_profile_symbol,
    isotropic_reference_symbol,
    make_generator,
    symbol_from_json,
    tempered_symbol,
)
from shared_measures import fig1_measure, onesided1d, sym1d

TWO_PI = 2.0 * math.pi


class TestGaussian:
    def test_zero_wavenumber(self):
        assert gaussian_symbol("iso", 0.0, sigma=2.0, dimension=1) == 0
        assert gaussian_symbol("axes", [0.0, 0.0], sigma=1.0) == 0

    def test_iso_value(self):
        # sigma^2 = 2, |k| = 1
        val = gaussian_symbol("iso", [1.0, 0.0], sigma=math.sqrt(2.0))
        assert val == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)

    def test_axes_value(self):
        k1 = 0.8
        val = gaussian_symbol("axes", [k1, 0.0], sigma=1.0)
        assert val == pytest.approx(0.5 * math.exp(-0.5 * k1 ** 2) - 0.5, abs=1e-15)

    def test_aniso_reduces_to_iso(self):
        m = uniform_measure(2)
        ks = np.array([[0.5, 0.2], [1.5, -0.7], [0.0, 2.0]])
        got = gaussian_symbol("aniso", ks, measure=m, sigmas=0.9)
        want = gaussian_symbol("iso", ks, sigma=0.9)
        assert np.allclose(got, want, atol=1e-9)

    def test_aniso_zero_mode_exact(self):
        m = fig1_measure()
        val = gaussian_symbol("aniso", [0.0, 0.0], measure=m, sigmas=(0.7, 1.3))
        assert val == 0

    @pytest.mark.parametrize("sigmas", [None, (0.8,), (0.8, 1.2, 1.0), (0.8, -1.0)])
    def test_aniso_one_spread_per_component(self, sigmas):
        with pytest.raises(ValueError, match="one positive spread per measure component"):
            gaussian_symbol("aniso", [0.5, 0.2], measure=fig1_measure(), sigmas=sigmas)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_symbol("iso", 1.0, sigma=-1.0, dimension=1)


class TestTempered:
    def test_zero_wavenumber(self):
        for m, beta, lam in [(sym1d(), 0.5, 0.0), (onesided1d(), 1.5, 2.0),
                             (fig1_measure(), 1.3, 0.7)]:
            assert tempered_symbol(m, beta, lam, np.zeros(m.dimension)) == 0

    def test_frozen_1d_symmetric(self):
        # two-atom oracle: ((-i)^(1/2) + (i)^(1/2))/2 = cos(pi/4), then the
        # (-1)^ceil(beta) sign
        val = tempered_symbol(sym1d(), 0.5, 0.0, 1.0)
        assert val == pytest.approx(-math.cos(math.pi / 4), abs=1e-14)

    def test_frozen_1d_onesided_tempered(self):
        want = -(cmath.sqrt(1.0 - 1.0j) - 1.0)
        val = tempered_symbol(onesided1d(), 0.5, 1.0, 1.0)
        assert abs(val - want) < 1e-14

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            tempered_symbol(sym1d(), 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tempered_symbol(sym1d(), 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tempered_symbol(sym1d(), 1.5, -0.1, 1.0)

    def test_band_closed_form_vs_quadpack(self):
        m = fig1_measure()
        for beta in (0.5, 1.3, 1.9):
            for k in ([1.0, 0.3], [-2.0, 1.7]):
                got = tempered_symbol(m, beta, 0.0, k)

                def integrand(th, part):
                    u = k[0] * math.cos(th) + k[1] * math.sin(th)
                    val = (u * u) ** (beta / 2) * cmath.exp(-1j * beta * math.atan2(u, 0.0))
                    return val.real if part == "re" else val.imag

                ref = 0.0 + 0.0j
                for (lo, hi), den in [((0, math.pi), 2 / (3 * math.pi)),
                                      ((math.pi, TWO_PI), 1 / (3 * math.pi))]:
                    re = si.quad(integrand, lo, hi, args=("re",), limit=400)[0]
                    im = si.quad(integrand, lo, hi, args=("im",), limit=400)[0]
                    ref += den * (re + 1j * im)
                ref *= (-1.0) ** math.ceil(beta)
                assert abs(got - ref) < 2e-8

    @pytest.mark.parametrize("beta", [0.4, 1.3, 1.9])
    @pytest.mark.parametrize("bounds", [
        (0.0, math.pi), (math.pi, TWO_PI),
        (1.5 * math.pi, 2.5 * math.pi),
        (-3.0, -3.0 + TWO_PI),
        (1.0, 1.01),
    ], ids=["fig1_upper", "fig1_lower", "wrapped", "turn_from_minus3", "narrow"])
    def test_band_closed_form_vs_adaptive(self, bounds, beta):
        # the lam = 0 closed form over arcs outside [0, 2 pi) and over
        # three half-periods of cos; the absolute term is the adaptive rule's
        # tolerance, which dominates where |psi| is small
        band = AngularBand(bounds, 1.0 / (bounds[1] - bounds[0]))
        rng = np.random.default_rng(29)
        th = rng.uniform(0.0, TWO_PI, 200)
        k = 10.0 ** rng.uniform(-4.0, 4.0, 200)[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=-1)
        got = tempered_symbol(make_banded_measure(2, [band]), beta, 0.0, k)
        want = (-1.0) ** math.ceil(beta) * symbols_mod._adaptive_bands(
            k, [band], partial(symbols_mod._bracket, beta=beta, lam=0.0), 1e-13)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-11)

    @pytest.mark.parametrize("beta", [0.4, 1.0, 1.9])
    def test_narrow_band_antiderivatives_vs_mpmath(self, beta):
        # band (1, 1.01) at |k| = 3: nine kinks theta_k + pi/2 within 0.004 of
        # its centre, where both ends' antiderivatives lie near a multiple of
        # H, and eight random ones; against 40-digit quadrature cut at the
        # kinks.  The integrals e of |cos w|^beta and o of sign(cos w)
        # |cos w|^beta are read off the symbol: tempered_symbol on the band,
        # and at beta = 1 beta1_symbol on the band and its antipode (a
        # symmetric measure), whose value holds e only
        mp = pytest.importorskip("mpmath")
        band = AngularBand((1.0, 1.01), 1.0 / 0.01)
        rng = np.random.default_rng(17)
        th = np.concatenate([1.005 + np.linspace(-0.004, 0.004, 9) - 0.5 * math.pi,
                             rng.uniform(0.0, TWO_PI, 8)])
        k = 3.0 * np.stack([np.cos(th), np.sin(th)], axis=-1)
        if beta == 1.0:
            pair = make_banded_measure(2, [AngularBand(b, 0.5 * band.density) for b in (
                (1.0, 1.01), (1.0 + math.pi, 1.01 + math.pi))])
            even = beta1_symbol(pair, 0.0, k).real / (-0.5 * math.pi * 3.0 * band.density)
            odd = None
        else:
            psi = tempered_symbol(make_banded_measure(2, [band]), beta, 0.0, k)
            scale = (-1.0) ** math.ceil(beta) * band.density * 3.0 ** beta
            even = psi.real / (scale * math.cos(0.5 * math.pi * beta))
            odd = -psi.imag / (scale * math.sin(0.5 * math.pi * beta))
        with mp.workdps(40):
            for i, tk in enumerate(np.arctan2(k[:, 1], k[:, 0]).tolist()):
                tk = mp.mpf(tk)
                cuts = sorted({mp.mpf(1.0), mp.mpf(1.01)} | {
                    c for c in (tk + s * mp.pi / 2 for s in (-3, -1, 1, 3)) if 1.0 < c < 1.01})
                e = mp.quad(lambda t: abs(mp.cos(t - tk)) ** beta, cuts)
                assert abs(even[i] - e) <= 2e-13 * e
                if odd is not None:
                    o = mp.quad(lambda t: mp.sign(mp.cos(t - tk)) * abs(mp.cos(t - tk)) ** beta,
                                cuts)
                    assert abs(odd[i] - o) <= 2e-13 * e

    @pytest.mark.parametrize("beta", [0.6, 1.3])
    def test_narrow_band_next_to_a_kink_vs_mpmath(self, beta):
        # bands of width 1e-2, 1e-4 and 1e-6 from 0 to 1.2 rad from the kink
        # theta_k + pi/2, on either side, at |k| 0.7, 9 and 300, against
        # 40-digit quadrature cut at the kinks: the band ends' distances from
        # the kink are taken error-free, so no width loses digits
        mp = pytest.importorskip("mpmath")
        k = np.array([r * np.array([math.cos(0.3), math.sin(0.3)]) for r in (0.7, 9.0, 300.0)])
        kink = 0.3 + 0.5 * math.pi
        for width in (1e-2, 1e-4, 1e-6):
            for d in (0.0, 1e-9, 1e-4, 0.02, 0.4, 1.2):
                for lo in (kink + d, kink - d - width):
                    band = AngularBand((lo, lo + width), 1.0 / ((lo + width) - lo))
                    got = tempered_symbol(make_banded_measure(2, [band]), beta, 0.0, k)
                    with mp.workdps(40):
                        a, b = mp.mpf(band.bounds[0]), mp.mpf(band.bounds[1])
                        for psi, (kx, ky) in zip(got, k.tolist()):
                            tk = mp.atan2(ky, kx)
                            cuts = [a, *sorted(c for c in (tk + s * mp.pi / 2 for s in (-1, 1, 3))
                                               if a < c < b), b]
                            want = (-1) ** math.ceil(beta) * mp.mpf(band.density) * mp.quad(
                                lambda t: (-1j * (kx * mp.cos(t) + ky * mp.sin(t))) ** beta, cuts)
                            assert abs(psi - want) <= 1e-14 * abs(want), (width, d, lo, kx)

    def test_nodes_vs_adaptive_tempered_band(self):
        m = fig1_measure()
        ks = np.array([[0.4, 0.1], [2.0, -1.0], [8.0, 3.0]])
        a = tempered_symbol(m, 1.3, 0.7, ks, method="adaptive")
        b = tempered_symbol(m, 1.3, 0.7, ks, method="nodes")
        assert np.max(np.abs(a - b)) < 1e-9

    @pytest.mark.parametrize("beta,lam", [(0.5, 0.0), (0.7, 1.2), (1.3, 0.0),
                                          (1.5, 0.5), (1.9, 2.0)])
    def test_hermitian_and_nonpositive(self, beta, lam):
        rng = np.random.default_rng(42)
        for m in (sym1d(), onesided1d(), fig1_measure(),
                  make_atomic_measure(2, [((1, 0), 2), ((0, 1), 1)])):
            ks = rng.standard_normal((12, m.dimension)) * rng.choice(
                [0.01, 1.0, 30.0], size=(12, 1))
            vals = tempered_symbol(m, beta, lam, ks)
            conj = tempered_symbol(m, beta, lam, -ks)
            assert np.max(np.abs(conj - np.conj(vals))) < 1e-10 * max(1, np.max(np.abs(vals)))
            assert np.all(vals.real <= 1e-12)

    def test_beta_two_continuity_first_order(self):
        m = make_atomic_measure(2, [((1, 0), 0.7), ((0, 1), 0.3)])
        k = np.array([0.8, -0.5])
        lam = 0.6
        ref = beta2_symbol(m, lam, k)
        errs = [abs(tempered_symbol(m, 2.0 - eps, lam, k) - ref)
                for eps in (1e-2, 5e-3, 2.5e-3)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.25)


class TestPolarIdentityAndRadialOracle:
    def test_polar_identity_randomised(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            beta = rng.uniform(0.05, 1.95)
            lam = rng.uniform(0.0, 3.0)
            u = rng.standard_normal() * rng.choice([0.1, 1.0, 10.0])
            direct = complex(lam, -u) ** beta
            polar = (lam * lam + u * u) ** (beta / 2) * cmath.exp(
                -1j * beta * math.atan2(u, lam))
            assert abs(direct - polar) <= 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("beta, lam", [(0.8, 0.5), (1.3, 0.7)])
    def test_bracket_near_zero_against_mpmath(self, beta, lam):
        # the real part is O(u^2): lam^beta (M c - 1) lost 3.3e-2 of it at
        # u = 1e-7; the expm1/log1p form below |u| = lam / 8 measured 2.2e-15
        mp = pytest.importorskip("mpmath")
        u = np.array([1e-3, 1e-5, 1e-7, -1e-5, 0.99 * lam / 8])
        got = symbols_mod._bracket(u, beta, lam)
        with mp.workdps(50):
            for ui, g in zip(u.tolist(), got):
                want = (mp.mpf(lam) - 1j * mp.mpf(ui)) ** beta - mp.mpf(lam) ** beta
                assert abs(g.real - float(want.real)) <= 1e-14 * abs(float(want.real))
                assert abs(g.imag - float(want.imag)) <= 1e-14 * abs(float(want.imag))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_radial_integral_oracle(self):
        # int_0^inf r^(-1-b) e^(-l r) (1-cos(ur)) dr
        #   = Gamma(-b) (l^b - (l^2+u^2)^(b/2) cos(b eta)),  eta = arctan(u/l)
        rng = np.random.default_rng(9)
        for _ in range(12):
            beta = rng.uniform(1.05, 1.95)
            lam = rng.uniform(0.1, 3.0)
            u = rng.uniform(0.2, 8.0)
            split = 20.0 / u
            f = lambda r: r ** (-1 - beta) * math.exp(-lam * r) * (1 - math.cos(u * r))
            quad = si.quad(f, 0, split, limit=500)[0] + si.quad(f, split, np.inf, limit=500)[0]
            eta = math.atan2(u, lam)
            closed = sc.gamma(-beta) * (lam ** beta - (lam ** 2 + u ** 2) ** (beta / 2)
                                        * math.cos(beta * eta))
            assert abs(quad - closed) <= 1e-6 * abs(closed)


class TestBeta1:
    def test_1d_symmetric(self):
        for k in (0.3, 1.0, 4.0):
            assert beta1_symbol(sym1d(), 0.0, k) == pytest.approx(-0.5 * math.pi * k, abs=1e-13)

    def test_isotropic_constant_2d(self):
        # (1/omega_2) pi^(3/2) / Gamma(3/2) = 1
        k = np.array([3.0, 4.0])
        val = beta1_symbol(uniform_measure(2), 0.0, k)
        assert abs(val - (-5.0)) < 1e-12

    def test_zero_at_k0_with_tempering(self):
        assert beta1_symbol(uniform_measure(2), 0.7, np.zeros(2)) == 0
        assert beta1_symbol(sym1d(), 2.0, 0.0) == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            beta1_symbol(onesided1d(), 0.0, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            beta1_symbol(fig1_measure(), 0.5, [1.0, 0.0])

    def test_tempered_band_against_quadpack(self):
        m = uniform_measure(2)
        lam = 0.8
        k = [1.3, -0.4]

        def g(th):
            u = k[0] * math.cos(th) + k[1] * math.sin(th)
            return (u * math.atan(u / lam)
                    - 0.5 * lam * math.log(lam ** 2 + u ** 2) + lam * math.log(lam))

        ref = -si.quad(g, 0, TWO_PI, limit=300)[0] / TWO_PI
        val = beta1_symbol(m, lam, k)
        assert abs(val - ref) < 1e-10

    def test_tempering_to_zero_limit(self):
        k = 1.7
        lam_ladder = [1e-3, 1e-4, 1e-5]
        target = beta1_symbol(sym1d(), 0.0, k)
        errs = [abs(beta1_symbol(sym1d(), lam, k) - target) for lam in lam_ladder]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


class TestBeta2:
    def test_iso(self):
        k = np.array([3.0, 4.0])
        assert beta2_symbol(uniform_measure(2), 0.0, k) == pytest.approx(-12.5, abs=1e-10)

    def test_zero(self):
        assert beta2_symbol(fig1_measure(), 1.0, np.zeros(2)) == 0

    def test_algebraic_expansion_oracle(self):
        # integrating (lam - i k.phi)^2 - lam^2 against the measure directly
        rng = np.random.default_rng(21)
        for _ in range(8):
            atoms = [(rng.standard_normal(2), rng.uniform(0.1, 1)) for _ in range(3)]
            m = make_atomic_measure(2, atoms)
            lam = rng.uniform(0, 2)
            k = rng.standard_normal(2)
            direct = sum(w * ((lam - 1j * (k @ d)) ** 2 - lam ** 2) for d, w in m.atoms)
            assert abs(beta2_symbol(m, lam, k) - direct) < 1e-12


class TestGeneralProfile:
    def test_constant_profile_reduces(self):
        for m, beta, lam in [(sym1d(), 0.5, 0.3), (fig1_measure(), 1.3, 0.0),
                             (fig1_measure(), 1.7, 0.9)]:
            prof = StabilityProfile.constant(m, beta, lam)
            ks = np.array([[0.7] * m.dimension, [-2.0] * m.dimension])
            a = general_profile_symbol(m, prof, ks)
            b = tempered_symbol(m, beta, lam, ks)
            assert np.max(np.abs(a - b)) < 1e-12 * max(1, np.max(np.abs(b)))

    def test_mixed_ranges_flagged(self):
        m = fig1_measure()
        prof = StabilityProfile((1.8, 0.6), (0.0, 0.0))
        with pytest.warns(MixedStabilityRangeWarning):
            general_profile_symbol(m, prof, [1.0, 0.0])

    def test_per_axis_atoms_match_1d_symbols(self):
        # atoms on the axes with per-axis exponents reproduce the sum of the
        # 1D stable symbols in each coordinate
        m = make_atomic_measure(2, [((1, 0), 0.25), ((-1, 0), 0.25),
                                    ((0, 1), 0.25), ((0, -1), 0.25)])
        prof = StabilityProfile((1.8, 1.8, 1.4, 1.4), (0.0,) * 4)
        k = np.array([1.3, -0.8])
        got = general_profile_symbol(m, prof, k)
        m1 = sym1d()
        want = 0.5 * tempered_symbol(m1, 1.8, 0.0, k[0]) \
            + 0.5 * tempered_symbol(m1, 1.4, 0.0, k[1])
        assert abs(got - want) < 1e-13

    def test_fig3b_band_profile_vs_quadpack(self):
        m = make_banded_measure(2, [((0.0, math.pi), 0.6 / math.pi),
                                    ((math.pi, TWO_PI), 0.4 / math.pi)])
        prof = StabilityProfile((1.8, 1.4), (0.0, 0.0))
        k = [0.9, 0.4]

        def part(lo, hi, den, beta):
            def integrand(th, comp):
                u = k[0] * math.cos(th) + k[1] * math.sin(th)
                val = (u * u) ** (beta / 2) * cmath.exp(-1j * beta * math.atan2(u, 0.0))
                return val.real if comp == "re" else val.imag

            return den * (si.quad(integrand, lo, hi, args=("re",), limit=400)[0]
                          + 1j * si.quad(integrand, lo, hi, args=("im",), limit=400)[0])

        want = part(0, math.pi, 0.6 / math.pi, 1.8) + part(math.pi, TWO_PI, 0.4 / math.pi, 1.4)
        got = general_profile_symbol(m, prof, k)
        assert abs(got - want) < 1e-8

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            general_profile_symbol(sym1d(), StabilityProfile((2.0, 2.0), (0.0, 0.0)),
                                   1.0)


class TestIsotropicReference:
    def test_zero(self):
        assert isotropic_reference_symbol(1.3, 0.5, np.zeros(2), 2) == 0

    def test_1d_untempered(self):
        for beta in (0.5, 1.5):
            val = isotropic_reference_symbol(beta, 0.0, 2.0, 1)
            want = 2.0 ** beta * abs(math.cos(0.5 * math.pi * beta))
            assert val == pytest.approx(want, abs=1e-13)
            assert val >= 0

    def test_2d_tempered_vs_quadpack(self):
        beta, lam, kn = 1.3, 0.7, 5.0
        f = lambda th: (lam ** beta - (lam ** 2 + (kn * math.cos(th)) ** 2) ** (beta / 2)
                        * math.cos(beta * math.atan2(kn * math.cos(th), lam)))
        ref = si.quad(f, 0, TWO_PI, limit=300)[0] / TWO_PI
        val = isotropic_reference_symbol(beta, lam, [kn, 0.0], 2)
        assert abs(val - ref) < 1e-9 * abs(ref)

    @pytest.mark.parametrize("beta", [0.6, 1.4])
    @pytest.mark.parametrize("n, rel", [(2, 1e-13), (3, 1e-12)])
    def test_untempered_closed_form(self, n, rel, beta):
        # the lam = 0 closed form against the uniform-measure symbol: closed
        # form in 2D, adaptive quadrature split at the kink k.phi = 0 in 3D
        k = (np.random.default_rng(23).normal(scale=3.0, size=(8, 2)) if n == 2
             else np.array([[2.0, -3.0, 6.0]]))
        val = isotropic_reference_symbol(beta, 0.0, k, n)
        want = -np.real(tempered_symbol(uniform_measure(n), beta, 0.0, k, method="adaptive"))
        assert np.allclose(val, want, rtol=rel, atol=0.0)
        # the graded rule of lam > 0 at lam = 1e-300, where lam^2 underflows
        # and the phase is pi/2, so its integrand is the lam = 0 one, against
        # the closed formula |cos(beta pi/2)| |k|^beta times the sphere mean
        # of |cos|^beta: B(1/2, (beta+1)/2)/pi in 2D, 1/(beta+1) in 3D
        kn = np.geomspace(1e-3, 1e3, 61)
        d = np.random.default_rng(29).normal(size=(61, n))
        k = kn[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
        mean = sc.beta(0.5, 0.5 * (beta + 1.0)) / math.pi if n == 2 else 1.0 / (beta + 1.0)
        exact = abs(math.cos(0.5 * math.pi * beta)) * kn ** beta * mean
        assert np.allclose(isotropic_reference_symbol(beta, 1e-300, k, n), exact,
                           rtol=1e-14, atol=0.0)

    def test_monotone_in_radius(self):
        radii = np.linspace(0.0, 6.0, 25)
        vals = isotropic_reference_symbol(0.7, 1.1, radii[:, None] * np.array([[0.6, 0.8]]), 2)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == pytest.approx(0.0, abs=1e-14)


class TestGeneratorObjects:
    def test_non_finite_value_is_a_numerical_error(self):
        # u^2 overflows past |u| ~ 1.3e154 in the bracket, and NaN > slack is false
        sym = make_generator("tempered_aniso", 2, measure=fig1_measure(), beta=1.3, lam=0.5)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="not finite"):
            sym.evaluate(np.array([[0.0, 0.0], [1e200, 0.0]]))

    def test_all_kinds_vanish_at_zero(self):
        m2 = fig1_measure()
        sym_m = make_atomic_measure(2, [((1, 0), .25), ((-1, 0), .25),
                                        ((0, 1), .25), ((0, -1), .25)])
        gens = [
            make_generator("gaussian_iso", 2, sigma=0.8),
            make_generator("gaussian_axes", 2, sigma=0.8),
            make_generator("gaussian_aniso", 2, measure=m2, sigmas=(0.7, 1.1)),
            # 1/sum(w s^2) * sum(w s^2) - 1 does not round to 0 for these
            make_generator("gaussian_aniso", 2, measure=m2, sigmas=(0.7, 1.3)),
            make_generator("gaussian_aniso", 2, measure=m2, sigmas=(0.8, 1.2)),
            make_generator("stable_aniso", 2, measure=m2, beta=1.3),
            make_generator("tempered_aniso", 2, measure=m2, beta=1.3, lam=0.4),
            make_generator("beta1_aniso", 2, measure=sym_m, lam=0.5),
            make_generator("beta2_quadratic", 2, measure=m2, lam=0.2),
            make_generator("general_profile", 2, measure=m2,
                           profile=StabilityProfile((1.3, 1.7), (0.1, 0.0))),
            make_generator("isotropic_reference", 2, beta=1.3, lam=0.5),
        ]
        k0 = np.zeros(2)
        ks = np.random.default_rng(0).standard_normal((6, 2))
        for g in gens:
            assert g(k0) == 0
            assert np.all(g(np.zeros((3, 2))) == 0)
            vals = np.atleast_1d(g(ks))
            assert np.all(np.real(vals) <= 1e-12)

    @pytest.mark.parametrize("gen", [
        lambda: make_generator("tempered_aniso", 2, measure=fig1_measure(), beta=1.3, lam=0.4),
        lambda: make_generator("tempered_aniso", 3, measure=uniform_measure(3), beta=0.7,
                               lam=0.2),
        lambda: make_generator("gaussian_iso", 2, sigma=0.8),
    ], ids=["tempered_2d", "tempered_3d", "gaussian_iso"])
    def test_empty_wavenumbers(self, gen):
        sym = gen()
        for k in (np.empty((0, sym.dimension)), np.empty((2, 0, sym.dimension))):
            got = sym.evaluate(k)
            assert got.shape == k.shape[:-1] and got.dtype == complex

    @pytest.mark.parametrize("method", ["auto", "nodes", "adaptive"])
    def test_empty_wavenumbers_every_method(self, method):
        for k in (np.empty((0, 3)), np.empty((2, 0, 3))):
            got = tempered_symbol(uniform_measure(3), 0.7, 0.2, k, method=method)
            assert got.shape == k.shape[:-1] and got.dtype == complex

    def test_zeta_scaling(self):
        g1 = make_generator("gaussian_iso", 2, sigma=1.0, zeta=1.0)
        g3 = make_generator("gaussian_iso", 2, sigma=1.0, zeta=3.0)
        k = np.array([0.7, 0.1])
        assert g3(k) == pytest.approx(3.0 * g1(k))

    @pytest.mark.parametrize("zeta", [-2.0, 0.0, math.inf, math.nan])
    def test_zeta_must_be_finite_and_positive(self, zeta):
        # psi is checked before zeta scales it, so a negative rate would pass
        # that check with Re(zeta psi) > 0: diffusion run backwards
        with pytest.raises(ValueError, match="zeta must be finite and positive"):
            make_generator("gaussian_iso", 2, sigma=1.0, zeta=zeta)

    def test_beta1_requires_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_generator("beta1_aniso", 2, measure=fig1_measure(), lam=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_generator("bogus", 2)

    def test_stable_refuses_a_tempering_rate(self):
        # it would be evaluated at lam = 0 whatever lam says
        with pytest.raises(ValueError, match="'tempered_aniso'"):
            make_generator("stable_aniso", 2, measure=fig1_measure(), beta=1.3, lam=0.5)
        for lam in (None, 0.0):
            assert make_generator("stable_aniso", 2, measure=fig1_measure(), beta=1.3,
                                  lam=lam).lam == lam

    def test_positive_real_part_raises(self, monkeypatch):
        monkeypatch.setitem(symbols_mod._EVALUATORS, "gaussian_iso",
                            lambda s, k: np.full(len(k), 1e-6 + 0j))
        with pytest.raises(RuntimeError, match="violated Re psi <= 0"):
            make_generator("gaussian_iso", 2, sigma=1.0)(np.ones((3, 2)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_unknown_method(self, n):
        with pytest.raises(ValueError, match="unknown quadrature method 'adaptve'"):
            tempered_symbol(uniform_measure(n), 0.8, 0.5, np.ones((2, n)), method="adaptve")


class TestJson:
    def generators(self):
        m2 = fig1_measure()
        sym_m = make_atomic_measure(2, [((1, 0), .25), ((-1, 0), .25),
                                        ((0, 1), .25), ((0, -1), .25)])
        return [
            make_generator("gaussian_iso", 2, sigma=0.8, zeta=1.5),
            make_generator("gaussian_axes", 3, sigma=0.8, zeta=1.5),
            make_generator("gaussian_aniso", 2, measure=m2, sigmas=(0.7, 1.1), zeta=1.5),
            make_generator("stable_aniso", 2, measure=m2, beta=1.3, zeta=1.5),
            make_generator("tempered_aniso", 1, measure=onesided1d(), beta=0.6, lam=0.4),
            make_generator("beta1_aniso", 2, measure=sym_m, lam=0.5, zeta=1.5),
            make_generator("beta2_quadratic", 2, measure=m2, lam=0.2, zeta=1.5),
            make_generator("general_profile", 2, measure=m2,
                           profile=StabilityProfile((1.3, 1.7), (0.1, 0.0)), zeta=1.5),
            make_generator("isotropic_reference", 2, beta=1.3, lam=0.5, zeta=1.5),
        ]

    def test_round_trip_every_kind(self):
        # documents, not dataclasses, are compared: == on atom arrays is ambiguous
        gens = self.generators()
        assert {g.kind for g in gens} == set(symbols_mod._KINDS)
        for g in gens:
            doc = to_json(g)
            back = symbol_from_json(json.loads(json.dumps(doc)))
            assert to_json(back) == doc

    def test_config_fields_are_read(self):
        doc = {"kind": "tempered_aniso", "dimension": 2, "beta": 0.8, "lam": 0.5,
               "measure": measure_to_json(fig1_measure())}
        sym = symbol_from_json(doc)
        k = np.array([[0.7, 0.2], [1.5, -3.0]])
        assert np.array_equal(sym(k), tempered_symbol(fig1_measure(), 0.8, 0.5, k))


class TestScalingLimitInvariant:
    def test_symbols_approach_diffusion(self):
        K1 = 1.0
        ks = np.array([[0.5, 0.0], [1.0, 0.7], [0.3, -0.4]])
        k2 = np.sum(ks ** 2, axis=-1)
        prev_iso = prev_axes = None
        for s in (0.4, 0.2, 0.1):
            zeta = 2.0 * K1 / s ** 2
            dev_iso = np.max(np.abs(zeta * np.asarray(gaussian_symbol("iso", ks, sigma=s))
                                    + K1 * k2))
            dev_axes = np.max(np.abs(zeta * np.asarray(gaussian_symbol("axes", ks, sigma=s))
                                     + 0.5 * K1 * k2))
            if prev_iso is not None:
                assert prev_iso / dev_iso == pytest.approx(4.0, rel=0.2)
                assert prev_axes / dev_axes == pytest.approx(4.0, rel=0.2)
            prev_iso, prev_axes = dev_iso, dev_axes


class TestThreeDimensional:
    def test_band_symbol_vs_quadpack(self):
        from anisolap.measures import AngularBand, make_banded_measure

        m3 = make_banded_measure(
            3, [AngularBand((0.0, math.pi / 2, 0.0, TWO_PI), 1.0 / TWO_PI)])
        beta, lam = 1.3, 0.7
        k = np.array([0.6, -0.2, 1.1])

        def integrand(theta, phi, part):
            d = np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi), math.cos(theta)])
            u = d @ k
            eta = math.atan2(u, lam)
            v = ((lam * lam + u * u) ** (beta / 2) * cmath.exp(-1j * beta * eta)
                 - lam ** beta) * math.sin(theta) / TWO_PI
            return v.real if part == "re" else v.imag

        re = si.dblquad(lambda p, t: integrand(t, p, "re"), 0, math.pi / 2,
                        0, TWO_PI, epsabs=1e-11)[0]
        im = si.dblquad(lambda p, t: integrand(t, p, "im"), 0, math.pi / 2,
                        0, TWO_PI, epsabs=1e-11)[0]
        ref = re + 1j * im
        got = tempered_symbol(m3, beta, lam, k, method="nodes")
        assert abs(got - ref) < 1e-10
        got_a = tempered_symbol(m3, beta, lam, k, method="adaptive")
        assert abs(got_a - ref) < 1e-9

    def test_isotropic_reference_3d_vs_quadpack(self):
        beta, lam, kn = 1.3, 0.7, 2.5
        f = lambda t: (lam ** beta - (lam ** 2 + (kn * t) ** 2) ** (beta / 2)
                       * math.cos(beta * math.atan2(kn * t, lam)))
        ref = si.quad(f, 0, 1, limit=200)[0]
        got = isotropic_reference_symbol(beta, lam, np.array([0.0, 0.0, kn]), 3)
        assert got == pytest.approx(ref, rel=1e-10)
