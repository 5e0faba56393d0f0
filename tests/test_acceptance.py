"""Acceptance suite: one test per shipped criterion, each printing a
machine-readable ACCEPT line with the measured value and its tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see every line.
"""

import cmath
import math
import time

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sc

from anisolap.analysis import (
    coercivity_ratio,
    counterexample_1d,
    mass_conservation_check,
    parseval_bilinear_check,
    scaling_limit_check,
    symbol_asymptotic_slopes,
)
from anisolap.evolve import (
    DensityField,
    SpectralGrid,
    compare_densities,
    delta_density,
    density_from_samples,
    evolve_spectral,
    evolve_time_fractional,
    gaussian_density,
    spectral_apply,
)
from anisolap.measures import (
    StabilityProfile,
    make_atomic_measure,
    make_banded_measure,
    sphere_integrate,
    uniform_measure,
)
from anisolap.multistate import (
    StateModel,
    WaitingLaw,
    montroll_transform,
    multistate_endpoints,
    validate_multistate,
)
from anisolap.realspace import apply_caseI, apply_caseII, gaussian_bump
from anisolap.sampler import (
    JumpSpec,
    compound_poisson_endpoints,
    empirical_cf,
    ensemble_endpoints_parallel,
    sample_inverse_subordinator,
)
from anisolap.symbols import (
    beta1_symbol,
    beta2_symbol,
    gaussian_symbol,
    make_generator,
    tempered_symbol,
)
from shared_measures import fig1_measure, onesided1d, sym1d

TWO_PI = 2.0 * math.pi


def accept(name, value, tol, passed=None):
    ok = (value <= tol) if passed is None else passed
    print(f"ACCEPT {name} value={value:.6e} tol={tol:.6e} "
          f"status={'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {value} vs tolerance {tol}"


def axes2d():
    return make_atomic_measure(2, [((1, 0), 2.0 / 3.0), ((0, 1), 1.0 / 3.0)])


# ---------------------------------------------------------------------------
# 1. real-space vs Fourier-side equivalence on six scenarios
# ---------------------------------------------------------------------------

_SCENARIOS = [
    # (name, measure factory, case, beta, lam, dimension, L, N, xmax, stride)
    ("caseI_sym_2d_iso_b13_l0", lambda: uniform_measure(2),
     "I", 1.3, 0.0, 2, 16.0, 256, 2.0, 16),
    ("caseI_sym_1d_b15_l1", sym1d, "I", 1.5, 1.0, 1, 16.0, 1024, 3.0, 8),
    ("caseI_asym_1d_b05_l0", onesided1d, "I", 0.5, 0.0, 1, 256.0, 16384, 3.0, 1),
    ("caseI_asym_2d_fig1_b08_l05", fig1_measure, "I", 0.8, 0.5, 2, 16.0, 256, 2.0, 16),
    ("caseII_asym_2d_axes_b15_l0", axes2d, "II", 1.5, 0.0, 2, 16.0, 256, 2.0, 16),
    ("caseII_asym_1d_b15_l05", onesided1d, "II", 1.5, 0.5, 1, 16.0, 1024, 3.0, 8),
]


@pytest.mark.parametrize("name,mk,case,beta,lam,dim,L,N,xmax,stride",
                         _SCENARIOS, ids=[s[0] for s in _SCENARIOS])
def test_criterion_01_theorem1_equivalence(name, mk, case, beta, lam, dim, L, N,
                                           xmax, stride):
    start = time.time()
    measure = mk()
    bump = gaussian_bump(dim)
    grid = SpectralGrid(dim, L, N)
    vals = bump.f(grid.points()).reshape(grid.shape())
    psi = np.asarray(tempered_symbol(measure, beta, lam, grid.k_points(),
                                     method="nodes")).reshape(grid.shape())
    spectral = spectral_apply(vals, psi)
    ax = grid.axis()
    ii = np.flatnonzero(np.abs(ax) <= xmax)[::stride]
    if dim == 1:
        pts = ax[ii][:, None]
        ref = spectral[ii]
    else:
        mesh = np.meshgrid(ax[ii], ax[ii], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        ref = spectral[np.ix_(ii, ii)].ravel()
    fn = apply_caseII if case == "II" else apply_caseI
    direct = fn(bump, measure, beta, lam, pts, refinement=48)
    rel = float(np.linalg.norm(direct - ref) / np.linalg.norm(ref))
    runtime = time.time() - start
    accept(f"01_theorem1[{name}]", rel, 1e-3)
    assert runtime <= 120.0, f"scenario exceeded the runtime budget: {runtime:.0f}s"


# ---------------------------------------------------------------------------
# 2. tempered radial-integral identity
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_02_radial_integral_oracle():
    # int_0^inf r^(-1-b) e^(-l r)(1 - cos(ur)) dr
    #   = Gamma(-b) (l^b - (l^2+u^2)^(b/2) cos(b*arctan(u/l)))
    worst = 0.0
    for beta in (1.1, 1.3, 1.5, 1.7, 1.9):
        for lam in (0.5, 2.0):
            for u in (0.5, 5.0):
                split = 20.0 / u
                f = lambda r: r ** (-1 - beta) * math.exp(-lam * r) * (1 - math.cos(u * r))
                quad = si.quad(f, 0, split, limit=500)[0] \
                    + si.quad(f, split, np.inf, limit=500)[0]
                eta = math.atan2(u, lam)
                closed = sc.gamma(-beta) * (
                    lam ** beta - (lam ** 2 + u ** 2) ** (beta / 2) * math.cos(beta * eta))
                worst = max(worst, abs(quad - closed) / abs(closed))
    accept("02_radial_integral_battery20", worst, 1e-6)


# ---------------------------------------------------------------------------
# 3. exponent-1 isotropic constant
# ---------------------------------------------------------------------------

def test_criterion_03_beta1_isotropic_constant():
    worst = 0.0
    for n, measure in ((1, sym1d()), (2, uniform_measure(2))):
        omega = 2.0 if n == 1 else TWO_PI
        const = (1.0 / omega) * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        for kn in (0.3, 1.0, 7.5):
            k = kn if n == 1 else np.array([kn, 0.0]) @ np.array(
                [[math.cos(0.4), math.sin(0.4)], [-math.sin(0.4), math.cos(0.4)]])
            got = beta1_symbol(measure, 0.0, k)
            worst = max(worst, abs(abs(got) - const * kn))
    accept("03_beta1_isotropic_constant", worst, 1e-8)


# ---------------------------------------------------------------------------
# 4. quadratic reduction at exponent 2
# ---------------------------------------------------------------------------

def test_criterion_04_beta2_reduction():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(10):
        atoms = [(rng.standard_normal(2), rng.uniform(0.1, 1.0)) for _ in range(4)]
        m = make_atomic_measure(2, atoms)
        lam = rng.uniform(0.0, 2.0)
        k = rng.standard_normal(2) * rng.choice([0.3, 1.0, 5.0])
        direct = sphere_integrate(
            m, lambda d: (lam - 1j * (d @ k)) ** 2 - lam ** 2)
        worst = max(worst, abs(beta2_symbol(m, lam, k) - direct))
    accept("04_beta2_directional_integral", worst, 1e-12)

    # first-order convergence of the tempered symbol at beta -> 2
    m = axes2d()
    k = np.array([0.8, -0.5])
    lam = 0.6
    ref = beta2_symbol(m, lam, k)
    eps = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
    errs = np.array([abs(tempered_symbol(m, 2.0 - e, lam, k) - ref) for e in eps])
    ratios = errs[:-1] / errs[1:]
    dev = float(np.max(np.abs(ratios - 2.0)))
    accept("04_beta2_first_order_in_eps", dev, 0.5)


# ---------------------------------------------------------------------------
# 5. empirical characteristic functions of the two Gaussian walks
# ---------------------------------------------------------------------------

def test_criterion_05_ecf_statistical_match():
    start = time.time()
    n = 100_000
    t = zeta = 1.0
    sigma = 1.0
    probes = [np.array(v) for v in ([0.5, 0.0], [1.0, 0.0], [2.0, 0.0],
                                    [0.0, 1.0], [0.7, 0.7])]
    tol = 5.0 / math.sqrt(n)
    for label, kind in (("case1", "gaussian_iso"), ("case2", "gaussian_axes")):
        spec = JumpSpec(kind, 2, sigma=sigma)
        ends = ensemble_endpoints_parallel(spec, zeta, t, n, seed=515)
        worst = 0.0
        for k in probes:
            est = empirical_cf(ends, k)
            phi = complex(gaussian_symbol("iso" if kind == "gaussian_iso" else "axes",
                                          k, sigma=sigma))
            worst = max(worst, abs(est.value - cmath.exp(zeta * t * phi)))
        accept(f"05_ecf_{label}", worst, tol)
    assert time.time() - start <= 60.0


# ---------------------------------------------------------------------------
# 6. Monte Carlo histogram vs spectral density
# ---------------------------------------------------------------------------

def test_criterion_06_mc_vs_spectral_density():
    start = time.time()
    L, nc, rf = 8.0, 16, 5
    grid = SpectralGrid(2, L, nc)
    sym = make_generator("gaussian_iso", 2, sigma=1.0, zeta=1.0)
    # evolve on a 5x finer grid and average fine cells into histogram cells
    # (odd factor: fine cells nest exactly inside coarse ones)
    fine_grid = SpectralGrid(2, L, nc * rf)
    fine = evolve_spectral(delta_density(fine_grid), sym, 1.0,
                           check_boundary=False).values
    blk = np.roll(np.roll(fine, rf // 2, axis=0), rf // 2, axis=1)
    blk = blk.reshape(nc, rf, nc, rf).mean(axis=(1, 3))
    ref = DensityField(grid, blk, 1.0)
    ends = ensemble_endpoints_parallel(JumpSpec("gaussian_iso", 2, sigma=1.0),
                                       1.0, 1.0, 1_000_000, seed=2026)
    hist = density_from_samples(ends, grid)
    l1 = compare_densities(hist, ref)["l1"]
    accept("06_mc_vs_spectral_l1", l1, 1e-2)
    assert time.time() - start <= 300.0


# ---------------------------------------------------------------------------
# 7. coercivity dichotomy, frozen floors, asymptotic slopes
# ---------------------------------------------------------------------------

def test_criterion_07_coercivity_dichotomy():
    degenerate = [
        ("line2d", make_atomic_measure(2, [((1, 0), .5), ((-1, 0), .5)]), 1.5, 0.5),
        ("atom2d", make_atomic_measure(2, [((0, 1), 1.0)]), 0.7, 1.0),
        ("plane3d", make_atomic_measure(3, [((1, 0, 0), .4), ((0, 1, 0), .3),
                                            ((-1, -1, 0), .3)]), 1.2, 0.4),
    ]
    for name, m, beta, lam in degenerate:
        rep = coercivity_ratio(m, beta, lam)
        accept(f"07_degenerate_witness[{name}]", rep.witness_numerator, 1e-10,
               rep.verdict == "degenerate-direction-found"
               and rep.witness_numerator <= 1e-10)

    # floors frozen from a fine-grid probe run (75 radii x 192/384 directions)
    nondegenerate = [
        ("axes2d", make_atomic_measure(2, [((1, 0), .5), ((0, 1), .5)]), 1.5, 0.5, 0.895),
        ("fig1band", fig1_measure(), 1.3, 0.7, 0.999),
        ("tripod3d", make_atomic_measure(3, [((1, 0, 0), 1), ((0, 1, 0), 1),
                                             ((0, 0, 1), 1)]), 0.8, 0.3, 0.62),
    ]
    for name, m, beta, lam, floor in nondegenerate:
        rep = coercivity_ratio(m, beta, lam)
        accept(f"07_nondegenerate_floor[{name}]", rep.ratio_infimum, floor,
               rep.verdict == "coercive" and rep.ratio_infimum >= floor)

    worst = 0.0
    for beta in (0.7, 1.5):
        sl = symbol_asymptotic_slopes(
            make_atomic_measure(2, [((1, 0), .5), ((0, 1), .5)]), beta, 0.5)
        worst = max(worst,
                    abs(sl["numerator_small"] / 2.0 - 1.0),
                    abs(sl["reference_small"] / 2.0 - 1.0),
                    abs(sl["numerator_large"] / beta - 1.0),
                    abs(sl["reference_large"] / beta - 1.0))
    accept("07_asymptotic_slopes", worst, 0.05)


# ---------------------------------------------------------------------------
# 8. Parseval identity for the bilinear form
# ---------------------------------------------------------------------------

def test_criterion_08_parseval_bilinear():
    scenarios = [
        ("1d_b05_l1", gaussian_bump(1), sym1d(), 0.5, 1.0,
         {"half_width": 12.0, "n_points": 384}),
        ("1d_b15_l05", gaussian_bump(1), sym1d(), 1.5, 0.5,
         {"half_width": 12.0, "n_points": 384}),
        ("2d_axes_b13_l05", gaussian_bump(2),
         make_atomic_measure(2, [((1, 0), .25), ((-1, 0), .25),
                                 ((0, 1), .25), ((0, -1), .25)]), 1.3, 0.5,
         {"half_width": 10.0, "n_points": 96}),
    ]
    for name, q, m, beta, lam, kw in scenarios:
        rep = parseval_bilinear_check(q, m, beta, lam, **kw, budget=1e-2)
        accept(f"08_parseval[{name}]", rep.relative_deviation, 1e-2)


# ---------------------------------------------------------------------------
# 9. one-sided counterexample
# ---------------------------------------------------------------------------

def test_criterion_09_counterexample():
    rep = counterexample_1d(beta=0.5, lam=1.0, truncations=(1., 2., 5., 10., 20.))
    accept("09_counterexample_positive_monotone", 0.0, 0.5,
           rep.all_positive and rep.monotone and rep.seminorm_product == 0.0)
    R10 = float(rep.values[list(rep.truncations).index(10.0)])
    accept("09_counterexample_R10_positive", -R10, 0.0, R10 > 0)


# ---------------------------------------------------------------------------
# 10. mass conservation and the semigroup property across the symbol battery
# ---------------------------------------------------------------------------

def _symbol_battery():
    return [
        ("gaussian_iso", make_generator("gaussian_iso", 2, sigma=1.0), 10.0, 64),
        ("gaussian_axes", make_generator("gaussian_axes", 2, sigma=1.0), 10.0, 64),
        ("gaussian_aniso", make_generator("gaussian_aniso", 2, measure=fig1_measure(),
                                          sigmas=(0.8, 1.2)), 10.0, 64),
        ("stable_fig1", make_generator("stable_aniso", 2, measure=fig1_measure(),
                                       beta=1.3), 12.0, 64),
        ("tempered_axes", make_generator("tempered_aniso", 2, measure=axes2d(),
                                         beta=1.5, lam=0.5), 12.0, 64),
        ("beta1_iso", make_generator("beta1_aniso", 2, measure=uniform_measure(2),
                                     lam=0.5), 12.0, 64),
        ("beta2_asym", make_generator("beta2_quadratic", 2, measure=axes2d(),
                                      lam=0.3), 12.0, 64),
        ("profile_halves", make_generator(
            "general_profile", 2,
            measure=make_banded_measure(2, [((0.0, math.pi), 0.5 / math.pi),
                                            ((math.pi, TWO_PI), 0.5 / math.pi)]),
            profile=StabilityProfile((1.8, 1.4), (0.0, 0.0))), 12.0, 64),
    ]


def test_criterion_10_mass_and_semigroup():
    worst_mass = 0.0
    worst_semi = 0.0
    for name, sym, L, N in _symbol_battery():
        grid = SpectralGrid(2, L, N)
        p0 = gaussian_density(grid, 0.5)
        rep = mass_conservation_check(sym, p0, times=(0.3, 0.9, 1.5))
        worst_mass = max(worst_mass, rep.max_drift)
        two_step = evolve_spectral(evolve_spectral(p0, sym, 0.4, check_boundary=False),
                                   sym, 0.8, check_boundary=False)
        direct = evolve_spectral(p0, sym, 1.2, check_boundary=False)
        worst_semi = max(worst_semi, float(np.max(np.abs(two_step.values
                                                         - direct.values))))
    accept("10_mass_drift_battery", worst_mass, 1e-12)
    accept("10_semigroup_defect_battery", worst_semi, 1e-10)


# ---------------------------------------------------------------------------
# 11. multistate validation
# ---------------------------------------------------------------------------

def test_criterion_11_multistate():
    model = StateModel(
        M=[[0.0, 1.0], [1.0, 0.0]],
        init=[1.0, 0.0],
        waiting=(WaitingLaw("exp", rate=1.0), WaitingLaw("exp", rate=2.0)),
        jumps=(JumpSpec("gaussian_iso", 2, sigma=0.7),
               JumpSpec("gaussian_iso", 2, sigma=1.3)),
    )
    n = 100_000
    rep = validate_multistate(model, [[1.0, 0.0], [0.3, 0.6], [0.0, 1.5]], 1.0,
                              n, np.random.default_rng(606))
    accept("11_swap_chain_ecf", float(rep.deviations.max()), rep.tolerance)

    worst = 0.0
    for s in (0.5, 1.0 + 0.7j, 3.0):
        g = montroll_transform(model, np.zeros(2), s)
        worst = max(worst, abs(complex(g.sum()) - 1.0 / s))
    accept("11_montroll_total_probability", worst, 1e-10)

    single = StateModel(M=[[1.0]], init=[1.0],
                        waiting=(WaitingLaw("exp", rate=1.2),),
                        jumps=(JumpSpec("gaussian_iso", 2, sigma=1.0),))
    ens = multistate_endpoints(single, 1.0, n, np.random.default_rng(607))
    ref = compound_poisson_endpoints(JumpSpec("gaussian_iso", 2, sigma=1.0),
                                     1.2, 1.0, n, np.random.default_rng(608))
    worst = 0.0
    for k in ([0.7, 0.0], [0.0, 1.3], [1.0, 1.0]):
        worst = max(worst, abs(empirical_cf(ens.positions, k).value
                               - empirical_cf(ref, k).value))
    accept("11_single_state_reduction", worst, 5.0 / math.sqrt(n))


# ---------------------------------------------------------------------------
# 12. path-functional statistics
# ---------------------------------------------------------------------------

def test_criterion_12_feynman_kac_functionals():
    model = StateModel(M=[[1.0]], init=[1.0],
                       waiting=(WaitingLaw("exp", rate=1.0),),
                       jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),))
    t, rho, n = 1.3, 0.9, 20_000
    const = lambda x: np.ones(np.asarray(x).shape[:-1])
    ens = multistate_endpoints(model, t, 2000, np.random.default_rng(712),
                               functional=const)
    est = empirical_cf(ens.functional, [rho])
    accept("12_constant_weight_exact_phase",
           abs(est.value - cmath.exp(1j * rho * t)), 1e-12)

    half = lambda x: 0.5 * (1.0 + np.sign(np.asarray(x)[..., 0]))
    ens = multistate_endpoints(model, 1.0, n, np.random.default_rng(713),
                               functional=half)
    se = float(ens.functional.std(ddof=1) / math.sqrt(n))
    accept("12_half_space_occupation_mean",
           abs(float(ens.functional.mean()) - 0.5), 3.0 * se)


# ---------------------------------------------------------------------------
# 13. diffusion scaling limit
# ---------------------------------------------------------------------------

def test_criterion_13_scaling_limit():
    rep = scaling_limit_check((0.4, 0.2, 0.1, 0.05), 1.0,
                              ((0.5, 0.0), (1.0, 0.7), (0.3, -0.4)))
    expected = (rep.sigmas[:-1] / rep.sigmas[1:]) ** 2
    worst = max(float(np.max(np.abs(rep.rung_ratios_iso / expected - 1.0))),
                float(np.max(np.abs(rep.rung_ratios_axes / expected - 1.0))))
    accept("13_scaling_rung_ratio", worst, 0.2)


# ---------------------------------------------------------------------------
# 14. time-fractional subordination
# ---------------------------------------------------------------------------

def test_criterion_14_time_fractional():
    sym = make_generator("gaussian_iso", 1, sigma=1.0, zeta=1.0)
    grid = SpectralGrid(1, 16.0, 256)
    p0 = gaussian_density(grid, 0.5)
    plain = evolve_spectral(p0, sym, 1.0)
    res = evolve_time_fractional(p0, sym, 0.99, 1.0, 200,
                                 np.random.default_rng(814))
    accept("14_alpha099_l1_vs_plain",
           compare_densities(res.density, plain)["l1"], 0.05)

    rng = np.random.default_rng(815)
    alpha, t, n = 0.7, 1.0, 4000
    e = sample_inverse_subordinator(alpha, t, rng, size=n)
    want = t ** alpha / math.gamma(1.0 + alpha)
    se = float(e.std(ddof=1) / math.sqrt(n))
    accept("14_inverse_subordinator_mean", abs(float(e.mean()) - want), 3.0 * se)
