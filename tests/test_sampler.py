import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sc

from anisolap.measures import make_atomic_measure, make_banded_measure, to_json, uniform_measure
from anisolap.sampler import (
    JumpSpec,
    compound_poisson_endpoints,
    empirical_cf,
    ensemble_endpoints_parallel,
    jump_cf,
    jump_from_json,
    matched_rate,
    sample_direction,
    sample_inverse_subordinator,
    sample_jump,
    sample_one_sided_stable,
    simulate_compound_poisson,
)
from anisolap.symbols import tempered_symbol
from shared_measures import fig1_measure

TWO_PI = 2.0 * math.pi


class TestDirections:
    def test_single_atom_deterministic(self):
        m = make_atomic_measure(2, [((1, 0), 1.0)])
        rng = np.random.default_rng(0)
        d = sample_direction(m, rng, size=50)
        assert np.all(d == np.array([1.0, 0.0]))

    def test_fig1_upper_fraction(self):
        rng = np.random.default_rng(1)
        n = 100_000
        d = sample_direction(fig1_measure(), rng, size=n)
        upper = np.mean(d[:, 1] > 0)
        p = 2.0 / 3.0
        assert abs(upper - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_isotropic_mean_direction(self):
        rng = np.random.default_rng(2)
        n = 40_000
        d = sample_direction(uniform_measure(2), rng, size=n)
        assert np.linalg.norm(d.mean(axis=0)) <= 3.0 / math.sqrt(n)

    def test_3d_band_sampling_on_support(self):
        m = make_banded_measure(3, [((0.0, math.pi / 2, 0.0, TWO_PI), 1.0 / TWO_PI)])
        rng = np.random.default_rng(3)
        d = sample_direction(m, rng, size=2000)
        assert np.all(d[:, 2] >= 0)  # upper hemisphere only
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


class TestJumps:
    def test_pareto_tail_ks(self):
        rng = np.random.default_rng(4)
        n = 100_000
        beta, r0 = 1.3, 0.05
        spec = JumpSpec("stable", 1, measure=make_atomic_measure(1, [((1,), 1.0)]),
                        beta=beta, r0=r0)
        r = np.linalg.norm(sample_jump(spec, rng, size=n), axis=1)
        u = np.sort((r0 / r) ** beta)  # should be U(0,1)
        ks = np.max(np.abs(u - (np.arange(1, n + 1) - 0.5) / n))
        assert ks <= 1.63 / math.sqrt(n)

    def test_tempered_lambda_zero_matches_stable_stream(self):
        m = fig1_measure()
        s1 = JumpSpec("stable", 2, measure=m, beta=1.3, r0=0.01)
        s2 = JumpSpec("tempered_stable", 2, measure=m, beta=1.3, lam=0.0, r0=0.01)
        a = sample_jump(s1, np.random.default_rng(7), size=500)
        b = sample_jump(s2, np.random.default_rng(7), size=500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [0.5, 1e-9])
    def test_stable_refuses_a_tempering_rate(self, lam):
        # its draws would ignore lam while jump_cf and matched_rate used it
        with pytest.raises(ValueError, match="'tempered_stable'"):
            JumpSpec("stable", 2, measure=uniform_measure(2), beta=1.3, lam=lam, r0=0.01)
        assert JumpSpec("stable", 2, measure=uniform_measure(2), beta=1.3, lam=0.0,
                        r0=0.01).lam == 0.0

    def test_gaussian_iso_second_moment(self):
        rng = np.random.default_rng(5)
        n, sigma = 50_000, 0.8
        spec = JumpSpec("gaussian_iso", 2, sigma=sigma)
        y = sample_jump(spec, rng, size=n)
        sq = np.sum(y ** 2, axis=1)
        want = 2 * sigma ** 2
        assert abs(sq.mean() - want) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)

    def test_gaussian_axes_support(self):
        rng = np.random.default_rng(6)
        y = sample_jump(JumpSpec("gaussian_axes", 2, sigma=1.0), rng, size=1000)
        on_axis = (y[:, 0] == 0) | (y[:, 1] == 0)
        assert np.all(on_axis)

    def test_tempering_acceptance_monotone(self):
        # with a shared proposal/uniform stream, every radius accepted under a
        # larger tempering rate is also accepted (with the same value) under a
        # smaller one
        rng = np.random.default_rng(8)
        r = 0.05 * rng.uniform(size=4000) ** (-1.0 / 1.3)
        u = rng.uniform(size=4000)
        accepted = {lam: set(np.flatnonzero(u <= np.exp(-lam * r)))
                    for lam in (0.1, 0.5, 2.0)}
        assert accepted[2.0] <= accepted[0.5] <= accepted[0.1]

    def test_rejection_cap(self):
        m = make_atomic_measure(1, [((1,), 1.0)])
        spec = JumpSpec("tempered_stable", 1, measure=m, beta=0.5, lam=500.0,
                        r0=1.0, max_rejections=5)
        with pytest.raises(RuntimeError, match="rejection"):
            sample_jump(spec, np.random.default_rng(0), size=100)

    def test_single_atom_stable_direction_support(self):
        spec = JumpSpec("stable", 2, measure=make_atomic_measure(2, [((1, 0), 1.0)]),
                        beta=1.8, r0=0.1)
        y = sample_jump(spec, np.random.default_rng(9), size=200)
        assert np.all(y[:, 1] == 0) and np.all(y[:, 0] >= 0.1)


class TestCompoundPoisson:
    def test_event_count_mean(self):
        rng = np.random.default_rng(10)
        spec = JumpSpec("gaussian_iso", 2, sigma=1.0)
        counts = [len(simulate_compound_poisson(spec, 1.0, 1.0, [0, 0], rng).times) - 1
                  for _ in range(2000)]
        counts = np.asarray(counts, dtype=float)
        assert abs(counts.mean() - 1.0) <= 3.0 * counts.std(ddof=1) / math.sqrt(len(counts))

    def test_trajectory_invariants(self):
        rng = np.random.default_rng(11)
        spec = JumpSpec("stable", 2, measure=fig1_measure(), beta=1.3, r0=0.01)
        traj = simulate_compound_poisson(spec, 1.0, 50.0, [1.0, -2.0], rng)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert np.allclose(traj.positions[0], [1.0, -2.0])

    def test_levy_flight_has_rare_large_jumps(self):
        # same seed: the power-law walk shows a much larger max/median jump
        # ratio than the Gaussian walk
        spec_levy = JumpSpec("stable", 2, measure=uniform_measure(2), beta=1.3, r0=0.01)
        spec_gauss = JumpSpec("gaussian_iso", 2, sigma=0.05)
        t_levy = simulate_compound_poisson(spec_levy, 1.0, 2000.0, [0, 0],
                                           np.random.default_rng(42))
        t_gauss = simulate_compound_poisson(spec_gauss, 1.0, 2000.0, [0, 0],
                                            np.random.default_rng(42))

        def max_over_median(traj):
            steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
            return steps.max() / np.median(steps)

        assert max_over_median(t_levy) > 10.0
        assert max_over_median(t_levy) > 3.0 * max_over_median(t_gauss)

    def test_reproducible_bit_exact(self):
        spec = JumpSpec("tempered_stable", 2, measure=fig1_measure(), beta=1.3,
                        lam=0.01, r0=0.01)
        a = simulate_compound_poisson(spec, 1.0, 100.0, [0, 0], np.random.default_rng(123))
        b = simulate_compound_poisson(spec, 1.0, 100.0, [0, 0], np.random.default_rng(123))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)

    def test_parallel_chunking_independent_of_workers(self, monkeypatch):
        spec = JumpSpec("gaussian_iso", 2, sigma=1.0)
        monkeypatch.setenv("ANISOLAP_THREADS", "1")
        a = ensemble_endpoints_parallel(spec, 1.0, 1.0, 1000, seed=5)
        monkeypatch.setenv("ANISOLAP_THREADS", "4")
        b = ensemble_endpoints_parallel(spec, 1.0, 1.0, 1000, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_ensemble_needs_a_path(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            ensemble_endpoints_parallel(JumpSpec("gaussian_iso", 2, sigma=1.0), 1.0, 1.0,
                                        n_paths, seed=1)


class TestEcf:
    def test_k_zero_is_one(self):
        ends = np.random.default_rng(0).standard_normal((100, 2))
        est = empirical_cf(ends, [0.0, 0.0])
        assert est.value == 1.0

    def test_case1_matches_closed_form(self):
        rng = np.random.default_rng(12)
        n = 20_000
        spec = JumpSpec("gaussian_iso", 2, sigma=1.0)
        ends = compound_poisson_endpoints(spec, 1.0, 1.0, n, rng)
        for kn in (0.5, 1.0, 2.0):
            est = empirical_cf(ends, [kn, 0.0])
            theory = math.exp(math.exp(-0.5 * kn ** 2) - 1.0)
            assert abs(est.value - theory) <= 5.0 / math.sqrt(n)

    def test_tempered_ensemble_vs_levy_symbol(self):
        # matched-rate compound Poisson approximates the Levy symbol up to the
        # documented inner-cutoff bias
        from anisolap.realspace import radial_moment_lower

        m = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
        beta, lam, r0, t = 1.3, 1.0, 1e-3, 1.0
        spec = JumpSpec("tempered_stable", 1, measure=m, beta=beta, lam=lam, r0=r0)
        zeta = matched_rate(spec)
        n = 40_000
        ends = compound_poisson_endpoints(spec, zeta, t, n, np.random.default_rng(13))
        for kn in (0.5, 1.0):
            est = empirical_cf(ends, [kn])
            theory = np.exp(t * tempered_symbol(m, beta, lam, kn))
            bias = t * kn ** 2 * radial_moment_lower(2, beta, lam, r0) \
                / (2.0 * abs(sc.gamma(-beta)))
            tol = 5.0 / math.sqrt(n) + bias
            assert abs(est.value - theory) <= tol

    def test_matched_rate_undefined_at_beta_one(self):
        for lam in (0.0, 1.0):
            spec = JumpSpec("tempered_stable", 1, measure=uniform_measure(1), beta=1.0,
                            lam=lam, r0=1e-3)
            with pytest.raises(ValueError, match="undefined at beta = 1"):
                matched_rate(spec)

    def test_fig1_upward_drift_against_isotropic(self):
        # shared master seed; the band measure pushes paths upward
        beta, r0, T = 1.3, 0.01, 500.0
        iso = JumpSpec("stable", 2, measure=uniform_measure(2), beta=beta, r0=r0)
        aniso = JumpSpec("stable", 2, measure=fig1_measure(), beta=beta, r0=r0)
        n = 400
        e_iso = ensemble_endpoints_parallel(iso, 1.0, T, n, seed=99)
        e_aniso = ensemble_endpoints_parallel(aniso, 1.0, T, n, seed=99)
        se = e_aniso[:, 1].std(ddof=1) / math.sqrt(n)
        assert e_aniso[:, 1].mean() - e_iso[:, 1].mean() > 3.0 * se


class TestMsd:
    def test_gaussian_wald_identity(self):
        # E|X(t)|^2 = zeta t E|Y|^2 for a compound-Poisson walk from the origin
        rng = np.random.default_rng(14)
        n, sigma, zeta, t = 30_000, 0.7, 2.0, 1.5
        spec = JumpSpec("gaussian_iso", 2, sigma=sigma)
        sq = np.sum(compound_poisson_endpoints(spec, zeta, t, n, rng) ** 2, axis=1)
        want = zeta * t * 2 * sigma ** 2
        assert abs(sq.mean() - want) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)


class TestSubordinator:
    def test_one_sided_stable_laplace(self):
        rng = np.random.default_rng(16)
        n = 200_000
        s = sample_one_sided_stable(0.6, rng, size=n)
        for lam in (0.5, 1.0, 2.0):
            emp = np.mean(np.exp(-lam * s))
            assert abs(emp - math.exp(-lam ** 0.6)) <= 5.0 / math.sqrt(n)

    def test_inverse_mean(self):
        rng = np.random.default_rng(17)
        alpha, t, n = 0.7, 1.3, 3000
        e = sample_inverse_subordinator(alpha, t, rng, size=n)
        want = t ** alpha / math.gamma(1.0 + alpha)
        se = e.std(ddof=1) / math.sqrt(n)
        assert abs(e.mean() - want) <= 3.0 * se + 2e-3

    def test_alpha_near_one_degenerates(self):
        rng = np.random.default_rng(18)
        e = sample_inverse_subordinator(0.99, 1.0, rng, size=400)
        assert abs(e.mean() - 1.0) <= 0.05

    def test_first_passage_monotone_along_path(self):
        # one subordinator path, crossing levels in increasing order
        rng = np.random.default_rng(19)
        alpha, dtau = 0.7, 1e-3
        incr = dtau ** (1 / alpha) * sample_one_sided_stable(alpha, rng, size=20_000)
        S = np.cumsum(incr)
        taus = [dtau * (np.searchsorted(S, t, side="right") + 1) for t in (0.5, 1.0, 2.0)]
        assert taus[0] <= taus[1] <= taus[2]


class TestJson:
    def test_roundtrip(self):
        spec = JumpSpec("tempered_stable", 2, measure=fig1_measure(), beta=1.3,
                        lam=0.01, r0=0.01)
        spec2 = jump_from_json(to_json(spec))
        assert spec2.kind == spec.kind and spec2.beta == spec.beta
        assert spec2.measure.bands[0].density == pytest.approx(
            spec.measure.bands[0].density)

    def test_max_rejections_roundtrip(self):
        spec = JumpSpec("tempered_stable", 2, measure=fig1_measure(), beta=1.3,
                        lam=0.5, r0=0.01, max_rejections=7)
        doc = json.loads(json.dumps(to_json(spec)))
        assert doc["max_rejections"] == 7
        assert jump_from_json(doc).max_rejections == 7
        del doc["max_rejections"]
        assert jump_from_json(doc).max_rejections == 10_000

    def test_gaussian_aniso_roundtrip(self):
        spec = JumpSpec("gaussian_aniso", 2, sigmas=(0.8, 1.2), measure=fig1_measure())
        doc = json.loads(json.dumps(to_json(spec)))
        assert doc["sigmas"] == [0.8, 1.2] and "max_rejections" not in doc
        spec2 = jump_from_json(doc)
        assert (spec2.kind, spec2.sigmas) == ("gaussian_aniso", (0.8, 1.2))
        assert spec2.measure.bands == spec.measure.bands

    def test_validation(self):
        with pytest.raises(ValueError):
            JumpSpec("stable", 2, measure=uniform_measure(2), beta=2.5, r0=0.1)
        with pytest.raises(ValueError):
            JumpSpec("gaussian_iso", 2, sigma=-1.0)
        with pytest.raises(ValueError):
            JumpSpec("bogus", 2)

    @pytest.mark.parametrize("sigmas", [None, (0.8,), (0.8, 1.2, 1.0), (0.8, 0.0),
                                        (0.8, float("nan"))])
    def test_one_spread_per_component(self, sigmas):
        # fig1 has two components: one sigma is not reused for both
        with pytest.raises(ValueError, match="one positive spread per measure component"):
            JumpSpec("gaussian_aniso", 2, measure=fig1_measure(), sigmas=sigmas)


class TestAnisoGaussianEcf:
    def test_aniso_variant_matches_dawson_symbol(self):
        # cross-validates the component-probability/Rayleigh sampling law
        # against the Dawson-function transform
        from anisolap.symbols import gaussian_symbol

        m = fig1_measure()
        sigmas = (0.8, 1.3)
        spec = JumpSpec("gaussian_aniso", 2, measure=m, sigmas=sigmas)
        assert jump_cf(spec, [0.0, 0.0]) == 1
        zeta = t = 1.0
        n = 50_000
        ends = compound_poisson_endpoints(spec, zeta, t, n, np.random.default_rng(21))
        for k in ([0.5, 0.0], [0.0, 1.0], [0.8, -0.6]):
            est = empirical_cf(ends, k)
            phi = complex(gaussian_symbol("aniso", np.asarray(k), measure=m,
                                          sigmas=sigmas))
            theory = np.exp(zeta * t * phi)
            assert abs(est.value - theory) <= 5.0 / math.sqrt(n)


class TestUntemperedJumpCf:
    def test_stable_cf_matches_monte_carlo(self):
        # exercises the complex incomplete-gamma branch used by the renewal
        # transform when the radius law carries no tempering
        rng = np.random.default_rng(5)
        spec = JumpSpec("stable", 1, measure=make_atomic_measure(1, [((1,), 1.0)]),
                        beta=0.7, r0=0.05)
        n = 400_000
        Y = sample_jump(spec, rng, size=n)
        for kk in (0.5, 2.0):
            emp = np.mean(np.exp(1j * kk * Y[:, 0]))
            assert abs(jump_cf(spec, [kk]) - emp) <= 5.0 / math.sqrt(n)


class TestChunkMemory:
    def test_traced_peak_of_one_fig1_chunk(self):
        # one chunk of the fig1 ensemble at the matched rate: 300 paths of
        # about 1,830 jumps.  The jumps (total x 2 doubles) are the one array
        # the ensemble must hold.  Beside them a chunk holds the uniforms that
        # pick the components, and later the radii, each half their bytes,
        # plus slices of at most 2^16 draws (1.63 in all).  A label array,
        # an n-sized exp(-lam r) or uniform buffer would each add 0.5 more,
        # and a prefix sum of the jumps 1.
        spec = JumpSpec("tempered_stable", 2, measure=fig1_measure(), beta=1.3, lam=0.5,
                        r0=1e-3)
        zeta = matched_rate(spec)
        total = int(np.random.default_rng(20261).poisson(zeta, size=300).sum())
        assert total >= 500_000
        tracemalloc.start()
        try:
            compound_poisson_endpoints(spec, zeta, 1.0, 300, np.random.default_rng(20261))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * total * 2 * 8
