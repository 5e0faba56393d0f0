import math

import numpy as np
import pytest

from anisolap._special import upper_gamma
from anisolap.measures import uniform_measure
from anisolap.multistate import (
    FunctionalSpec,
    StateModel,
    WaitingLaw,
    empirical_functional_cf,
    montroll_transform,
    multistate_endpoints,
    simulate_multistate_ctrw,
    state_model_from_json,
    state_model_to_json,
    validate_multistate,
)
from anisolap.sampler import (
    JumpSpec,
    compound_poisson_endpoints,
    empirical_cf,
    jump_cf,
)


def swap_chain(sig1=0.7, sig2=1.3, rate1=1.0, rate2=2.0):
    return StateModel(
        M=[[0.0, 1.0], [1.0, 0.0]],
        init=[1.0, 0.0],
        waiting=(WaitingLaw("exp", rate=rate1), WaitingLaw("exp", rate=rate2)),
        jumps=(JumpSpec("gaussian_iso", 2, sigma=sig1),
               JumpSpec("gaussian_iso", 2, sigma=sig2)),
    )


class TestModelValidation:
    def test_row_stochastic_enforced(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            StateModel(M=[[0.5, 0.4], [1.0, 0.0]], init=[1, 0],
                       waiting=(WaitingLaw("exp", rate=1.0),) * 2,
                       jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),) * 2)

    def test_init_probability(self):
        with pytest.raises(ValueError, match="probability"):
            StateModel(M=[[1.0]], init=[0.5],
                       waiting=(WaitingLaw("exp", rate=1.0),),
                       jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),))

    def test_waiting_law_validation(self):
        with pytest.raises(ValueError):
            WaitingLaw("exp", rate=0.0)
        with pytest.raises(ValueError):
            WaitingLaw("power_law", alpha=1.5)
        assert WaitingLaw("power_law", alpha=0.7).asymptotic
        assert not WaitingLaw("exp", rate=1.0).asymptotic

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_power_law_laplace_is_the_small_s_form_of_the_sampled_law(self, alpha, scale):
        # sample draws Pareto(alpha, scale), whose exact transform is
        # alpha (c s)^alpha Gamma(-alpha, c s) with c = scale
        s = 1e-8
        law = WaitingLaw("power_law", alpha=alpha, scale=scale)
        exact = alpha * (scale * s) ** alpha * upper_gamma(-alpha, scale * s)
        assert abs(1.0 - law.laplace(s)) == pytest.approx(1.0 - exact, rel=0.01)


class TestPowerLawWaiting:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_sampled_tail(self, alpha, scale):
        # Pareto(alpha, scale): P(W > w) = (scale / w)^alpha for w >= scale
        n = 20000
        w = WaitingLaw("power_law", alpha=alpha, scale=scale).sample(
            np.random.default_rng(31), n)
        assert w.min() >= scale
        for q in (1.5, 4.0, 30.0):
            p = q ** -alpha
            assert abs(np.mean(w > q * scale) - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)

    def test_endpoints_with_one_power_law_state(self):
        # a path that has not jumped by t stays at the origin, with
        # probability P(W > t) = (scale / t)^alpha
        alpha, scale, t, n = 0.6, 0.5, 4.0, 20000
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("power_law", alpha=alpha, scale=scale),),
                           jumps=(JumpSpec("gaussian_iso", 2, sigma=1.0),))
        ens = multistate_endpoints(model, t, n, np.random.default_rng(32))
        assert ens.positions.shape == (n, 2) and np.all(ens.states == 0)
        p = (scale / t) ** alpha
        still = np.mean(np.all(ens.positions == 0.0, axis=1))
        assert abs(still - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


class TestSimulation:
    def test_identity_chain_never_switches(self):
        model = StateModel(M=np.eye(2), init=[0.0, 1.0],
                           waiting=(WaitingLaw("exp", rate=1.0),) * 2,
                           jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),) * 2)
        traj = simulate_multistate_ctrw(model, 50.0, [0.0], np.random.default_rng(0))
        assert np.all(traj.states == 1)

    def test_swap_chain_alternates(self):
        model = swap_chain()
        traj = simulate_multistate_ctrw(model, 30.0, [0.0, 0.0],
                                        np.random.default_rng(1))
        assert traj.states[0] == 0
        assert np.all(np.diff(traj.states) != 0)  # strict alternation

    def test_transition_frequencies_chi2(self):
        rng = np.random.default_rng(2)
        M = np.array([[0.2, 0.8], [0.6, 0.4]])
        model = StateModel(M=M, init=[0.5, 0.5],
                           waiting=(WaitingLaw("exp", rate=2.0),) * 2,
                           jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),) * 2)
        counts = np.zeros((2, 2))
        for _ in range(60):
            traj = simulate_multistate_ctrw(model, 1000.0, [0.0], rng)
            s = traj.states
            for a, b in zip(s[:-1], s[1:]):
                counts[a, b] += 1
        # chi-squared per row against M at ~1e5 transitions
        for i in range(2):
            n_i = counts[i].sum()
            chi2 = np.sum((counts[i] - n_i * M[i]) ** 2 / (n_i * M[i]))
            assert chi2 < 15.0  # df=1; generous 3.9 at 5%, 15 is far out

    def test_single_state_reduction_matches_compound_poisson(self):
        sigma, zeta, t, n = 1.0, 1.2, 1.0, 30_000
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("exp", rate=zeta),),
                           jumps=(JumpSpec("gaussian_iso", 2, sigma=sigma),))
        ens = multistate_endpoints(model, t, n, np.random.default_rng(3))
        ref = compound_poisson_endpoints(JumpSpec("gaussian_iso", 2, sigma=sigma),
                                         zeta, t, n, np.random.default_rng(4))
        for k in ([0.7, 0.0], [0.0, 1.3]):
            a = empirical_cf(ens.positions, k).value
            b = empirical_cf(ref, k).value
            assert abs(a - b) <= 5.0 / math.sqrt(n)

    def test_state_distribution_at_small_t(self):
        model = swap_chain(rate1=1.0, rate2=1.0)
        ens = multistate_endpoints(model, 1e-4, 2000, np.random.default_rng(5))
        assert np.mean(ens.states == 0) > 0.99


class TestMontroll:
    def test_total_probability_at_k0(self):
        model = StateModel(
            M=[[0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]],
            init=[0.2, 0.3, 0.5],
            waiting=(WaitingLaw("exp", rate=1.0), WaitingLaw("exp", rate=2.0),
                     WaitingLaw("power_law", alpha=0.7)),
            jumps=(JumpSpec("gaussian_iso", 2, sigma=1.0),
                   JumpSpec("gaussian_axes", 2, sigma=0.5),
                   JumpSpec("tempered_stable", 2, measure=uniform_measure(2),
                            beta=1.3, lam=0.5, r0=0.01)),
        )
        for s in (0.5, 1.0 + 0.7j, 3.0):
            g = montroll_transform(model, np.zeros(2), s)
            assert abs(g.sum() - 1.0 / s) < 1e-10

    def test_zero_jump_particle_is_static(self):
        # jumps of length ~0: transform equals that of the constant 1
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("exp", rate=2.0),),
                           jumps=(JumpSpec("gaussian_iso", 1, sigma=1e-300),))
        for s in (0.3, 2.0):
            g = montroll_transform(model, np.array([1.0]), s)
            assert abs(g[0] - 1.0 / s) < 1e-12

    def test_scalar_montroll_weiss_algebra(self):
        # N = 1, exponential waiting: transform is 1/(s - zeta*(Phi0(k)-1))
        zeta, sigma = 1.7, 0.9
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("exp", rate=zeta),),
                           jumps=(JumpSpec("gaussian_iso", 2, sigma=sigma),))
        for k, s in [(np.array([0.5, 0.0]), 0.8), (np.array([1.0, -0.3]), 2.0 + 1.0j)]:
            phi0 = jump_cf(model.jumps[0], k)
            want = 1.0 / (s - zeta * (phi0 - 1.0))
            got = montroll_transform(model, k, s)[0]
            assert abs(got - want) < 1e-12

    def test_two_state_hand_resolvent(self):
        model = swap_chain(sig1=0.7, sig2=1.3, rate1=1.0, rate2=2.0)
        k = np.array([0.8, -0.2])
        s = 1.1 + 0.4j
        phi = np.array([r / (s + r) for r in (1.0, 2.0)])
        lam = np.array([jump_cf(j, k) for j in model.jumps])
        # hand-inverted 2x2: (I - M^T diag(lam*phi))^{-1} for the swap chain
        a = lam[0] * phi[0]
        b = lam[1] * phi[1]
        det = 1.0 - a * b
        inv = np.array([[1.0, b], [a, 1.0]]) / det
        want = ((1.0 - phi) / s) * (inv @ np.array([1.0, 0.0]))
        got = montroll_transform(model, k, s)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_requires_positive_real_s(self):
        model = swap_chain()
        with pytest.raises(ValueError, match="Re s"):
            montroll_transform(model, np.zeros(2), -1.0)


class TestValidate:
    def test_swap_chain_against_matrix_exponential(self):
        model = swap_chain()
        rep = validate_multistate(model, [[1.0, 0.0], [0.3, 0.6]], 1.0, 40_000,
                                  np.random.default_rng(6))
        assert rep.passed, f"max deviation {rep.deviations.max()} > {rep.tolerance}"

    def test_oracle_reduces_to_ecf_for_single_state(self):
        zeta, sigma, t = 1.0, 1.0, 1.0
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("exp", rate=zeta),),
                           jumps=(JumpSpec("gaussian_iso", 2, sigma=sigma),))
        k = np.array([1.0, 0.0])
        phi0 = jump_cf(model.jumps[0], k)
        from anisolap.multistate import _fourier_ode_oracle

        oracle = _fourier_ode_oracle(model, k, t)[0]
        assert abs(oracle - np.exp(zeta * t * (phi0 - 1.0))) < 1e-12

    def test_power_law_refused(self):
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("power_law", alpha=0.7),),
                           jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),))
        with pytest.raises(ValueError, match="exponential"):
            validate_multistate(model, [[1.0]], 1.0, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_needs_a_path(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            validate_multistate(swap_chain(), [[1.0, 0.0]], 1.0, n_paths,
                                np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            multistate_endpoints(swap_chain(), 1.0, n_paths, np.random.default_rng(0))


class TestFunctionals:
    def test_constant_weight_gives_exact_phase(self):
        model = swap_chain()
        t, rho = 1.3, 0.9
        spec = FunctionalSpec(U=lambda x: np.ones(np.asarray(x).shape[:-1]), rho=rho)
        ens = multistate_endpoints(model, t, 500, np.random.default_rng(7),
                                   functional=spec)
        assert np.max(np.abs(ens.functional - t)) < 1e-12
        est = empirical_functional_cf(ens.functional, rho)
        assert abs(est.value - np.exp(1j * rho * t)) < 1e-12

    def test_rho_zero(self):
        est = empirical_functional_cf(np.random.default_rng(0).uniform(size=100), 0.0)
        assert est.value == 1.0

    def test_half_space_occupation_mean(self):
        # U is the half-space indicator with the symmetric boundary value 1/2,
        # so E U(X(tau)) = 1/2 exactly for the symmetric walk started at 0
        model = StateModel(M=[[1.0]], init=[1.0],
                           waiting=(WaitingLaw("exp", rate=1.0),),
                           jumps=(JumpSpec("gaussian_iso", 1, sigma=1.0),))
        t, n = 1.0, 20_000
        spec = FunctionalSpec(U=lambda x: 0.5 * (1.0 + np.sign(np.asarray(x)[..., 0])),
                              rho=1.0)
        ens = multistate_endpoints(model, t, n, np.random.default_rng(8),
                                   functional=spec)
        se = ens.functional.std(ddof=1) / math.sqrt(n)
        assert abs(ens.functional.mean() - 0.5 * t) <= 3.0 * se

    def test_functional_additivity_along_path(self):
        # recompute A from the recorded trajectory; waiting intervals are
        # piecewise constant so the sum is exact
        model = swap_chain()
        spec = FunctionalSpec(U=lambda x: np.asarray(x)[..., 0] ** 2, rho=1.0)
        traj = simulate_multistate_ctrw(model, 20.0, [0.3, -0.1],
                                        np.random.default_rng(9), functional=spec)
        acc = 0.0
        for i in range(1, len(traj.times)):
            u = float(spec.U(traj.positions[i - 1]))
            acc += u * (traj.times[i] - traj.times[i - 1])
            assert traj.functional[i] == pytest.approx(acc, abs=1e-12)


class TestJson:
    def test_roundtrip(self):
        model = swap_chain()
        doc = state_model_to_json(model)
        model2 = state_model_from_json(doc)
        assert model2.n_states == 2
        assert np.allclose(model2.M, model.M)
        assert model2.waiting[1].rate == model.waiting[1].rate
        assert model2.jumps[0].sigma == model.jumps[0].sigma

    def test_declared_n_checked(self):
        doc = state_model_to_json(swap_chain())
        doc["N"] = 3
        with pytest.raises(ValueError):
            state_model_from_json(doc)
