"""The double-precision transform behind jump_cf for power-law jumps, against
a 40-digit mpmath oracle, and the exact values it must keep."""

import mpmath as mp
import numpy as np
import pytest

from anisolap import _special, sampler
from anisolap.measures import make_atomic_measure, make_banded_measure, uniform_measure
from anisolap.sampler import JumpSpec, jump_cf
from shared_measures import fig1_measure

LAMS = (0.0, 0.5, 5.0, 500.0)
R0S = (1e-3, 1e-2, 0.1, 1.0)
# |x| = r0 |lam - iu| crosses 1 in both directions across these (r0 = 1 at
# |u| = 1, r0 = 0.1 near |u| = 10)
US = np.concatenate([np.linspace(-20.0, 20.0, 17), [-0.5, 0.5, 1e-7, -1e-4]])


def expint(s, x):
    # mpmath's integer-order route takes seconds at |x| ~ 50, so E_2 comes
    # from E_1 by the recurrence
    return mp.exp(-x) - x * mp.e1(x) if s == 2 else mp.expint(s, x)


def oracle_phi(beta, lam, r0, us):
    """Phi(u) = E_{1+beta}(x) / E_{1+beta}(lam r0) at 40 digits, x = (lam - iu) r0,
    where E_{1+beta}(x) = x^beta Gamma(-beta, x) and E_{1+beta}(0) = 1/beta."""
    with mp.workdps(40):
        s = 1 + mp.mpf(beta)
        norm = expint(s, mp.mpf(lam) * r0) if lam > 0 else 1 / mp.mpf(beta)
        out = [1.0 if lam == 0 and u == 0 else complex(expint(s, mp.mpc(lam, -u) * r0) / norm)
               for u in us]
    return np.array(out, dtype=complex)


# near beta = 1 the two series terms of size 1/|beta - 1| are summed as one
# regular function of beta - 1; the largest error there is 1.2e-14 (beta 0.95)
@pytest.mark.parametrize("beta,tol", [(b, 5e-14) for b in (0.3, 0.5, 0.8, 1.3, 1.5, 1.7, 1.9)]
                         + [(b, 2e-14) for b in (0.95, 0.999, 1.0, 1.001, 1.05)])
def test_matches_oracle(beta, tol):
    for lam in LAMS:
        for r0 in R0S:
            got = 1.0 + sampler._truncated_power_cf_minus_one(beta, lam, r0, US)
            assert np.abs(got - oracle_phi(beta, lam, r0, US)).max() <= tol, (lam, r0)


def measures():
    return {
        "atoms": make_atomic_measure(2, [((1, 0), 0.4), ((0, 1), 0.35), ((-0.6, -0.8), 0.25)]),
        "bands2d": fig1_measure(),
        "bands3d": uniform_measure(3),
        # its node weights sum to 1 as reals but not as the real parts of a
        # complex sum
        "wrapped": make_banded_measure(2, [((0.3467045147728577, 6.629889821952444),
                                            0.15915494309189535)]),
    }


# (beta, lam, r0): series norm, lam = 0, beta = 1, and lam r0 > 1, where
# the norm comes from the continued fraction (at r0 = 1 every direction of
# uniform_measure(3) takes it too, vectorised apart from the norm)
LAWS = [(1.3, 0.5, 1e-3), (0.7, 0.0, 0.05), (1.0, 2.0, 0.1), (1.0, 0.0, 0.1),
        (1.5, 50.0, 0.1), (1.375, 2.0, 1.0)]


@pytest.mark.parametrize("which", ["atoms", "bands2d", "bands3d", "wrapped"])
@pytest.mark.parametrize("beta,lam,r0", LAWS)
def test_exact_at_zero_and_hermitian(which, beta, lam, r0):
    m = measures()[which]
    kind = "stable" if lam == 0.0 else "tempered_stable"
    spec = JumpSpec(kind, m.dimension, measure=m, beta=beta, lam=lam, r0=r0)
    assert jump_cf(spec, np.zeros(m.dimension)) == 1
    rng = np.random.default_rng(3)
    for scale in (1e-6, 1.0, 30.0):
        k = scale * rng.standard_normal(m.dimension)
        phi = jump_cf(spec, k)
        assert jump_cf(spec, -k) == phi.conjugate()
        assert abs(phi) <= 1.0


def test_unconverged_continued_fraction_raises(monkeypatch):
    monkeypatch.setattr(_special, "CF_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match=r"beta = 1.3, lambda = 0.5, r0 = 1.0, \|x\| = "):
        sampler._truncated_power_cf_minus_one(1.3, 0.5, 1.0, np.array([0.0, 5.0]))


def test_fig1_probes_keep_parent_values():
    # values of the former per-direction mpmath evaluation at the probes of
    # the tempered fig1 ECF check
    spec = JumpSpec("tempered_stable", 2, measure=fig1_measure(), beta=1.3, lam=0.5, r0=1e-3)
    before = {
        (0.5, 0.0): 0.9999797913491014 - 2.0599841277224584e-18j,
        (0.0, 1.0): 0.9999279394886121 + 0.0007917389290396168j,
        (0.7, -0.7): 0.9999292131794133 - 0.0005531745553462341j,
    }
    for k, want in before.items():
        assert abs(jump_cf(spec, k) - want) <= 1e-15
