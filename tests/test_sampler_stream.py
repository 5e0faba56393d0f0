"""The jump sampler against the mask-loop sampler it replaced.

sample_direction, _tempered_radii and sample_jump of that sampler are kept
here verbatim as the reference, with np.cos and np.sin.  The contract is the
draws and the generator state: the rewrite makes the same draws in the same
order and leaves the generator in exactly the same state.  It takes cos and
sin of an azimuth from its half-angle tangent, within 2^-52 of np.cos and
np.sin, so each output row (a direction or a jump) is compared within 2^-51
times its length.  Endpoints are sums of the jumps; they are compared with
the exactly rounded per-path sum (math.fsum) of the reference's jumps, to the
rounding bound of a sum."""

import math
from typing import Optional

import numpy as np
import pytest

import anisolap.sampler as sampler
from anisolap.measures import (
    DirectionalMeasure,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    uniform_measure,
)
from anisolap.sampler import JumpSpec, _component_sampler, _pareto_radii

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the mask-loop reference
# ---------------------------------------------------------------------------

def sample_direction(measure: DirectionalMeasure, rng, size: Optional[int] = None):
    """Draw directions from the measure: atoms by weight, bands uniformly
    within their region (with respect to the sphere surface measure)."""
    n = 1 if size is None else int(size)
    probs = _component_sampler(measure)
    comp = rng.choice(len(probs), size=n, p=probs)
    out = np.empty((n, measure.dimension))
    n_atoms = len(measure.atoms)
    for ci in range(len(probs)):
        sel = comp == ci
        cnt = int(sel.sum())
        if cnt == 0:
            continue
        if ci < n_atoms:
            out[sel] = measure.atoms[ci][0]
        else:
            band = measure.bands[ci - n_atoms]
            if band.dimension == 2:
                t0, t1 = band.bounds
                theta = rng.uniform(t0, t1, size=cnt)
                out[sel] = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            else:
                t0, t1, p0, p1 = band.bounds
                ct = rng.uniform(math.cos(t1), math.cos(t0), size=cnt)
                phi = rng.uniform(p0, p1, size=cnt)
                st = np.sqrt(1.0 - ct * ct)
                out[sel] = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    return out[0] if size is None else out


def _tempered_radii(beta: float, lam: float, r0: float, rng, n: int,
                    max_rejections: int) -> np.ndarray:
    out = np.empty(n)
    todo = np.arange(n)
    for _ in range(max_rejections):
        prop = _pareto_radii(beta, r0, rng, len(todo))
        accept = rng.uniform(size=len(todo)) <= np.exp(-lam * prop)
        out[todo[accept]] = prop[accept]
        todo = todo[~accept]
        if len(todo) == 0:
            return out
    raise RuntimeError(
        f"tempered radius rejection exceeded {max_rejections} rounds "
        f"(lambda*r0 = {lam * r0:.3g})"
    )


def sample_jump(spec: JumpSpec, rng, size: Optional[int] = None) -> np.ndarray:
    """Draw jump vectors from the spec's law."""
    n = 1 if size is None else int(size)
    dim = spec.dimension
    if spec.kind == "gaussian_iso":
        out = spec.sigma * rng.standard_normal((n, dim))
    elif spec.kind == "gaussian_axes":
        axis = rng.integers(0, dim, size=n)
        amp = spec.sigma * rng.standard_normal(n)
        out = np.zeros((n, dim))
        out[np.arange(n), axis] = amp
    elif spec.kind == "gaussian_aniso":
        # direction density prop. to m(phi) sigma(phi)^2, radius Rayleigh(sigma)
        probs = _component_sampler(spec.measure)
        sig = np.asarray(spec.sigmas)
        w = probs * sig ** 2
        w = w / w.sum()
        comp = rng.choice(len(w), size=n, p=w)
        out = np.empty((n, dim))
        n_atoms = len(spec.measure.atoms)
        for ci in range(len(w)):
            sel = comp == ci
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            if ci < n_atoms:
                d = np.broadcast_to(spec.measure.atoms[ci][0], (cnt, dim))
            else:
                band = spec.measure.bands[ci - n_atoms]
                t0, t1 = band.bounds
                theta = rng.uniform(t0, t1, size=cnt)
                d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            r = sig[ci] * np.sqrt(2.0 * rng.exponential(size=cnt))
            out[sel] = r[:, None] * d
    else:
        d = sample_direction(spec.measure, rng, size=n)
        if spec.kind == "tempered_stable" and spec.lam > 0:
            r = _tempered_radii(spec.beta, spec.lam, spec.r0, rng, n, sampler._MAX_REJECTIONS)
        else:
            r = _pareto_radii(spec.beta, spec.r0, rng, n)
        out = r[:, None] * d
    return out[0] if size is None else out


def fsum_endpoints(spec: JumpSpec, zeta: float, t: float, n_paths: int, rng):
    """The endpoints from the reference's draws, each the exactly rounded sum
    of its own jumps, and the bound 64 eps sum |jump| per path and
    coordinate.  Any summation order of m terms is off by at most
    gamma_{m-1} = (m - 1) u / (1 - (m - 1) u), u = eps / 2, times the sum of
    their magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., eq. 4.4), so the bound holds for paths of up to 120 jumps."""
    dim = spec.dimension
    counts = rng.poisson(zeta * t, size=n_paths)
    assert counts.max(initial=0) <= 120
    total = int(counts.sum())
    jumps = sample_jump(spec, rng, size=total) if total else np.empty((0, dim))
    stops = np.cumsum(counts)
    ends = np.empty((n_paths, dim))
    bound = np.empty((n_paths, dim))
    for i, (a, b) in enumerate(zip(stops - counts, stops)):
        for d in range(dim):
            ends[i, d] = math.fsum(jumps[a:b, d])
            bound[i, d] = 64.0 * np.finfo(float).eps * np.abs(jumps[a:b, d]).sum()
    return ends, bound


def same_endpoints(spec, zeta, t, n_paths, seed):
    """The endpoints of compound_poisson_endpoints within the rounding bound of
    the per-path sums of the reference's draws, and the generator left in the
    same state."""
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    want, bound = fsum_endpoints(spec, zeta, t, n_paths, rng_ref)
    got = sampler.compound_poisson_endpoints(spec, zeta, t, n_paths, rng_new)
    assert got.shape == want.shape == (n_paths, spec.dimension)
    assert np.all(np.abs(got - want) <= bound)
    assert rng_ref.bit_generator.state == rng_new.bit_generator.state
    return got


# ---------------------------------------------------------------------------
# measures and laws
# ---------------------------------------------------------------------------

TINY = 1e-12  # a component that a few dozen draws never choose

MEASURES = {
    "atoms": make_atomic_measure(2, [((1, 0), 0.5), ((0, -1), 0.3), ((-0.6, 0.8), 0.2)]),
    "fig1": make_banded_measure(2, [((0.0, math.pi), 2.0 / (3.0 * math.pi)),
                                    ((math.pi, TWO_PI), 1.0 / (3.0 * math.pi))]),
    # the empty band comes before a drawn one, so skipping it must not draw
    "mixed_2d": make_measure(2, atoms=[((0.0, 1.0), 0.4 - TINY)],
                             bands=[((math.pi, TWO_PI), TINY / math.pi),
                                    ((0.0, math.pi / 2), 0.6 / (math.pi / 2))]),
    "band_3d": make_banded_measure(3, [((0.0, math.pi / 2, 0.0, TWO_PI), 1.0 / TWO_PI)]),
    "uniform_3d": uniform_measure(3),
    "mixed_3d": make_measure(3, atoms=[((0.0, 0.0, -1.0), 0.25)],
                             bands=[((0.2, 1.1, 0.5, 4.0),
                                     0.75 / ((math.cos(0.2) - math.cos(1.1)) * 3.5))]),
}
SIZES = [None, 1, 2, 37, 1000]


def same_stream(ref, new, *args, seed=11, **kw):
    """The same output rows from the same seed, each within 2^-51 times its
    length, and the generator left in exactly the same state."""
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b = ref(*args, rng_ref, **kw), new(*args, rng_new, **kw)
    assert np.shape(a) == np.shape(b)
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    bound = 2.0 ** -51 * np.linalg.norm(a, axis=1, keepdims=True)
    assert np.all(np.abs(a - b) <= bound)
    assert rng_ref.bit_generator.state == rng_new.bit_generator.state


def power_law_specs():
    for name, m in MEASURES.items():
        yield f"stable-{name}", JumpSpec("stable", m.dimension, measure=m, beta=1.3, r0=1e-3)
        yield f"tempered-{name}", JumpSpec("tempered_stable", m.dimension, measure=m,
                                           beta=1.3, lam=0.5, r0=1e-3)
        # lambda * r0 = 1.5: several rejection rounds
        yield f"tempered_rounds-{name}", JumpSpec("tempered_stable", m.dimension, measure=m,
                                                  beta=0.7, lam=3.0, r0=0.5)


def gaussian_aniso_specs():
    for name in ("atoms", "fig1", "mixed_2d"):
        m = MEASURES[name]
        sig = (0.4, 1.7, 0.9)[:m.n_components]
        yield f"gaussian_aniso-{name}", JumpSpec("gaussian_aniso", 2, measure=m, sigmas=sig)


SPECS = dict([*power_law_specs(), *gaussian_aniso_specs()])


class TestSameStream:
    def test_an_empty_component_occurs(self):
        # mixed_2d at size 37 really exercises the skip of an empty component
        m = MEASURES["mixed_2d"]
        comp = np.random.default_rng(11).choice(3, size=37, p=_component_sampler(m))
        assert np.bincount(comp, minlength=3).tolist()[1] == 0
        assert np.all(np.bincount(comp, minlength=3)[[0, 2]] > 0)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("name", MEASURES)
    def test_sample_direction(self, name, size):
        same_stream(sample_direction, sampler.sample_direction, MEASURES[name], size=size)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("name", SPECS)
    def test_sample_jump(self, name, size):
        same_stream(sample_jump, sampler.sample_jump, SPECS[name], size=size)

    @pytest.mark.parametrize("name", ["tempered-fig1", "tempered_rounds-mixed_2d",
                                      "gaussian_aniso-mixed_2d", "stable-mixed_3d"])
    def test_compound_poisson_endpoints(self, name):
        same_endpoints(SPECS[name], 40.0, 1.0, 300, seed=11)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ensemble_endpoints_parallel(self, monkeypatch, threads):
        monkeypatch.setenv("ANISOLAP_THREADS", threads)
        spec = SPECS["tempered-fig1"]
        seqs = np.random.SeedSequence(20261).spawn(16)
        sizes = [26 if i < 8 else 25 for i in range(16)]
        parts = [fsum_endpoints(spec, 60.0, 1.0, sz, np.random.default_rng(sq))
                 for sq, sz in zip(seqs, sizes)]
        want, bound = (np.concatenate(p) for p in zip(*parts))
        got = sampler.ensemble_endpoints_parallel(spec, 60.0, 1.0, 408, 20261)
        assert np.all(np.abs(got - want) <= bound)
        # the same endpoints, bit for bit, as the chunks drawn one by one
        chunks = [sampler.compound_poisson_endpoints(spec, 60.0, 1.0, sz,
                                                     np.random.default_rng(sq))
                  for sq, sz in zip(seqs, sizes)]
        assert np.array_equal(got, np.concatenate(chunks))


# sizes that fill one slice exactly and that end 17 draws into a fourth
SLICED = [sampler._SLICE, 3 * sampler._SLICE + 17]


class TestSlices:
    """Draws made _SLICE positions at a time are the draws of one call."""

    @pytest.mark.parametrize("size", SLICED)
    @pytest.mark.parametrize("name", MEASURES)
    def test_sample_direction(self, name, size):
        same_stream(sample_direction, sampler.sample_direction, MEASURES[name], size=size)

    @pytest.mark.parametrize("size", SLICED)
    @pytest.mark.parametrize("name", SPECS)
    def test_sample_jump(self, name, size):
        same_stream(sample_jump, sampler.sample_jump, SPECS[name], size=size)

    @pytest.mark.parametrize("length", [1, 7, sampler._SLICE, 10 ** 6])
    @pytest.mark.parametrize("name", [*MEASURES, *SPECS])
    def test_slice_length_does_not_matter(self, monkeypatch, name, length):
        if name in MEASURES:
            ref, new, law = sample_direction, sampler.sample_direction, MEASURES[name]
        else:
            ref, new, law = sample_jump, sampler.sample_jump, SPECS[name]
        default = new(law, np.random.default_rng(11), size=300)
        monkeypatch.setattr(sampler, "_SLICE", length)
        same_stream(ref, new, law, size=300)
        # each element is rounded on its own, so the slices move no bit
        assert np.array_equal(new(law, np.random.default_rng(11), size=300), default)


def choice_cdf(probs):
    """The cumulative masses of rng.choice(len(probs), n, p=probs)."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def crafted_uniforms(cdf):
    """0, every cdf value (the last is 1), the double below each, the largest
    double below 1 and a few random uniforms, shuffled."""
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, -np.inf),
                        np.random.default_rng(4).random(40)])
    return np.random.default_rng(5).permutation(u)


ANGLES_24 = np.linspace(0.0, TWO_PI, 24, endpoint=False) + 0.1
MANY = make_measure(2, atoms=[((math.cos(a), math.sin(a)), 0.01 * (j % 5))
                              for j, a in enumerate(ANGLES_24)],
                    bands=[((0.5, 2.0), 0.3 / 1.5), ((3.0, 5.5), 0.24 / 2.5)])
LABEL_PROBS = {
    "fig1": _component_sampler(MEASURES["fig1"]),
    "zero_weights": [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
    "single": [1.0],
    "atoms24_bands2": _component_sampler(MANY),
}


class StubRng:
    """Returns the given uniforms for rng.random, and each band angle at
    its lower bound."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()

    def uniform(self, lo, hi, size):
        return np.full(size, float(lo))


class TestLabels:
    """The uniforms of rng.choice counted against its cumulative masses give
    its labels cdf.searchsorted(u, side="right"), at every boundary."""

    def test_many_has_zero_weight_atoms(self):
        probs = _component_sampler(MANY)
        assert len(probs) == 26 and np.count_nonzero(probs == 0.0) == 5

    @pytest.mark.parametrize("length", [1, 3, sampler._SLICE])
    @pytest.mark.parametrize("name", LABEL_PROBS)
    def test_positions(self, monkeypatch, name, length):
        monkeypatch.setattr(sampler, "_SLICE", length)
        cdf = choice_cdf(LABEL_PROBS[name])
        u = crafted_uniforms(cdf)
        labels = cdf.searchsorted(u, side="right")
        for ci in range(len(cdf)):
            parts = list(sampler._positions(u, cdf, ci))
            assert all(len(p) for p in parts)
            got = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
            assert np.array_equal(got, np.flatnonzero(labels == ci))

    def test_directions(self):
        probs = _component_sampler(MANY)
        u = crafted_uniforms(choice_cdf(probs))
        u = u[u < 1.0]  # rng.random never returns 1
        labels = choice_cdf(probs).searchsorted(u, side="right")
        got = sampler._directions(MANY, probs, len(u), StubRng(u)).T
        for p, ci in enumerate(labels):
            if ci < 24:
                assert np.array_equal(got[p], MANY.atoms[ci][0])
            else:
                t0 = MANY.bands[ci - 24].bounds[0]
                assert got[p] == pytest.approx([math.cos(t0), math.sin(t0)], abs=1e-15)


class TestEndpointSegments:
    """Paths without a jump stay at the origin wherever they fall in the ensemble."""

    SPEC = SPECS["tempered-mixed_2d"]

    def test_zero_counts_first_middle_and_last(self):
        # seed 12 at zeta t = 1 draws no jump for paths 0, 2 to 4, 8 and 11 of 12
        counts = np.random.default_rng(12).poisson(1.0, size=12)
        assert counts[0] == counts[-1] == 0
        assert np.any(counts[1:-1] == 0) and np.any(counts > 1)
        got = same_endpoints(self.SPEC, 2.0, 0.5, 12, seed=12)
        assert np.all(got[counts == 0] == 0.0)

    @pytest.mark.parametrize("zeta, t", [(1e-9, 1.0), (5.0, 0.0)])
    def test_all_counts_zero(self, zeta, t):
        got = same_endpoints(self.SPEC, zeta, t, 40, seed=3)
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("seed, count", [(3, 0), (4, 3)])
    def test_single_path(self, seed, count):
        assert np.random.default_rng(seed).poisson(1.5, size=1)[0] == count
        got = same_endpoints(self.SPEC, 1.5, 1.0, 1, seed=seed)
        assert np.all((got == 0.0) == (count == 0))

    def test_no_paths(self):
        got = same_endpoints(self.SPEC, 3.0, 1.0, 0, seed=3)
        assert got.shape == (0, 2)


def capped_radii(monkeypatch, beta, lam, r0, rng, n, cap):
    """The package's tempered radii with at most cap rejection rounds."""
    monkeypatch.setattr(sampler, "_MAX_REJECTIONS", cap)
    return sampler._tempered_radii(beta, lam, r0, rng, n)


class TestRejectionCap:
    BETA, LAM, R0, N = 0.7, 3.0, 0.5, 200

    def rounds_needed(self, seed):
        """Rounds the reference needs for this seed: the least cap it meets."""
        for m in range(1, 1000):
            try:
                _tempered_radii(self.BETA, self.LAM, self.R0,
                                np.random.default_rng(seed), self.N, m)
                return m
            except RuntimeError:
                continue
        raise AssertionError("reference needs more than 1000 rounds")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cap_at_rounds_needed(self, monkeypatch, seed):
        m = self.rounds_needed(seed)
        assert m >= 3
        args = (self.BETA, self.LAM, self.R0)
        want = _tempered_radii(*args, np.random.default_rng(seed), self.N, m)
        got = capped_radii(monkeypatch, *args, np.random.default_rng(seed), self.N, m)
        assert np.array_equal(got, want)
        with pytest.raises(RuntimeError) as ref_err:
            _tempered_radii(*args, np.random.default_rng(seed), self.N, m - 1)
        with pytest.raises(RuntimeError) as new_err:
            capped_radii(monkeypatch, *args, np.random.default_rng(seed), self.N, m - 1)
        assert str(new_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("n", [0, 1, 3, 50])
    def test_cap_of_one_accepting_round(self, monkeypatch, n):
        # lambda*r0 = 1e-7: one round accepts every proposal
        args = (self.BETA, 1e-6, 0.1, np.random.default_rng(5), n, 1)
        want = _tempered_radii(*args)
        args = (self.BETA, 1e-6, 0.1, np.random.default_rng(5), n, 1)
        assert np.array_equal(capped_radii(monkeypatch, *args), want)

    def test_cap_of_one_rejecting_round(self, monkeypatch):
        with pytest.raises(RuntimeError) as ref_err:
            _tempered_radii(self.BETA, self.LAM, self.R0, np.random.default_rng(5), self.N, 1)
        with pytest.raises(RuntimeError) as new_err:
            capped_radii(monkeypatch, self.BETA, self.LAM, self.R0,
                         np.random.default_rng(5), self.N, 1)
        assert str(new_err.value) == str(ref_err.value)
