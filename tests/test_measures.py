import json
import math
from fractions import Fraction

import numpy as np
import pytest

from anisolap.measures import (
    AngularBand,
    StabilityProfile,
    is_nondegenerate,
    is_symmetric,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    measure_from_json,
    measure_to_json,
    moments,
    sphere_integrate,
    uniform_measure,
)
from anisolap.realspace import apply_caseI, bilinear_form, gaussian_bump
from anisolap.symbols import beta1_symbol, make_generator
from shared_measures import fig1_measure

TWO_PI = 2.0 * math.pi


class TestConstructors:
    def test_atomic_renormalises(self):
        m = make_atomic_measure(2, [((1, 0), 2.0), ((0, 1), 2.0)])
        assert m.atoms[0][1] == pytest.approx(0.5)
        assert m.atoms[1][1] == pytest.approx(0.5)

    def test_atomic_normalises_directions(self):
        m = make_atomic_measure(2, [((3, 4), 1.0)])
        assert np.allclose(m.atoms[0][0], [0.6, 0.8])

    def test_horizontal_vertical(self):
        m = make_atomic_measure(2, [((1, 0), 0.25), ((-1, 0), 0.25),
                                    ((0, 1), 0.25), ((0, -1), 0.25)])
        assert m.total_mass() == pytest.approx(1.0, abs=1e-14)

    def test_atomic_errors(self):
        with pytest.raises(ValueError):
            make_atomic_measure(2, [])
        with pytest.raises(ValueError):
            make_atomic_measure(2, [((1, 0), 0.0)])
        with pytest.raises(ValueError):
            make_atomic_measure(2, [((1, 0, 0), 1.0)])

    def test_banded_mass_enforced(self):
        with pytest.raises(ValueError, match="total mass"):
            make_banded_measure(2, [((0.0, math.pi), 1.0 / math.pi / 2)])

    def test_banded_fig1(self):
        assert fig1_measure().total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_fig3b_measure(self):
        m = make_banded_measure(2, [((0.0, math.pi), 0.6 / math.pi),
                                    ((math.pi, TWO_PI), 0.4 / math.pi)])
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            make_banded_measure(2, [((0.0, math.pi), 1.0 / math.pi / 2),
                                    ((math.pi / 2, TWO_PI), 1.0 / math.pi / 3)])

    def test_1d_bands_rejected(self):
        with pytest.raises(ValueError):
            make_measure(1, bands=[((0.0, 1.0), 1.0)])

    def test_3d_band_mass(self):
        band = AngularBand((0.0, math.pi / 2, 0.0, TWO_PI), 1.0 / TWO_PI)
        assert band.mass() == pytest.approx(1.0, abs=1e-14)
        m = make_banded_measure(3, [band])
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


class TestSphereIntegrate:
    def test_total_mass_is_one(self):
        for m in (uniform_measure(1), uniform_measure(2), uniform_measure(3),
                  fig1_measure()):
            val = sphere_integrate(m, lambda d: np.ones(len(d)))
            assert abs(val - 1.0) < 1e-10

    def test_iso_second_moment(self):
        # (1/2pi) int cos^2 = 1/2
        val = sphere_integrate(uniform_measure(2), lambda d: d[:, 0] ** 2)
        assert abs(val - 0.5) < 1e-10

    def test_1d_odd_vanishes(self):
        m = make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])
        assert sphere_integrate(m, lambda d: d[:, 0]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sphere_integrate(uniform_measure(2), lambda d: 1.0 / (d[:, 0] - d[:, 0]))

    def test_band_against_quadpack(self):
        import scipy.integrate as si

        m = fig1_measure()
        f = lambda th: np.cos(3 * th) * np.exp(np.sin(th))
        val = sphere_integrate(m, lambda d: f(np.arctan2(d[:, 1], d[:, 0])))
        ref = (2 / (3 * math.pi)) * si.quad(f, 0, math.pi)[0] \
            + (1 / (3 * math.pi)) * si.quad(f, math.pi, 2 * math.pi)[0]
        assert abs(val - ref) < 1e-9


class TestMoments:
    def test_iso_2d(self):
        mom = moments(uniform_measure(2))
        assert np.allclose(mom.covariance, 0.5 * np.eye(2), atol=1e-10)
        assert np.allclose(mom.mean, 0.0, atol=1e-10)

    def test_single_atom(self):
        mom = moments(make_atomic_measure(2, [((1, 0), 1.0)]))
        assert np.allclose(mom.covariance, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(mom.mean, [1.0, 0.0], atol=1e-14)

    def test_1d_symmetric(self):
        mom = moments(make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)]))
        assert mom.covariance[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert mom.mean[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_trace_is_one(self, dim):
        rng = np.random.default_rng(3 + dim)
        for _ in range(5):
            n_atoms = rng.integers(1, 5)
            atoms = [(rng.standard_normal(dim), rng.uniform(0.1, 1.0))
                     for _ in range(n_atoms)]
            mom = moments(make_atomic_measure(dim, atoms))
            assert np.trace(mom.covariance) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(mom.mean) <= 1.0 + 1e-12
            # positive semidefinite
            assert np.min(np.linalg.eigvalsh(mom.covariance)) >= -1e-12


class TestNondegeneracy:
    def test_spanning_atoms(self):
        flag, span = is_nondegenerate(make_atomic_measure(2, [((1, 0), .5), ((0, 1), .5)]))
        assert flag and len(span) == 2
        assert np.linalg.matrix_rank(np.asarray(span)) == 2

    def test_collinear_atoms(self):
        flag, span = is_nondegenerate(make_atomic_measure(2, [((1, 0), .5), ((-1, 0), .5)]))
        assert not flag and span is None

    def test_uniform_band(self):
        assert is_nondegenerate(uniform_measure(2))[0]
        assert is_nondegenerate(uniform_measure(3))[0]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            th = rng.uniform(0, TWO_PI)
            R = np.array([[math.cos(th), -math.sin(th)],
                          [math.sin(th), math.cos(th)]])
            base = [((1, 0), .5), ((-1, 0), .5)]
            rotated = [(R @ np.asarray(c, dtype=float), w) for c, w in base]
            assert not is_nondegenerate(make_atomic_measure(2, rotated))[0]
            base2 = [((1, 0), .3), ((0, 1), .3), ((-1, -1), .4)]
            rotated2 = [(R @ np.asarray(c, dtype=float), w) for c, w in base2]
            assert is_nondegenerate(make_atomic_measure(2, rotated2))[0]

    def test_rank_deficient_random_constructions(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            # atoms confined to a random line through the origin in 3D
            d = rng.standard_normal(3)
            atoms = [(s * d, rng.uniform(0.1, 1.0)) for s in (1, -1, 2)]
            assert not is_nondegenerate(make_atomic_measure(3, atoms))[0]
            # and confined to a random plane
            d2 = rng.standard_normal(3)
            atoms2 = [(a * d + b * d2, 1.0)
                      for a, b in ((1, 0), (0, 1), (1, 1), (-1, 2))]
            assert not is_nondegenerate(make_atomic_measure(3, atoms2))[0]


def square_wave_measure():
    """Density (1 + e5 sgn sin 5t + e7 sgn sin 7t) / 2pi on the 22 arcs between
    the zeros of sin 5t and sin 7t.  m - Rm has only the odd harmonics 5, 7,
    15, 21, ..., so test integrals of odd polynomials up to degree 3 cannot
    see it, and e7 makes the integral of exp(x + 2y) against it vanish, while
    the integral of sin 5t is 4 e5 / pi = 0.038."""
    cuts = sorted({Fraction(j, 10) for j in range(11)} | {Fraction(j, 14) for j in range(15)})
    edges = [TWO_PI * float(c) for c in cuts]
    x, w = np.polynomial.legendre.leggauss(30)

    def odd_part(k):
        # integral of exp(cos t + 2 sin t) sgn sin kt dt
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            t = 0.5 * (a + b) + 0.5 * (b - a) * x
            total += np.sign(math.sin(k * 0.5 * (a + b))) * 0.5 * (b - a) * np.dot(
                w, np.exp(np.cos(t) + 2.0 * np.sin(t)))
        return total

    e5 = 0.03
    e7 = -e5 * odd_part(5) / odd_part(7)
    bands = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        sq = e5 * np.sign(math.sin(5 * mid)) + e7 * np.sign(math.sin(7 * mid))
        bands.append(((a, b), (1.0 + sq) / TWO_PI))
    return make_measure(2, bands=bands)


class TestSymmetry:
    def test_symmetric_cases(self):
        assert is_symmetric(uniform_measure(1))
        assert is_symmetric(uniform_measure(2))
        assert is_symmetric(make_atomic_measure(2, [((1, 0), .25), ((-1, 0), .25),
                                                    ((0, 1), .25), ((0, -1), .25)]))

    def test_asymmetric_cases(self):
        assert not is_symmetric(make_atomic_measure(1, [((1,), 1.0)]))
        assert not is_symmetric(fig1_measure())

    def test_3d_bands(self):
        assert is_symmetric(uniform_measure(3)) is True
        upper = make_banded_measure(3, [AngularBand((0.0, 0.5 * math.pi, 0.0, TWO_PI),
                                                    1.0 / TWO_PI)])
        assert is_symmetric(upper) is False

    def test_square_wave_is_asymmetric(self):
        m = square_wave_measure()
        assert len(m.bands) == 22
        assert min(b.density for b in m.bands) > 0
        assert is_symmetric(m) is False

    def test_square_wave_is_refused_where_symmetry_is_required(self):
        m = square_wave_measure()
        k = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            beta1_symbol(m, 0.5, k)
        with pytest.raises(ValueError, match="symmetric"):
            make_generator("beta1_aniso", 2, measure=m, lam=0.5)
        field = gaussian_bump(2)
        with pytest.raises(ValueError, match="symmetric"):
            apply_caseI(field, m, 1.5, 0.5, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            bilinear_form(field, field, m, 0.5, 1.0, n_points=8)

    def test_split_not_at_a_reflected_edge(self):
        # the reflection of the split at 1 is 1 + pi, which is no edge
        m = make_banded_measure(2, [((0.0, 1.0), 1.0 / TWO_PI), ((1.0, TWO_PI), 1.0 / TWO_PI)])
        assert is_symmetric(m) is True
        shifted = make_banded_measure(2, [((-2.5, 1.0), 1.0 / TWO_PI),
                                          ((1.0, 3.783185307179586), 1.0 / TWO_PI)])
        assert is_symmetric(shifted) is True

    def test_3d_hemisphere(self):
        half = make_banded_measure(3, [AngularBand((0.0, math.pi, 0.0, math.pi), 0.5 / math.pi)])
        assert is_symmetric(half) is False

    @pytest.mark.parametrize("split", [None, 3.0])
    def test_3d_wrapping_rectangle_and_its_reflection(self, split):
        t0, t1, p0, p1 = 0.2, 0.9, 5.5, 7.0
        area = (math.cos(t0) - math.cos(t1)) * (p1 - p0)
        rho = 0.5 / area
        refl = [(math.pi - t1, math.pi - t0, p0 - math.pi, p1 - math.pi)]
        if split is not None:
            refl = [(*refl[0][:3], split), (*refl[0][:2], split, refl[0][3])]
        m = make_banded_measure(3, [((t0, t1, p0, p1), rho)] + [(r, rho) for r in refl])
        assert is_symmetric(m) is True
        # the same rectangle reflected in phi only is not -m
        swapped = make_banded_measure(3, [((t0, t1, p0, p1), rho),
                                          ((t0, t1, p0 - math.pi, p1 - math.pi), rho)])
        assert is_symmetric(swapped) is False

    def test_atoms_exactly(self):
        dup = make_measure(2, atoms=[((1.0, 0.0), 0.25), ((1.0, 0.0), 0.25), ((-1.0, 0.0), 0.5)])
        assert is_symmetric(dup) is True
        zero = make_measure(2, atoms=[((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5), ((0.0, 1.0), 0.0)])
        assert is_symmetric(zero) is True
        rng = np.random.default_rng(5)
        atoms = []
        for t in rng.uniform(-10.0, 10.0, 12):
            w = rng.uniform(0.1, 1.0)
            atoms += [((math.cos(t), math.sin(t)), w), ((math.cos(t + math.pi),
                                                         math.sin(t + math.pi)), w)]
        assert is_symmetric(make_atomic_measure(2, atoms)) is True
        lopsided = make_measure(2, atoms=[((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.25),
                                          ((-1.0, 0.0), 0.125), ((0.0, 1.0), 0.125)])
        assert is_symmetric(lopsided) is False


class TestJson:
    def test_roundtrip(self):
        m = make_measure(
            2,
            atoms=[(np.array([1.0, 0.0]), 0.5)],
            bands=[((0.0, math.pi), 0.5 / math.pi)],
        )
        doc = json.loads(json.dumps(measure_to_json(m)))
        m2 = measure_from_json(doc)
        assert m2.dimension == 2
        assert np.allclose(m2.atoms[0][0], m.atoms[0][0])
        assert m2.bands[0].density == pytest.approx(m.bands[0].density)

    def test_schema_fields(self):
        doc = measure_to_json(fig1_measure())
        assert set(doc) == {"dimension", "atoms", "bands"}
        assert doc["bands"][0]["region"] == [0.0, math.pi]

    def test_unknown_keys_named(self):
        # a misspelled key used to be ignored, reading as another measure
        band = {"region": [0.0, TWO_PI], "density": 1.0 / TWO_PI}
        with pytest.raises(ValueError, match="unknown field 'atom' in measure$"):
            measure_from_json({"dimension": 2, "bands": [band], "atom": [[[1, 0], 0.5]]})
        with pytest.raises(ValueError, match="unknown field 'weight' in measure band"):
            measure_from_json({"dimension": 2, "bands": [dict(band, weight=3)]})
        with pytest.raises(ValueError, match="missing field 'density' in measure band"):
            measure_from_json({"dimension": 2, "bands": [{"region": [0.0, TWO_PI]}]})
        with pytest.raises(ValueError, match="missing field 'dimension' in measure"):
            measure_from_json({"bands": [band]})
        with pytest.raises(ValueError, match="measure band must be a JSON object"):
            measure_from_json({"dimension": 2, "bands": [[0.0, TWO_PI]]})

    def test_wrong_json_types(self):
        for doc in ({"dimension": [2], "atoms": [[[1, 0], 1.0]]},
                    {"dimension": 2, "atoms": [[[1, 0], [1.0]]]},
                    {"dimension": 2, "bands": [{"region": 6.0, "density": 1.0}]},
                    {"dimension": "2", "atoms": [[[1, 0], 1.0]]},
                    {"dimension": 2, "atoms": [[[1, 0], True]]},
                    {"dimension": 2, "atoms": [[["1", 0], 1.0]]},
                    {"dimension": 2, "bands": [{"region": [0.0, 6.0], "density": "0.2"}]}):
            with pytest.raises(ValueError, match="^measure: "):
                measure_from_json(doc)


class TestStabilityProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilityProfile((2.5,), (0.0,))
        with pytest.raises(ValueError):
            StabilityProfile((1.5,), (-1.0,))
        with pytest.raises(ValueError):
            StabilityProfile((1.5, 0.5), (0.0,))

    @pytest.mark.parametrize("beta", [2.0, 1.0, 1.0 + 1e-7])
    def test_exponents_one_and_two_refused(self, beta):
        # exponents 1 and 2 have their own symbols; no consumer of a profile takes them
        with pytest.raises(ValueError, match="profile exponent"):
            StabilityProfile((0.5, beta), (0.0, 0.0))

    def test_constant_matches_measure(self):
        m = fig1_measure()
        prof = StabilityProfile.constant(m, 1.3, 0.5)
        assert prof.betas == (1.3, 1.3)

    def test_length_mismatch_detected(self):
        m = fig1_measure()
        with pytest.raises(ValueError):
            StabilityProfile((1.3,), (0.0,)).for_measure(m)
