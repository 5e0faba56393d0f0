import json
import math

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

TWO_PI = 2.0 * math.pi


def fig1_measure():
    return make_banded_measure(2, [
        ((0.0, math.pi), 2.0 / (3.0 * math.pi)),
        ((math.pi, TWO_PI), 1.0 / (3.0 * math.pi)),
    ])


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
                    {"dimension": 2, "bands": [{"region": 6.0, "density": 1.0}]}):
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

    def test_constant_matches_measure(self):
        m = fig1_measure()
        prof = StabilityProfile.constant(m, 1.3, 0.5)
        assert prof.betas == (1.3, 1.3)

    def test_length_mismatch_detected(self):
        m = fig1_measure()
        with pytest.raises(ValueError):
            StabilityProfile((1.3,), (0.0,)).for_measure(m)
