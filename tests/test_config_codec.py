"""The one JSON codec of the config dataclasses (measures.to_json/from_json):
every kind round-trips without loss, and documents with unknown or missing
fields are rejected.  Each class's kind table (measures._check_kind) names
only its own fields, and a field the kind does not read is refused."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisolap.multistate as multistate_mod
import anisolap.sampler as sampler_mod
import anisolap.symbols as symbols_mod
from anisolap.evolve import SpectralGrid
from anisolap.measures import (
    StabilityProfile,
    _read_fields,
    from_json,
    make_atomic_measure,
    make_banded_measure,
    to_json,
)
from anisolap.multistate import StateModel, WaitingLaw, state_model_from_json
from anisolap.sampler import _JUMP_KINDS, JumpSpec
from anisolap.symbols import GeneratorSymbol, symbol_from_json

TWO_PI = 2.0 * math.pi
FAST = settings(max_examples=40, deadline=None, database=None)

positive = st.floats(0.05, 5.0)
exponent = st.floats(0.05, 1.95)


@st.composite
def measures(draw, dimension, symmetric=False):
    """Atoms on the coordinate axes (exact unit vectors, so re-normalising
    them on reading changes no bit) or, in 2D, bands that tile the circle."""
    if dimension == 2 and not symmetric and draw(st.booleans()):
        cuts = draw(st.sets(st.integers(1, 15), max_size=3))
        edges = [TWO_PI * c / 16 for c in [0, *sorted(cuts), 16]]
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(edges) - 1,
                                max_size=len(edges) - 1))
        return make_banded_measure(2, [((a, b), w / sum(weights) / (b - a))
                                       for a, b, w in zip(edges, edges[1:], weights)])
    signs = [1.0] if symmetric else [1.0, -1.0]
    axes = draw(st.lists(st.sampled_from([(i, s) for i in range(dimension) for s in signs]),
                         min_size=1, unique=True))
    atoms = []
    for i, s in axes:
        w = draw(st.floats(0.1, 1.0))
        for sign in ([s, -s] if symmetric else [s]):
            atoms.append((sign * np.eye(dimension)[i], w))
    return make_atomic_measure(dimension, atoms)


@st.composite
def profiles(draw, size=None):
    size = draw(st.integers(1, 4)) if size is None else size
    betas = draw(st.lists(exponent.filter(lambda b: abs(b - 1.0) >= 1e-6),
                          min_size=size, max_size=size))
    lambdas = draw(st.lists(st.floats(0.0, 3.0), min_size=size, max_size=size))
    return StabilityProfile(tuple(betas), tuple(lambdas))


@st.composite
def symbols(draw, kind):
    dim = 2 if kind == "gaussian_aniso" else draw(st.integers(1, 3))
    kw = draw(st.fixed_dictionaries({}, optional={"zeta": positive}))
    if kind in ("gaussian_iso", "gaussian_axes"):
        kw["sigma"] = draw(positive)
    elif kind == "isotropic_reference":
        kw.update(beta=draw(exponent), lam=draw(st.one_of(st.none(), st.floats(0.0, 3.0))))
    else:
        m = draw(measures(dim, symmetric=kind == "beta1_aniso"))
        kw["measure"] = m
        if kind == "gaussian_aniso":
            kw["sigmas"] = tuple(draw(positive) for _ in range(m.n_components))
        if kind in ("stable_aniso", "tempered_aniso"):
            kw["beta"] = draw(exponent)
        if kind in ("tempered_aniso", "beta1_aniso", "beta2_quadratic"):
            kw["lam"] = draw(st.floats(0.0, 3.0))
        if kind == "general_profile":
            kw["profile"] = draw(profiles(m.n_components))
    return GeneratorSymbol(kind, dim, **kw)


@st.composite
def jumps(draw, kind, dimension=None):
    dim = dimension or (2 if kind == "gaussian_aniso" else draw(st.integers(1, 3)))
    if kind in ("gaussian_iso", "gaussian_axes"):
        return JumpSpec(kind, dim, sigma=draw(positive))
    m = draw(measures(dim))
    if kind == "gaussian_aniso":
        return JumpSpec(kind, dim, measure=m,
                        sigmas=tuple(draw(positive) for _ in range(m.n_components)))
    lams = [0.0, 0.5] if kind == "tempered_stable" else [0.0]
    return JumpSpec(kind, dim, measure=m, beta=draw(exponent),
                    lam=draw(st.sampled_from(lams)), r0=draw(st.floats(1e-4, 1.0)))


@st.composite
def state_models(draw):
    n = draw(st.integers(1, 3))

    def stochastic_row():
        w = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) + 0.1
        return w / w.sum()

    waiting = [draw(st.one_of(
        st.builds(WaitingLaw, st.just("exp"), rate=positive),
        st.builds(WaitingLaw, st.just("power_law"), alpha=st.floats(0.05, 0.95),
                  scale=st.sampled_from([1.0, 0.5, 2.0]))))
        for _ in range(n)]
    dim = draw(st.integers(1, 2))
    laws = [draw(jumps(draw(st.sampled_from(["gaussian_iso", "stable", "tempered_stable"])),
                       dim)) for _ in range(n)]
    return StateModel(np.stack([stochastic_row() for _ in range(n)]), stochastic_row(),
                      tuple(waiting), tuple(laws))


grids = st.builds(SpectralGrid, st.integers(1, 3), positive,
                  st.integers(4, 256).map(lambda h: 2 * h))


def assert_round_trip(cls, obj):
    doc = to_json(obj)
    wire = json.loads(json.dumps(doc))
    assert to_json(from_json(cls, wire)) == doc
    return doc


class TestRoundTrip:
    @pytest.mark.parametrize("kind", symbols_mod._KINDS)
    @FAST
    @given(data=st.data())
    def test_every_symbol_kind(self, kind, data):
        sym = data.draw(symbols(kind))
        doc = assert_round_trip(GeneratorSymbol, sym)
        back = symbol_from_json(doc)
        assert (back.zeta, back.sigmas) == (sym.zeta, sym.sigmas)

    @pytest.mark.parametrize("kind", _JUMP_KINDS)
    @FAST
    @given(data=st.data())
    def test_every_jump_kind(self, kind, data):
        assert_round_trip(JumpSpec, data.draw(jumps(kind)))

    @FAST
    @given(state_models())
    def test_state_model(self, model):
        doc = assert_round_trip(StateModel, model)
        assert [w["kind"] for w in doc["waiting"]] == [w.kind for w in model.waiting]
        back = state_model_from_json(dict(doc, N=model.n_states))
        assert back.waiting == model.waiting
        assert np.array_equal(back.M, model.M) and np.array_equal(back.init, model.init)

    @FAST
    @given(profiles())
    def test_stability_profile(self, profile):
        doc = assert_round_trip(StabilityProfile, profile)
        assert from_json(StabilityProfile, doc) == profile

    @FAST
    @given(grids)
    def test_spectral_grid(self, grid):
        assert from_json(SpectralGrid, assert_round_trip(SpectralGrid, grid)) == grid

    def test_defaults_and_none_are_omitted(self):
        doc = to_json(GeneratorSymbol("gaussian_iso", 2, sigma=0.5))
        assert doc == {"kind": "gaussian_iso", "dimension": 2, "sigma": 0.5}

    def test_values_take_the_annotated_type(self):
        grid = from_json(SpectralGrid, {"dimension": 2.0, "half_width": 8, "n_points": 32.0})
        assert [type(v) for v in (grid.dimension, grid.half_width, grid.n_points)] == [
            int, float, int]
        sym = from_json(GeneratorSymbol, {"kind": "stable_aniso", "dimension": 1, "beta": 1,
                                          "measure": {"dimension": 1, "atoms": [[[1], 1]]}})
        assert type(sym.beta) is float


class TestStrict:
    def test_unknown_field_named(self):
        doc = {"kind": "gaussian_iso", "dimension": 2, "sigma": 0.5, "refinment": 192}
        with pytest.raises(ValueError, match="unknown field 'refinment' in GeneratorSymbol"):
            from_json(GeneratorSymbol, doc)

    @pytest.mark.parametrize("kind", list(symbols_mod._FIELDS))
    @pytest.mark.parametrize("field, values", [
        ("method", st.sampled_from(["auto", "nodes", "adaptive"])),
        ("refinement", st.integers(1, 256))], ids=["method", "refinement"])
    @FAST
    @given(data=st.data())
    def test_band_rule_field_is_refused(self, kind, field, values, data):
        # no kind chooses its band rule: a value the symbols once took is refused
        doc = dict(to_json(data.draw(symbols(kind))), **{field: data.draw(values)})
        with pytest.raises(ValueError, match=f"unknown field '{field}' in GeneratorSymbol"):
            symbol_from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("kind", _JUMP_KINDS)
    @FAST
    @given(data=st.data())
    def test_rejection_cap_field_is_refused(self, kind, data):
        # the cap of the rejection loop is a constant: a cap a jump once took is refused
        cap = data.draw(st.integers(1, 10**6))
        doc = dict(to_json(data.draw(jumps(kind))), max_rejections=cap)
        with pytest.raises(ValueError, match="unknown field 'max_rejections' in JumpSpec"):
            from_json(JumpSpec, json.loads(json.dumps(doc)))

    def test_missing_required_field_named(self):
        with pytest.raises(ValueError, match="missing field 'n_points' in SpectralGrid"):
            from_json(SpectralGrid, {"dimension": 2, "half_width": 8.0})

    def test_nested_documents_are_checked(self):
        doc = {"M": [[1.0]], "init": [1.0], "waiting": [{"kind": "exp", "rate": 1.0}],
               "jumps": [{"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0, "lambda": 0}]}
        with pytest.raises(ValueError, match="unknown field 'lambda' in JumpSpec"):
            from_json(StateModel, doc)
        doc["jumps"] = [{"kind": "gaussian_iso", "sigma": 1.0}]
        with pytest.raises(ValueError, match="missing field 'dimension' in JumpSpec"):
            from_json(StateModel, doc)

    def test_null_only_for_optional_fields(self):
        # a null lam would pass as unset and then fail its range check with TypeError
        doc = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0, "lam": None}
        with pytest.raises(ValueError, match="field 'lam' of JumpSpec: "):
            from_json(JumpSpec, doc)
        assert from_json(GeneratorSymbol, dict(doc, beta=None)).lam is None

    def test_read_fields_in_spec_order(self):
        # the one reader of from_json and of every CLI config part
        spec = {"b": float, "a": (int, 7), "name": (str, None), "part": (dict, {})}
        assert _read_fields({"b": 1}, "doc", spec) == [1.0, 7, None, {}]
        for doc, message in [({"b": 1, "name": 5}, "field 'name' of doc: 5 is not a string"),
                             ({"b": 1, "part": [1]}, "field 'part' of doc: .* not a JSON object"),
                             ({"b": 1, "c": 2}, "unknown field 'c' in doc"),
                             ({"a": 1}, "missing field 'b' in doc")]:
            with pytest.raises(ValueError, match=message):
                _read_fields(doc, "doc", spec)

    @pytest.mark.parametrize("value", [2.7, 64.5, True, False, math.inf, "7"])
    def test_int_field_refuses_a_fraction_and_a_bool(self, value):
        # int(value) would truncate 2.7 to 2 and read true as 1 and "7" as 7
        with pytest.raises(ValueError, match=f"field 'paths' of doc: {value!r} is not an integer"):
            _read_fields({"paths": value}, "doc", {"paths": int})

    @pytest.mark.parametrize("value", ["1.3", True, False])
    def test_float_field_refuses_a_string_and_a_bool(self, value):
        # float(value) would read "1.3" as 1.3 and true as 1.0
        with pytest.raises(ValueError, match=f"field 'beta' of doc: {value!r} is not a number"):
            _read_fields({"beta": value}, "doc", {"beta": float})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_field_refuses_nan_and_infinity(self, value):
        # json reads NaN and Infinity; no float field means either
        with pytest.raises(ValueError, match=f"field 'lam' of doc: {value!r} is not a finite"):
            _read_fields({"lam": value}, "doc", {"lam": float})

    def test_grid_refuses_fractional_sizes(self):
        with pytest.raises(ValueError, match="field 'dimension' of SpectralGrid: 2.9 is not"):
            from_json(SpectralGrid, {"dimension": 2.9, "half_width": 8, "n_points": 64})
        with pytest.raises(ValueError, match="field 'n_points' of SpectralGrid: 64.5 is not"):
            from_json(SpectralGrid, {"dimension": 2, "half_width": 8, "n_points": 64.5})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="StabilityProfile must be a JSON object"):
            from_json(StabilityProfile, [[1.5], [0.0]])

    @pytest.mark.parametrize("field, value", [
        ("dimension", [2]), ("sigma", [1.0]), ("sigma", "wide"), ("sigmas", 0.8),
        ("dimension", {"n": 2})])
    def test_wrong_json_type_named(self, field, value):
        doc = dict({"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}, **{field: value})
        with pytest.raises(ValueError, match=f"field '{field}' of GeneratorSymbol: "):
            from_json(GeneratorSymbol, doc)


@st.composite
def waiting_laws(draw, kind):
    if kind == "exp":
        return WaitingLaw(kind, rate=draw(positive))
    return WaitingLaw(kind, alpha=draw(st.floats(0.05, 0.95)), scale=draw(positive))


# each config class: its kind table, the fields every kind accepts, valid objects by kind
KIND_TABLES = [
    (GeneratorSymbol, symbols_mod._FIELDS, ("dimension", "zeta"), symbols),
    (JumpSpec, sampler_mod._JUMP_FIELDS, ("dimension",), jumps),
    (WaitingLaw, multistate_mod._WAITING_FIELDS, (), waiting_laws),
]


@st.composite
def set_values(draw, field, dimension):
    """A value of field that counts as set: not None, not its default, not 0."""
    if field == "measure":
        return draw(measures(dimension))
    if field == "profile":
        return draw(profiles())
    if field == "sigmas":  # an array too: the unset test must not take its truth value
        return draw(st.one_of(st.tuples(positive, positive),
                              st.lists(positive, min_size=2, max_size=3).map(np.array)))
    return draw(positive.filter(lambda v: v != 1.0))


class TestKindFields:
    @pytest.mark.parametrize("cls, kind, field", [
        pytest.param(cls, kind, f.name, id=f"{cls.__name__}-{kind}-{f.name}")
        for cls, table, shared, _ in KIND_TABLES for kind, (req, opt) in table.items()
        for f in dataclasses.fields(cls) if f.name not in {"kind", *shared, *req, *opt}])
    @FAST
    @given(data=st.data())
    def test_field_the_kind_does_not_read_is_refused(self, cls, kind, field, data):
        strategy = next(s for c, _, _, s in KIND_TABLES if c is cls)
        obj = data.draw(strategy(kind))
        value = data.draw(set_values(field, getattr(obj, "dimension", 1)))
        with pytest.raises(ValueError) as err:
            dataclasses.replace(obj, **{field: value})
        assert f"{kind} does not read field {field!r}" in str(err.value)

    def test_tables_list_every_kind_and_only_fields(self):
        assert set(symbols_mod._FIELDS) == set(symbols_mod._KINDS)
        assert set(sampler_mod._JUMP_FIELDS) == set(_JUMP_KINDS)
        for cls, table, shared, _ in KIND_TABLES:
            names = {f.name for f in dataclasses.fields(cls)}
            for required, optional in table.values():
                assert {*shared, *required, *optional} <= names
                assert not set(required) & set(optional)

    @pytest.mark.parametrize("make", [
        lambda m: GeneratorSymbol("stable_aniso", 3, measure=m, beta=1.3),
        lambda m: JumpSpec("stable", 3, measure=m, beta=1.3),
    ], ids=["symbol", "jump"])
    def test_measure_of_another_dimension_is_refused(self, make):
        with pytest.raises(ValueError, match="measure dimension mismatch"):
            make(make_banded_measure(2, [((0.0, TWO_PI), 1.0 / TWO_PI)]))

    @pytest.mark.parametrize("cls, args", [
        (GeneratorSymbol, (2,)), (JumpSpec, (2,)), (WaitingLaw, ())])
    def test_unknown_kind_is_refused(self, cls, args):
        with pytest.raises(ValueError, match=f"unknown {cls.__name__} kind 'bogus'"):
            cls("bogus", *args)
