import json
import math
from importlib import resources

import numpy as np
import pytest

from anisolap.cli import main
from anisolap.symbols import isotropic_reference_symbol

TWO_PI = 2.0 * math.pi


def bundled(name):
    return str(resources.files("anisolap").joinpath("configs", name))


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


M1_SYM = {"dimension": 1, "atoms": [[[1.0], 0.5], [[-1.0], 0.5]], "bands": []}
FIG1 = {"dimension": 2, "atoms": [], "bands": [
    {"region": [0.0, math.pi], "density": 2.0 / (3.0 * math.pi)},
    {"region": [math.pi, TWO_PI], "density": 1.0 / (3.0 * math.pi)},
]}

UNIFORM2 = {"dimension": 2, "atoms": [],
            "bands": [{"region": [0.0, TWO_PI], "density": 1.0 / TWO_PI}]}
# 3D bands keep the adaptive and fixed-node routes that 2D bands no longer take
UNIFORM3 = {"dimension": 3, "atoms": [],
            "bands": [{"region": [0.0, math.pi, 0.0, TWO_PI], "density": 0.25 / math.pi}]}
# the fields without a default of each symbol kind, with valid values
SYMBOL_FIELDS = {
    "gaussian_iso": {"sigma": 1.0},
    "gaussian_axes": {"sigma": 1.0},
    "gaussian_aniso": {"measure": FIG1, "sigmas": [0.8, 1.2]},
    "stable_aniso": {"measure": FIG1, "beta": 0.8},
    "tempered_aniso": {"measure": FIG1, "beta": 1.3, "lam": 0.5},
    "beta1_aniso": {"measure": UNIFORM2, "lam": 0.5},
    "beta2_quadratic": {"measure": FIG1},
    "general_profile": {"measure": FIG1, "profile": {"betas": [1.3, 1.7], "lambdas": [0.0, 0.5]}},
    "isotropic_reference": {"beta": 0.8},
}


class TestUsage:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: anisolap")

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        assert "the following arguments are required: command" in capsys.readouterr().err


class TestErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["symbol", "--config", str(bad), "--k-grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"nope": 1})
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "symbol" in capsys.readouterr().err

    def test_wrong_json_type_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": [2], "sigma": 1.0}})
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "field 'dimension' of GeneratorSymbol" in capsys.readouterr().err

    # int() and float() would read "7", "1.3" and true as numbers
    @pytest.mark.parametrize("field, value", [("paths", "7"), ("zeta", "1.3"), ("t", True)])
    def test_string_or_bool_number_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path, "c.json", dict({
            "jump": {"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0},
            "zeta": 1.0, "t": 1.0, "paths": 7, "seed": 11, "k_list": [[0.5]]}, **{field: value}))
        out = tmp_path / "ecf.csv"
        code = main(["ecf", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert f"field '{field}' of ecf config: {value!r} is not" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_measure_key_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "operator": {"case": "I", "beta": 0.8, "lam": 0.5,
                         "measure": dict(FIG1, atom=[[[1.0, 0.0], 0.5]])}})
        pts = tmp_path / "p.csv"
        pts.write_text("x1,x2\n0.0,0.0\n")
        code = main(["apply", "--config", cfg, "--points", str(pts),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "unknown field 'atom' in measure" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_invalid_thread_cap_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("ANISOLAP_THREADS", value)
        cfg = write_json(tmp_path, "c.json", {
            "operator": {"case": "I", "beta": 0.8, "lam": 0.5, "measure": FIG1}})
        pts = tmp_path / "p.csv"
        pts.write_text("x1,x2\n0.0,0.0\n0.5,0.5\n")
        code = main(["apply", "--config", cfg, "--points", str(pts),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"ANISOLAP_THREADS must be a nonnegative integer, not '{value}'" in err

    def test_beta1_without_measure_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "beta1_aniso", "dimension": 2, "lam": 0.5}})
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "requires a directional measure" in err

    @pytest.mark.parametrize("kind, field", [
        (kind, field) for kind, fields in SYMBOL_FIELDS.items() for field in fields])
    def test_symbol_without_required_field_exits_2(self, tmp_path, capsys, kind, field):
        doc = {"kind": kind, "dimension": 2, **SYMBOL_FIELDS[kind]}
        argv = ["symbol", "--k-grid", "0:1:3", "--out", str(tmp_path / "o.csv")]
        assert main([*argv, "--config", write_json(tmp_path, "a.json", {"symbol": doc})]) == 0
        del doc[field]
        code = main([*argv, "--config", write_json(tmp_path, "b.json", {"symbol": doc})])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{kind} requires" in err
        assert (field == "measure" and "directional measure" in err) or f"'{field}'" in err

    @pytest.mark.parametrize("verb, field, where", [
        ("coercivity", "beta", "coercivity config"), ("parseval", "beta", "parseval config"),
        ("apply", "beta", "operator"), ("equivalence", "measure", "equivalence case"),
        ("equivalence", "beta", "equivalence case"), ("equivalence", "grid", "equivalence case")])
    def test_missing_operator_field_is_named(self, tmp_path, capsys, verb, field, where):
        case = {"measure": M1_SYM, "beta": 0.5, "lam": 1.0}
        if verb == "equivalence":
            case["grid"] = {"dimension": 1, "half_width": 8.0, "n_points": 64}
        del case[field]
        if verb == "apply":
            pts = tmp_path / "pts.csv"
            np.savetxt(pts, np.zeros((1, 1)), delimiter=",", header="x1")
            argv = ["apply", "--points", str(pts), "--out", str(tmp_path / "vals.csv")]
            doc = {"operator": case}
        else:
            argv = ["analyze", verb]
            doc = {"cases": [case]} if verb == "equivalence" else case
        assert main([*argv, "--config", write_json(tmp_path, "c.json", doc)]) == 2
        assert capsys.readouterr().err == f"config error: missing field '{field}' in {where}\n"

    @pytest.mark.parametrize("verb, own", [("sample", {}), ("ecf", {"k_list": [[0.5, 0.0]]})])
    def test_sampling_requires_time(self, tmp_path, capsys, verb, own):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}, "seed": 3, **own})
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"config error: missing field 't' in {verb} config\n"

    @pytest.mark.parametrize("verb", ["evolve", "mass", "apply"])
    def test_center_of_another_dimension_exits_2(self, tmp_path, capsys, verb):
        grid = {"dimension": 2, "half_width": 8.0, "n_points": 32}
        sym = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}
        argv = {"evolve": ["evolve", "--t", "0.5", "--out", str(tmp_path / "o.csv")],
                "mass": ["analyze", "mass"],
                "apply": ["apply", "--points", str(tmp_path / "p.csv"),
                          "--out", str(tmp_path / "o.csv")]}[verb]
        if verb == "apply":
            (tmp_path / "p.csv").write_text("x1,x2\n0.0,0.0\n")
            doc = {"operator": {"case": "I", "measure": FIG1, "beta": 0.8, "lam": 0.5},
                   "field": {"center": [0.5]}}
        else:
            doc = {"symbol": sym, "grid": grid, "initial": {"kind": "delta", "center": [0.5]}}
        assert main([*argv, "--config", write_json(tmp_path, "c.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: center [0.5] does not have 2 components\n")
        assert not (tmp_path / "o.csv").exists()

    def test_sampling_requires_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
            "t": 1.0})
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sample", "ecf", "multistate --validate", "multistate"])
    @pytest.mark.parametrize("paths", [0, -5])
    def test_paths_below_one_exits_2(self, tmp_path, capsys, verb, paths):
        jump = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}
        # each verb's own fields beside the run fields t, paths and seed
        own = {"sample": {"jump": jump}, "ecf": {"jump": jump, "k_list": [[0.5, 0.0]]}}
        cfg = {"t": 1.0, "seed": 3, "paths": paths, **own.get(verb, {"model": {
            "N": 1, "M": [[1.0]], "init": [1.0],
            "waiting": [{"kind": "exp", "rate": 1.0}], "jumps": [jump]}})}
        argv = [*verb.split(), "--config", write_json(tmp_path, "c.json", cfg),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: paths must be at least 1, got {paths}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({"k_list": [[0.5, 0.0], [1.0, 0.0, 2.0]]}, "k vector [1.0, 0.0, 2.0]"),
        ({"k_list": []}, "k_list names no wavenumber"),
        ({"jump": {"kind": "stable", "dimension": 2, "beta": 1.3, "lam": 0.5, "r0": 0.01,
                   "measure": FIG1}}, "use kind 'tempered_stable'"),
    ], ids=["k_list_row", "k_list_empty", "stable_with_lam"])
    def test_ecf_config_error_exits_2(self, tmp_path, capsys, change, message):
        cfg = {"jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
               "t": 1.0, "paths": 10, "seed": 3, "k_list": [[0.5, 0.0]], **change}
        argv = ["ecf", "--config", write_json(tmp_path, "c.json", cfg),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "o.csv").exists()

    # a run is its config: no flag sets t, paths, seed or k_list
    @pytest.mark.parametrize("verb, flag", [
        (verb, flag) for verb in ("sample", "ecf", "multistate")
        for flag in ("--seed", "--paths", "--t")] + [("ecf", "--k-list")])
    def test_removed_run_flag_exits_2(self, tmp_path, capsys, verb, flag):
        out = tmp_path / "o.csv"
        assert main([verb, "--config", "c.json", "--out", str(out), flag, "1"]) == 2
        assert f"error: unrecognized arguments: {flag} 1\n" in capsys.readouterr().err
        assert not out.exists()

    def test_inline_multistate_model_exits_2(self, tmp_path, capsys):
        # the model sits under "model"; its fields are not run fields
        cfg = write_json(tmp_path, "c.json", {
            "M": [[1.0]], "init": [1.0], "waiting": [{"kind": "exp", "rate": 1.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}],
            "t": 1.0, "paths": 10, "seed": 3})
        assert main(["multistate", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: unknown field 'M', 'init', 'jumps', "
                                           "'waiting' in multistate config\n")

    @pytest.mark.parametrize("verb, initial", [
        ("evolve", {"kind": "gaussian", "variance": 0.5, "center": [100, 0]}),
        ("mass", {"kind": "delta", "center": [100, 0]})])
    def test_center_outside_the_box_exits_2(self, tmp_path, capsys, verb, initial):
        # the periodic box would wrap a delta there and hold none of a gaussian
        out = tmp_path / "o.csv"
        doc = {"symbol": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
               "grid": {"dimension": 2, "half_width": 8.0, "n_points": 32}, "initial": initial}
        argv = {"evolve": ["evolve", "--t", "0.5", "--out", str(out)],
                "mass": ["analyze", "mass"]}[verb]
        assert main([*argv, "--config", write_json(tmp_path, "c.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: center [100.0, 0.0] lies outside the box [-8.0, 8.0]^2\n")
        assert not out.exists()


class TestFieldsTheKindReads:
    """A field the kind would ignore, a rate that is not positive or a null
    for a field that cannot be None is a config error: exit 2 with one line."""

    GAUSS_LAM = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1, "lam": 0.5}

    @pytest.mark.parametrize("verb, cfg, flags, message", [
        ("symbol", {"symbol": GAUSS_LAM}, ["--k-grid", "0:1:3"],
         "gaussian_iso does not read field 'lam'"),
        ("ecf", {"jump": GAUSS_LAM, "t": 1.0, "paths": 10, "seed": 3, "k_list": [[0.5, 0.0]]},
         [], "gaussian_iso does not read field 'lam'"),
        ("multistate", {"model": {
            "M": [[1.0]], "init": [1.0],
            "waiting": [{"kind": "exp", "rate": 1.0, "alpha": 0.5}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}]},
            "seed": 3, "paths": 10}, [], "exp does not read field 'alpha'"),
        ("evolve", {"symbol": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0, "zeta": -1},
                    "grid": {"dimension": 2, "half_width": 8.0, "n_points": 32},
                    "initial": {"kind": "gaussian", "variance": 0.5}},
         ["--t", "1.0"], "zeta must be finite and positive"),
        ("ecf", {"jump": dict(GAUSS_LAM, lam=None), "t": 1.0, "paths": 10, "seed": 3,
                 "k_list": [[0.5, 0.0]]}, [], "field 'lam' of JumpSpec"),
    ], ids=["symbol_lam", "ecf_lam", "multistate_alpha", "evolve_negative_zeta", "ecf_null_lam"])
    def test_refused_config_exits_2(self, tmp_path, capsys, verb, cfg, flags, message):
        out = tmp_path / "o.csv"
        argv = [verb, "--config", write_json(tmp_path, "c.json", cfg), "--out", str(out)]
        assert main([*argv, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


class TestEveryFieldIsRead:
    """Every config part goes through one reader: a misspelled key, a wrong
    JSON type, a null or a field that nothing reads is a config error, exit
    2, with one line that names the field."""

    JUMP = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}
    MASS = {"symbol": JUMP, "grid": {"dimension": 2, "half_width": 8.0, "n_points": 32}}
    STABLE = {"kind": "stable", "dimension": 2, "beta": 1.3, "measure": FIG1}

    @pytest.mark.parametrize("verb, cfg, message", [
        ("analyze coercivity", {"measure": FIG1, "beta": 1.3, "lamda": 0.7},
         "unknown field 'lamda' in coercivity config"),
        ("apply", {"operator": {"measure": M1_SYM, "beta": 0.5}, "field": {"widht": 2.0}},
         "unknown field 'widht' in field"),
        ("apply", {"operator": {"measure": M1_SYM, "beta": 0.5, "lamda": 1.0}},
         "unknown field 'lamda' in operator"),
        ("analyze mass", dict(MASS, initial={"kind": "gaussian", "varience": 0.5}),
         "unknown field 'varience' in initial density"),
        ("analyze mass", dict(MASS, initial={"kind": "delta", "variance": 0.5}),
         "unknown field 'variance' in initial density"),
        ("analyze mass", dict(MASS, tims=[1.0]), "unknown field 'tims' in mass config"),
        ("ecf", {"jump": JUMP, "t": 1.0, "paths": 10, "sed": 3, "k_list": [[0.5, 0.0]]},
         "unknown field 'sed' in ecf config"),
        ("multistate --validate", {"model": {"M": [[1.0]], "init": [1.0],
                                             "waiting": [{"kind": "exp", "rate": 1.0}],
                                             "jumps": [JUMP]},
                                   "seed": 3, "paths": 10, "k_probe": [[1.0, 0.0]]},
         "unknown field 'k_probe' in multistate config"),
        ("analyze coercivity", {"measure": FIG1, "beta": 1.3, "lam": None},
         "field 'lam' of coercivity config"),
        ("analyze coercivity", {"measure": FIG1, "beta": [1.3]},
         "field 'beta' of coercivity config"),
        ("analyze coercivity", {"measure": FIG1, "beta": 1.3, "expect": "coercve"},
         "unknown coercivity config expect 'coercve'"),
        ("analyze coercivity", {"measure": FIG1, "beta": 1.3, "expect": "degenerate",
                                "floor": 0.5}, "unknown field 'floor' in coercivity config"),
        ("analyze counterexample", {"truncations": 5},
         "field 'truncations' of counterexample config"),
        ("analyze counterexample", {"beta": 0.5, "lam": -1}, "lambda must be nonnegative"),
        ("symbol", {"symbol": dict(JUMP, method="nodes")},
         "unknown field 'method' in GeneratorSymbol"),
        ("symbol", {"symbol": dict(JUMP, note="a note")}, "unknown field 'note' in GeneratorSymbol"),
        ("symbol", {"symbol": JUMP, "note": 3}, "the note of a config must be a string"),
        ("sample", {"jump": dict(STABLE, max_rejections=7), "t": 1.0, "seed": 3},
         "unknown field 'max_rejections' in JumpSpec"),
    ])
    def test_refused_config_exits_2(self, tmp_path, capsys, verb, cfg, message):
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.zeros((1, 1)), delimiter=",", header="x1")
        out = tmp_path / "o.csv"
        flags = {"apply": ["--points", str(pts)], "symbol": ["--k-grid", "0:1:3"]}
        argv = [*verb.split(), "--config", write_json(tmp_path, "c.json", cfg),
                *flags.get(verb, []), *(["--out", str(out)] if verb in ("apply", "symbol",
                                                                       "sample", "ecf") else [])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_top_level_note_is_free_text(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"note": "any text", "symbol": self.JUMP})
        assert main(["symbol", "--config", cfg, "--k-grid", "0:1:3",
                     "--out", str(tmp_path / "o.csv")]) == 0


class TestFileErrors:
    """A file that cannot be read or written is one line on stderr, exit 2."""

    def expect_2(self, capsys, argv, name):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and name in err and err.count("\n") == 1

    def test_compare_missing_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        self.expect_2(capsys, ["compare", "--a", missing, "--b", missing], "missing.csv")

    def test_apply_missing_points(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"operator": {"measure": M1_SYM, "beta": 0.5}})
        self.expect_2(capsys, ["apply", "--config", cfg, "--points", str(tmp_path / "missing.csv"),
                               "--out", str(tmp_path / "o.csv")], "missing.csv")

    def test_out_into_missing_directory(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": TestEveryFieldIsRead.JUMP})
        self.expect_2(capsys, ["symbol", "--config", cfg, "--k-grid", "0:1:3",
                               "--out", str(tmp_path / "nodir" / "o.csv")], "nodir")

    def test_zero_k_direction_is_refused(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": TestEveryFieldIsRead.JUMP})
        out = tmp_path / "o.csv"
        assert main(["symbol", "--config", cfg, "--k-grid", "0:1:3", "--k-dir", "0,0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --k-dir 0,0 is not a direction\n"
        assert not out.exists()


class TestNumericalFailures:
    """Numerical failures end with one line on stderr and exit code 3."""

    def expect_3(self, capsys, code, message):
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err
        assert len(err.splitlines()) == 1

    def test_boundary_mass(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0, "zeta": 5.0},
            "grid": {"dimension": 2, "half_width": 3.0, "n_points": 32},
            "initial": {"kind": "gaussian", "variance": 0.25}})
        code = main(["evolve", "--config", cfg, "--t", "4.0", "--out", str(tmp_path / "a.csv")])
        self.expect_3(capsys, code, "enlarge the box")

    def test_exhausted_rejection(self, tmp_path, capsys, monkeypatch):
        import anisolap.sampler as sampler

        monkeypatch.setattr(sampler, "_MAX_REJECTIONS", 1)
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "tempered_stable", "dimension": 1, "measure": M1_SYM,
                     "beta": 0.5, "lam": 500.0, "r0": 1.0},
            "zeta": 1.0, "t": 1.0, "paths": 50, "seed": 11, "k_list": [[0.5]]})
        code = main(["ecf", "--config", cfg, "--out", str(tmp_path / "ecf.csv")])
        self.expect_3(capsys, code, "tempered radius rejection exceeded 1 rounds")

    def test_unconverged_continued_fraction(self, tmp_path, capsys, monkeypatch):
        import anisolap._special as special

        monkeypatch.setattr(special, "CF_MAX_ITER", 2)
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "tempered_stable", "dimension": 1, "measure": M1_SYM,
                     "beta": 1.3, "lam": 0.5, "r0": 1.0},
            "zeta": 1.0, "t": 1.0, "paths": 50, "seed": 11, "k_list": [[5.0]]})
        code = main(["ecf", "--config", cfg, "--out", str(tmp_path / "ecf.csv")])
        self.expect_3(capsys, code, "continued fraction did not converge")

    def test_panel_budget(self, tmp_path, capsys, monkeypatch):
        import anisolap.measures as measures

        monkeypatch.setattr(measures, "_PANEL_BUDGET", 1)
        cfg = write_json(tmp_path, "c.json", {"measure": UNIFORM3, "beta": 1.3, "lam": 0.7,
                                              "expect": "coercive"})
        code = main(["analyze", "coercivity", "--config", cfg])
        self.expect_3(capsys, code, "more than 1 panels of one integrand")

    def test_non_finite_symbol(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": {
            "kind": "tempered_aniso", "dimension": 3, "measure": UNIFORM3, "beta": 1.3,
            "lam": 0.5}})
        out = tmp_path / "o.csv"
        # 65 wavenumbers: one more than 3D bands take adaptive quadrature on
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1e200:65", "--out", str(out)])
        self.expect_3(capsys, code, "tempered_aniso symbol is not finite")
        assert not out.exists()

    def test_non_finite_adaptive_symbol(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": {
            "kind": "tempered_aniso", "dimension": 3, "measure": UNIFORM3, "beta": 1.3,
            "lam": 0.5}})
        out = tmp_path / "o.csv"
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1e200:3", "--out", str(out)])
        self.expect_3(capsys, code, "symbol integrand is not finite")
        assert not out.exists()

    def test_non_finite_band_table(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": {
            "kind": "tempered_aniso", "dimension": 2, "measure": FIG1, "beta": 1.3,
            "lam": 0.5}})
        out = tmp_path / "o.csv"
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1e200:3", "--out", str(out)])
        self.expect_3(capsys, code, "2D band quadrature: the symbol integrand is not finite")
        assert not out.exists()

    def test_positive_real_part(self, tmp_path, capsys, monkeypatch):
        import anisolap.symbols as symbols

        monkeypatch.setitem(symbols._EVALUATORS, "gaussian_iso",
                            lambda s, k: np.full(len(k), 1e-6 + 0j))
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}})
        code = main(["symbol", "--config", cfg, "--k-grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        self.expect_3(capsys, code, "violated Re psi <= 0")


class TestSample:
    def test_fig1_bundled_config(self, tmp_path):
        # the bundled run, shortened from t = 2000 to 50
        doc = json.loads(open(bundled("fig1_levy.json")).read())
        out = tmp_path / "traj.csv"
        code = main(["sample", "--config", write_json(tmp_path, "c.json", dict(doc, t=50)),
                     "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape[1] == 5  # path_id, t, x1, x2, state
        assert set(np.unique(data[:, 0])) == {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_byte_identical_artifacts(self, tmp_path, capsys):
        # a run is its config: each sampling verb, run twice on one config
        jump = {"kind": "stable", "dimension": 2, "beta": 1.3, "r0": 0.01, "measure": FIG1}
        model = {"M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
                 "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
                 "jumps": [jump, {"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7}]}
        runs = {"sample": {"jump": jump, "t": 20.0, "paths": 3, "seed": 7},
                "ecf": {"jump": jump, "t": 1.0, "paths": 200, "seed": 7,
                        "k_list": [[0.5, 0.0], [0.0, 1.0]]},
                "multistate": {"model": model, "t": 1.0, "paths": 200, "seed": 7}}
        for verb, doc in runs.items():
            cfg = write_json(tmp_path, f"{verb}.json", doc)
            a, b = tmp_path / f"{verb}_a.csv", tmp_path / f"{verb}_b.csv"
            assert main([verb, "--config", cfg, "--out", str(a)]) == 0
            assert main([verb, "--config", cfg, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()  # the CHECK lines stay out of a -s run's output


class TestSymbolTable:
    def test_writes_rows(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"symbol": {
            "kind": "tempered_aniso", "dimension": 2, "beta": 1.3, "lam": 0.5,
            "measure": FIG1}})
        out = tmp_path / "tab.csv"
        code = main(["symbol", "--config", cfg, "--k-grid", "0:4:9",
                     "--k-dir", "0,1", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (9, 4)
        assert abs(data[0, 2]) < 1e-13  # psi(0) = 0
        assert np.all(data[1:, 2] < 0)  # Re psi < 0 away from zero

    def test_3d_band_next_to_a_zero_meridian(self, tmp_path):
        # k_z = 0 on the adaptive route of at most 64 wavenumbers
        cfg = write_json(tmp_path, "c.json", {"symbol": {
            "kind": "stable_aniso", "dimension": 3, "beta": 0.25, "measure": UNIFORM3}})
        out = tmp_path / "tab.csv"
        code = main(["symbol", "--config", cfg, "--k-grid", "0:2:5",
                     "--k-dir", "1,1,0", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        want = -isotropic_reference_symbol(0.25, 0.0, data[:, :3], 3)
        assert np.max(np.abs(data[:, 3] + 1j * data[:, 4] - want)) <= 1e-12


class TestApplyAndEquivalence:
    def test_apply_matches_direct_call(self, tmp_path):
        from anisolap.measures import measure_from_json
        from anisolap.realspace import apply_caseI, gaussian_bump

        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.linspace(-1, 1, 7)[:, None], delimiter=",",
                   header="x1")
        cfg = write_json(tmp_path, "c.json", {
            "operator": {"case": "I", "measure": M1_SYM, "beta": 0.5, "lam": 1.0},
            "field": {"kind": "gaussian", "width": 1.0}})
        out = tmp_path / "vals.csv"
        assert main(["apply", "--config", cfg, "--points", str(pts),
                     "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        want = apply_caseI(gaussian_bump(1), measure_from_json(M1_SYM), 0.5, 1.0,
                           np.linspace(-1, 1, 7)[:, None])
        assert np.allclose(got[:, 1], want, atol=1e-12)

    def test_apply_general_matches_direct_call(self, tmp_path):
        from anisolap.measures import StabilityProfile, measure_from_json
        from anisolap.realspace import apply_general, gaussian_bump

        x = np.linspace(-1, 1, 7)[:, None]
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, x, delimiter=",", header="x1", fmt="%.17g")
        cfg = write_json(tmp_path, "c.json", {
            "operator": {"case": "general", "measure": M1_SYM,
                         "profile": {"betas": [0.5, 1.5], "lambdas": [1.0, 0.0]}},
            "field": {"kind": "gaussian", "width": 1.0}})
        out = tmp_path / "vals.csv"
        assert main(["apply", "--config", cfg, "--points", str(pts),
                     "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        want = apply_general(gaussian_bump(1), measure_from_json(M1_SYM),
                             StabilityProfile((0.5, 1.5), (1.0, 0.0)), x)
        assert np.array_equal(got[:, 1], want)

    def test_theorem1_bundled_config(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "equivalence", "--config",
                     bundled("theorem1_check.json"), "--out", str(out)])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("CHECK")]
        assert len(lines) == 3 and all("PASS" in l for l in lines)
        rep = json.loads(out.read_text())
        assert all(c["relative_l2"] <= c["tol"] for c in rep["cases"])


    # equivalence compares against the constant-profile symbol, so it takes
    # cases I and II only
    @pytest.mark.parametrize("verb, name", [
        ("apply", "bogus"), ("equivalence", "bogus"), ("equivalence", "general")])
    def test_unknown_case_is_a_config_error(self, tmp_path, capsys, verb, name):
        case = {"case": name, "measure": M1_SYM, "beta": 0.5, "lam": 1.0}
        if verb == "apply":
            pts = tmp_path / "pts.csv"
            np.savetxt(pts, np.zeros((1, 1)), delimiter=",", header="x1")
            cfg = write_json(tmp_path, "c.json", {"operator": case})
            argv = ["apply", "--config", cfg, "--points", str(pts),
                    "--out", str(tmp_path / "vals.csv")]
        else:
            cfg = write_json(tmp_path, "c.json", {"cases": [dict(
                case, grid={"dimension": 1, "half_width": 8.0, "n_points": 64})]})
            argv = ["analyze", "equivalence", "--config", cfg]
        assert main(argv) == 2
        assert f"unknown operator case '{name}'" in capsys.readouterr().err


class TestEvolveCompare:
    def test_roundtrip_and_compare(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0,
                       "zeta": 1.0},
            "grid": {"dimension": 2, "half_width": 16.0, "n_points": 128},
            "initial": {"kind": "gaussian", "variance": 1.0}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", cfg, "--t", "1.0", "--out", str(a)]) == 0
        assert main(["evolve", "--config", cfg, "--t", "1.0", "--out", str(b)]) == 0
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        out = capsys.readouterr().out
        assert "COMPARE l1=0.000000e+00" in out

    def test_misspelled_field_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0,
                       "refinment": 192},
            "grid": {"dimension": 1, "half_width": 16.0, "n_points": 128}})
        out = tmp_path / "a.csv"
        assert main(["evolve", "--config", cfg, "--t", "1.0", "--out", str(out)]) == 2
        assert "unknown field 'refinment' in GeneratorSymbol" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_writes_json(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0},
            "grid": {"dimension": 1, "half_width": 16.0, "n_points": 128},
            "initial": {"kind": "gaussian", "variance": 1.0}})
        a, b, rep = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "rep.json"
        main(["evolve", "--config", cfg, "--t", "0.5", "--out", str(a)])
        main(["evolve", "--config", cfg, "--t", "1.5", "--out", str(b)])
        capsys.readouterr()
        assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert sorted(doc) == ["l1", "l2", "max"] and doc["l1"] > 0
        assert capsys.readouterr().out == (
            f"COMPARE l1={doc['l1']:.6e} l2={doc['l2']:.6e} max={doc['max']:.6e}\n")

    @pytest.mark.parametrize("text, message", [
        ("0,0,1\n", "is not a density that evolve wrote: its first line must give dimension, "
                    "half_width, n_points and time"),
        ("# dimension=2 half_width=8.0 n_points=8 time=0.0\n# x1,x2,value\n0,0,1\n",
         "holds 1 rows of 3 columns; its header needs 64 rows of 3"),
        ("# dimension=1 half_width=8.0 n_points=8 time=0.0\n# x1,value\n" + "0,a\n" * 8,
         "is not a density that evolve wrote: could not convert string 'a'"),
    ], ids=["no_header", "too_few_rows", "not_a_number"])
    def test_compare_on_a_foreign_csv_exits_2(self, tmp_path, capsys, text, message):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text(text)
        assert main(["compare", "--a", str(foreign), "--b", str(foreign)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {foreign} {message}") and err.count("\n") == 1

    def test_compare_l1_tolerance_flag(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0},
            "grid": {"dimension": 1, "half_width": 16.0, "n_points": 128},
            "initial": {"kind": "gaussian", "variance": 1.0}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["evolve", "--config", cfg, "--t", "0.5", "--out", str(a)])
        main(["evolve", "--config", cfg, "--t", "1.5", "--out", str(b)])
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--l1-tol", "1e-12"]) == 1
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--l1-tol", "10.0"]) == 0


class TestEcfAndMultistate:
    def test_ecf_gaussian_case(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
            "zeta": 1.0, "t": 1.0, "paths": 20000, "seed": 11,
            "k_list": [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]]})
        out = tmp_path / "ecf.csv"
        code = main(["ecf", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum("PASS" in l for l in lines) == 3
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (3, 8)

    def test_multistate_validate(self, tmp_path, capsys):
        model = {"model": {
            "N": 2, "M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
            "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7},
                      {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.3}]},
            "seed": 5, "paths": 20000, "t": 1.0,
            "k_probes": [[1.0, 0.0], [0.3, 0.6]]}
        cfg = write_json(tmp_path, "model.json", model)
        code = main(["multistate", "--config", cfg, "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "multistate_ecf_deviation" in out and "FAIL" not in out

    def test_multistate_validate_default_probes(self, tmp_path, capsys):
        # without k_probes the check runs at (1, 0) and (0, 0.5)
        model = {"model": {
            "M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
            "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7},
                      {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.3}]},
            "seed": 5, "paths": 2000, "t": 1.0}
        outs = []
        for doc in (model, dict(model, k_probes=[[1.0, 0.0], [0.0, 0.5]])):
            cfg = write_json(tmp_path, "model.json", doc)
            assert main(["multistate", "--config", cfg, "--validate"]) == 0
            outs.append(capsys.readouterr().out)
        assert "CHECK multistate_ecf_deviation" in outs[0] and outs[0] == outs[1]

    def test_multistate_endpoints_csv(self, tmp_path):
        model = {"model": {
            "N": 1, "M": [[1.0]], "init": [1.0],
            "waiting": [{"kind": "exp", "rate": 1.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0}]},
            "seed": 3, "paths": 100, "t": 1.0}
        cfg = write_json(tmp_path, "model.json", model)
        out = tmp_path / "ends.csv"
        assert main(["multistate", "--config", cfg, "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (100, 3)


class TestAnalyzeVerbs:
    def test_counterexample_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"beta": 0.5, "lam": 1.0})
        out = tmp_path / "rep.json"
        assert main(["analyze", "counterexample", "--config", cfg,
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["seminorm_product"] == 0.0
        assert all(v > 0 for v in rep["values"])

    def test_coercivity_degenerate(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "measure": {"dimension": 2,
                        "atoms": [[[1.0, 0.0], 0.5], [[-1.0, 0.0], 0.5]],
                        "bands": []},
            "beta": 1.5, "lam": 0.5, "expect": "degenerate"})
        assert main(["analyze", "coercivity", "--config", cfg]) == 0
        assert "degenerate_witness_numerator" in capsys.readouterr().out

    # the infimum for the four axis atoms at beta 1.5, lambda 0.5 is about 0.907
    @pytest.mark.parametrize("floor, code, status", [(0.5, 0, "PASS"), (0.95, 1, "FAIL")])
    def test_coercivity_floor(self, tmp_path, capsys, floor, code, status):
        cfg = write_json(tmp_path, "c.json", {
            "measure": {"dimension": 2, "atoms": [[[1.0, 0.0], 0.25], [[-1.0, 0.0], 0.25],
                                                  [[0.0, 1.0], 0.25], [[0.0, -1.0], 0.25]],
                        "bands": []},
            "beta": 1.5, "lam": 0.5, "expect": "coercive", "floor": floor})
        out = tmp_path / "rep.json"
        assert main(["analyze", "coercivity", "--config", cfg, "--out", str(out)]) == code
        line = capsys.readouterr().out.strip()
        assert line.startswith("CHECK coercivity_infimum ") and line.endswith(f"status={status}")
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "coercive" and 0.5 < rep["ratio_infimum"] < 0.95
        assert rep["probe_description"]

    @pytest.mark.parametrize("budget, code, status", [(1e-2, 0, "PASS"), (1e-12, 1, "FAIL")])
    def test_parseval(self, tmp_path, capsys, budget, code, status):
        cfg = write_json(tmp_path, "c.json", {
            "measure": M1_SYM, "beta": 0.5, "lam": 1.0, "budget": budget})
        out = tmp_path / "rep.json"
        assert main(["analyze", "parseval", "--config", cfg, "--out", str(out)]) == code
        line = capsys.readouterr().out.strip()
        assert line.startswith("CHECK parseval_relative_deviation ")
        assert line.endswith(f"status={status}")
        rep = json.loads(out.read_text())
        assert 1e-12 < rep["relative_deviation"] <= 1e-2

    def test_scaling(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"sigmas": [0.4, 0.2, 0.1], "K1": 1.0})
        assert main(["analyze", "scaling", "--config", cfg]) == 0

    def test_scaling_prints_the_worse_rung_ratio(self, tmp_path, capsys):
        from anisolap.analysis import scaling_limit_check

        probes = [[1.0, 0.0, 0.0], [0.3, -0.4, 0.6]]
        cfg = write_json(tmp_path, "c.json", {"sigmas": [0.4, 0.2, 0.1], "k_probes": probes})
        assert main(["analyze", "scaling", "--config", cfg]) == 0
        rep = scaling_limit_check([0.4, 0.2, 0.1], 1.0, probes)
        worst = max(float(np.max(np.abs(r / 4.0 - 1.0)))
                    for r in (rep.rung_ratios_iso, rep.rung_ratios_axes))
        assert capsys.readouterr().out == (
            f"CHECK scaling_rung_ratio_error value={worst:.6e} tol=2.000000e-01 status=PASS\n")

    def test_mass(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_axes", "dimension": 2, "sigma": 1.0},
            "grid": {"dimension": 2, "half_width": 8.0, "n_points": 32},
            "initial": {"kind": "delta"}, "times": [0.5, 1.0]})
        assert main(["analyze", "mass", "--config", cfg]) == 0


class TestBundledConfigs:
    def test_fig1_round_trips_unchanged(self):
        from anisolap.measures import to_json
        from anisolap.sampler import jump_from_json

        cfg = json.loads(open(bundled("fig1_levy.json")).read())
        doc = cfg["jump"]
        again = to_json(jump_from_json(doc))
        assert again["kind"] == doc["kind"]
        assert again["beta"] == doc["beta"]
        assert again["lam"] == doc["lam"]
        assert again["r0"] == doc["r0"]
        assert again["measure"]["bands"] == doc["measure"]["bands"]

    def test_theorem1_cases_validate(self):
        from anisolap.measures import measure_from_json

        cfg = json.loads(open(bundled("theorem1_check.json")).read())
        for case in cfg["cases"]:
            m = measure_from_json(case["measure"])
            assert m.total_mass() == pytest.approx(1.0, abs=1e-10)
