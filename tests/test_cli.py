import json
import math
from importlib import resources

import numpy as np
import pytest

from anisolap.cli import main

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

    def test_sampling_requires_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
            "t": 1.0})
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sample", "ecf", "multistate --validate", "multistate"])
    @pytest.mark.parametrize("paths, where", [(0, "flag"), (-5, "flag"), (0, "config")])
    def test_paths_below_one_exits_2(self, tmp_path, capsys, verb, paths, where):
        jump = {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}
        cfg = {"jump": jump, "t": 1.0, "seed": 3, "k_list": [[0.5, 0.0]],
               "N": 1, "M": [[1.0]], "init": [1.0],
               "waiting": [{"kind": "exp", "rate": 1.0}], "jumps": [jump]}
        if where == "config":
            cfg["paths"] = paths
        argv = [*verb.split(), "--config", write_json(tmp_path, "c.json", cfg),
                "--out", str(tmp_path / "o.csv")]
        if where == "flag":
            argv += ["--paths", str(paths)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: paths must be at least 1, got {paths}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("change, flags, message", [
        ({"k_list": [[0.5, 0.0], [1.0, 0.0, 2.0]]}, [], "k vector [1.0, 0.0, 2.0]"),
        ({}, ["--k-list", "0.5,0;1"], "k vector [1.0]"),
        ({"k_list": []}, [], "k_list names no wavenumber"),
        ({"jump": {"kind": "stable", "dimension": 2, "beta": 1.3, "lam": 0.5, "r0": 0.01,
                   "measure": FIG1}}, [], "use kind 'tempered_stable'"),
    ], ids=["k_list_row", "k_list_flag", "k_list_empty", "stable_with_lam"])
    def test_ecf_config_error_exits_2(self, tmp_path, capsys, change, flags, message):
        cfg = {"jump": {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0},
               "t": 1.0, "paths": 10, "seed": 3, "k_list": [[0.5, 0.0]], **change}
        argv = ["ecf", "--config", write_json(tmp_path, "c.json", cfg),
                "--out", str(tmp_path / "o.csv"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "o.csv").exists()


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

    def test_exhausted_rejection(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "tempered_stable", "dimension": 1, "measure": M1_SYM,
                     "beta": 0.5, "lam": 500.0, "r0": 1.0, "max_rejections": 1},
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
        cfg = write_json(tmp_path, "c.json", {"measure": FIG1, "beta": 1.3, "lam": 0.7,
                                              "expect": "coercive"})
        code = main(["analyze", "coercivity", "--config", cfg])
        self.expect_3(capsys, code, "more than 1 panels of one integrand")

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
        out = tmp_path / "traj.csv"
        code = main(["sample", "--config", bundled("fig1_levy.json"),
                     "--t", "50", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape[1] == 5  # path_id, t, x1, x2, state
        assert set(np.unique(data[:, 0])) == {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_byte_identical_artifacts(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "stable", "dimension": 2, "beta": 1.3, "r0": 0.01,
                     "measure": FIG1},
            "t": 20.0, "paths": 3, "seed": 7})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_ecf_rejection_cap_below_one_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {
            "jump": {"kind": "tempered_stable", "dimension": 1, "measure": M1_SYM,
                     "beta": 0.7, "lam": 0.5, "r0": 0.01, "max_rejections": 0},
            "zeta": 1.0, "t": 1.0, "paths": 100, "seed": 11, "k_list": [[0.5]]})
        assert main(["ecf", "--config", cfg, "--out", str(tmp_path / "ecf.csv")]) == 2
        assert "max_rejections" in capsys.readouterr().err

    def test_multistate_validate(self, tmp_path, capsys):
        model = {
            "N": 2, "M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
            "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7},
                      {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.3}],
            "seed": 5, "paths": 20000, "t": 1.0,
            "k_probes": [[1.0, 0.0], [0.3, 0.6]]}
        cfg = write_json(tmp_path, "model.json", model)
        code = main(["multistate", "--config", cfg, "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "multistate_ecf_deviation" in out and "FAIL" not in out

    def test_multistate_endpoints_csv(self, tmp_path):
        model = {
            "N": 1, "M": [[1.0]], "init": [1.0],
            "waiting": [{"kind": "exp", "rate": 1.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 1, "sigma": 1.0}],
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

    def test_mass(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {
            "symbol": {"kind": "gaussian_axes", "dimension": 2, "sigma": 1.0},
            "grid": {"dimension": 2, "half_width": 8.0, "n_points": 32},
            "initial": {"kind": "delta"}, "times": [0.5, 1.0]})
        assert main(["analyze", "mass", "--config", cfg]) == 0


class TestBundledConfigs:
    def test_fig1_round_trips_unchanged(self):
        from anisolap.sampler import jump_from_json, jump_to_json

        cfg = json.loads(open(bundled("fig1_levy.json")).read())
        doc = cfg["jump"]
        again = jump_to_json(jump_from_json(doc))
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
