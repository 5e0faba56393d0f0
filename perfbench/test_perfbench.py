"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_checks  # noqa: E402

CONFIGS = os.path.join(ROOT, "src", "anisolap", "configs")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_reproduces_inputs(workload, tmp_path):
    a = workloads.generate(workload, 7, str(tmp_path / "a"), CONFIGS).sha256()
    b = workloads.generate(workload, 7, str(tmp_path / "b"), CONFIGS).sha256()
    c = workloads.generate(workload, 8, str(tmp_path / "c"), CONFIGS).sha256()
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_benchmark_json_names_workloads_and_metrics():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def _record(results, traced=False):
    rec = {"wall_s": 1.5, "cpu_s": 2.0, "peak_rss_mb": 100.0, "setup_s": 0.5,
           "results": results, "versions": {"python": "3"}, "threads": "2",
           "blas_threads": "1",
           "config_sha256": {"x.json": "0" * 64},
           "largest_intermediate": {"what": "array", "bytes": 1024}}
    if traced:
        rec["layers"] = {name: 1.0 for name in run.PER_LAYER}
        rec["self_share"] = {"symbols": 0.5, "untraced": 0.5}
    return rec


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metric_names_match_benchmark_json(trace):
    ok = {"check": "c", "name": "c:x", "kind": "det", "value": 1.0, "tol": 2.0,
          "ratio": 0.5, "passed": True, "check_s": 0.1}
    mc = dict(ok, kind="mc", name="c:y")
    args = argparse.Namespace(workload="spectral", seed=1, seconds=1.0, trace=trace)
    plain = [_record([ok, mc])]
    traced = [_record([ok, mc], traced=True)] if trace else []
    memory = _record([ok, mc], traced=True) if trace else None
    result = run.assemble(args, plain, traced, memory)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        final = run.report(result)
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in _benchmark_json()[section]]
    assert list(final["metrics"]) == names
    for m in _benchmark_json()[section]:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in buf.getvalue()


def test_impossible_tolerance_counts_as_failure(tmp_path):
    with open(os.path.join(CONFIGS, "theorem1_check.json")) as fh:
        cfg = json.load(fh)
    case = dict(cfg["cases"][0], tol=1e-300)
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps({"cases": [case]}))
    good = dict(cfg["cases"][0])
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps({"cases": [good]}))

    def broken():
        raise RuntimeError("quadrature failure")

    checks = [workloads.cli_check("impossible", ["analyze", "equivalence",
                                                 "--config", str(path)]),
              workloads.cli_check("good", ["analyze", "equivalence",
                                           "--config", str(good_path)]),
              workloads.Check("raises", broken),
              workloads.Check("silent", lambda: [])]
    results = run_checks(checks)
    by_check = {}
    for r in results:
        by_check.setdefault(r["check"], []).append(r["passed"])
    assert by_check == {"impossible": [False], "good": [True], "raises": [False],
                        "silent": [False]}
    attempted, failed, failing = run.check_counts([{"results": results}])
    assert (attempted, failed) == (4, 3)
    args = argparse.Namespace(workload="pointwise", seed=1, seconds=1.0, trace=0)
    mc = {"check": "mc", "name": "mc:x", "kind": "mc", "value": 1.0, "tol": 2.0,
          "ratio": 0.5, "passed": True, "check_s": 0.1}
    result = run.assemble(args, [_record(results + [mc])], [])
    assert result["fail_share"] == pytest.approx(3 / 5)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        final = run.report(result)
    assert final["correct"] is False and (final["attempted"], final["failed"]) == (5, 3)


def test_tracer_patches_every_binding_and_restores():
    import anisolap.cli as cli
    import anisolap.symbols as symbols
    from anisolap.evolve import SpectralGrid, evolve_spectral, gaussian_density
    from anisolap.measures import make_banded_measure
    from anisolap.symbols import make_generator

    original = symbols.tempered_symbol
    measure = make_banded_measure(2, [((0.0, 3.141592653589793), 1.0 / 3.141592653589793)])
    sym = make_generator("tempered_aniso", 2, measure=measure, beta=0.8, lam=0.5)
    p0 = gaussian_density(SpectralGrid(2, 8.0, 16), 0.5)
    tracer = Tracer()
    tracer.install()
    try:
        assert symbols.tempered_symbol is not original
        assert cli.main is not None and cli.main.__wrapped__ is not None
        import anisolap.evolve as evolve

        evolve.evolve_spectral(p0, sym, 0.5, check_boundary=False)
    finally:
        tracer.uninstall()
    assert symbols.tempered_symbol is original
    assert evolve_spectral is evolve.evolve_spectral
    spans = tracer.dump()
    by_id = {s["id"]: s for s in spans}
    sym_spans = [s for s in spans if s["name"] == "tempered_symbol"]
    assert sym_spans and by_id[sym_spans[0]["parent"]]["layer"] == "evolve"
    assert sym_spans[0]["attrs"]["kpoints"] == 256
    nodes = [s for s in spans if s["layer"] == "measures" and s["parent"] == sym_spans[0]["id"]]
    assert nodes and nodes[0]["attrs"]["nodes"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = _benchmark_json()
    cmd = [*bench["command"], "--workload", "spectral", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
