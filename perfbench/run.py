"""Benchmark of anisolap: three closed-loop workloads, timed end to end, and a
traced run that reports per-layer metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a checkout.  The library is imported from ``src`` of
that checkout; nothing is installed.  One run repeats passes over the
workload's checks, starting another only while it is expected to end within
``--seconds`` (at least three passes are made).  Each pass runs in a fresh
single process (``worker.py``) with ``ANISOLAP_THREADS`` set to the number of
usable cores and the BLAS pool held to one thread, so its peak resident set
belongs to that pass alone, its imports land in ``setup_s`` and no idle BLAS
thread spins against the sampler's pool.  Metrics are medians over the
passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones
and ``trace.overhead_s`` (traced minus untraced median wall time).  The
``peak_alloc_mb`` metrics come from one more pass that runs ``tracemalloc``
inside the symbol and real-space spans, which is too slow to time.  On
``stochastic`` the traced run also times the ECF ensemble on one thread and
on the thread cap for ``sampler.parallel_speedup``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its median, quartiles and number of passes, the
error ratio of every check, the self-time share of every layer and the
provenance.  The full record, and the spans of the last traced pass, are
written under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from workloads import WHY, WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "det_err_ratio": "1", "mc_err_ratio": "1",
}
PER_LAYER = {
    "measures.calls": "count", "measures.busy_s": "s", "measures.self_s": "s",
    "measures.nodes": "count",
    "symbols.calls": "count", "symbols.busy_s": "s", "symbols.self_s": "s",
    "symbols.kpoints": "count", "symbols.pm_products": "count",
    "symbols.kpoints_per_s": "1/s", "symbols.peak_alloc_mb": "MB",
    "realspace.calls": "count", "realspace.busy_s": "s", "realspace.self_s": "s",
    "realspace.points": "count", "realspace.s_per_point": "s",
    "realspace.peak_alloc_mb": "MB",
    "sampler.calls": "count", "sampler.busy_s": "s", "sampler.self_s": "s",
    "sampler.paths": "count", "sampler.jumps_expected": "count",
    "sampler.jumps_per_s": "1/s", "sampler.jump_cf_calls": "count",
    "sampler.jump_cf_s": "s", "sampler.parallel_speedup": "1",
    "evolve.calls": "count", "evolve.busy_s": "s", "evolve.self_s": "s",
    "evolve.symbol_evals": "count", "evolve.fft_points": "count",
    "multistate.calls": "count", "multistate.busy_s": "s", "multistate.self_s": "s",
    "multistate.paths": "count",
    "analysis.calls": "count", "analysis.busy_s": "s", "analysis.self_s": "s",
    "cli.calls": "count", "cli.busy_s": "s", "cli.self_s": "s",
    "cli.bytes_written": "B", "cli.bytes_read": "B",
    "trace.overhead_s": "s",
}
# Which end-to-end metric each per-layer metric should move, and on which
# workload (the prediction an optimisation of that layer is judged by).
SHOULD_MOVE = {
    "measures": "setup_s and wall_s on all three workloads, by no more than their share (a node-set cache)",
    "symbols": "wall_s and peak_rss_mb on spectral; wall_s on pointwise (adaptive path); no change on stochastic",
    "realspace": "wall_s on pointwise; no change on stochastic",
    "sampler": "wall_s and cpu_s on stochastic; no change on spectral",
    "evolve": "wall_s on spectral (psi cache lowers evolve.symbol_evals); wall_s on stochastic (time-fractional)",
    "multistate": "wall_s on stochastic",
    "analysis": "wall_s on pointwise and spectral",
    "cli": "wall_s on spectral (96^2 density CSV round trip)",
    "trace": "traced wall_s minus untraced wall_s, per workload",
}
# from the one pass that runs tracemalloc inside the layer's spans
MEMORY_METRICS = ("symbols.peak_alloc_mb", "realspace.peak_alloc_mb")
# derived from argument sizes rather than timed
COMPUTED = ("symbols.pm_products", "sampler.jumps_expected", "evolve.fft_points")
HARD_LIMIT_S = 170.0
MIN_PASSES = 3
# thread pools of the numerical libraries under numpy and scipy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "anisolap")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _l3_cache_bytes() -> int | None:
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _worker(mode: str, args, workdir: str, out: str, trace: int, deadline: float,
            spans: str | None = None) -> dict:
    env = dict(os.environ, ANISOLAP_THREADS=str(_nproc()), PYTHONDONTWRITEBYTECODE="1")
    env.update((var, "1") for var in BLAS_THREAD_VARS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--root", ROOT,
           "--workdir", workdir, "--out", out, "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {mode} pass of {args.workload} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"the {mode} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    with open(out) as fh:
        return json.load(fh)


def _summary(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pass_metrics(record: dict) -> dict:
    """End-to-end metrics of one pass."""
    m = {k: record[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    for kind in ("det", "mc"):
        ratios = [r["ratio"] for r in record["results"]
                  if r["kind"] == kind and r["ratio"] is not None]
        m[f"{kind}_err_ratio"] = max(ratios) if ratios else None
    return m


def check_counts(records) -> tuple[int, int, list]:
    """(attempted, failed, failing result names) over the passes; a check
    fails when any of its results failed."""
    attempted = failed = 0
    failing = []
    for rec in records:
        by_check: dict = {}
        for r in rec["results"]:
            by_check.setdefault(r["check"], []).append(r)
        attempted += len(by_check)
        for rs in by_check.values():
            bad = [r for r in rs if not r["passed"]]
            if bad:
                failed += 1
                failing.extend(r["name"] for r in bad)
    return attempted, failed, sorted(set(failing))


def collect(args):
    """Run the passes; returns (untraced, traced, memory, baseline) records."""
    if not os.path.isfile(os.path.join(ROOT, "src", "anisolap", "__init__.py")):
        raise BenchError(f"no anisolap sources under {os.path.join(ROOT, 'src')}")
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json")
    plain, traced, memory, baseline = [], [], None, None
    try:
        i = 0
        durations = []
        while True:
            t_pass = time.monotonic()
            out = os.path.join(run_dir, f"pass{i}.json")
            plain.append(_worker("pass", args, os.path.join(run_dir, "inputs"), out, 0,
                                 deadline))
            if args.trace:
                out = os.path.join(run_dir, f"pass{i}-traced.json")
                traced.append(_worker("pass", args, os.path.join(run_dir, "inputs"), out, 1,
                                      deadline, spans_path))
            i += 1
            now = time.monotonic()
            durations.append(now - t_pass)
            # start another pass only if the slowest so far would still end in time
            if now + max(durations) > deadline - 30.0:
                break
            if i >= MIN_PASSES and now + max(durations) > t_start + args.seconds:
                break
        if args.trace:
            memory = _worker("pass", args, os.path.join(run_dir, "inputs"),
                             os.path.join(run_dir, "memory.json"), 2, deadline)
        if args.trace and args.workload == "stochastic":
            baseline = _worker("baseline", args, os.path.join(run_dir, "inputs"),
                               os.path.join(run_dir, "baseline.json"), 0, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return plain, traced, memory, baseline


def assemble(args, plain, traced, memory=None, baseline=None) -> dict:
    """Medians, quartiles, failure counts and provenance of one run."""
    per_pass = [pass_metrics(r) for r in plain]
    e2e = {}
    for name in END_TO_END:
        values = [p[name] for p in per_pass if p[name] is not None]
        if not values:
            raise BenchError(f"the workload produced no value for {name}")
        e2e[name] = _summary(values)
    attempted, failed, failing = check_counts(plain + traced + ([memory] if memory else []))
    layer = {}
    if args.trace:
        for name in PER_LAYER:
            if name in MEMORY_METRICS:
                layer[name] = _summary([memory["layers"][name]])
            elif name in traced[0]["layers"]:
                layer[name] = _summary([t["layers"][name] for t in traced])
        layer["trace.overhead_s"] = {
            "median": statistics.median(t["wall_s"] for t in traced)
            - statistics.median(p["wall_s"] for p in plain),
            "q1": None, "q3": None, "n": len(traced)}
        speedup = baseline["parallel_speedup"] if baseline else 0.0
        layer["sampler.parallel_speedup"] = {"median": speedup, "q1": None, "q3": None,
                                             "n": 1 if baseline else 0}
    first = plain[0]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WHY[args.workload], "closed_loop_clients": 1,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed, "failing": failing,
        "fail_share": failed / attempted,
        "end_to_end": e2e, "per_layer": layer, "computed": list(COMPUTED),
        "should_move": SHOULD_MOVE,
        "self_share": {k: statistics.median(t["self_share"][k] for t in traced)
                       for k in traced[0]["self_share"]} if traced else None,
        "checks": [{k: r.get(k) for k in ("name", "kind", "value", "tol", "ratio", "passed",
                                          "error")}
                   for r in first["results"]],
        "check_s": {c: statistics.median(r["check_s"] for rec in plain for r in rec["results"]
                                         if r["check"] == c)
                    for c in dict.fromkeys(r["check"] for r in first["results"])},
        "baseline": baseline,
        "provenance": {
            "git_commit": _git_commit(), "source_sha256": _source_sha256(),
            "versions": first["versions"], "seed": args.seed, "nproc": _nproc(),
            "thread_cap": int(first["threads"]), "blas_threads": int(first["blas_threads"]),
            "config_sha256": first["config_sha256"],
            "largest_intermediate": dict(first["largest_intermediate"],
                                         l3_cache_bytes=_l3_cache_bytes()),
        },
    }


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    prov = result["provenance"]
    print(f"workload {result['workload']} seed {result['seed']}: {result['why']}")
    print(f"passes {result['passes']} (traced {result['traced_passes']}), closed loop, "
          f"1 client, nproc {prov['nproc']}, thread cap {prov['thread_cap']}, "
          f"BLAS threads {prov['blas_threads']}")
    print(f"commit {prov['git_commit']} source {prov['source_sha256'][:16]} "
          + " ".join(f"{k} {v}" for k, v in prov["versions"].items()))
    big = prov["largest_intermediate"]
    print(f"largest intermediate (computed): {big['bytes'] / 2**20:.1f} MiB, {big['what']}; "
          f"L3 cache {_fmt(big['l3_cache_bytes'] and big['l3_cache_bytes'] / 2**20)} MiB")
    for name, digest in prov["config_sha256"].items():
        print(f"  input {name} sha256 {digest}")
    for c in result["checks"]:
        print(f"  check {c['name']} [{c['kind']}] value={_fmt(c['value'])} "
              f"tol={_fmt(c['tol'])} ratio={_fmt(c['ratio'])} "
              f"{'PASS' if c['passed'] else 'FAIL'}{' ' + c['error'] if c['error'] else ''}")
    print(f"fail_share {result['fail_share']:.6g} ({result['failed']} of "
          f"{result['attempted']} checks failed) {' '.join(result['failing'])}")
    metrics = {}
    if result["trace"]:
        for layer, share in result["self_share"].items():
            print(f"  self-time share {layer:<11} {share:7.1%}")
        for layer, text in result["should_move"].items():
            print(f"  {layer} metrics should move: {text}")
        for name, unit in PER_LAYER.items():
            s = result["per_layer"][name]
            label = " (computed)" if name in COMPUTED else ""
            print(f"{name} = {_fmt(s['median'])} {unit}{label} "
                  f"[q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n {s['n']}]")
            metrics[name] = {"value": s["median"], "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            s = result["end_to_end"][name]
            print(f"{name} = {_fmt(s['median'])} {unit} "
                  f"[q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n {s['n']}]")
            metrics[name] = {"value": s["median"], "unit": unit}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            result = assemble(one, *collect(one))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        final = report(result)
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"result-{name}-s{args.seed}-t{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
