"""One pass over a workload's checks, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The pass imports the
library from the checkout's ``src``, generates the workload's inputs from the
seed, runs every check in order and writes one JSON record: set-up time
(process start to the first check), wall and CPU time of the checks, peak
resident set, every check result and, when traced, the per-layer metrics.

``--mode baseline`` instead times the stochastic workload's ECF ensemble
once on one thread and once on the thread cap, for
``sampler.parallel_speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import anisolap

    where = os.path.realpath(anisolap.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"anisolap was imported from {where}, not from {src}")
    return anisolap


def _versions(anisolap) -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "anisolap": anisolap.__version__}


def run_checks(checks, tracer=None) -> list:
    """Run the checks in order.  An exception, a nonzero exit or a check that
    reports nothing is recorded as a failed result, never dropped."""
    from workloads import Result

    out = []
    for i, check in enumerate(checks):
        if tracer is not None:
            tracer.check = i
        t0 = time.monotonic()
        try:
            results = check.run()
        except Exception as exc:  # a failing check must not end the pass
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            out.append({"check": check.name, "name": f"{check.name}:exception",
                        "kind": "det", "value": None, "tol": None, "ratio": None,
                        "passed": False, "error": detail,
                        "check_s": time.monotonic() - t0})
            continue
        check_s = time.monotonic() - t0
        if not results:
            results = [Result(f"{check.name}:no_result", "det", 0.0, 0.0, False)]
        for r in results:
            out.append({"check": check.name, "name": r.name, "kind": r.kind,
                        "value": r.value, "tol": r.tol, "ratio": r.ratio,
                        "passed": bool(r.passed), "check_s": check_s})
    return out


def do_pass(args) -> dict:
    anisolap = _import_library(args.root)
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.workdir,
                                os.path.join(args.root, "src", "anisolap", "configs"))
    record = {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
              "versions": _versions(anisolap), "config_sha256": inputs.sha256(),
              "largest_intermediate": inputs.largest_intermediate,
              "threads": os.environ.get("ANISOLAP_THREADS"),
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(memory=args.trace == 2)
        tracer.install()
    t_first = time.monotonic()
    cpu0 = _cpu()
    results = run_checks(inputs.checks, tracer)
    wall = time.monotonic() - t_first
    record.update(setup_s=t_first - args.t0, wall_s=wall, cpu_s=_cpu() - cpu0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  results=results)
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        spans = tracer.dump()
        cli_io = {"read": sum(c.io_bytes["read"] for c in inputs.checks),
                  "written": sum(c.io_bytes["written"] for c in inputs.checks)}
        record["layers"], record["self_share"] = layer_metrics(spans, cli_io, wall)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"checks": [c.name for c in inputs.checks], "spans": spans}, fh)
    return record


def do_baseline(args) -> dict:
    """Time the stochastic ECF ensemble on one thread, then on the cap."""
    _import_library(args.root)
    import workloads
    from anisolap.sampler import ensemble_endpoints_parallel, jump_from_json

    inputs = workloads.generate("stochastic", args.seed, args.workdir,
                                os.path.join(args.root, "src", "anisolap", "configs"))
    with open(inputs.files["ecf_tempered_fig1.json"]) as fh:
        cfg = json.load(fh)
    spec = jump_from_json(cfg["jump"])
    cap = os.environ.get("ANISOLAP_THREADS", "1")
    timings = {}
    for threads in ("1", cap):
        os.environ["ANISOLAP_THREADS"] = threads
        t0, c0 = time.monotonic(), _cpu()
        ensemble_endpoints_parallel(spec, float(cfg["zeta"]), float(cfg["t"]),
                                    int(cfg["paths"]), int(cfg["seed"]))
        timings[threads] = {"wall_s": time.monotonic() - t0, "cpu_s": _cpu() - c0}
    os.environ["ANISOLAP_THREADS"] = cap
    return {"threads_1": timings["1"], f"threads_{cap}": timings[cap], "cap": int(cap),
            "parallel_speedup": timings["1"]["wall_s"] / timings[cap]["wall_s"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("pass", "baseline"), default="pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                    help="0 untraced, 1 spans, 2 spans and tracemalloc peaks")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    record = do_pass(args) if args.mode == "pass" else do_baseline(args)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
