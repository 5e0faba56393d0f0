"""Command-line entry point: wires JSON configs to the library modules and
emits CSV/JSON artifacts plus machine-readable CHECK summary lines.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error,
3 numerical failure (boundary mass, quadrature tail, rejection sampling, a
continued fraction or a symbol invariant).
Summary line format:  CHECK <name> value=<v> tol=<t> status=PASS|FAIL
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, analysis
from .evolve import (
    DensityField, SpectralGrid, compare_densities, delta_density,
    evolve_spectral, gaussian_density, spectral_apply,
)
from .measures import (
    NumericalError, StabilityProfile, from_json, measure_from_json, to_json,
)
from .realspace import apply_caseI, apply_caseII, apply_general, gaussian_bump
from .sampler import (
    empirical_cf, ensemble_endpoints_parallel, jump_cf, jump_from_json,
    simulate_compound_poisson,
)
from .symbols import make_generator, symbol_from_json
from .multistate import (
    montroll_transform, multistate_endpoints, state_model_from_json,
    validate_multistate,
)


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in {where}")
    return cfg[key]


def _check_line(name: str, value: float, tol: float, passed: bool) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"CHECK {name} value={value:.6e} tol={tol:.6e} status={status}")
    return passed


def _k_vectors(rows, dim: int) -> np.ndarray:
    """The wavenumbers of an ecf run from its k_list rows; a row without dim
    components is a config error that names it."""
    if not rows:
        raise ConfigError("k_list names no wavenumber")
    for row in rows:
        if np.shape(row) != (dim,):
            raise ConfigError(f"k vector {row!r} does not have {dim} components")
    return np.asarray(rows, dtype=float)


def _field_from_config(cfg: dict, dim: int):
    kind = cfg.get("kind", "gaussian")
    if kind != "gaussian":
        raise ConfigError(f"unknown field kind {kind!r}")
    return gaussian_bump(dim, center=cfg.get("center"),
                         width=float(cfg.get("width", 1.0)),
                         amplitude=float(cfg.get("amplitude", 1.0)))


def _initial_from_config(cfg: dict, grid: SpectralGrid) -> DensityField:
    kind = cfg.get("kind", "delta")
    if kind == "delta":
        return delta_density(grid, center=cfg.get("center"))
    if kind == "gaussian":
        return gaussian_density(grid, float(cfg.get("variance", 1.0)),
                                center=cfg.get("center"))
    raise ConfigError(f"unknown initial density kind {kind!r}")


def _write_density_csv(path: str, rho: DensityField):
    grid = rho.grid
    pts = grid.points()
    vals = rho.values.ravel()
    header = (f"dimension={grid.dimension} half_width={grid.half_width!r} "
              f"n_points={grid.n_points} time={rho.time!r}\n")
    header += ",".join([f"x{i+1}" for i in range(grid.dimension)] + ["value"])
    data = np.column_stack([pts, vals])
    np.savetxt(path, data, delimiter=",", header=header, fmt="%.17g")


def _read_density_csv(path: str) -> DensityField:
    with open(path) as fh:
        meta = fh.readline().lstrip("# ").split()
    fields = dict(kv.split("=") for kv in meta)
    grid = SpectralGrid(int(fields["dimension"]), float(fields["half_width"]),
                        int(fields["n_points"]))
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return DensityField(grid, data[:, -1].reshape(grid.shape()),
                        float(fields["time"]))


def _run_fields(args, cfg: dict, where: str, paths: int, t=None):
    """(t, paths, seed) of a sampling verb: each flag overrides its config
    field; t is required when no default is given, and so is the seed."""
    t = args.t if args.t is not None else float(
        _require(cfg, "t", where) if t is None else cfg.get("t", t))
    n_paths = args.paths if args.paths is not None else int(cfg.get("paths", paths))
    if n_paths < 1:
        raise ConfigError(f"paths must be at least 1, got {n_paths}")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("sampling requires a seed (flag --seed or config field)")
    return t, n_paths, int(seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    spec = jump_from_json(_require(cfg, "jump", "sample config"))
    zeta = float(cfg.get("zeta", 1.0))
    T, n_paths, seed = _run_fields(args, cfg, "sample config", paths=1)
    start = np.asarray(cfg.get("start", [0.0] * spec.dimension), dtype=float)
    rngs = np.random.SeedSequence(seed).spawn(n_paths)
    rows = []
    for pid, sq in enumerate(rngs):
        traj = simulate_compound_poisson(spec, zeta, T, start, np.random.default_rng(sq))
        for t, x in zip(traj.times, traj.positions):
            rows.append([pid, t, *x, 0])
    header = "path_id,t," + ",".join(f"x{i+1}" for i in range(spec.dimension)) + ",state"
    np.savetxt(args.out, np.asarray(rows), delimiter=",", header=header, fmt="%.17g")
    print(f"wrote {len(rows)} trajectory rows to {args.out}")
    return 0


def _cmd_ecf(args) -> int:
    cfg = _load_config(args.config)
    spec = jump_from_json(_require(cfg, "jump", "ecf config"))
    zeta = float(cfg.get("zeta", 1.0))
    t, n_paths, seed = _run_fields(args, cfg, "ecf config", paths=10000)
    if args.k_list:
        # the flag text "k1,k2;k3,k4" as rows
        rows = [[float(c) for c in part.split(",") if c.strip() != ""]
                for part in args.k_list.split(";")]
    else:
        rows = _require(cfg, "k_list", "ecf config")
    ks = _k_vectors(rows, spec.dimension)
    ends = ensemble_endpoints_parallel(spec, zeta, t, n_paths, seed)
    tol = 5.0 / math.sqrt(n_paths)
    ok = True
    rows = []
    for k in ks:
        est = empirical_cf(ends, k)
        theory = complex(np.exp(zeta * t * (jump_cf(spec, k) - 1.0)))
        dev = abs(est.value - theory)
        ok &= _check_line(f"ecf_k={','.join(f'{c:g}' for c in k)}", dev, tol, dev <= tol)
        rows.append([*k, est.value.real, est.value.imag, est.stderr,
                     theory.real, theory.imag, dev])
    header = (",".join(f"k{i+1}" for i in range(spec.dimension))
              + ",re,im,stderr,theory_re,theory_im,abs_dev")
    np.savetxt(args.out, np.asarray(rows), delimiter=",", header=header, fmt="%.17g")
    return 0 if ok else 1


def _cmd_symbol(args) -> int:
    cfg = _load_config(args.config)
    sym = symbol_from_json(_require(cfg, "symbol", "symbol config"))
    dim = sym.dimension
    lo, hi, count = args.k_grid.split(":")
    radii = np.linspace(float(lo), float(hi), int(count))
    if dim == 1:
        K = radii[:, None]
    else:
        d = np.asarray([float(c) for c in (args.k_dir or "1," + ",".join(["0"] * (dim - 1))).split(",")])
        d = d / np.linalg.norm(d)
        K = radii[:, None] * d[None, :]
    vals = np.asarray(sym(K), dtype=complex)
    data = np.column_stack([K, vals.real, vals.imag])
    header = ",".join(f"k{i+1}" for i in range(dim)) + ",re_psi,im_psi"
    np.savetxt(args.out, data, delimiter=",", header=header, fmt="%.17g")
    print(f"wrote {len(radii)} symbol rows to {args.out}")
    return 0


def _real_space_operator(op: dict, where: str, cases=("I", "II", "general")):
    """fn(field, measure, pts) for the real-space case op names; an unknown
    case or a missing field of the config part where is a config error."""
    case = op.get("case", "I")
    if case not in cases:
        raise ConfigError(f"unknown operator case {case!r}; expected one of {', '.join(cases)}")
    if case == "general":
        prof = from_json(StabilityProfile, _require(op, "profile", where))
        return lambda field, measure, pts: apply_general(field, measure, prof, pts)
    beta, lam = float(_require(op, "beta", where)), float(op.get("lam", 0.0))
    fn = apply_caseII if case == "II" else apply_caseI
    return lambda field, measure, pts: fn(field, measure, beta, lam, pts)


def _cmd_apply(args) -> int:
    cfg = _load_config(args.config)
    op = _require(cfg, "operator", "apply config")
    measure = measure_from_json(_require(op, "measure", "operator"))
    field_cfg = cfg.get("field", {})
    if args.field:
        field_cfg = dict(field_cfg, kind=args.field)
    field = _field_from_config(field_cfg, measure.dimension)
    pts = np.loadtxt(args.points, delimiter=",", skiprows=1, ndmin=2)
    vals = _real_space_operator(op, "operator")(field, measure, pts)
    header = ",".join(f"x{i+1}" for i in range(measure.dimension)) + ",value"
    np.savetxt(args.out, np.column_stack([pts, vals]), delimiter=",",
               header=header, fmt="%.17g")
    print(f"wrote {len(vals)} operator values to {args.out}")
    return 0


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    sym = symbol_from_json(_require(cfg, "symbol", "evolve config"))
    grid = from_json(SpectralGrid, _require(cfg, "grid", "evolve config"))
    p0 = _initial_from_config(cfg.get("initial", {}), grid)
    rho = evolve_spectral(p0, sym, float(args.t))
    _write_density_csv(args.out, rho)
    drift = abs(rho.total_mass() - p0.total_mass())
    ok = _check_line("evolve_mass_drift", drift, 1e-12, drift <= 1e-12)
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    a = _read_density_csv(args.a)
    b = _read_density_csv(args.b)
    rep = compare_densities(a, b)
    print(f"COMPARE l1={rep['l1']:.6e} l2={rep['l2']:.6e} max={rep['max']:.6e}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep, fh, indent=2)
    if args.l1_tol is not None:
        return 0 if _check_line("compare_l1", rep["l1"], args.l1_tol,
                                rep["l1"] <= args.l1_tol) else 1
    return 0


def _cmd_multistate(args) -> int:
    cfg = _load_config(args.config)
    # an inline model shares its top level with the run fields t, paths, seed, k_probes
    doc = ({k: cfg[k] for k in ("N", "M", "init", "waiting", "jumps") if k in cfg}
           if "M" in cfg else _require(cfg, "model", "multistate config"))
    model = state_model_from_json(doc)
    t, n_paths, seed = _run_fields(args, cfg, "multistate config", paths=10000, t=1.0)
    rng = np.random.default_rng(seed)
    ok = True
    if args.validate:
        probes = cfg.get("k_probes")
        if probes is None:
            probes = [[1.0] + [0.0] * (model.dimension - 1),
                      [0.0] * (model.dimension - 1) + [0.5]]
        rep = validate_multistate(model, np.asarray(probes, dtype=float), t, n_paths, rng)
        ok &= _check_line("multistate_ecf_deviation", float(rep.deviations.max()),
                          rep.tolerance, rep.passed)
    else:
        ens = multistate_endpoints(model, t, n_paths, rng)
        if args.out:
            data = np.column_stack([np.arange(n_paths), ens.positions, ens.states])
            header = ("path_id," + ",".join(f"x{i+1}" for i in range(model.dimension))
                      + ",state")
            np.savetxt(args.out, data, delimiter=",", header=header, fmt="%.17g")
            print(f"wrote {n_paths} endpoints to {args.out}")
    # total-probability identity of the Laplace-domain transform
    g = montroll_transform(model, np.zeros(model.dimension), 1.0 + 0.0j)
    dev = abs(complex(g.sum()) - 1.0)
    ok &= _check_line("montroll_total_probability", dev, 1e-10, dev <= 1e-10)
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    verb = args.verb
    ok = True
    if verb == "coercivity":
        measure = measure_from_json(_require(cfg, "measure", "coercivity config"))
        beta = float(_require(cfg, "beta", "coercivity config"))
        rep = analysis.coercivity_ratio(measure, beta, float(cfg.get("lam", 0.0)))
        expect = cfg.get("expect", "coercive")
        if expect == "coercive":
            floor = float(cfg.get("floor", 0.0))
            ok &= _check_line("coercivity_infimum", rep.ratio_infimum, floor,
                              rep.verdict == "coercive" and rep.ratio_infimum >= floor)
        else:
            ok &= _check_line("degenerate_witness_numerator", rep.witness_numerator,
                              1e-10, rep.verdict == "degenerate-direction-found"
                              and rep.witness_numerator <= 1e-10)
    elif verb == "parseval":
        measure = measure_from_json(_require(cfg, "measure", "parseval config"))
        field = _field_from_config(cfg.get("field", {}), measure.dimension)
        budget = float(cfg.get("budget", 1e-2))
        beta = float(_require(cfg, "beta", "parseval config"))
        rep = analysis.parseval_bilinear_check(
            field, measure, beta, float(cfg.get("lam", 0.0)),
            half_width=float(cfg.get("half_width", 12.0)),
            n_points=int(cfg.get("n_points", 256)), budget=budget)
        ok &= _check_line("parseval_relative_deviation", rep.relative_deviation,
                          budget, rep.passed)
    elif verb == "counterexample":
        rep = analysis.counterexample_1d(
            beta=float(cfg.get("beta", 0.5)), lam=float(cfg.get("lam", 1.0)),
            truncations=cfg.get("truncations", (1.0, 2.0, 5.0, 10.0, 20.0)))
        ok &= _check_line("counterexample_positive_and_monotone",
                          float(rep.values[-1]), 0.0,
                          rep.all_positive and rep.monotone)
    elif verb == "mass":
        sym = symbol_from_json(_require(cfg, "symbol", "mass config"))
        grid = from_json(SpectralGrid, _require(cfg, "grid", "mass config"))
        p0 = _initial_from_config(cfg.get("initial", {}), grid)
        rep = analysis.mass_conservation_check(sym, p0, cfg.get("times", (0.5, 1.0, 2.0)))
        ok &= _check_line("mass_drift", rep.max_drift, rep.tolerance, rep.passed)
    elif verb == "scaling":
        rep = analysis.scaling_limit_check(
            cfg.get("sigmas", (0.4, 0.2, 0.1, 0.05)), float(cfg.get("K1", 1.0)),
            cfg.get("k_probes", ((1.0, 0.0), (0.5, 0.5), (0.2, -0.7))))
        worst = float(np.max(np.abs(rep.rung_ratios_iso / (rep.sigmas[:-1] / rep.sigmas[1:]) ** 2 - 1.0)))
        ok &= _check_line("scaling_rung_ratio_error", worst, 0.2, rep.passed)
    elif verb == "equivalence":
        cases = _require(cfg, "cases", "equivalence config")
        results = []
        for case in cases:
            # the spectral reference is the constant-profile symbol
            apply_case = _real_space_operator(case, "equivalence case", cases=("I", "II"))
            measure = measure_from_json(_require(case, "measure", "equivalence case"))
            beta, lam = float(case["beta"]), float(case.get("lam", 0.0))
            field = _field_from_config(case.get("field", {}), measure.dimension)
            grid = from_json(SpectralGrid, _require(case, "grid", "equivalence case"))
            tol = float(case.get("tol", 1e-3))
            vals = field.f(grid.points()).reshape(grid.shape())
            psi = make_generator("tempered_aniso", measure.dimension, measure=measure,
                                 beta=beta, lam=lam).on_grid(grid)
            spectral = spectral_apply(vals, psi)
            ax = grid.axis()
            xmax = float(case.get("xmax", 2.0))
            stride = int(case.get("stride", max(1, grid.n_points // 32)))
            ii = np.flatnonzero(np.abs(ax) <= xmax)[::stride]
            mesh = np.meshgrid(*([ax[ii]] * measure.dimension), indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
            ref = spectral[np.ix_(*([ii] * measure.dimension))].ravel()
            direct = apply_case(field, measure, pts)
            rel = float(np.linalg.norm(direct - ref) / np.linalg.norm(ref))
            name = case.get("name", f"case_{len(results)}")
            ok &= _check_line(f"equivalence_{name}", rel, tol, rel <= tol)
            results.append({"name": name, "relative_l2": rel, "tol": tol})
        rep = {"cases": results}
    else:
        raise ConfigError(f"unknown analyze verb {verb!r}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"verb": verb, **to_json(rep)}, fh, indent=2)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anisolap",
                                description="anisotropic nonlocal diffusion toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", required=flags.get("config", True))
        if flags.get("seeded"):
            sp.add_argument("--seed", type=int)
            sp.add_argument("--paths", type=int)
            sp.add_argument("--t", type=float)
        if flags.get("out_required"):
            sp.add_argument("--out", required=True)
        elif flags.get("out"):
            sp.add_argument("--out")
        return sp

    add("sample", _cmd_sample, seeded=True, out_required=True)
    add("ecf", _cmd_ecf, seeded=True, out_required=True).add_argument("--k-list")
    sp = add("symbol", _cmd_symbol, out_required=True)
    sp.add_argument("--k-grid", required=True)
    sp.add_argument("--k-dir")
    sp = add("apply", _cmd_apply, out_required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--field")
    sp = add("evolve", _cmd_evolve, out_required=True)
    sp.add_argument("--t", type=float, required=True)
    cp = sub.add_parser("compare")
    cp.set_defaults(fn=_cmd_compare)
    cp.add_argument("--a", required=True)
    cp.add_argument("--b", required=True)
    cp.add_argument("--out")
    cp.add_argument("--l1-tol", type=float)
    ms = add("multistate", _cmd_multistate, seeded=True, out=True)
    ms.add_argument("--validate", action="store_true")
    an = sub.add_parser("analyze")
    an.set_defaults(fn=_cmd_analyze)
    an.add_argument("verb", choices=["coercivity", "parseval", "counterexample",
                                     "mass", "scaling", "equivalence"])
    an.add_argument("--config", required=True)
    an.add_argument("--out")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
