"""Command-line entry point: wires JSON configs to the library modules and
emits CSV/JSON artifacts plus machine-readable CHECK summary lines.

A run is its config: no flag overrides a config field.  Flags name files and
the few scalars no config holds (evolve --t, compare --l1-tol, symbol
--k-grid and --k-dir, multistate --validate).

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
    DirectionalMeasure, NumericalError, StabilityProfile, _read_fields, to_json,
)
from .realspace import apply_caseI, apply_caseII, apply_general, gaussian_bump
from .sampler import (
    JumpSpec, empirical_cf, ensemble_endpoints_parallel, jump_cf, simulate_compound_poisson,
)
from .symbols import GeneratorSymbol, make_generator
from .multistate import (
    montroll_transform, multistate_endpoints, state_model_from_json, validate_multistate,
)


def _load_config(path: str):
    """The JSON document of the config file at path, less its free-text
    "note", which any top-level config may hold."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and not isinstance(doc.pop("note", ""), str):
        raise ValueError("the note of a config must be a string")
    return doc


def _read_case(doc, what: str, key: str, cases: dict, common: dict, noun: str = "") -> list:
    """_read_fields of a config part whose field key picks one of cases (the
    first when left out), each mapped to the fields it reads after common;
    an unknown case is named as the noun's (by default what's) key."""
    default = next(iter(cases))
    case = doc.get(key, default) if isinstance(doc, dict) else default
    if case not in list(cases):
        raise ValueError(f"unknown {noun or what} {key} {case!r}; expected one of "
                         + ", ".join(cases))
    return _read_fields(doc, what, {key: (str, default), **common, **cases[case]})


def _summary_line(tag: str, name: str, value: float, tol: float, passed: bool) -> str:
    """The machine-readable summary line of one check: CHECK here, ACCEPT in
    the acceptance suite."""
    return f"{tag} {name} value={value:.6e} tol={tol:.6e} status={'PASS' if passed else 'FAIL'}"


def _check_line(name: str, value: float, tol: float, passed: bool) -> bool:
    print(_summary_line("CHECK", name, value, tol, passed))
    return passed


def _k_vectors(rows, dim: int) -> np.ndarray:
    """The wavenumbers of an ecf run from its k_list rows; a row without dim
    components is a config error that names it."""
    if not rows:
        raise ValueError("k_list names no wavenumber")
    for row in rows:
        if np.shape(row) != (dim,):
            raise ValueError(f"k vector {list(row)!r} does not have {dim} components")
    return np.asarray(rows, dtype=float)


_VECTOR = tuple[float, ...]
_VECTORS = tuple[_VECTOR, ...]


def _field(doc, dim: int):
    """The gaussian_bump of a field config part."""
    _, center, width, amplitude = _read_case(doc, "field", "kind", {"gaussian": {
        "center": (_VECTOR, None), "width": (float, 1.0), "amplitude": (float, 1.0)}}, {})
    return gaussian_bump(dim, center, width, amplitude)


def _initial(doc, grid: SpectralGrid) -> DensityField:
    """The initial density of an initial config part: a delta or a gaussian."""
    _, center, *variance = _read_case(doc, "initial density", "kind", {
        "delta": {}, "gaussian": {"variance": (float, 1.0)}}, {"center": (_VECTOR, None)})
    return (gaussian_density if variance else delta_density)(grid, *variance, center=center)


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
    """The density of a CSV that evolve wrote: a header line of dimension,
    half_width, n_points and time, a column line and one row per grid point.
    Any other file is a ValueError that names it."""
    with open(path) as fh:
        meta = dict(kv.split("=", 1) for kv in fh.readline().lstrip("# ").split() if "=" in kv)
    foreign = f"{path} is not a density that evolve wrote"
    try:
        dim, n_points = int(meta["dimension"]), int(meta["n_points"])
        half_width, time = float(meta["half_width"]), float(meta["time"])
    except (KeyError, ValueError):
        raise ValueError(f"{foreign}: its first line must give dimension, half_width, "
                         "n_points and time") from None
    grid = SpectralGrid(dim, half_width, n_points)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{foreign}: {exc}") from None
    if data.shape != (n_points ** dim, dim + 1):
        raise ValueError(f"{path} holds {len(data)} rows of {data.shape[1]} columns; its header "
                         f"needs {n_points ** dim} rows of {dim + 1}")
    return DensityField(grid, data[:, -1].reshape(grid.shape()), time)


_RUN = {"t": float, "paths": (int, 1), "seed": int}  # of a sampling verb


def _path_count(paths: int) -> int:
    """The paths field of a sampling verb, which must be at least 1."""
    if paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    return paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    spec, zeta, start, T, n_paths, seed = _read_fields(_load_config(args.config), "sample config", {
        "jump": JumpSpec, "zeta": (float, 1.0), "start": (_VECTOR, None), **_RUN})
    n_paths = _path_count(n_paths)
    start = np.zeros(spec.dimension) if start is None else np.asarray(start)
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
    spec, zeta, rows, t, n_paths, seed = _read_fields(_load_config(args.config), "ecf config", {
        "jump": JumpSpec, "zeta": (float, 1.0), "k_list": _VECTORS,
        **_RUN, "paths": (int, 10000)})
    n_paths = _path_count(n_paths)
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


def _flag_numbers(flag: str, text: str, sep: str, needs: str, ok) -> list:
    """The finite numbers that sep separates in the text of flag, where
    ok(numbers) holds; anything else is a ValueError that names the flag and
    what it needs."""
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:
        values = []
    if not (values and all(map(math.isfinite, values)) and ok(values)):
        raise ValueError(f"{flag} needs {needs}, got {text!r}")
    return values


def _cmd_symbol(args) -> int:
    (sym,) = _read_fields(_load_config(args.config), "symbol config", {"symbol": GeneratorSymbol})
    dim = sym.dimension
    lo, hi, count = _flag_numbers(
        "--k-grid", args.k_grid, ":", "finite lo:hi:count, count an integer >= 1",
        lambda v: len(v) == 3 and v[2] >= 1 and v[2].is_integer())
    radii = np.linspace(lo, hi, int(count))
    d = np.asarray(_flag_numbers("--k-dir", args.k_dir or "1" + ",0" * (dim - 1), ",",
                                 f"one finite component per dimension ({dim})",
                                 lambda v: len(v) == dim))
    if not np.linalg.norm(d) > 0:
        raise ValueError(f"--k-dir {args.k_dir} is not a direction")
    K = radii[:, None] * (d / np.linalg.norm(d))[None, :]
    vals = np.asarray(sym(K), dtype=complex)
    data = np.column_stack([K, vals.real, vals.imag])
    header = ",".join(f"k{i+1}" for i in range(dim)) + ",re_psi,im_psi"
    np.savetxt(args.out, data, delimiter=",", header=header, fmt="%.17g")
    print(f"wrote {len(radii)} symbol rows to {args.out}")
    return 0


_BETA_LAM = {"beta": float, "lam": (float, 0.0)}


def _cmd_apply(args) -> int:
    op, field = _read_fields(_load_config(args.config), "apply config", {
        "operator": dict, "field": (dict, {})})
    case, measure, *params = _read_case(op, "operator", "case", {
        "I": _BETA_LAM, "II": _BETA_LAM, "general": {"profile": StabilityProfile}},
        {"measure": DirectionalMeasure})
    apply = {"I": apply_caseI, "II": apply_caseII, "general": apply_general}[case]
    pts = np.loadtxt(args.points, delimiter=",", skiprows=1, ndmin=2)
    vals = apply(_field(field, measure.dimension), measure, *params, pts)
    header = ",".join(f"x{i+1}" for i in range(measure.dimension)) + ",value"
    np.savetxt(args.out, np.column_stack([pts, vals]), delimiter=",",
               header=header, fmt="%.17g")
    print(f"wrote {len(vals)} operator values to {args.out}")
    return 0


def _cmd_evolve(args) -> int:
    sym, grid, initial = _read_fields(_load_config(args.config), "evolve config", {
        "symbol": GeneratorSymbol, "grid": SpectralGrid, "initial": (dict, {})})
    if not 0.0 <= args.t < math.inf:
        raise ValueError(f"--t needs a finite t >= 0, got {args.t}")
    p0 = _initial(initial, grid)
    rho = evolve_spectral(p0, sym, args.t)
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
    doc, probes, t, n_paths, seed = _read_fields(_load_config(args.config), "multistate config", {
        "model": dict, "k_probes": (_VECTORS, None), **_RUN, "t": (float, 1.0),
        "paths": (int, 10000)})
    model = state_model_from_json(doc)
    n_paths = _path_count(n_paths)
    rng = np.random.default_rng(seed)
    ok = True
    if args.validate:
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
    what = f"{verb} config"
    ok = True
    if verb == "coercivity":
        expect, measure, beta, lam, *floor = _read_case(cfg, what, "expect", {
            "coercive": {"floor": (float, 0.0)}, "degenerate": {}},
            {"measure": DirectionalMeasure, **_BETA_LAM})
        rep = analysis.coercivity_ratio(measure, beta, lam)
        if expect == "coercive":
            ok &= _check_line("coercivity_infimum", rep.ratio_infimum, floor[0],
                              rep.verdict == "coercive" and rep.ratio_infimum >= floor[0])
        else:
            ok &= _check_line("degenerate_witness_numerator", rep.witness_numerator,
                              1e-10, rep.verdict == "degenerate-direction-found"
                              and rep.witness_numerator <= 1e-10)
    elif verb == "parseval":
        measure, beta, lam, field, half_width, n_points, budget = _read_fields(cfg, what, {
            "measure": DirectionalMeasure, **_BETA_LAM, "field": (dict, {}),
            "half_width": (float, 12.0), "n_points": (int, 256), "budget": (float, 1e-2)})
        rep = analysis.parseval_bilinear_check(
            _field(field, measure.dimension), measure, beta, lam,
            half_width=half_width, n_points=n_points, budget=budget)
        ok &= _check_line("parseval_relative_deviation", rep.relative_deviation,
                          budget, rep.passed)
    elif verb == "counterexample":
        rep = analysis.counterexample_1d(*_read_fields(cfg, what, {
            "beta": (float, 0.5), "lam": (float, 1.0),
            "truncations": (tuple[float, ...], (1.0, 2.0, 5.0, 10.0, 20.0))}))
        ok &= _check_line("counterexample_positive_and_monotone",
                          float(rep.values[-1]), 0.0,
                          rep.all_positive and rep.monotone)
    elif verb == "mass":
        sym, grid, initial, times = _read_fields(cfg, what, {
            "symbol": GeneratorSymbol, "grid": SpectralGrid, "initial": (dict, {}),
            "times": (tuple[float, ...], (0.5, 1.0, 2.0))})
        rep = analysis.mass_conservation_check(sym, _initial(initial, grid), times)
        ok &= _check_line("mass_drift", rep.max_drift, rep.tolerance, rep.passed)
    elif verb == "scaling":
        rep = analysis.scaling_limit_check(*_read_fields(cfg, what, {
            "sigmas": (tuple[float, ...], (0.4, 0.2, 0.1, 0.05)), "K1": (float, 1.0),
            "k_probes": (_VECTORS, ((1.0, 0.0), (0.5, 0.5), (0.2, -0.7)))}))
        # the worse of the isotropic and the axis rung ratio errors
        ratios = np.stack([rep.rung_ratios_iso, rep.rung_ratios_axes])
        worst = float(np.max(np.abs(ratios / (rep.sigmas[:-1] / rep.sigmas[1:]) ** 2 - 1.0)))
        ok &= _check_line("scaling_rung_ratio_error", worst, 0.2, rep.passed)
    else:  # equivalence
        (cases,) = _read_fields(cfg, what, {"cases": tuple[dict, ...]})
        if not cases:
            raise ValueError("cases must name at least one equivalence case")
        results = []
        for doc in cases:
            # the spectral reference is the constant-profile symbol
            case, measure, beta, lam, field, grid, name, tol, xmax, stride = _read_case(
                doc, "equivalence case", "case", {"I": {}, "II": {}}, {
                    "measure": DirectionalMeasure, **_BETA_LAM, "field": (dict, {}),
                    "grid": SpectralGrid, "name": (str, f"case_{len(results)}"),
                    "tol": (float, 1e-3), "xmax": (float, 2.0),
                    "stride": (int, None)}, noun="operator")
            field = _field(field, measure.dimension)
            vals = field.f(grid.points()).reshape(grid.shape())
            psi = make_generator("tempered_aniso", measure.dimension, measure=measure,
                                 beta=beta, lam=lam).on_grid(grid)
            spectral = spectral_apply(vals, psi)
            ax = grid.axis()
            stride = stride or max(1, grid.n_points // 32)
            ii = np.flatnonzero(np.abs(ax) <= xmax)[::stride]
            mesh = np.meshgrid(*([ax[ii]] * measure.dimension), indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
            ref = spectral[np.ix_(*([ii] * measure.dimension))].ravel()
            apply = apply_caseII if case == "II" else apply_caseI
            direct = apply(field, measure, beta, lam, pts)
            rel = float(np.linalg.norm(direct - ref) / np.linalg.norm(ref))
            ok &= _check_line(f"equivalence_{name}", rel, tol, rel <= tol)
            results.append({"name": name, "relative_l2": rel, "tol": tol})
        rep = {"cases": results}
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
        if flags.get("out_required"):
            sp.add_argument("--out", required=True)
        elif flags.get("out"):
            sp.add_argument("--out")
        return sp

    add("sample", _cmd_sample, out_required=True)
    add("ecf", _cmd_ecf, out_required=True)
    sp = add("symbol", _cmd_symbol, out_required=True)
    sp.add_argument("--k-grid", required=True)
    sp.add_argument("--k-dir")
    sp = add("apply", _cmd_apply, out_required=True)
    sp.add_argument("--points", required=True)
    sp = add("evolve", _cmd_evolve, out_required=True)
    sp.add_argument("--t", type=float, required=True)
    cp = sub.add_parser("compare")
    cp.set_defaults(fn=_cmd_compare)
    cp.add_argument("--a", required=True)
    cp.add_argument("--b", required=True)
    cp.add_argument("--out")
    cp.add_argument("--l1-tol", type=float)
    ms = add("multistate", _cmd_multistate, out=True)
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
    except (KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
