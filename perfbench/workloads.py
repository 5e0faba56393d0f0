"""Seeded inputs and checks of the three benchmark workloads.

Each workload turns a seed into JSON configs and point sets written to a work
directory, and into a list of checks that run one after another (a closed
loop with a single client).  A check goes through the ``anisolap`` command
line in-process (``anisolap.cli.main``) where a verb exists, and otherwise
calls the library the way the matching acceptance criterion does.

Every check yields one or more results ``(name, kind, value, tol, passed)``.
``kind`` is ``"det"`` for deterministic checks and ``"mc"`` for statistical
ones; ``value / tol`` (``tol / value`` for a floor) is the error ratio that
the end-to-end metrics ``det_err_ratio`` and ``mc_err_ratio`` take the
largest of.

Monte Carlo streams and their probe wavenumbers are fixed per check, as in
the acceptance criteria.  A statistical error ratio redrawn per seed is
|Z|-distributed, with a spread across seeds far above any regression bound,
so the seed varies only the deterministic inputs: point sets, initial
densities, fields and evolution times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
COMPLEX_BYTES = 16
FLOAT_BYTES = 8

# One line each; BENCHMARK.json repeats them.
WHY = {
    "spectral": ("Fourier side: nodes-path symbol on a 128^2 grid, the 8-kind mass and "
                 "semigroup ladder and an evolve/compare CSV round trip; real space "
                 "sees 9 points, the sampler almost nothing"),
    "pointwise": ("real-space side: apply at seeded points for cases I, II and general, "
                  "equivalence, the bilinear form (Parseval) and per-wavenumber adaptive "
                  "symbols (coercivity)"),
    "stochastic": ("jump-process side: tempered power-law ECF at the matched rate "
                   "(rejection, thread pool, mpmath jump_cf), multistate validation and "
                   "time-fractional evolution; symbols nearly idle"),
}

@dataclass(frozen=True)
class Result:
    name: str
    kind: str  # "det" or "mc"
    value: float
    tol: float
    passed: bool
    floor: bool = False  # value must stay >= tol

    @property
    def ratio(self) -> float:
        if self.floor:
            return self.tol / self.value if self.value > 0 else math.inf
        return self.value / self.tol if self.tol > 0 else math.inf


@dataclass
class Check:
    name: str
    run: Callable[[], list]
    io_bytes: dict = field(default_factory=lambda: {"read": 0, "written": 0})


@dataclass
class Inputs:
    workload: str
    seed: int
    files: dict  # name -> path of every generated file
    checks: list
    largest_intermediate: dict  # computed from array sizes

    def sha256(self) -> dict:
        out = {}
        for name, path in sorted(self.files.items()):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out


# ---------------------------------------------------------------------------
# shared fixtures: the measures of the acceptance criteria, as JSON
# ---------------------------------------------------------------------------

def fig1_json() -> dict:
    return {"dimension": 2, "atoms": [], "bands": [
        {"region": [0.0, math.pi], "density": 2.0 / (3.0 * math.pi)},
        {"region": [math.pi, TWO_PI], "density": 1.0 / (3.0 * math.pi)}]}


def halves_json() -> dict:
    return {"dimension": 2, "atoms": [], "bands": [
        {"region": [0.0, math.pi], "density": 0.5 / math.pi},
        {"region": [math.pi, TWO_PI], "density": 0.5 / math.pi}]}


def atoms_json(atoms) -> dict:
    return {"dimension": len(atoms[0][0]), "atoms": [[list(d), w] for d, w in atoms],
            "bands": []}


AXES2D = [((1.0, 0.0), 2.0 / 3.0), ((0.0, 1.0), 1.0 / 3.0)]
CROSS2D = [((1.0, 0.0), 0.25), ((-1.0, 0.0), 0.25), ((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25)]
UNIFORM2D = {"dimension": 2, "atoms": [], "bands": [
    {"region": [0.0, TWO_PI], "density": 1.0 / TWO_PI}]}

# nodes of one band on the symbol grid path: refinement 96 panels x order 8
SYMBOL_NODES_PER_BAND = 96 * 8


def _write_json(workdir: str, name: str, doc, files: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    files[name] = path
    return path


def _write_points(workdir: str, name: str, pts: np.ndarray, files: dict) -> str:
    path = os.path.join(workdir, name)
    header = ",".join(f"x{i + 1}" for i in range(pts.shape[1]))
    np.savetxt(path, pts, delimiter=",", header=header, comments="", fmt="%.17g")
    files[name] = path
    return path


# ---------------------------------------------------------------------------
# running the command line in-process
# ---------------------------------------------------------------------------

_INPUT_FLAGS = ("--config", "--points", "--a", "--b")


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def run_cli(argv, io_bytes: dict):
    """Run ``anisolap.cli.main(argv)``; returns (exit code, CHECK lines, stdout).

    ``main`` is looked up at call time so that a tracing wrapper installed on
    the module is used.  Bytes of the files named by input and output flags
    are added to ``io_bytes``."""
    import anisolap.cli as cli

    for flag, value in zip(argv, argv[1:]):
        if flag in _INPUT_FLAGS:
            io_bytes["read"] += _file_size(value)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            io_bytes["written"] += _file_size(value)
    text = buf.getvalue()
    lines = []
    for line in text.splitlines():
        if line.startswith("CHECK "):
            parts = line.split()
            kv = dict(p.split("=", 1) for p in parts[2:])
            lines.append((parts[1], float(kv["value"]), float(kv["tol"]),
                          kv["status"] == "PASS"))
    return code, lines, text


_MC_CHECK_PREFIXES = ("ecf_k=", "multistate_ecf_deviation")
_FLOOR_CHECKS = ("coercivity_infimum",)


def cli_check(name: str, argv) -> Check:
    """A check made of one CLI call: every CHECK line is a result, and a
    nonzero exit code fails the check even when each line passed."""
    check = Check(name, run=None)

    def run():
        code, lines, _ = run_cli(argv, check.io_bytes)
        results = []
        for cname, value, tol, passed in lines:
            kind = "mc" if cname.startswith(_MC_CHECK_PREFIXES) else "det"
            results.append(Result(f"{name}:{cname}", kind, value, tol, passed,
                                  floor=cname in _FLOOR_CHECKS))
        if code != 0 and all(r.passed for r in results):
            results.append(Result(f"{name}:exit_code", "det", float(code), 0.0, False))
        return results

    check.run = run
    return check


def _rel_l2(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def _battery_json() -> list:
    """The criterion-10 battery: eight GeneratorSymbol kinds, box half-widths."""
    return [
        ("gaussian_iso", {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.0}, 10.0),
        ("gaussian_axes", {"kind": "gaussian_axes", "dimension": 2, "sigma": 1.0}, 10.0),
        ("gaussian_aniso", {"kind": "gaussian_aniso", "dimension": 2, "measure": fig1_json(),
                            "sigmas": [0.8, 1.2]}, 10.0),
        ("stable_fig1", {"kind": "stable_aniso", "dimension": 2, "measure": fig1_json(),
                         "beta": 1.3}, 12.0),
        ("tempered_axes", {"kind": "tempered_aniso", "dimension": 2,
                           "measure": atoms_json(AXES2D), "beta": 1.5, "lam": 0.5}, 12.0),
        ("beta1_iso", {"kind": "beta1_aniso", "dimension": 2, "measure": UNIFORM2D,
                       "lam": 0.5}, 12.0),
        ("beta2_asym", {"kind": "beta2_quadratic", "dimension": 2,
                        "measure": atoms_json(AXES2D), "lam": 0.3}, 12.0),
        ("profile_halves", {"kind": "general_profile", "dimension": 2,
                            "measure": halves_json(),
                            "profile": {"betas": [1.8, 1.4], "lambdas": [0.0, 0.0]}}, 12.0),
    ]


def _semigroup_check(name: str, symbol_doc: dict, half_width: float, n_points: int) -> Check:
    def run():
        from anisolap.evolve import SpectralGrid, evolve_spectral, gaussian_density
        from anisolap.symbols import symbol_from_json

        sym = symbol_from_json(symbol_doc)
        p0 = gaussian_density(SpectralGrid(2, half_width, n_points), 0.5)
        two = evolve_spectral(evolve_spectral(p0, sym, 0.4, check_boundary=False),
                              sym, 0.8, check_boundary=False)
        one = evolve_spectral(p0, sym, 1.2, check_boundary=False)
        defect = float(np.max(np.abs(two.values - one.values)))
        return [Result(name, "det", defect, 1e-10, defect <= 1e-10)]

    return Check(name, run)


def spectral(seed: int, workdir: str) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    files: dict = {}
    checks = []
    grid_n = 128

    # criterion 01, fig1 case: nodes-path symbol on the grid vs apply_caseI on
    # the 3x3 stencil {-2, 0, 2}^2 (stride 8 at spacing 0.25)
    eq = {"cases": [{
        "name": "fig1_b08_l05", "case": "I", "measure": fig1_json(),
        "beta": 0.8, "lam": 0.5,
        "grid": {"dimension": 2, "half_width": 16.0, "n_points": grid_n},
        "field": {"kind": "gaussian", "width": float(rng.uniform(0.9, 1.1)),
                  "center": [float(c) for c in rng.uniform(-0.25, 0.25, 2)]},
        "xmax": 2.0, "stride": 8, "tol": 1e-3}]}
    path = _write_json(workdir, "equivalence_fig1.json", eq, files)
    checks.append(cli_check("equivalence_fig1", ["analyze", "equivalence", "--config", path]))

    # criterion 10: mass ladder through the CLI, semigroup through the library
    for name, doc, half_width in _battery_json():
        cfg = {"symbol": doc,
               "grid": {"dimension": 2, "half_width": half_width, "n_points": 64},
               "initial": {"kind": "gaussian", "variance": 0.5},
               "times": [0.3, 0.9, 1.5]}
        path = _write_json(workdir, f"mass_{name}.json", cfg, files)
        checks.append(cli_check(f"mass_{name}", ["analyze", "mass", "--config", path]))
        checks.append(_semigroup_check(f"semigroup_{name}", doc, half_width, 64))

    # evolve + compare round trip: exp(t psi) is unchanged when the rate zeta
    # scales psi and t is divided by it
    trip_n = 96
    t = float(rng.uniform(0.5, 1.5))
    zeta = float(rng.uniform(1.5, 3.0))
    initial = {"kind": "gaussian", "variance": float(rng.uniform(0.4, 0.8)),
               "center": [float(c) for c in rng.uniform(-0.5, 0.5, 2)]}
    outs = []
    for tag, z, tt in (("a", 1.0, t), ("b", zeta, t / zeta)):
        cfg = {"symbol": {"kind": "tempered_aniso", "dimension": 2, "measure": fig1_json(),
                          "beta": 0.8, "lam": 0.5, "zeta": z},
               "grid": {"dimension": 2, "half_width": 16.0, "n_points": trip_n},
               "initial": initial}
        path = _write_json(workdir, f"evolve_{tag}.json", cfg, files)
        out = os.path.join(workdir, f"density_{tag}.csv")
        outs.append(out)
        checks.append(cli_check(f"evolve_{tag}", ["evolve", "--config", path,
                                                  "--t", repr(tt), "--out", out]))
    checks.append(cli_check("compare_rescaled", [
        "compare", "--a", outs[0], "--b", outs[1], "--l1-tol", "1e-12",
        "--out", os.path.join(workdir, "compare.json")]))

    # a statistical check of the aniso Gaussian symbol (criterion 05 style);
    # 20k single-jump paths keep the sampler's share negligible
    cfg = {"jump": {"kind": "gaussian_aniso", "dimension": 2, "measure": fig1_json(),
                    "sigmas": [0.8, 1.2]},
           "zeta": 1.0, "t": 1.0, "paths": 20000, "seed": 515,
           "k_list": [[0.5, 0.0], [0.0, 1.0], [0.7, 0.7]]}
    path = _write_json(workdir, "ecf_gaussian_aniso.json", cfg, files)
    checks.append(cli_check("ecf_gaussian_aniso", [
        "ecf", "--config", path, "--out", os.path.join(workdir, "ecf_gaussian.csv")]))

    nodes = 2 * SYMBOL_NODES_PER_BAND
    largest = {"what": "k-points x band nodes complex array of the nodes-path symbol "
                       f"({grid_n}^2 x {nodes}, all bands)",
               "bytes": grid_n ** 2 * nodes * COMPLEX_BYTES}
    return Inputs("spectral", seed, files, checks, largest)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def _disc_points(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, TWO_PI, size=count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def spectral_reference(symbol_values: np.ndarray, k: np.ndarray, half_width: float,
                       pts: np.ndarray) -> np.ndarray:
    """Operator applied to the unit Gaussian bump at arbitrary points, as the
    lattice sum (2L)^-n sum_k psi(k) g_hat(k) e^{-i k.x} of the periodic
    spectral picture (forward transform e^{+ikx}, g_hat = 2 pi e^{-|k|^2/2}).
    The 2D lattice sum factorises over the two axes."""
    n_axis = int(round(math.sqrt(len(k))))
    ax = k[::n_axis, 0]
    ghat = TWO_PI * np.exp(-0.5 * np.sum(k ** 2, axis=-1))
    F = (symbol_values * ghat).reshape(n_axis, n_axis)
    ex = np.exp(-1j * pts[:, 0:1] * ax[None, :])
    ey = np.exp(-1j * pts[:, 1:2] * ax[None, :])
    return np.real(np.sum((ex @ F) * ey, axis=1)) / (2.0 * half_width) ** 2


def _k_lattice(half_width: float, n_points: int) -> np.ndarray:
    ax = (np.arange(n_points) - n_points // 2) * (math.pi / half_width)
    kx, ky = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([kx.ravel(), ky.ravel()], axis=-1)


def _apply_check(name: str, workdir: str, files: dict, operator: dict, pts: np.ndarray,
                 symbol_of_k: Callable, half_width: float, n_points: int) -> Check:
    """``anisolap apply`` at the points, checked against the spectral lattice
    sum at relative L2 1e-3 (the criterion-01 tolerance).  Untempered
    kernels need the wide box (L = 64): their periodic images decay slowly."""
    cfg_path = _write_json(workdir, f"apply_{name}.json",
                           {"operator": operator, "field": {"kind": "gaussian"}}, files)
    pts_path = _write_points(workdir, f"points_{name}.csv", pts, files)
    out = os.path.join(workdir, f"applied_{name}.csv")
    argv = ["apply", "--config", cfg_path, "--points", pts_path, "--out", out]
    check = Check(f"apply_{name}", run=None)

    def run():
        code, _, _ = run_cli(argv, check.io_bytes)
        if code != 0:
            return [Result(f"apply_{name}:exit_code", "det", float(code), 0.0, False)]
        got = np.loadtxt(out, delimiter=",", ndmin=2)[:, -1]
        k = _k_lattice(half_width, n_points)
        ref = spectral_reference(np.asarray(symbol_of_k(k)), k, half_width, pts)
        rel = _rel_l2(got, ref)
        return [Result(f"apply_{name}:spectral_rel_l2", "det", rel, 1e-3, rel <= 1e-3)]

    check.run = run
    return check


def _gaussian_generator_check(name: str, n_jumps: int, seed: int) -> Check:
    """Real-space Gaussian-jump generator zeta (E f(x - Y) - f(x)) by
    Gauss quadrature, against its Monte Carlo average over jumps Y drawn by
    the sampler; tolerance 5 standard errors per point."""
    pts = np.array([[0.3, -0.2], [-1.1, 0.6], [0.8, 1.2], [1.5, -0.9]])

    def run():
        from anisolap.measures import measure_from_json
        from anisolap.realspace import apply_gaussian_nonlocal, gaussian_bump
        from anisolap.sampler import JumpSpec, sample_jump

        measure = measure_from_json(fig1_json())
        bump = gaussian_bump(2)
        quad = apply_gaussian_nonlocal(bump, "aniso", pts, measure=measure,
                                       sigmas=(0.8, 1.2))
        jumps = sample_jump(JumpSpec("gaussian_aniso", 2, measure=measure, sigmas=(0.8, 1.2)),
                            np.random.default_rng(seed), size=n_jumps)
        worst = 0.0
        for x, q in zip(pts, quad):
            vals = bump.f(x[None, :] - jumps) - bump.f(x)
            se = float(vals.std(ddof=1)) / math.sqrt(n_jumps)
            worst = max(worst, abs(float(vals.mean()) - float(q)) / (5.0 * se))
        return [Result(name, "mc", worst, 1.0, worst <= 1.0)]

    return Check(name, run)


def pointwise(seed: int, workdir: str, configs_dir: str) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    files: dict = {}
    checks = []
    n_pts = 64

    # library names are looked up when the check runs, after any tracer
    # has wrapped them
    def tempered(measure_doc, beta, lam, **kw):
        def psi(k):
            from anisolap.measures import measure_from_json
            from anisolap.symbols import tempered_symbol

            return tempered_symbol(measure_from_json(measure_doc), beta, lam, k, **kw)
        return psi

    def profile(measure_doc, betas, lambdas):
        def psi(k):
            from anisolap.measures import StabilityProfile, measure_from_json
            from anisolap.symbols import general_profile_symbol

            return general_profile_symbol(measure_from_json(measure_doc),
                                          StabilityProfile(betas, lambdas), k)
        return psi

    checks.append(_apply_check(
        "caseI_fig1", workdir, files,
        {"case": "I", "measure": fig1_json(), "beta": 0.8, "lam": 0.5},
        _disc_points(rng, n_pts, 2.0), tempered(fig1_json(), 0.8, 0.5, method="nodes"),
        16.0, 64))
    checks.append(_apply_check(
        "caseII_axes2d", workdir, files,
        {"case": "II", "measure": atoms_json(AXES2D), "beta": 1.5, "lam": 0.0},
        _disc_points(rng, n_pts, 2.0), tempered(atoms_json(AXES2D), 1.5, 0.0), 64.0, 256))
    checks.append(_apply_check(
        "general_halves", workdir, files,
        {"case": "general", "measure": halves_json(),
         "profile": {"betas": [1.8, 1.4], "lambdas": [0.0, 0.0]}},
        _disc_points(rng, n_pts, 2.0), profile(halves_json(), (1.8, 1.4), (0.0, 0.0)),
        64.0, 256))

    bundled = os.path.join(configs_dir, "theorem1_check.json")
    files["theorem1_check.json"] = bundled
    checks.append(cli_check("equivalence_bundled", ["analyze", "equivalence",
                                                    "--config", bundled]))

    path = _write_json(workdir, "coercivity_fig1.json", {
        "measure": fig1_json(), "beta": 1.3, "lam": 0.7, "expect": "coercive",
        "floor": 0.999}, files)
    checks.append(cli_check("coercivity_fig1", ["analyze", "coercivity", "--config", path]))

    path = _write_json(workdir, "parseval_axes.json", {
        "measure": atoms_json(CROSS2D), "beta": 1.3, "lam": 0.5,
        "field": {"kind": "gaussian"}, "half_width": 10.0, "n_points": 96,
        "budget": 1e-2}, files)
    checks.append(cli_check("parseval_axes", ["analyze", "parseval", "--config", path]))

    checks.append(_gaussian_generator_check("gaussian_generator_mc", 20000, 321))

    # bilinear_form: lattice points x radial nodes x 2 coordinates, float64;
    # radial rule 1e-4..20 at 8 panels/decade of order 8
    radial = int(math.ceil(math.log10(20.0 / 1e-4) * 8)) * 8
    largest = {"what": f"bilinear-form displaced points (96^2 x {radial} radial nodes x 2)",
               "bytes": 96 ** 2 * radial * 2 * FLOAT_BYTES}
    return Inputs("pointwise", seed, files, checks, largest)


# ---------------------------------------------------------------------------
# stochastic
# ---------------------------------------------------------------------------

def mittag_leffler(alpha: float, z: np.ndarray, terms: int = 120) -> np.ndarray:
    """E_alpha(z) by its power series; for |z| <= 1 the terms fall below
    1e-30 well before the cut."""
    from scipy.special import gammaln

    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for n in range(terms):
        out += z ** n * math.exp(-gammaln(alpha * n + 1.0))
    return out


def _time_fractional_check(name: str, config_path: str) -> Check:
    """Criterion-14 route at alpha = 0.7: the subordinated Monte Carlo density
    against E[exp(E(t) psi)] = E_alpha(psi t^alpha) on the grid.  The Gaussian
    jump symbol lies in [-1, 0], so the series converges fast.  Tolerance: 5
    times the L1 norm of the reported standard-error field."""

    def run():
        from anisolap.evolve import SpectralGrid, evolve_time_fractional, gaussian_density
        from anisolap.evolve import spectral_apply
        from anisolap.symbols import make_generator

        with open(config_path) as fh:
            cfg = json.load(fh)
        alpha, t = cfg["alpha"], cfg["t"]
        sym = make_generator("gaussian_iso", 1, sigma=1.0, zeta=1.0)
        grid = SpectralGrid(1, 16.0, 256)
        p0 = gaussian_density(grid, cfg["variance"], center=[cfg["center"]])
        res = evolve_time_fractional(p0, sym, alpha, t, cfg["samples"],
                                     np.random.default_rng(cfg["seed"]))
        psi = np.asarray(sym(grid.k_points()))
        ref = spectral_apply(p0.values, mittag_leffler(alpha, psi * t ** alpha))
        cell = grid.cell_volume
        l1 = float(np.abs(res.density.values - ref).sum() * cell)
        tol = 5.0 * float(res.stderr.sum() * cell)
        return [Result(name, "mc", l1, tol, l1 <= tol)]

    return Check(name, run)


def _two_state_model(tempered_r0: float) -> dict:
    return {"N": 2, "M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
            "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
            "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7},
                      {"kind": "tempered_stable", "dimension": 2,
                       "measure": atoms_json(AXES2D), "beta": 1.3, "lam": 0.5,
                       "r0": tempered_r0}]}


def _montroll_oracle_check(name: str, model_doc: dict) -> Check:
    """Montroll-Weiss transform against the Laplace transform of the Fourier
    ODE oracle, (s I - (M^T Lambda(k) - I) Z)^-1 init, which it equals
    exactly for exponential waiting."""
    probes = [([0.0, 0.0], 1.0), ([1.0, 0.0], 0.5 + 0.3j), ([0.4, -0.8], 2.0)]

    def run():
        from anisolap.multistate import montroll_transform, state_model_from_json
        from anisolap.sampler import jump_cf

        model = state_model_from_json(model_doc)
        Z = np.diag([w.rate for w in model.waiting])
        worst = 0.0
        for k, s in probes:
            k = np.asarray(k)
            got = montroll_transform(model, k, s)
            lam = np.diag([jump_cf(j, k) for j in model.jumps])
            gen = (model.M.T @ lam - np.eye(model.n_states)) @ Z
            want = np.linalg.solve(s * np.eye(model.n_states) - gen,
                                   model.init.astype(complex))
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        return [Result(name, "det", worst, 1e-10, worst <= 1e-10)]

    return Check(name, run)


def stochastic(seed: int, workdir: str) -> Inputs:
    from anisolap.measures import measure_from_json
    from anisolap.sampler import JumpSpec, matched_rate

    rng = np.random.default_rng([seed, 3])
    files: dict = {}
    checks = []
    n_paths = 20000
    jump = {"kind": "tempered_stable", "dimension": 2, "measure": fig1_json(),
            "beta": 1.3, "lam": 0.5, "r0": 1e-3}
    zeta = matched_rate(JumpSpec("tempered_stable", 2, measure=measure_from_json(fig1_json()),
                                 beta=1.3, lam=0.5, r0=1e-3))
    path = _write_json(workdir, "ecf_tempered_fig1.json", {
        "jump": jump, "zeta": zeta, "t": 1.0, "paths": n_paths, "seed": 20261,
        "k_list": [[0.5, 0.0], [0.0, 1.0], [0.7, -0.7]]}, files)
    checks.append(cli_check("ecf_tempered_fig1", [
        "ecf", "--config", path, "--out", os.path.join(workdir, "ecf_tempered.csv")]))

    swap = {"model": {"N": 2, "M": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0],
                      "waiting": [{"kind": "exp", "rate": 1.0}, {"kind": "exp", "rate": 2.0}],
                      "jumps": [{"kind": "gaussian_iso", "dimension": 2, "sigma": 0.7},
                                {"kind": "gaussian_iso", "dimension": 2, "sigma": 1.3}]},
            "t": 1.0, "paths": 100000, "seed": 606,
            "k_probes": [[1.0, 0.0], [0.3, 0.6], [0.0, 1.5]]}
    path = _write_json(workdir, "multistate_swap.json", swap, files)
    checks.append(cli_check("multistate_swap", ["multistate", "--validate", "--config", path]))

    two = {"model": _two_state_model(1e-3), "t": 1.0, "paths": 100000, "seed": 607,
           "k_probes": [[1.0, 0.0], [0.3, 0.6]]}
    path = _write_json(workdir, "multistate_tempered.json", two, files)
    checks.append(cli_check("multistate_tempered",
                            ["multistate", "--validate", "--config", path]))
    checks.append(_montroll_oracle_check("montroll_laplace_oracle", _two_state_model(1e-3)))

    path = _write_json(workdir, "time_fractional.json", {
        "alpha": 0.7, "t": 1.0, "samples": 200, "seed": 814,
        "variance": float(rng.uniform(0.4, 0.6)), "center": float(rng.uniform(-1.0, 1.0))},
        files)
    checks.append(_time_fractional_check("time_fractional_a07", path))

    # one ensemble chunk (1/16 of the paths) of cumulative jump sums, 2 coordinates
    jumps = n_paths / 16 * zeta
    largest = {"what": "cumulative jump sums of one ensemble chunk "
                       f"({n_paths // 16} paths x {zeta:.0f} jumps x 2)",
               "bytes": int(jumps * 2 * FLOAT_BYTES)}
    return Inputs("stochastic", seed, files, checks, largest)


WORKLOADS = tuple(WHY)


def generate(workload: str, seed: int, workdir: str, configs_dir: str) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``workdir``; configs_dir
    holds the library's bundled configs."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "spectral":
        return spectral(seed, workdir)
    if workload == "pointwise":
        return pointwise(seed, workdir, configs_dir)
    if workload == "stochastic":
        return stochastic(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
