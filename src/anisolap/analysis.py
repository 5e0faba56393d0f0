"""Numerical well-posedness checks: the coercivity ratio and its dichotomy,
the Parseval identity for the bilinear form, the one-sided 1D counterexample,
mass conservation, and the Gaussian scaling limit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolve import DensityField, SpectralGrid, continuum_dft_abs2, evolve_spectral
from .measures import (
    DirectionalMeasure, _composite_gl, _null_directions, _unit_vectors, support_directions,
)
from .realspace import ScalarField, bilinear_form, _graded_radial_rule
from .symbols import (
    gaussian_symbol, isotropic_reference_symbol, make_generator, tempered_symbol,
)

__all__ = [
    "CoercivityReport",
    "coercivity_ratio",
    "symbol_asymptotic_slopes",
    "ParsevalReport",
    "parseval_bilinear_check",
    "CounterexampleReport",
    "counterexample_1d",
    "MassReport",
    "mass_conservation_check",
    "ScalingReport",
    "scaling_limit_check",
]

_DEGENERATE_RATIO = 1e-8
_N_RADII, _N_DIRECTIONS = 25, 48  # the coercivity probe grid


@dataclass(frozen=True)
class CoercivityReport:
    ratio_infimum: float
    argmin_k: np.ndarray
    verdict: str  # "coercive" or "degenerate-direction-found"
    probe_description: str
    witness_numerator: float
    witness_denominator: float


def _direction_grid(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        return _unit_vectors(np.linspace(0.0, 2.0 * math.pi, count, endpoint=False) + 0.05)
    # Fibonacci sphere
    i = np.arange(count) + 0.5
    return _unit_vectors(math.pi * (1.0 + math.sqrt(5.0)) * i, 1.0 - 2.0 * i / count)


def _ratio_terms(measure: DirectionalMeasure, beta: float, lam: float, pts):
    """Numerator and denominator of the coercivity ratio at the rows pts:
    Re[-psi_m(k)], clipped at 0, with 3D bands on the adaptive route, and the
    isotropic reference."""
    num = np.maximum(-np.real(tempered_symbol(measure, beta, lam, pts, method="adaptive")), 0.0)
    return num, isotropic_reference_symbol(beta, lam, pts, measure.dimension)


def coercivity_ratio(measure: DirectionalMeasure, beta: float, lam: float) -> CoercivityReport:
    """Infimum over a log-radial (|k| from 1e-3 to 1e3) x angular probe grid of

        Re[-psi_m(k)] / reference_iso(k),

    k = 0 excluded (both sides vanish there).  Directions orthogonal to the
    measure's support span are appended to the angular grid, so degenerate
    measures always expose a witness."""
    n = measure.dimension
    radii = np.geomspace(1e-3, 1e3, _N_RADII)
    extra = _null_directions(support_directions(measure))
    dirs = np.concatenate([_direction_grid(n, _N_DIRECTIONS), extra])
    K = radii[:, None, None] * dirs[None, :, :]
    pts = K.reshape(-1, n)
    num, den = _ratio_terms(measure, beta, lam, pts)
    ratio = num / den
    imin = int(np.argmin(ratio))
    inf_ratio = float(ratio[imin])
    verdict = "degenerate-direction-found" if inf_ratio <= _DEGENERATE_RATIO else "coercive"
    desc = (f"|k| log-spaced 0.001..1000 x {_N_RADII}, "
            f"{dirs.shape[0]} directions ({len(extra)} support-nullspace augmented)")
    return CoercivityReport(
        ratio_infimum=inf_ratio,
        argmin_k=pts[imin],
        verdict=verdict,
        probe_description=desc,
        witness_numerator=float(num[imin]),
        witness_denominator=float(den[imin]),
    )


def symbol_asymptotic_slopes(measure: DirectionalMeasure, beta: float, lam: float) -> dict:
    """Log-log slopes of numerator and reference at small and large |k| along
    the first support direction of the measure.

    With tempering the symbols behave like |k|^2 as |k| -> 0 and |k|^beta as
    |k| -> infinity."""
    if lam <= 0:
        raise ValueError("slope asymptotics require lam > 0 (untempered symbols "
                         "are exactly homogeneous of order beta)")
    d = support_directions(measure)[0]
    d = d / np.linalg.norm(d)

    def fit(radii):
        pts = radii[:, None] * d[None, :]
        num, den = _ratio_terms(measure, beta, lam, pts)
        ln_r = np.log(radii)
        s_num = np.polyfit(ln_r, np.log(num), 1)[0]
        s_den = np.polyfit(ln_r, np.log(den), 1)[0]
        return s_num, s_den

    small = fit(np.geomspace(1e-4, 1e-3, 8) * max(lam, 1.0))
    large = fit(np.geomspace(1e4, 1e5, 8) * max(lam, 1.0))
    return {
        "numerator_small": small[0], "reference_small": small[1],
        "numerator_large": large[0], "reference_large": large[1],
        "expected_small": 2.0, "expected_large": beta,
    }


# ---------------------------------------------------------------------------
# Parseval identity for the bilinear form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsevalReport:
    direct: float
    spectral: float
    relative_deviation: float
    quadrature_budget: dict
    passed: bool


def parseval_bilinear_check(field_q: ScalarField, measure: DirectionalMeasure,
                            beta: float, lam: float, *, half_width: float,
                            n_points: int, budget: float) -> ParsevalReport:
    """Compare the double-quadrature a(q,q) against its Fourier form

        2|Gamma(-beta)| (2 pi)^(-n) int (-Re psi(k)) |q_hat(k)|^2 dk;

    passed says whether their relative deviation is within budget."""
    n = measure.dimension
    grid = SpectralGrid(n, half_width, n_points)  # refuses a bad size before any work
    direct, rep = bilinear_form(field_q, field_q, measure, beta, lam,
                                half_width=half_width, n_points=n_points)
    vals = field_q.f(grid.points()).reshape(grid.shape())
    qhat2 = continuum_dft_abs2(vals, grid)
    psi = make_generator("tempered_aniso", n, measure=measure, beta=beta, lam=lam).on_grid(grid)
    dk = (math.pi / half_width) ** n
    spectral = (
        2.0 * abs(math.gamma(-beta)) / (2.0 * math.pi) ** n
        * float(np.sum(-psi.real * qhat2)) * dk
    )
    rel = abs(direct - spectral) / max(abs(spectral), 1e-300)
    return ParsevalReport(direct, spectral, rel, {
        "tube_correction": rep["tube_correction"],
        "far_field_correction": rep["far_field_correction"],
        "boundary_value": rep["boundary_value"],
        "budget": budget,
    }, passed=rel <= budget)


# ---------------------------------------------------------------------------
# one-sided counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    truncations: np.ndarray
    values: np.ndarray
    seminorm_product: float
    limit_value: Optional[float]
    monotone: bool
    all_positive: bool


def counterexample_1d(beta: float, lam: float, truncations) -> CounterexampleReport:
    """Asymmetric-kernel bilinear value for the one-sided measure (mass at +1)
    with p the negative-halfline indicator step and q constant:

        2 int_{y<0} int_{x>0} e^(-lam(x-y)) (x-y)^(-1-beta) dx dy,

    truncated to |x|,|y| <= T.  The product of symmetric seminorms is zero
    (q is constant), so positivity of the left side breaks the continuity
    inequality.  For beta < 1 and lam > 0 the exact full-space value is
    2 Gamma(1-beta) lam^(beta-1)."""
    if not (0.0 < beta < 1.0):
        raise ValueError("the truncated double integral needs beta in (0,1)")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not (len(truncations) and min(truncations) > 0):
        raise ValueError(f"truncations must be one or more positive lengths, got {truncations}")
    Ts = np.asarray(sorted(truncations), dtype=float)
    values = np.empty(len(Ts))
    for i, T in enumerate(Ts):
        # reduce over the diagonal shift s = x - y: the set {x in (0,T],
        # y in [-T,0), x-y=s} has 1D measure min(s, 2T - s) on (0, 2T];
        # the rule is split at s = T where that overlap factor has a kink
        kern = lambda r: r ** (-1.0 - beta) * np.exp(-lam * r)
        r1, w1 = _graded_radial_rule(1e-13 * T, T, panels_per_decade=10, order=10)
        lo = float(np.sum(w1 * r1 * kern(r1)))
        r2, w2 = _composite_gl(np.linspace(T, 2.0 * T, 33), 10)
        hi = float(np.sum(w2 * (2.0 * T - r2) * kern(r2)))
        values[i] = 2.0 * (lo + hi)
    limit = 2.0 * math.gamma(1.0 - beta) * lam ** (beta - 1.0) if lam > 0 else None
    return CounterexampleReport(
        truncations=Ts,
        values=values,
        seminorm_product=0.0,  # (q(x)-q(y))^2 vanishes identically for constant q
        limit_value=limit,
        monotone=bool(np.all(np.diff(values) > 0)),
        all_positive=bool(np.all(values > 0)),
    )


# ---------------------------------------------------------------------------
# mass conservation and scaling limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassReport:
    times: np.ndarray
    masses: np.ndarray
    max_drift: float
    tolerance: float
    passed: bool


def mass_conservation_check(symbol, p0: DensityField, times) -> MassReport:
    """Total grid mass along the time ladder; psi(0) = 0 makes it constant.
    Passes when the drift is within 1e-12 of max(1, |initial mass|)."""
    if not len(times):
        raise ValueError("times must name at least one time")
    ts = np.asarray(sorted(times), dtype=float)
    m0 = p0.total_mass()
    masses = np.empty(len(ts))
    for i, t in enumerate(ts):
        masses[i] = evolve_spectral(p0, symbol, float(t), check_boundary=False).total_mass()
    drift = float(np.max(np.abs(masses - m0)))
    scale = max(1.0, abs(m0))
    return MassReport(ts, masses, drift, 1e-12, drift <= 1e-12 * scale)


@dataclass(frozen=True)
class ScalingReport:
    sigmas: np.ndarray
    deviations_iso: np.ndarray
    deviations_axes: np.ndarray
    rung_ratios_iso: np.ndarray
    rung_ratios_axes: np.ndarray
    passed: bool


def scaling_limit_check(sigmas, K1: float, k_probes) -> ScalingReport:
    """Deviation of zeta*(Phi_0 - 1) from its diffusion limit along a sigma
    ladder with zeta*sigma^2/2 = K1 held fixed.

    The isotropic variant tends to -K1 |k|^2; in n dimensions the axis
    variant jumps along one of the n axes, carrying 1/n of the radial second
    moment per jump, so its limit is -(K1/n)|k|^2.  Both deviations are
    O(sigma^2): halving sigma divides them by about four, and the check
    passes when every rung ratio is within 20% of that."""
    if not (len(sigmas) >= 2 and min(sigmas) > 0):
        raise ValueError(f"sigmas must be two or more positive spreads, got {sigmas}")
    if not len(k_probes):
        raise ValueError("k_probes must name at least one wavenumber")
    sig = np.asarray(sorted(sigmas, reverse=True), dtype=float)
    K = np.atleast_2d(np.asarray(k_probes, dtype=float))
    k2 = np.sum(K ** 2, axis=-1)
    n = K.shape[1]
    dev_iso = np.empty(len(sig))
    dev_axes = np.empty(len(sig))
    for i, s in enumerate(sig):
        zeta = 2.0 * K1 / s ** 2
        phi_iso = np.asarray(gaussian_symbol("iso", K, sigma=s, dimension=n))
        phi_axes = np.asarray(gaussian_symbol("axes", K, sigma=s, dimension=n))
        dev_iso[i] = float(np.max(np.abs(zeta * phi_iso + K1 * k2)))
        dev_axes[i] = float(np.max(np.abs(zeta * phi_axes + K1 / n * k2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        r_iso = dev_iso[:-1] / dev_iso[1:]
        r_axes = dev_axes[:-1] / dev_axes[1:]
    expected = (sig[:-1] / sig[1:]) ** 2
    ok = np.all(np.abs(r_iso / expected - 1.0) <= 0.2) and np.all(
        np.abs(r_axes / expected - 1.0) <= 0.2
    )
    return ScalingReport(sig, dev_iso, dev_axes, r_iso, r_axes, bool(ok))
