"""Generator symbols (Fourier multipliers) of the nonlocal diffusion operators.

Every evaluator returns the symbol psi(k) of a Markov generator, so psi(0) = 0,
Re psi <= 0, and psi(-k) = conj(psi(k)), bit for bit.  Fractional powers use
the principal branch through the polar representation

    (lam - i*u)^beta = (lam^2 + u^2)^(beta/2) * exp(-i*beta*eta),
    eta = arctan2(u, lam),

which is exact for lam = 0 as well (eta = +-pi/2).  The phase is taken from
the half-angle tangent tan(beta*eta/2) (measures._half_angle_trig), which
numpy evaluates vectorised where cos and sin may run as scalar libm.

The measure integrals sum atoms exactly.  A 2D band's integral of g(|k|
cos w), w = theta - theta_k, is one periodic antiderivative differenced at
its ends, an integer multiple of H = int_0^(pi/2) plus remainders, through
one end code (_band_block).  F and H come from the closed form of the
untempered brackets or from per-radius tables of Gauss-Legendre panels
graded toward the kink k.phi = 0 (_bands_2d).  3D bands take adaptive
quadrature on at most _ADAPTIVE_MAX wavenumbers and the fixed nodes of
refinement _NODES_REFINEMENT otherwise; only tempered_symbol's method
overrides that choice.
"""

from __future__ import annotations

import decimal
import math
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._special import dawsn, incbeta
from .measures import (
    DirectionalMeasure,
    NumericalError,
    StabilityProfile,
    _as_rows,
    _check_exponent,
    _check_kind,
    _component_spreads,
    _composite_gl,
    _from_rows,
    _gl,
    _half_angle_trig,
    _integrate_band_adaptive,
    _pool_map,
    _row_blocks,
    _unit_vectors,
    band_nodes,
    from_json,
    is_symmetric,
    moments,
)

__all__ = [
    "GeneratorSymbol",
    "MixedStabilityRangeWarning",
    "gaussian_symbol",
    "tempered_symbol",
    "beta1_symbol",
    "beta2_symbol",
    "general_profile_symbol",
    "isotropic_reference_symbol",
    "make_generator",
]

_BLOCK_ROWS = 64  # wavenumbers per block of the fixed-node quadrature
_ADAPTIVE_TOL = 1e-12  # absolute panel tolerance of the adaptive band rule
_ADAPTIVE_MAX = 64  # the most wavenumbers on which 3D bands take the adaptive rule
_NODES_REFINEMENT = 96  # band_nodes refinement of the 3D fixed nodes
_GRID_CACHE_SIZE = 4  # grids whose symbol values a GeneratorSymbol keeps


class MixedStabilityRangeWarning(UserWarning):
    """A direction-dependent exponent profile mixes (0,1) and (1,2); the
    sign prefactor is applied per component."""


def _bracket(u, beta: float, lam: float):
    """(lam - i*u)^beta - lam^beta on the principal branch (vectorised).

    The phase exp(-i*beta*eta) comes from t = tan(beta*eta/2) at |u|, finite
    since beta*eta/2 < pi/2, and t takes the sign of u, so g(-u) == conj g(u)
    exactly.  The u = 0 value is pinned to exactly zero (it vanishes
    identically); array and scalar pow differ in the last ulp otherwise.  At
    lam = 0 the magnitude is |u|^beta, which does not underflow with u^2.
    Where |u| < lam / 8 the real part is taken as lam^beta ((M - 1) c -
    2 t^2 / (1 + t^2)), M - 1 = expm1((beta/2) log1p(u^2/lam^2)) and
    c = cos(beta*eta), rather than as M lam^beta c - lam^beta, which cancels
    as u -> 0."""
    u = np.asarray(u, dtype=float)
    # at least 1D: a ufunc on a 0-d array returns a scalar, not a buffer
    a = np.abs(np.atleast_1d(u))
    t = np.arctan2(a, lam)
    t *= 0.5 * beta
    np.tan(t, out=t)
    np.copysign(t, u, out=t)
    out = np.empty(a.shape, dtype=complex)
    _half_angle_trig(t, out.real, out.imag)
    near = a < 0.125 * lam
    if near.any():
        q = np.square(t[near])
        m1 = np.expm1(0.5 * beta * np.log1p(np.square(a[near] / lam)))
        near_re = lam ** beta * (m1 * out.real[near] - 2.0 * q / (1.0 + q))
    # t becomes the magnitude (lam^2 + u^2)^(beta/2)
    if lam == 0.0:
        np.power(a, beta, out=t)
    else:
        np.multiply(a, a, out=t)
        t += lam * lam
        t **= 0.5 * beta
    out.real *= t
    out.real -= lam ** beta
    if near.any():
        out.real[near] = near_re
    np.negative(t, out=t)
    out.imag *= t
    np.copyto(out, 0.0, where=a == 0.0)
    return out.reshape(u.shape)


def _ceil_sign(beta: float) -> float:
    return (-1.0) ** math.ceil(beta)


# ---------------------------------------------------------------------------
# 2D band integrals: an integer multiple of H = F(pi/2) plus remainders
# ---------------------------------------------------------------------------

def _band_ends(theta_k, bounds):
    """The two ends of a 2D band, bounds = (theta0, theta1), as w = theta -
    theta_k = j pi + y, |y| <= pi/2, each with whether it lies nearer the
    kink k.phi = 0 than the crest y = 0: one (j, y, near) per end."""
    ends = []
    for theta in bounds:
        w = theta - theta_k
        j = np.rint(w / math.pi)
        y = np.clip(w - j * math.pi, -0.5 * math.pi, 0.5 * math.pi)
        ends.append((j, y, np.abs(y) > 0.25 * math.pi))
    return ends


def _assemble(ends, rem_even, rem_odd, h_even, h_odd):
    """The integrals over a 2D band's arc of the even and odd parts e, o of
    an integrand g(|k| cos w), w = theta - theta_k, from its ends (_band_ends).

    With F(y) = int_0^y on |y| <= pi/2 and H = F(pi/2), the antiderivatives
    are 2 j H + F(y) for e and (-1)^j F(y) for o, differenced at the band
    ends.  F(y) is carried as n H + f: near the kink n = sign(y) and
    f = -sign(y) rem, rem = int_|y|^(pi/2); elsewhere n = 0 and
    f = sign(y) rem, rem = int_0^|y|.  The integer and the remainder parts
    are differenced apart, so a narrow band does not lose the difference of
    two values near H.  rem_* holds each end's rem and h_* the H of e and o.
    """
    parts = []
    for (j, y, near), re, ro in zip(ends, rem_even, rem_odd):
        sign = np.sign(y)
        n = np.where(near, sign, 0.0)
        flip = np.where(near, -sign, sign)
        parity = 1.0 - 2.0 * (j % 2.0)
        parts.append((2.0 * j + n, flip * re, parity * n, parity * (flip * ro)))
    (e0, f0, o0, g0), (e1, f1, o1, g1) = parts
    return (e1 - e0) * h_even + (f1 - f0), (o1 - o0) * h_odd + (g1 - g0)


# The per-radius tables of F.  In s = pi/2 - |y|, the distance from the
# kink, [0, pi/2] holds _TABLE_UNIFORM equal panels, and the first of them is
# cut toward s = 0 by ratio 1/_TABLE_GRADING, level times, down to half the
# integrand's feature scale; every panel takes Gauss-Legendre of order
# _TABLE_ORDER.  Ratio 1/4 left 3e-13 of gaussian_aniso's H at |k| sigma = 50,
# where exp(-(u s)^2 / 2) falls across a panel; 1/3 keeps every kind within
# 1e-15 of a 3,000-panel rule for |k| scale from 1 to 1e4
_TABLE_ORDER = 16
_TABLE_UNIFORM = 4
_TABLE_GRADING = 3.0
_TABLE_WIDTH = 0.5 * math.pi / _TABLE_UNIFORM
_TABLE_MAX_LEVEL = 40  # 3^-40 of a panel: below rounding of any |y| <= pi/2
_TABLE_VALUES = 1 << 16  # integrand values per block of the tables and of the band ends
# the largest relative difference between a table's H and H on the coarser
# half of its rule, order _TABLE_ORDER / 2 on the same panels, that the route
# accepts: every kind stays below 1e-8 for |k| scale from 1e-3 to 1e4, and the
# difference bounds the error of H by a factor 5 to 100 (ratios measured on
# tables cut short of their level)
_TABLE_TOL = 1e-6


def _table_edges(level: int) -> np.ndarray:
    graded = _TABLE_WIDTH / _TABLE_GRADING ** np.arange(level, 0, -1)
    return np.concatenate([[0.0], graded, _TABLE_WIDTH * np.arange(1, _TABLE_UNIFORM + 1)])


def _finite(vals):
    if not np.all(np.isfinite(vals)):
        raise NumericalError("2D band quadrature: the symbol integrand is not finite "
                             "(|k.phi| overflow?)")
    return vals


def _radial_tables(g, scale: float, radii):
    """The per-radius tables of int g(r sin t) dt over the panels in s, one
    fixed block of the sorted radii at a time.

    Radius r takes level L(r), the least L with _TABLE_WIDTH / _TABLE_GRADING^L
    <= scale / (2 r), so its table depends on r alone; L grows with r, so a
    level's radii are one run of the sorted radii.  Yields (start, stop,
    edges, head, tail) per block: row m of head and tail belongs to
    radii[start + m], head[:, i] is the sum of the panels below edge i and
    tail[:, i] of those above it; H is tail[:, 0].  Raises NumericalError on
    a value of g that is not finite, and where |H - H_half| > _TABLE_TOL |H|,
    H_half being H on the coarser half of the rule.  The blocks run in turn:
    on two worker threads the 128^2 fig1 symbol took no less time.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 2.0 * _TABLE_WIDTH * radii / scale
        levels = np.where(ratio > 1.0, np.ceil(np.log(ratio) / math.log(_TABLE_GRADING)), 0.0)
    levels = np.minimum(levels, _TABLE_MAX_LEVEL).astype(int)
    runs = np.flatnonzero(np.diff(levels, prepend=-1, append=-1))
    for first, end in zip(runs[:-1].tolist(), runs[1:].tolist()):
        edges = _table_edges(int(levels[first]))
        t, w = _composite_gl(edges, _TABLE_ORDER)
        t_half, w_half = _composite_gl(edges, _TABLE_ORDER // 2)
        sin_t, sin_half = np.sin(t), np.sin(t_half)
        for b in _row_blocks(end - first, max(4, _TABLE_VALUES // len(t))):
            start, stop = first + b.start, first + b.stop
            r = radii[start:stop, None]
            panels = (_finite(g(r * sin_t)) * w).reshape(len(r), -1, _TABLE_ORDER).sum(axis=2)
            head = np.zeros((len(r), len(edges)), dtype=complex)
            tail = np.zeros_like(head)
            head[:, 1:] = np.cumsum(panels, axis=1)
            tail[:, :-1] = np.cumsum(panels[:, ::-1], axis=1)[:, ::-1]
            full = tail[:, 0]
            half = (_finite(g(r * sin_half)) * w_half).sum(axis=1)
            size = np.abs(full)
            worst = np.max(np.abs(full - half) / np.where(size > 0.0, size, 1.0))
            if worst > _TABLE_TOL:
                raise NumericalError(
                    f"2D band quadrature: H differs from its coarser half rule by {worst:.3e} "
                    f"relative, above {_TABLE_TOL:.0e}; the integrand is not resolved")
            yield start, stop, edges, head, tail


_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494459"


def _cos_sin_pairs(theta: float) -> tuple:
    """(cos_hi, cos_lo, sin_hi, sin_lo): cos and sin of theta, each as a sum
    of two doubles, from a Taylor series in 60-digit decimal arithmetic
    after theta is reduced by 2 pi."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * decimal.Decimal(_PI_DIGITS)
        x = decimal.Decimal(theta)
        x -= two_pi * (x / two_pi).to_integral_value()
        powers = [decimal.Decimal(0)] * 4  # the series terms by power mod 4
        term = decimal.Decimal(1)
        for n in range(1, 80):
            powers[(n - 1) % 4] += term
            term = term * x / n
        out = []
        for v in (powers[0] - powers[2], powers[1] - powers[3]):
            hi = float(v)
            out += [hi, float(v - decimal.Decimal(hi))]
    return tuple(out)


def _split(a):
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _dot_pairs(a, b, c, d):
    """a c + b d rounded once, to within about 2^-52 of its size: a, b are
    double arrays and c, d (hi, lo) pairs; the products and their sum are
    taken error-free (Dekker's product, Knuth's sum)."""
    terms = []
    for x, (hi, lo) in ((a, c), (b, d)):
        p = x * hi
        (xh, xl), (yh, yl) = _split(x), _split(hi)
        terms.append((p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl + x * lo))
    (p, e), (q, f) = terms
    total = p + q
    z = total - p
    return total + ((p - (total - z)) + (q - z) + (e + f))


def _band_block(g, pts, theta_k, arcs, edges, remainders):
    """The 2D band core on one block of wavenumbers pts with angle theta_k:
    the integrals of g(|k| cos(theta - theta_k)) over the bands' arcs,
    density excluded, a (P, B) array; arcs holds the bands' bounds (2, B)
    and the (cos, sin) pairs of each bound (4, 2, B).

    An end's distance s from the kink is atan2(|u|, |v|), u = k.phi and
    v = k x phi at the end taken by _dot_pairs, so it is within 2^-52 of
    itself near the kink, where the band value hangs on it; i is its panel
    on edges.  remainders(uv, s, i, near) gives each end's remainder and H
    (_assemble) from the bands' source (_bands_2d)."""
    bounds, (ch, cl, sh, sl) = arcs
    x, w = _gl(_TABLE_ORDER)
    n = len(edges) - 1
    ends = _band_ends(theta_k[:, None], bounds)
    # (u, v) at (end 0, end 1), shaped (2, 2, P, B)
    uv = _dot_pairs(pts[:, 0, None], np.stack([pts[:, 1], -pts[:, 1]])[:, None, :, None],
                    (np.stack([ch, sh])[:, :, None], np.stack([cl, sl])[:, :, None]),
                    (np.stack([sh, ch])[:, :, None], np.stack([sl, cl])[:, :, None]))
    s = np.arctan2(np.abs(uv[0]), np.abs(uv[1]))
    i = [np.clip(np.searchsorted(edges, si, side="right") - 1, 0, n - 1) for si in s]
    rems, h = remainders(uv, s, i, [near for _, _, near in ends])
    even, odd = _assemble(ends, [v.real for v in rems], [v.imag for v in rems], h.real, h.imag)
    out = even + 1j * odd
    # A band with its ends in one panel or in two adjacent ones of one
    # quarter period, or in the two panels that meet at a kink or at a crest,
    # is integrated on its own arc, split at the panel edge between its ends:
    # the remainders of its ends would cancel, and s0 and s1 each carry their
    # own rounding, which would not keep its width.  Across a whole panel the
    # remainders lose at most a few ulps of the band.
    inner = 2.0 * ends[0][0] + (ends[0][1] > 0.0) == 2.0 * ends[1][0] + (ends[1][1] > 0.0)
    ia, ib = np.minimum(*i), np.maximum(*i)
    width = bounds[1] - bounds[0]
    narrow = (width < 0.5 * math.pi) & np.where(
        inner, ib - ia <= 1, (ia == ib) & ((ia == 0) | (ia == n - 1)))
    row, col = np.nonzero(narrow)
    if len(row):
        u0, v0, wd = uv[0, 0, row, col], uv[1, 0, row, col], width[col]
        cut = np.where(i[0][row, col] == i[1][row, col], 0.5 * wd,
                       np.clip(np.abs(edges[ib[row, col]] - s[0][row, col]), 0.0, wd))
        a, b = np.stack([np.zeros_like(wd), cut]), np.stack([cut, wd])
        t = (0.5 * (a + b))[..., None] + (0.5 * (b - a))[..., None] * x
        # u(theta0 + t) = u0 cos t - v0 sin t, exact in u0 and v0
        rot = _unit_vectors(t)
        vals = _finite(g(u0[:, None] * rot[..., 0] - v0[:, None] * rot[..., 1]))
        out[row, col] = ((vals * w).sum(axis=-1) * (0.5 * (b - a))).sum(axis=0)
    return out


def _table_source(g, scale: float, kn, n_bands: int):
    """The tables of g with feature scale scale in k.phi (_radial_tables),
    one per distinct |k|, in blocks of at most _TABLE_VALUES integrand values;
    each end adds one partial panel of order _TABLE_ORDER to its table's
    sum, toward the nearer end of [0, pi/2]."""
    radii, inv = np.unique(kn, return_inverse=True)
    # the wavenumbers of radius i are by_radius[offsets[i]:offsets[i + 1]]
    by_radius = np.argsort(inv, kind="stable")
    offsets = np.searchsorted(inv[by_radius], np.arange(len(radii) + 1))
    per_block = max(4, _TABLE_VALUES // (2 * _TABLE_ORDER * n_bands))  # wavenumbers
    x, w = _gl(_TABLE_ORDER)

    def remainders(r, head, tail, edges, uv, s, i, near):
        lo = np.stack([np.where(nr, edges[ii], si) for si, ii, nr in zip(s, i, near)])
        hi = np.stack([np.where(nr, si, edges[ii + 1]) for si, ii, nr in zip(s, i, near)])
        half = 0.5 * (hi - lo)
        # sin t = 2 tau / (1 + tau^2), tau = tan(t / 2): np.sin runs as scalar libm
        tau = np.tan((0.25 * (lo + hi))[..., None] + (0.5 * half)[..., None] * x)
        u = (2.0 * r)[:, None, None] * tau / (1.0 + tau * tau)
        part = (_finite(g(u)) * w).sum(axis=-1) * half
        return [np.where(nr, np.take_along_axis(head, ii, axis=1),
                         np.take_along_axis(tail, ii + 1, axis=1)) + pe
                for nr, ii, pe in zip(near, i, part)], tail[:, :1]

    for start, stop, edges, head, tail in _radial_tables(g, scale, radii):
        wavenumbers = by_radius[offsets[start]:offsets[stop]]
        for b in _row_blocks(len(wavenumbers), per_block):
            p = wavenumbers[b]
            rows = inv[p] - start
            yield p, edges, partial(remainders, kn[p], head[rows], tail[rows], edges)


def _power_source(g, beta: float, kn, n_bands: int):
    """The closed form of g(u) = g(1) u^beta on u >= 0 on the edges of level
    _TABLE_MAX_LEVEL, in blocks of _TABLE_VALUES values of (u, v) at the band
    ends, long for incbeta and bounded in memory.  With a = (beta + 1) / 2 and
    r^2 = u^2 + v^2, each remainder is B(x; a, 1/2) / 2, x = u^2 / r^2, near
    the kink or B(x; 1/2, a) / 2, x = v^2 / r^2, near the crest, so x <= 1/2
    and no end passes through theta_k; H = B(1/2, a) / 2; all times g(1) |k|^beta."""
    a = 0.5 * (beta + 1.0)
    h = 0.5 * math.sqrt(math.pi) * math.gamma(a) / math.gamma(a + 0.5)
    scale = g(np.ones(1))[0] * kn ** beta

    def remainders(scale, uv, s, i, near):
        rems = []
        for u, v, nr in zip(uv[0], uv[1], near):
            x = np.square(np.where(nr, u, v) / np.fmax(np.hypot(u, v), 5e-324))  # 0 at k = 0
            rem = np.empty_like(x)
            rem[nr], rem[~nr] = incbeta(a, 0.5, x[nr]), incbeta(0.5, a, x[~nr])
            rems.append(scale[:, None] * (0.5 * rem))
        return rems, (h * scale)[:, None]

    for p in _row_blocks(len(kn), max(4, _TABLE_VALUES // (4 * n_bands))):
        yield p, _table_edges(_TABLE_MAX_LEVEL), partial(remainders, scale[p])


def _bands_2d(g, source, pts, bands):
    """int g(|k| cos(theta - theta_k)) dtheta over the arc of each 2D band,
    density excluded: a (P, len(bands)) array for the P wavenumbers pts.
    g must satisfy g(-u) = conj g(u).

    source = (kind, parameter) gives F and H: (_table_source, feature scale
    of g in k.phi) or, where g(u) = g(1) u^beta on u >= 0, (_power_source,
    beta).  Every band end goes through one end code (_band_block).  Each
    value depends on its own wavenumber only, whatever the blocks.
    """
    kind, parameter = source
    kn, theta_k = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
    arcs = (np.array([band.bounds for band in bands]).T,
            np.array([[_cos_sin_pairs(t) for t in band.bounds] for band in bands]).transpose(2, 1, 0))
    out = np.empty((len(kn), len(bands)), dtype=complex)
    for p, edges, remainders in kind(g, parameter, kn, len(bands)):
        out[p] = _band_block(g, pts[p], theta_k[p], arcs, edges, remainders)
    return out


# ---------------------------------------------------------------------------
# symbol evaluators
# ---------------------------------------------------------------------------

def _band_sum(pts, node_sets):
    """Fixed-node quadrature: one column per (g, dirs, w) node set.

    Column j of the (P, len(node_sets)) result is (g(u) * w).sum(axis=1) with
    u = pts @ dirs.T, taken over fixed blocks of at most _BLOCK_ROWS rows, so
    memory is O(block x M) rather than O(P x M).  Blocks run on up to
    ANISOLAP_THREADS workers; the boundaries depend only on P, so the sums do
    not depend on the worker count.
    """
    out = np.empty((pts.shape[0], len(node_sets)), dtype=complex)

    def block(rows):
        for j, (g, dirs, w) in enumerate(node_sets):
            out[rows, j] = (g(pts[rows] @ dirs.T) * w).sum(axis=1)

    _pool_map(block, _row_blocks(pts.shape[0], _BLOCK_ROWS))
    return out


def _adaptive_bands(pts, bands, integrand_of_u, tol):
    """Adaptive band integrals of integrand_of_u(k.phi), one integrand per
    wavenumber, with panels split where k.phi = 0.  A value that is not
    finite raises NumericalError, as on the fixed nodes."""

    def f(dirs, owner, u):
        vals = integrand_of_u(u)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("adaptive band quadrature: the symbol integrand is not "
                                 "finite (|k.phi| overflow?)")
        return vals

    out = np.zeros(pts.shape[0], dtype=complex)
    for band in bands:
        out += _integrate_band_adaptive(band, f, tol, pts)
    return out


def _paired(pts, fn):
    """fn evaluated once per pair +-k of the rows of pts.

    Each row is flipped so that its first nonzero coordinate is positive, and
    equal rows are grouped by one stable sort.  fn runs on the first occurrence
    of each group, in order of first occurrence; its values are scattered back
    and conjugated on the flipped rows, so psi(-k) == conj psi(k) exactly.
    """
    n = pts.shape[0]
    first = pts[np.arange(n), np.argmax(pts != 0.0, axis=1)]
    flip = first < 0.0
    pts = np.where(flip[:, None], -pts, pts)
    order = np.lexsort(pts.T[::-1])
    srt = pts[order]
    start = np.ones(n, dtype=bool)
    start[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    lead = np.empty(n, dtype=np.intp)  # the first occurrence of each row's group
    lead[order] = order[start][np.cumsum(start) - 1]
    is_lead = lead == np.arange(n)
    out = fn(pts[is_lead])[np.cumsum(is_lead)[lead] - 1]
    np.conjugate(out, out=out, where=flip)
    return out


def _measure_integral(measure, pts, comps, method="auto"):
    """sum over the components c of sign_c * int g_c(k.phi) m_c(dphi).

    comps holds one (sign, g, source) per component of measure, atoms first.
    Atoms are summed exactly.  A 2D band takes the band core with its
    source (_bands_2d), in one call for the bands of one (g, source).  A 3D
    band takes adaptive quadrature (method "adaptive", or "auto" on at most
    _ADAPTIVE_MAX wavenumbers) or the fixed nodes of refinement
    _NODES_REFINEMENT.  The components are added in measure order, once per
    pair +-k (_paired).
    """
    bands = list(zip(measure.bands, comps[len(measure.atoms):]))
    plane = measure.dimension == 2
    adaptive = method == "adaptive" or (method == "auto" and len(pts) <= _ADAPTIVE_MAX)
    on_nodes = [] if plane or adaptive else [
        (g, *band_nodes(band, refinement=_NODES_REFINEMENT)) for band, (_, g, _) in bands]
    groups = {}  # (g, source) -> the indices of its 2D bands
    for i, (_, (_, g, source)) in enumerate(bands if plane else ()):
        groups.setdefault((g, source), []).append(i)

    def integral(pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        for (d, w), (sign, g, _) in zip(measure.atoms, comps):
            out += sign * w * g(pts @ d)
        planar = {}
        for (g, source), idx in groups.items():
            planar.update(zip(idx, _bands_2d(g, source, pts, [bands[i][0] for i in idx]).T))
        sums = iter(_band_sum(pts, on_nodes).T if on_nodes else ())
        for i, (band, (sign, g, _)) in enumerate(bands):
            if plane:
                out += sign * band.density * planar[i]
            elif adaptive:
                out += sign * _adaptive_bands(pts, [band], g, _ADAPTIVE_TOL)
            else:
                out += sign * next(sums)
        return out

    return _paired(pts, integral)


def _stable_symbol(measure, profile, k, method="auto"):
    """The (tempered) stable symbol with the exponent and rate of profile on
    each measure component; untempered 2D bands take the closed form, and
    the components of one (beta, lam) share one integrand."""
    pts, shape = _as_rows(k, measure.dimension)
    brackets = {}
    comps = []
    for b, l in zip(profile.betas, profile.lambdas):
        g = brackets.setdefault((b, l), partial(_bracket, beta=b, lam=l))
        comps.append((_ceil_sign(b), g, (_power_source, b) if l == 0.0 else (_table_source, l)))
    return _from_rows(_measure_integral(measure, pts, comps, method), shape)


def tempered_symbol(measure: DirectionalMeasure, beta: float, lam: float, k, *,
                    method: str = "auto"):
    """Symbol of the anisotropic (tempered) stable generator.

    Returns (-1)^ceil(beta) * int ((lam - i k.phi)^beta - lam^beta) m(phi) dphi,
    the constant-profile case of general_profile_symbol.  beta must lie in
    (0,1) or (1,2) (StabilityProfile); beta near 1 has its own symbol
    (beta1_symbol) and beta = 2 its own quadratic reduction (beta2_symbol).
    2D bands take one band core (_bands_2d): F from the closed form at lam = 0,
    from the band tables otherwise.  method chooses the rule of 3D bands only
    (_measure_integral): "auto", what every other symbol takes, "nodes" or
    "adaptive"; any other value raises ValueError.  It stays because two
    callers set it: the benchmark's fixed-node reference of a real-space
    check ("nodes") and the 3D coercivity probes of analysis ("adaptive").
    """
    if method not in ("auto", "nodes", "adaptive"):
        raise ValueError(f"unknown quadrature method {method!r}")
    profile = StabilityProfile.constant(measure, beta, lam)
    return _stable_symbol(measure, profile, k, method)


def beta1_symbol(measure: DirectionalMeasure, lam: float, k):
    """Generator symbol for exponent 1 (symmetric measures only).

    lam = 0:  -(pi/2) * int |k.phi| m(phi) dphi.
    lam > 0:  -int [ u*arctan(u/lam) - (lam/2)*log1p(u^2/lam^2) ] m(phi) dphi
    with u = k.phi; the lam*log(lam) terms cancel in this arrangement, making
    psi(0) = 0 exact.  2D bands take one band core, F from the closed form
    of |u| at lam = 0 and from the band tables of scale lam otherwise.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not is_symmetric(measure):
        raise ValueError("the exponent-1 symbol is defined here only for symmetric measures")
    pts, shape = _as_rows(k, measure.dimension)

    if lam == 0.0:
        def g(u):
            return 0.5 * math.pi * np.abs(u)
    else:
        def g(u):
            u = np.asarray(u, dtype=float)
            return u * np.arctan(u / lam) - 0.5 * lam * np.log1p((u / lam) ** 2)

    source = (_power_source, 1.0) if lam == 0.0 else (_table_source, lam)
    comps = [(-1.0, g, source)] * measure.n_components
    return _from_rows(_measure_integral(measure, pts, comps), shape)


def beta2_symbol(measure: DirectionalMeasure, lam: float, k):
    """Quadratic reduction at exponent 2: (ik)^T A (ik) - 2*lam*(ik)^T b."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _as_rows(k, measure.dimension)
    mom = moments(measure)
    quad = np.einsum("pi,ij,pj->p", pts, mom.covariance, pts)
    drift = pts @ mom.mean
    return _from_rows(-quad - 2j * lam * drift, shape)


def general_profile_symbol(measure: DirectionalMeasure, profile: StabilityProfile, k):
    """Symbol with direction-dependent beta(phi), lambda(phi).

    Each atom/band carries its own (beta, lambda), as checked by
    StabilityProfile, and the sign prefactor (-1)^ceil(beta) is applied
    inside the integral per component.  Profiles
    mixing the ranges (0,1) and (1,2) are admitted but flagged with
    MixedStabilityRangeWarning since the global sign convention is ambiguous.
    The 2D bands of one (beta, lambda) share their band tables.
    """
    profile = profile.for_measure(measure)
    lo = any(b < 1.0 for b in profile.betas)
    hi = any(b > 1.0 for b in profile.betas)
    if lo and hi:
        warnings.warn(
            "profile mixes exponents below and above 1; per-component sign applied",
            MixedStabilityRangeWarning,
        )
    return _stable_symbol(measure, profile, k)


def gaussian_symbol(variant: str, k, *, sigma: Optional[float] = None,
                    measure: Optional[DirectionalMeasure] = None,
                    sigmas=None, dimension: int = 2):
    """Phi_0(k) - 1 for compound-Poisson Gaussian jump laws.

    iso:  exp(-sigma^2 |k|^2 / 2) - 1.
    axes: mean over coordinate axes of exp(-sigma^2 k_i^2 / 2), minus 1.
    aniso: normalised radial-Gaussian mixture over a 2D directional measure
           with per-component spread sigmas (Rayleigh radial law per ray),
           summed as c_m sum w (radial - s^2) with c_m = 1 / sum w s^2 rather
           than c_m sum w radial - 1, so that psi(0) = 0 exactly.  The
           bands take the band tables with feature scale 1 / s, one table
           per distinct spread; the atoms are exact.
    """
    if variant in ("iso", "axes"):
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive")
        pts, shape = _as_rows(k, dimension)
        if variant == "iso":
            vals = np.exp(-0.5 * sigma ** 2 * np.sum(pts ** 2, axis=-1)) - 1.0
        else:
            vals = np.mean(np.exp(-0.5 * sigma ** 2 * pts ** 2), axis=-1) - 1.0
        return _from_rows(vals.astype(complex), shape)
    if variant != "aniso":
        raise ValueError(f"unknown gaussian variant {variant!r}")
    if measure is None or measure.dimension != 2:
        raise ValueError("the aniso variant requires a 2D directional measure")
    sig = _component_spreads(measure, sigmas)
    pts, shape = _as_rows(k, 2)
    devs = {s: partial(_rayleigh_dev, s=s) for s in sig.tolist()}
    comps = [(1.0, devs[s], (_table_source, 1.0 / s)) for s in sig.tolist()]
    c_m = 1.0 / float(np.dot(measure.component_masses(), sig ** 2))
    return _from_rows(c_m * _measure_integral(measure, pts, comps), shape)


def _rayleigh_dev(u, s: float):
    """radial - s^2 at u = k.phi for spread s, where radial = s^2 -
    u s^3 sqrt(2) D(x) + i u s^3 sqrt(pi/2) exp(-(u s)^2 / 2), D Dawson's
    integral, is s^2 times the Rayleigh characteristic function; every term
    carries a factor u, so it vanishes exactly at k = 0."""
    x = u * s / math.sqrt(2.0)
    return (
        - u * s ** 3 * math.sqrt(2.0) * dawsn(x)
        + 1j * u * s ** 3 * math.sqrt(0.5 * math.pi) * np.exp(-0.5 * (u * s) ** 2)
    )


def isotropic_reference_symbol(beta: float, lam: float, k, n: int):
    """Nonnegative reference multiplier of the isotropic operator.

    Returns (-1)^ceil(beta) * (1/omega_n) * int (lam^beta -
    (lam^2 + (k.phi)^2)^(beta/2) cos(beta*eta)) dphi, the real part of
    _bracket, a real value >= 0 used as the denominator of the coercivity
    ratio.  For n = 1 it is f(|k|).  For n = 2 and 3 at lam = 0 it is the
    closed form |cos(beta pi/2)| |k|^beta times the sphere mean of
    |cos|^beta, one evaluation per point, since the isotropic_reference
    generator evaluates whole lattices through it.  At lam > 0 it is
    -(-1)^ceil(beta) (2/pi) Re H in 2D, H from the band tables of _bracket,
    and in 3D the mean of f(|k| s) over s in (0, 1), s measured from the
    kink of f at k.phi = 0, by 40 panels of order 12 graded toward it, in
    the row blocks of _band_sum.
    """
    _check_exponent(beta)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pts, shape = _as_rows(k, n)
    kn = np.linalg.norm(pts, axis=-1)
    sign = _ceil_sign(beta)

    def f(u):
        return -sign * _bracket(u, beta, lam).real

    if n == 1:
        out = f(kn)
    elif lam == 0.0:
        cbeta = abs(math.cos(0.5 * math.pi * beta))
        if n == 2:
            mean_cos = math.gamma(beta / 2 + 0.5) / math.gamma(beta / 2 + 1.0) / math.sqrt(math.pi)
        else:
            mean_cos = 1.0 / (beta + 1.0)
        out = cbeta * kn ** beta * mean_cos
    elif n == 2:
        radii, inv = np.unique(kn, return_inverse=True)
        h = np.empty(len(radii))
        for start, stop, _, _, tail in _radial_tables(partial(_bracket, beta=beta, lam=lam),
                                                      lam, radii):
            h[start:stop] = tail[:, 0].real
        out = (-sign * 2.0 / math.pi) * h[inv]
    else:
        s, sw = _composite_gl(np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 40)]), 12)
        out = _band_sum(kn[:, None], [(f, s[:, None], sw)])[:, 0].real
    return _from_rows(np.maximum(out, 0.0), shape)


# ---------------------------------------------------------------------------
# generator objects
# ---------------------------------------------------------------------------

# kind -> psi(sym, k); each entry looks up its evaluator at call time, so a
# rebinding of the module-level name reaches GeneratorSymbol.  Evaluators that
# integrate over a measure form the pairs +-k themselves (_paired)
_EVALUATORS = {
    "gaussian_iso": lambda s, k: gaussian_symbol(
        "iso", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_axes": lambda s, k: gaussian_symbol(
        "axes", k, sigma=s.sigma, dimension=s.dimension),
    "gaussian_aniso": lambda s, k: gaussian_symbol(
        "aniso", k, measure=s.measure, sigmas=s.sigmas),
    "stable_aniso": lambda s, k: tempered_symbol(s.measure, s.beta, 0.0, k),
    "tempered_aniso": lambda s, k: tempered_symbol(s.measure, s.beta, s.lam, k),
    "beta1_aniso": lambda s, k: beta1_symbol(s.measure, s.lam, k),
    "beta2_quadratic": lambda s, k: beta2_symbol(s.measure, s.lam or 0.0, k),
    "general_profile": lambda s, k: general_profile_symbol(s.measure, s.profile, k),
    # as a generator: the negated reference value
    "isotropic_reference": lambda s, k: -1.0 * isotropic_reference_symbol(
        s.beta, s.lam or 0.0, k, s.dimension),
}
_KINDS = tuple(_EVALUATORS)
# kind -> the (required, optional) fields its evaluator reads; __post_init__ names the shared ones
_FIELDS = {"gaussian_iso": (("sigma",), ()), "gaussian_axes": (("sigma",), ()),
           "gaussian_aniso": (("measure", "sigmas"), ()),
           "stable_aniso": (("measure", "beta"), ()),
           "tempered_aniso": (("measure", "beta", "lam"), ()),
           "beta1_aniso": (("measure", "lam"), ()), "beta2_quadratic": (("measure",), ("lam",)),
           "general_profile": (("measure", "profile"), ()),
           "isotropic_reference": (("beta",), ("lam",))}


@dataclass(frozen=True)
class GeneratorSymbol:
    """Immutable symbol evaluator psi(k) for one operator family.

    zeta scales the whole symbol (jump rate of the compound-Poisson picture,
    or a plain diffusion-coefficient rescale); evaluation is pure and safe to
    share across threads.  on_grid evaluates psi on a SpectralGrid's lattice
    and caches the result per grid on the instance.
    """

    kind: str
    dimension: int
    zeta: float = 1.0
    measure: Optional[DirectionalMeasure] = None
    profile: Optional[StabilityProfile] = None
    beta: Optional[float] = None
    lam: Optional[float] = None
    sigma: Optional[float] = None
    sigmas: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        _check_kind(self, _FIELDS, ("dimension", "zeta"))
        if not 0.0 < self.zeta < math.inf:
            raise ValueError("zeta must be finite and positive")
        if self.kind == "beta1_aniso" and not is_symmetric(self.measure):
            raise ValueError("exponent-1 symbols require a symmetric measure")
        object.__setattr__(self, "_grid_cache", {})
        object.__setattr__(self, "_grid_lock", threading.Lock())

    def evaluate(self, k):
        """psi(k) at a wavenumber or an (..., n) array of them."""
        base = _EVALUATORS[self.kind](self, k)
        arr = np.atleast_1d(np.asarray(base))
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"{self.kind} symbol is not finite (quadrature overflow?)")
        slack = 1e-10 * max(1.0, float(np.max(np.abs(arr), initial=0.0)))
        if float(np.max(arr.real, initial=0.0)) > slack:
            raise NumericalError(
                f"{self.kind} symbol violated Re psi <= 0 (quadrature failure?)")
        return self.zeta * base

    __call__ = evaluate

    def on_grid(self, grid) -> np.ndarray:
        """Read-only psi on the fftfreq lattice of grid, shaped grid.shape().

        The whole lattice goes through evaluate, so the rule of 3D bands is
        chosen on its number of points; the quadrature evaluators run once
        per pair +-k.  The last _GRID_CACHE_SIZE grids are cached.
        """
        with self._grid_lock:
            psi = self._grid_cache.get(grid)
            if psi is None:
                psi = np.asarray(self.evaluate(grid.k_points()), dtype=complex)
                psi = psi.reshape(grid.shape())
                psi.setflags(write=False)
                self._grid_cache[grid] = psi
                if len(self._grid_cache) > _GRID_CACHE_SIZE:
                    del self._grid_cache[next(iter(self._grid_cache))]
        return psi


def make_generator(kind: str, dimension: int, **params) -> GeneratorSymbol:
    return GeneratorSymbol(kind=kind, dimension=dimension, **params)


def symbol_from_json(doc: dict) -> GeneratorSymbol:
    return from_json(GeneratorSymbol, doc)
