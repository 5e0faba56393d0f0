"""The special functions of the operators, from numpy and the standard
library only, so that importing the package loads no scipy.  The README
lists each function's route and its error against mpmath."""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cache

import numpy as np

CF_MAX_ITER = 500
_CF_TOL = 4.0 * np.finfo(float).eps


class NotConverged(Exception):
    """The continued fraction ran out of iterations; args[0] is the largest
    |x| left unconverged."""


def legendre_cf(a: float, x: np.ndarray) -> np.ndarray:
    """F(x) with Gamma(a, x) = e^{-x} x^a F(x), elementwise for Re x > 0, by
    Legendre's continued fraction in the modified Lentz form.  An element
    stops updating once converged, so each value is independent of the
    others in x."""
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    h = d.copy()
    live = np.arange(x.size)
    for i in range(1, CF_MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h[live] *= delta
        going = np.abs(delta - 1.0) > _CF_TOL
        if not going.any():
            return h
        live, b, c, d = live[going], b[going], c[going], d[going]
    raise NotConverged(float(np.abs(x[live]).max()))


def lower_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma gamma(a, x) for a > 0 and x >= 0."""
    if x >= a + 1.0:
        return math.gamma(a) - upper_gamma(a, x)
    # x^a e^{-x} sum_n x^n / (a (a+1) ... (a+n)), all terms positive
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return x ** a * math.exp(-x) * total


def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) for x > 0 and any real a."""
    if x <= 0:
        raise ValueError("x must be positive")
    if x >= (a + 1.0 if a >= 1.0 else 1.0):
        # legendre_cf's steps on Python floats: numpy's cost per call would be
        # some fifty times their arithmetic, and they run once per real-space point
        b = x + 1.0 - a
        c, d = 1e300, 1.0 / b
        h = d
        for i in range(1, CF_MAX_ITER + 1):
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            h *= c * d
            if abs(c * d - 1.0) <= _CF_TOL:
                return math.exp(-x) * x ** a * h
        raise NotConverged(x)
    if a >= 1.0:
        return math.gamma(a) - lower_gamma(a, x)
    # x < 1: Gamma(a, 1) + int_x^1 t^(a-1) e^(-t) dt term by term, with
    # int_x^1 t^(c-1) dt = (1 - x^c) / c, which is -log x at c = 0
    log_x = math.log(x)
    total = upper_gamma(a, 1.0)
    inv_fact = 1.0
    for n in range(24):
        c = a + n
        if abs(c * log_x) < 0.5:
            part = -math.expm1(c * log_x) / c if c else -log_x
        else:
            part = (1.0 - x ** c) / c
        total += inv_fact * part
        inv_fact /= -(n + 1)
    return total


@cache
def zetac_table() -> np.ndarray:
    """zeta(n) - 1 for n = 2, ..., 59, read-only: the sum to k = 9 and the
    Euler-Maclaurin tail from k = 10 to B_24 in 256-bit fixed point (the
    Bernoulli numbers exact), whose first omitted term is below 1e-20 of the
    value, rounded once."""
    bern = [Fraction(1)]
    for m in range(1, 25):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    em = [bern[2 * j] / math.factorial(2 * j) for j in range(1, 13)]
    one = 1 << 256
    out = []
    for s in range(2, 60):
        total = (sum(one // k ** s for k in range(2, 10)) + one // ((s - 1) * 10 ** (s - 1))
                 + one // (2 * 10 ** s))
        rising = s  # s (s+1) ... (s+2j-2)
        for j, c in enumerate(em, 1):
            total += c.numerator * rising * one // (c.denominator * 10 ** (s + 2 * j - 1))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        out.append(total / one)
    table = np.array(out)
    table.flags.writeable = False
    return table


def incbeta(a, b, x):
    """int_0^x t^(a-1) (1 - t)^(b-1) dt for 0 <= x <= 1/2 and a, b <= 3/2,
    elementwise: x^a (1 - x)^b / a * 2F1(a + b, 1; a + 1; x), whose n-th
    term is positive and below 2 sqrt(n) 2^-n, so 1e-17 at n = 60."""
    term = np.ones_like(x)
    total = term.copy()
    for n in range(60):
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
    return x ** a * (1.0 - x) ** b / a * total


# Dawson's integral: D(x) / x on [0, 10] in 40 pieces of width 1/4, each of degree 10;
# from 10 on D(x) = (1 / 2x) sum_n (2n-1)!! (2x^2)^-n, whose 16th term is below 2e-19
_DAWSON_ASYMPTOTIC = [float(math.prod(range(1, 2 * n, 2))) for n in range(15, -1, -1)]
_dawson_lock = threading.Lock()


def _dawson_over_x(x: float) -> float:
    """D(x) / x = e^{-x^2} sum_n x^(2n) / (n! (2n+1)) for x > 0.  The sum,
    whose terms are all positive, is taken in fixed point on the exact
    binary x, each term from the one before; e^{-x^2} takes the rounding
    error of x^2 as a first-order factor."""
    num, den = x.as_integer_ratio()
    bits = 2 * (den.bit_length() - 1)
    sq = num * num  # x^2 = sq / 2^bits
    term = total = 1 << 80
    n = 0
    while term > total >> 64:
        n += 1
        term = (term * sq >> bits) // n
        total += term // (2 * n + 1)
    hi = x * x
    hn, hd = hi.as_integer_ratio()
    lo = (sq * hd - (hn << bits)) / (hd << bits)  # x^2 - hi, rounded once
    return math.exp(-hi) * (1.0 - lo) * (total / (1 << 80))


@cache
def _dawson_coefficients() -> np.ndarray:
    """(degree + 1, pieces) Horner coefficients, highest degree first: D(x) / x
    on piece j as a polynomial in 4x - j, interpolated at its Chebyshev points."""
    s = 0.5 + 0.5 * np.cos(np.pi * (np.arange(11) + 0.5) / 11)
    vander = np.vander(s)
    table = np.empty((11, 40))
    for j in range(40):
        table[:, j] = np.linalg.solve(vander, [_dawson_over_x(0.25 * (j + v)) for v in s])
    table.flags.writeable = False
    return table


def dawsn(x):
    """Dawson's integral D(x) = e^{-x^2} int_0^x e^{t^2} dt, elementwise over
    an array; D(-x) = -D(x) exactly."""
    with _dawson_lock:
        coef = _dawson_coefficients()
    ax = np.abs(x)
    t = np.fmin(ax, 9.999999999999998) * 4.0
    idx = t.astype(np.intp)
    t -= idx
    out = coef[0].take(idx)
    for c in coef[1:]:
        out *= t
        out += c.take(idx)
    out *= ax
    far = ax >= 10.0
    if far.any():
        half = 0.5 / ax[far]
        out[far] = np.polyval(_DAWSON_ASYMPTOTIC, half / ax[far]) * half
    return np.copysign(out, x)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant: the matrix is halved until its 1-norm is below theta_13 =
    5.3719, where that approximant is accurate to double precision."""
    squarings = max(0, math.frexp(np.linalg.norm(a, 1) / 5.371920351148152)[1])
    a = np.asarray(a) / 2.0 ** squarings
    # p_13(x) = sum_k b_k x^k with b_k = (26 - k)! 13! / (26! k! (13 - k)!)
    f = math.factorial
    b = [f(26 - k) * f(13) / (f(26) * f(k) * f(13 - k)) for k in range(14)]
    pw = {0: np.eye(len(a)), 2: a @ a}  # the even powers of a
    pw[4] = pw[2] @ pw[2]
    pw[6] = pw[4] @ pw[2]
    u = a @ (pw[6] @ sum(b[k + 7] * pw[k] for k in (2, 4, 6)) + sum(b[k + 1] * pw[k] for k in pw))
    v = pw[6] @ sum(b[k + 6] * pw[k] for k in (2, 4, 6)) + sum(b[k] * pw[k] for k in pw)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r
