"""The additive companion of the duplication formula and its series form.

The finite identity expresses (2**(z-1)/sqrt(pi)) * Gamma((z+m+1)/2) *
Gamma((z-m)/2) as a sum of m+1 gamma values at unit shifts; m = 0 is the
duplication formula rearranged.  Replacing the two half-arguments by free
parameters (w, z) turns the sum into an infinite series with a sin/cos
closed form.  That series is Gamma(s) * 2F1(1 - u, u; 1 - s; 1/2) with
s = w + z - 1/2 and u = w - z + 1/2, and it is summed as that Gauss series;
the rest of the proof machinery (the Euler transformation, Gauss's second
summation theorem) is exposed here as checkable operations.  An exact
binomial identity that falls out of the coefficient algebra is verified in
rational arithmetic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import count

from .core import (
    _check_finite, _gamma_factor, _residual, cospi, gamma, pole_distance, sinpi,
)
from .errors import ConvergenceError, DomainError, PoleError, _Record

_LN2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)


class SchlomilchCoefficients(_Record):
    """The even coefficients M_0, M_2, ..., M_{2m}.

    M_{2n} = (m-n+1)_{2n} / (2n)!, which collapses to the binomial
    coefficient C(m+n, 2n) — a nonnegative integer, with M_0 = 1.
    """

    __slots__ = ("m", "coefficients")

    def __init__(self, m: int, coefficients: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coefficients", coefficients)

    @classmethod
    def build(cls, m: int) -> "SchlomilchCoefficients":
        if m < 0:
            raise DomainError(f"m must be >= 0, got {m}")
        coeffs = tuple(float(math.comb(m + n, 2 * n)) for n in range(m + 1))
        return cls(m=m, coefficients=coeffs)


class SeriesResult(_Record):
    """Outcome of a truncated series evaluation; mass = sum |term| (not serialised)."""

    __slots__ = ("value", "terms_used", "last_term_magnitude", "converged", "mass")

    def __init__(self, value: complex, terms_used: int, last_term_magnitude: float,
                 converged: bool, mass: float):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "terms_used", terms_used)
        object.__setattr__(self, "last_term_magnitude", last_term_magnitude)
        object.__setattr__(self, "converged", converged)
        object.__setattr__(self, "mass", mass)

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "terms": self.terms_used,
            "last_term": self.last_term_magnitude,
            "converged": self.converged,
        }


class Hyp2F1Params(_Record):
    """Parameter triple (a, b; c) for a hypergeometric series at 1/2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: complex, b: complex, c: complex):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if pole_distance(c) <= 1e-10:
            raise DomainError(
                f"c = {c!r} is within 1e-10 of a non-positive integer"
            )


def _finite_args(m: int, z) -> complex:
    """complex(z), checked for the finite identity: m >= 0 and Re z > m."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    z = complex(z)
    if not z.real > m:
        raise DomainError(f"need Re z > m, got Re z = {z.real} with m = {m}")
    return z


def schlomilch_finite_lhs(m: int, z: complex) -> complex:
    """Closed form (2**(z-1)/sqrt(pi)) * Gamma((z+m+1)/2) * Gamma((z-m)/2)."""
    z = _finite_args(m, z)
    scale = cmath.exp((z - 1.0) * _LN2) / _SQRT_PI
    return scale * gamma(0.5 * (z + m + 1.0)) * gamma(0.5 * (z - m))


def schlomilch_finite_rhs(m: int, z: complex) -> complex:
    """The m+1-term sum: sum_n Gamma(z-n) * (m-n+1)_{2n} / (2**n n!).

    Ascending n with compensated summation; for real z > m every term is
    positive so there is nothing to cancel.
    """
    z = _finite_args(m, z)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation
    for n in range(m + 1):
        # (m-n+1)_{2n} / (2^n n!) as one correctly rounded integer quotient
        factor = math.perm(m + n, 2 * n) / (2**n * math.factorial(n))
        term = gamma(z - n) * factor
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def generalized_lhs(w: complex, z: complex) -> complex:
    """Closed form of the two-parameter series, in the product shape

        -2**(w+z-1/2) * Gamma(w) * Gamma(z) * sin(pi w) * sin(pi z)
            / (sqrt(pi) * cos(pi (w+z)))

    which agrees with 2**(w+z) Gamma(w) Gamma(z) / (sqrt(2 pi) (1 - cot(pi w)
    cot(pi z))) wherever the cot form is defined, and extends it by
    continuity (value 0) to positive-integer w or z.  Raises OverflowError
    where the value is not finite, as at w = 170, z = 0.3, where the
    product overflows before sin(pi w) = 0 can cancel it.
    """
    w, z = _generalized_args(w, z)
    num = (
        -cmath.exp((w + z - 0.5) * _LN2)
        * _gamma_factor(w)
        * _gamma_factor(z)
        * sinpi(w)
        * sinpi(z)
    )
    value = num / (_SQRT_PI * cospi(w + z))
    if not cmath.isfinite(value):
        raise OverflowError(f"the closed form at w = {w!r}, z = {z!r} leaves the floating range")
    return value


def _generalized_args(w, z):
    """(complex(w), complex(z)), finite and clear of the closed form's poles."""
    w = _check_finite(complex(w), "w")
    z = _check_finite(complex(z), "z")
    s = w + z - 0.5
    if abs(s - round(s.real)) <= 1e-8:
        raise DomainError(
            f"w+z-1/2 = {s!r} is within 1e-8 of an integer (cosine pole)"
        )
    for p, name in ((w, "w"), (z, "z")):
        if pole_distance(p) <= 1e-8:
            raise DomainError(f"{name} = {p!r} is within 1e-8 of a pole of Gamma")
    return w, z


def _partial_sums(terms, tolerance: float, max_terms: int) -> SeriesResult:
    """The stopping rule of both series over (term, settled) pairs from
    _hyp2f1_terms, where only settled terms count as small; the budget is
    checked before a term is drawn, so ahead of the terms' own checks.
    OverflowError once the partial sum is not finite."""
    if not tolerance > 0:
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    total = 0.0 + 0.0j
    mass = 0.0
    small_streak = 0
    for n, (term, settled) in zip(range(max_terms), terms):
        total += term
        if not cmath.isfinite(total):
            raise OverflowError(f"the series leaves the floating range at term {n}")
        mag = abs(term)
        mass += mag
        if settled and mag <= tolerance * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return SeriesResult(total, n + 1, mag, True, mass)
        else:
            small_streak = 0
    return SeriesResult(total, max_terms, mag, False, mass)


def _generalized_terms(w, z):
    """Terms of generalized_series: Gamma(s - n) = (-1)**n Gamma(s) / (1 - s)_n
    and (u - n)_{2n} = (-1)**n (1 - u)_n (u)_n make the n-th Gamma(s) times
    the n-th term of 2F1(1 - u, u; 1 - s; 1/2).  _generalized_args keeps s
    1e-8 from every integer, so c = 1 - s passes Hyp2F1Params' pole check."""
    w, z = _generalized_args(w, z)
    s = w + z - 0.5
    u = w - z + 0.5
    g = _gamma_factor(s)
    for term, settled in _hyp2f1_terms(Hyp2F1Params(1.0 - u, u, 1.0 - s)):
        yield g * term, settled


def generalized_series(w: complex, z: complex, tolerance: float, max_terms: int) -> SeriesResult:
    """Partial sums of sum_n Gamma(w+z-n-1/2) * (w-z-n+1/2)_{2n} / (2**n n!).

    Stops once three consecutive terms fall below tolerance * |partial sum|
    (isolated terms can be anomalously small when a Pochhammer factor nearly
    vanishes), counting only settled terms: those past n = Re(s) - 1, before
    which the terms may still grow, or past the end of a terminating series;
    reports converged=False if max_terms is reached first.  The series is
    Gamma(s) * 2F1(1 - u, u; 1 - s; 1/2) with s = w + z - 1/2 and
    u = w - z + 1/2, so its terms are the Gauss series' term recurrence
    scaled by the one gamma value Gamma(s).  Raises OverflowError once a
    partial sum is not finite.
    """
    return _partial_sums(_generalized_terms(w, z), tolerance, max_terms)


def _hyp2f1_terms(p: Hyp2F1Params):
    """(term, settled) for the n-th term of the Gauss series of p.  A term is
    settled once Re(c) + n > 0, before which a factor c + n of the term
    ratio's denominator may come near 0 and make the terms grow again, or
    past n = k when a or b is within 1e-10 of -k and the series has ended."""
    ends = [-round(x.real) for x in (p.a, p.b) if pole_distance(x) <= 1e-10]
    end = min(ends, default=math.inf)
    term = 1.0 + 0.0j
    for n in count():
        yield term, p.c.real + n > 0 or n > end
        term = term * (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0)) * 0.5


def hyp2f1_half(p: Hyp2F1Params, tolerance: float, max_terms: int) -> SeriesResult:
    """The Gauss series sum_n (a)_n (b)_n / ((c)_n n!) * (1/2)**n.

    Same three-small-terms stopping rule as the generalized series, but
    exhaustion of max_terms raises ConvergenceError here — downstream
    residual checks have no use for an unconverged value.  A partial sum
    that is not finite raises OverflowError, as in the generalized series.
    """
    result = _partial_sums(_hyp2f1_terms(p), tolerance, max_terms)
    if not result.converged:
        raise ConvergenceError(
            f"2F1 series did not converge within {max_terms} terms at {p!r}"
        )
    return result


def gauss_second_summation(a: complex, b: complex) -> complex:
    """Closed form of 2F1(a, b; (a+b+1)/2; 1/2):

        Gamma(1/2) * Gamma((a+b+1)/2) / (Gamma((a+1)/2) * Gamma((b+1)/2)).
    """
    a = complex(a)
    b = complex(b)
    args = (0.5 * (a + 1.0), 0.5 * (b + 1.0), 0.5 * (a + b + 1.0))
    for p in args:
        if pole_distance(p) <= 1e-8:
            raise PoleError(f"argument {p!r} is within 1e-8 of a pole of Gamma")
    return _SQRT_PI * _gamma_factor(args[2]) / (_gamma_factor(args[0]) * _gamma_factor(args[1]))


def euler_transform_residual(p: Hyp2F1Params) -> float:
    """Residual of 2F1(a,b;c;1/2) = (1/2)**(c-a-b) * 2F1(c-a, c-b; c; 1/2)."""
    lhs = hyp2f1_half(p, 1e-13, 1000).value
    q = Hyp2F1Params(p.c - p.a, p.c - p.b, p.c)
    rhs = cmath.exp(-(p.c - p.a - p.b) * _LN2) * hyp2f1_half(q, 1e-13, 1000).value
    return _residual(lhs, rhs)


def binomial_identity_check(m: int, l: int):
    """Exact check of C(m+l, m) = sum_n 2**-(m+n) C(m+n, m) C(2l+m-n, 2l).

    Returns (lhs, rhs, equal) with both sides as Fractions.
    """
    if m < 0 or l < 0:
        raise DomainError(f"m and l must be >= 0, got ({m}, {l})")
    lhs = Fraction(math.comb(m + l, m))
    rhs = Fraction(0)
    for n in range(m + 1):
        rhs += Fraction(
            math.comb(m + n, m) * math.comb(2 * l + m - n, 2 * l), 2 ** (m + n)
        )
    return lhs, rhs, lhs == rhs
