"""Computations made apart from gammalab, used to check its outputs.

Nothing here imports gammalab.  Reference values come from mpmath at 30
digits; exact facts (the round count t, Euler's totient, the piece-by-piece
remainder, the closure branching factor) come from integer arithmetic written
here from the definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30


def _mp(z):
    if isinstance(z, complex):
        return mpmath.mpc(z.real, z.imag)
    return mpmath.mpf(z)


def _py(v):
    if isinstance(v, mpmath.mpc):
        return complex(v)
    return float(v)


def gamma(z):
    """Gamma at a float or complex point."""
    return _py(mpmath.gamma(_mp(z)))


def log_gamma(z):
    """The log-gamma continuation that is analytic on Re z > 0."""
    return _py(mpmath.loggamma(_mp(z)))


def beta(z, w):
    return _py(mpmath.beta(_mp(z), _mp(w)))


def schlomilch_finite(m: int, z: float) -> float:
    """(2**(z-1)/sqrt(pi)) Gamma((z+m+1)/2) Gamma((z-m)/2)."""
    z = mpmath.mpf(z)
    v = mpmath.power(2, z - 1) / mpmath.sqrt(mpmath.pi)
    return float(v * mpmath.gamma((z + m + 1) / 2) * mpmath.gamma((z - m) / 2))


def schlomilch_general(w: float, z: float) -> float:
    """-2**(w+z-1/2) Gamma(w) Gamma(z) sin(pi w) sin(pi z) / (sqrt(pi) cos(pi(w+z)))."""
    w = mpmath.mpf(w)
    z = mpmath.mpf(z)
    num = -mpmath.power(2, w + z - mpmath.mpf(1) / 2) * mpmath.gamma(w) * mpmath.gamma(z)
    num *= mpmath.sinpi(w) * mpmath.sinpi(z)
    return float(num / (mpmath.sqrt(mpmath.pi) * mpmath.cospi(w + z)))


def _phi_at(tag: str, s):
    """phi(-s) for the Mellin catalogue entries."""
    if tag == "one":
        return mpmath.mpf(1)
    if tag.startswith("geom:"):
        return mpmath.power(mpmath.mpf(tag.split(":", 1)[1]), -s)
    if tag == "exp":
        return 1 / mpmath.gamma(1 - s)
    if tag == "log1p":
        return 1 / (1 - s)
    raise ValueError(f"unknown phi {tag!r}")


def mellin(tag: str, s: float) -> float:
    """Ramanujan's master theorem: pi / sin(pi s) * phi(-s)."""
    s = mpmath.mpf(s)
    return float(mpmath.pi / mpmath.sinpi(s) * _phi_at(tag, s))


def rel_err(value, ref) -> float:
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# exact facts


def rounds_t(delta: Fraction) -> int:
    """Least t with (1 - delta/4)**t < delta/2, i.e. for delta = p/q the least
    t with (4q - p)**t * 2q < p * (4q)**t, in integers."""
    p, q = delta.numerator, delta.denominator
    t = 0
    lhs, rhs = 2 * q, p  # (4q-p)**t * 2q and p * (4q)**t at t = 0
    while not lhs < rhs:
        lhs *= 4 * q - p
        rhs *= 4 * q
        t += 1
    return t


def totient(m: int) -> int:
    """Euler's phi from the prime factorisation of m."""
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def enumerate_remainder(delta: Fraction):
    """(t, residual mass, piece count) by applying the interval lemma to every
    piece of every round.

    Round 0 splits (0, 1]; its high images all start at 1/2 and their union is
    the one piece (1/2, 1].  Each later round replaces a piece (a, b] by
    (a/2**i + 1/2, b/2**i + 1/2] for i = 1..m, m the least with
    b/2**m <= delta/2.  The remainder after t rounds is what is left.
    """
    t = rounds_t(delta)
    half = Fraction(1, 2)
    pieces = [(half, Fraction(1))]
    for _ in range(t - 1):
        nxt = []
        for a, b in pieces:
            m = 0
            while b > delta / 2 * 2**m:
                m += 1
            nxt.extend((a / 2**i + half, b / 2**i + half) for i in range(1, m + 1))
        pieces = nxt
    return t, sum((b - a for a, b in pieces), Fraction(0)), len(pieces)


def closure_branching(max_n: int) -> int:
    """K = 1 + the number of affine maps: x+1, x-1, 1-x, and for each
    n = 2..max_n the n maps x/n + j/n, the n maps n x - j and the 2(n-1)
    shifts x +- d/n."""
    return 1 + 3 + sum(4 * n - 2 for n in range(2, max_n + 1))


def binomial_lhs(m: int, l: int) -> int:
    return math.comb(m + l, m)
