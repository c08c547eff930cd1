"""Double-exponential (tanh-sinh) quadrature and the integral oracles.

The engine is deliberately self-contained: a tanh-sinh node ladder on a finite
interval, each level built once per process and reused by every integral, plus
one window-and-integrate recipe, `integrate_real_line`, which grows a
truncation window on the whole line until the endpoint integrand magnitude
falls below the tolerance times a coarse value.  One Mellin integral,
integral_0^inf x^(s-1) psi(x) dx = integral exp(s u + log psi(e^u)) du after
x = e^u, goes through it; the gamma and beta oracles and the master-theorem
transform of `mellin` are that integral, each psi stated as log psi(e^u).
"""

import cmath
import math
from dataclasses import dataclass

from .core import _check_finite
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "tanh_sinh",
    "integrate_real_line",
    "beta_integral",
    "gamma_integral",
]

_T_CUT = 6.0          # |t| beyond this the DE weight underflows double precision
_BASE_H = 0.5
_TINY_WEIGHT = 1e-280
_U_CAP = 4000.0       # integrate_real_line gives up on a tail past |u| = _U_CAP


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance of the gamma and beta integral oracles."""

    relative_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.relative_tolerance > 0:
            raise DomainError("relative_tolerance must be > 0")


_LADDER = {}          # level k -> its node triples, built on first use
_KEPT_LEVELS = 12     # levels 0.._KEPT_LEVELS stay: all that max_levels=12 reaches


def _ladder(k):
    """Level k's nodes, h = _BASE_H / 2**k, as triples (1 + exp(2u), cosh t,
    cosh(u)**2), u = (pi/2) sinh t, for t = j h <= _T_CUT in the order of j
    (j = 0, 1, 2, ... at level 0, odd j above); t and -t share a triple.

    They depend on k alone: levels up to _KEPT_LEVELS are built once and
    kept, a deeper one is generated as it is read, so no max_levels makes
    the process hold more.
    """
    nodes = _LADDER.get(k)
    if nodes is None:
        nodes = _triples(k)
        if k <= _KEPT_LEVELS:
            nodes = _LADDER[k] = tuple(nodes)
    return nodes


def _triples(k):
    h = _BASE_H / 2**k
    j, step = (0, 1) if k == 0 else (1, 2)
    while j * h <= _T_CUT:
        u = 0.5 * math.pi * math.sinh(j * h)  # |t| <= _T_CUT keeps |u| < 317: no overflow
        ch = math.cosh(u)
        yield 1.0 + math.exp(2.0 * u), math.cosh(j * h), ch * ch
        j += step


def _level_sum(f, a, b, half, k):
    """Sum of w f(x) over level k's nodes on (a, b), a = mid - half, in the
    order t = 0 (level 0 only), h, -h, 2h, -2h, ...  Each x is assembled from
    the nearer endpoint, b - d at +t and a + d at -t, d = 2 half / (1 +
    exp(2|u|)), so points double-exponentially close to a or b keep full
    relative accuracy."""
    total = 0.0
    # d and w are multiplied out left to right, as half * 2.0 / den and
    # half * 0.5 * pi * cosh t / cosh(u)**2 would be
    width, w_scale = half * 2.0, half * 0.5 * math.pi
    for den, cosh_t, cosh2_u in _ladder(k):
        d = width / den
        w = w_scale * cosh_t / cosh2_u
        if w == 0.0:
            continue
        # t = 0, level 0's first node and its only one with cosh t = 1, is its own mirror
        for x in (b - d, a + d) if k or cosh_t > 1.0 else (b - d,):
            if not (a < x < b):
                continue
            val = f(x)
            if not cmath.isfinite(val):
                if w < _TINY_WEIGHT:
                    continue
                raise ConvergenceError(
                    f"integrand not finite at x={x!r} with non-negligible weight"
                )
            total += w * val
    return total


def tanh_sinh(f, a, b, *, rtol=1e-10, max_levels=12):
    """Integrate f over (a, b) with the double-exponential transformation.

    Returns (value, error_estimate) with |error_estimate| <= rtol*|value| on
    success; raises ConvergenceError when the level budget runs out,
    OverflowError when a level's value leaves the floating range (its error
    estimate would be inf, which no tolerance can judge), and DomainError
    on an interval that is empty, infinite, too wide for a float width, or
    holds no float strictly inside it.
    Endpoint singularities of integrable type are fine - the nodes never touch
    a or b and the weights decay double-exponentially.
    Levels 0 to 12, all that the default max_levels reaches, are kept once
    built: 49,153 node triples, about 7.1 MB (6.75 MiB) when all are read.  A
    deeper level is built as it is summed and not kept.
    """
    # an infinite end, or a width b - a that overflows, is no interval
    if not (a < b and math.isfinite(b - a)):
        raise DomainError(f"bad interval ({a!r}, {b!r})")
    # every node lies strictly inside (a, b): with no float there, each is
    # skipped and the sum would read 0
    if math.nextafter(a, b) >= b:
        raise DomainError(f"no float lies strictly inside ({a!r}, {b!r})")
    half = 0.5 * (b - a)
    h = _BASE_H
    value = h * _level_sum(f, a, b, half, 0)
    prev = None
    for k in range(1, max_levels + 1):
        h *= 0.5
        value = 0.5 * value + h * _level_sum(f, a, b, half, k)
        if not cmath.isfinite(value):
            raise OverflowError(f"tanh-sinh sum on ({a!r}, {b!r}) left the floating range")
        if prev is not None:
            err = abs(value - prev)
            scale = max(abs(value), 1e-300)
            if err <= rtol * scale:
                return value, err
        prev = value
    raise ConvergenceError(
        f"tanh-sinh failed to reach rtol={rtol} within {max_levels} levels"
    )


def beta_integral(z, w, spec):
    """Beta function via its half-line integral representation.

    The Mellin integral of x^{z-1} (1+x)^{-z-w} over (0, inf): log psi(e^u)
    = -(z+w) log(1+e^u).  Requires Re z > 0 and Re w > 0.
    """
    zc = _check_finite(z, "z")
    wc = _check_finite(w, "w")
    if zc.real <= 0 or wc.real <= 0:
        raise DomainError("beta_integral requires Re z > 0 and Re w > 0")
    if not (isinstance(z, complex) or isinstance(w, complex)):
        zc, wc = zc.real, wc.real
    c = -(zc + wc)
    return _mellin_integral(lambda u: c * _softplus(u), zc, spec.relative_tolerance)


def gamma_integral(z, spec):
    """The defining gamma integral, evaluated numerically (oracle for gamma):
    the Mellin integral of e^{-x}, log psi(e^u) = -e^u.

    The integrand's modulus exp(sigma u - e^u), sigma = Re z, peaks at
    u = log sigma with exponent p = sigma log sigma - sigma; the integral is
    taken with that peak divided out and multiplied back at the end, so no
    level sum leaves the floating range before Gamma itself does.  It reaches
    Gamma's own overflow point (real z about 171.62); beyond it, OverflowError.
    Near 0 the integrand's left tail decays only like e^(sigma u), and the
    window stops at |u| = 4000: at the default tolerance 1e-10, Re z down to
    about 0.0065 is reached, and below it ConvergenceError is raised.
    """
    zc = _check_finite(z, "z")
    if zc.real <= 0:
        raise DomainError("gamma_integral requires Re z > 0")
    s = zc if isinstance(z, complex) else zc.real
    sigma = zc.real
    p = sigma * math.log(sigma) - sigma
    value = math.inf
    # e^p overflows from sigma about 171.3, so it goes back in halves; e^(p/2)
    # overflows from p = 1419.6 (sigma about 301), where Gamma(sigma) long has
    if p < 1419.0:
        half = math.exp(0.5 * p)
        value = _mellin_integral(_minus_exp, s, spec.relative_tolerance, p) * half * half
    if not cmath.isfinite(value):
        raise OverflowError(f"gamma_integral({z!r}) leaves the floating range")
    return value


def _softplus(u):
    """log(1 + e^u), written from the dominant side."""
    if u > 0.0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def _minus_exp(u):
    """-e^u: log psi(e^u) for psi(x) = e^{-x}."""
    return -math.exp(u)


def _mellin_integral(log_psi, s, rtol, p=0.0):
    """integral_0^inf x^{s-1} psi(x) dx / e^p = integral exp(s u + log_psi(u) - p) du.

    log_psi(u) = log psi(e^u), stable for all u.  A float s integrates in
    floats, a complex s in complex numbers, and the value has s's type.  The
    shift p lets a caller divide out an integrand too large for floats; at
    p = 0.0 every exponent is unchanged (x - 0.0 == x).
    """
    exp = cmath.exp if isinstance(s, complex) else math.exp
    value, _ = integrate_real_line(lambda u: exp(s * u + log_psi(u) - p), rtol=rtol)
    return value


def integrate_real_line(g, *, rtol=1e-10):
    """Integrate g over the whole real line with adaptive truncation.

    Meant for already-substituted integrands (x = e^u and the like) whose
    tails decay exponentially; the window [-U1, U2] grows until |g| at both
    ends drops below tolerance, then tanh-sinh runs on it.  Returns
    (value, error_estimate); ConvergenceError when a tail never decays
    within |u| <= 4000.
    """
    lo, hi = _window(g, rtol)
    return tanh_sinh(g, lo, hi, rtol=rtol)


def _window(g, rtol):
    """Truncation window on the u-line for an already-substituted integrand:
    each end grows by 1.4 until |g| there is below tolerance, its last step
    clamped to the cap |u| = _U_CAP, which is probed too."""
    u1 = u2 = 8.0
    try:
        coarse, _ = tanh_sinh(g, -u1, u2, rtol=1e-3, max_levels=8)
    except ConvergenceError:
        coarse = 0.0
    threshold = rtol * max(abs(coarse), 1e-300) * 1e-2
    while abs(g(-u1)) > threshold:
        if u1 == _U_CAP:
            raise ConvergenceError("integrand tail near 0 does not decay below tolerance")
        u1 = min(u1 * 1.4, _U_CAP)
    while abs(g(u2)) > threshold:
        if u2 == _U_CAP:
            raise ConvergenceError("integrand tail at infinity does not decay below tolerance")
        u2 = min(u2 * 1.4, _U_CAP)
    return -u1, u2
