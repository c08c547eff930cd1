"""Double-exponential (tanh-sinh) quadrature and the integral oracles.

The engine is deliberately self-contained: a tanh-sinh node ladder on a finite
interval, plus one window-and-integrate recipe, `integrate_real_line`, which
grows a truncation window on the whole line until the endpoint integrand
magnitude falls below the tolerance times a coarse value.  One Mellin integral,
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


def _de_node(t, a, b, half):
    """Abscissa and weight of the tanh-sinh map on (a, b), a = mid - half.

    The abscissa is assembled from the nearer endpoint so that points
    double-exponentially close to a or b keep full relative accuracy
    (1 +- tanh(u) is evaluated as 2/(1+exp(-+2u)), not by cancellation).
    """
    u = 0.5 * math.pi * math.sinh(t)  # |t| <= _T_CUT keeps |u| < 317: no overflow
    ch = math.cosh(u)
    if u >= 0.0:
        x = b - half * 2.0 / (1.0 + math.exp(2.0 * u))
    else:
        x = a + half * 2.0 / (1.0 + math.exp(-2.0 * u))
    w = half * 0.5 * math.pi * math.cosh(t) / (ch * ch)
    return x, w


def _level_sum(f, a, b, half, h, only_odd):
    total = 0.0
    j = 1 if only_odd else 0
    step = 2 if only_odd else 1
    while j * h <= _T_CUT:
        for t in (j * h, -j * h) if j else (0.0,):
            x, w = _de_node(t, a, b, half)
            if w == 0.0:
                continue
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
        j += step
    return total


def tanh_sinh(f, a, b, *, rtol=1e-10, max_levels=12):
    """Integrate f over (a, b) with the double-exponential transformation.

    Returns (value, error_estimate) with |error_estimate| <= rtol*|value| on
    success; raises ConvergenceError when the level budget runs out, and
    OverflowError when a level's value leaves the floating range (its error
    estimate would be inf, which no tolerance can judge).
    Endpoint singularities of integrable type are fine - the nodes never touch
    a or b and the weights decay double-exponentially.
    """
    # an infinite end, or a width b - a that overflows, is no interval
    if not (a < b and math.isfinite(b - a)):
        raise DomainError(f"bad interval ({a!r}, {b!r})")
    half = 0.5 * (b - a)
    h = _BASE_H
    value = h * _level_sum(f, a, b, half, h, only_odd=False)
    prev = None
    for _ in range(max_levels):
        h *= 0.5
        value = 0.5 * value + h * _level_sum(f, a, b, half, h, only_odd=True)
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
    the Mellin integral of e^{-x}, log psi(e^u) = -e^u."""
    zc = _check_finite(z, "z")
    if zc.real <= 0:
        raise DomainError("gamma_integral requires Re z > 0")
    s = zc if isinstance(z, complex) else zc.real
    return _mellin_integral(_minus_exp, s, spec.relative_tolerance)


def _softplus(u):
    """log(1 + e^u), written from the dominant side."""
    if u > 0.0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def _minus_exp(u):
    """-e^u: log psi(e^u) for psi(x) = e^{-x}."""
    return -math.exp(u)


def _mellin_integral(log_psi, s, rtol):
    """integral_0^inf x^{s-1} psi(x) dx = integral exp(s u + log_psi(u)) du.

    log_psi(u) = log psi(e^u), stable for all u.  A float s integrates in
    floats, a complex s in complex numbers, and the value has s's type.
    """
    exp = cmath.exp if isinstance(s, complex) else math.exp
    value, _ = integrate_real_line(lambda u: exp(s * u + log_psi(u)), rtol=rtol)
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
    """Truncation window on the u-line for an already-substituted integrand."""
    u1 = u2 = 8.0
    try:
        coarse, _ = tanh_sinh(g, -u1, u2, rtol=1e-3, max_levels=8)
    except ConvergenceError:
        coarse = 0.0
    threshold = rtol * max(abs(coarse), 1e-300) * 1e-2
    while abs(g(-u1)) > threshold:
        u1 *= 1.4
        if u1 > _U_CAP:
            raise ConvergenceError("integrand tail near 0 does not decay below tolerance")
    while abs(g(u2)) > threshold:
        u2 *= 1.4
        if u2 > _U_CAP:
            raise ConvergenceError("integrand tail at infinity does not decay below tolerance")
    return -u1, u2
