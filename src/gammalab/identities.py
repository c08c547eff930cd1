"""Residual checks for the classical gamma and trigonometric identities.

Each ``residual_*`` function evaluates both sides of one identity at a point
and returns their relative residual, ``core._residual``: |lhs - rhs| over
max(|lhs|, |rhs|), or over the size of the summed terms for the cosine
expansion, and 0 where both sides are exactly 0 (the sine factorization at
an integer).
``verify_grid`` drives any of them over a seeded random sample and aggregates
the result into an :class:`IdentityReport`.

One table, ``_IDENTITIES``, states each identity once under its tag: the
least parameter of the tag (None for the parameter-free ones), the gamma
arguments of the identity at z, and its residual.  The tag parser,
``verify_grid``'s pole exclusion and the 1e-6 pole check of every
``residual_*`` function read the table.

numpy is imported inside the two functions that use it, ``verify_grid``
(its seeded PCG64 stream) and ``nonvanishing_scan`` (its grid), so
importing gammalab, and every CLI subcommand but ``verify``, runs without
loading it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

from .core import _gamma_factor, _residual, pole_distance, sinpi
from .errors import DomainError, EmptyGridError, PoleError

_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi

# Minimum pole clearance demanded by the point-wise residual functions.  The
# sampling layer uses a larger radius (SampleSpec.pole_exclusion).
_MIN_CLEARANCE = 1e-6


def _clear(tag, param, z, name=None):
    """complex(z), after the tag's parameter check (the message calls the
    parameter name) and the 1e-6 pole check of its gamma arguments at z."""
    floor, args, _ = _IDENTITIES[tag]
    if name is not None and param < floor:
        raise DomainError(f"{name} must be >= {floor}, got {param}")
    z = complex(z)
    for p in args(param, z) if args else ():
        if pole_distance(p) <= _MIN_CLEARANCE:
            if tag == "reflection":
                raise DomainError(f"{z!r} is within {_MIN_CLEARANCE} of an integer")
            raise PoleError(f"argument {p!r} is within {_MIN_CLEARANCE} of a pole")
    return z


def residual_functional(z: complex) -> float:
    """Residual of the functional relation Gamma(z+1) = z*Gamma(z).

    Normalized by |Gamma(z+1)|, which never vanishes.
    """
    z = _clear("functional", None, z)
    lhs = _gamma_factor(z + 1.0)
    rhs = z * _gamma_factor(z)
    return _residual(lhs, rhs, abs(lhs))


def residual_reflection(z: complex) -> float:
    """Residual of Gamma(z)*Gamma(1-z) = pi / sin(pi*z).

    Raises DomainError within 1e-6 of any integer, where both sides blow up.
    """
    z = _clear("reflection", None, z)
    lhs = _gamma_factor(z) * _gamma_factor(1.0 - z)
    rhs = math.pi / sinpi(z)
    return _residual(lhs, rhs)


def residual_duplication(z: complex) -> float:
    """Residual of sqrt(pi)*Gamma(z) = 2**(z-1) * Gamma(z/2) * Gamma(z/2 + 1/2)."""
    z = _clear("duplication", None, z)
    lhs = _SQRT_PI * _gamma_factor(z)
    rhs = (
        cmath.exp((z - 1.0) * math.log(2.0))
        * _gamma_factor(0.5 * z)
        * _gamma_factor(0.5 * z + 0.5)
    )
    return _residual(lhs, rhs)


def residual_multiplication(n: int, z: complex) -> float:
    """Residual of the order-n multiplication formula.

    (2*pi)**((n-1)/2) * n**(1/2 - z) * Gamma(z) = prod_{j=0}^{n-1} Gamma(z/n + j/n).
    The n = 2 case coincides with the duplication identity.
    """
    z = _clear("mult", n, z, "multiplication order")
    lhs = _TWO_PI ** (0.5 * (n - 1)) * cmath.exp((0.5 - z) * math.log(n)) * _gamma_factor(z)
    rhs = 1.0 + 0.0j
    for j in range(n):
        rhs *= _gamma_factor((z + j) / n)
    return _residual(lhs, rhs)


def residual_sine_factorization(k: int, z: complex) -> float:
    """Residual of sin(pi*z) = 2**(k-1) * prod_{j=0}^{k-1} sin(pi*(z+j)/k).

    At an integer z both sides are exactly 0 (sinpi is exact there), and so
    is the residual.
    """
    z = _clear("sine", k, z, "factorization order")
    lhs = sinpi(z)
    rhs = 2.0 ** (k - 1)
    for j in range(k):
        rhs *= sinpi((z + j) / k)
    return _residual(lhs, rhs)


def _comb_args(_, z):
    alpha = z.real
    if not 0.0 < alpha < 0.25:
        raise DomainError(f"alpha must lie in (0, 1/4), got {alpha}")
    return 4.0 * alpha, 0.25 - alpha, 2.0 * alpha, alpha + 0.25


def residual_comb(alpha: float) -> float:
    """Residual of the quarter-step relation

        Gamma(4a) * Gamma(1/4 - a)
            = 2**(6a - 3/2) * Gamma(2a) * Gamma(a + 1/4) / sin(pi*(a + 3/4))

    for real a in the open interval (0, 1/4).
    """
    alpha = float(alpha)
    _clear("comb", None, alpha)
    lhs = _gamma_factor(4.0 * alpha) * _gamma_factor(0.25 - alpha)
    rhs = (
        2.0 ** (6.0 * alpha - 1.5)
        * _gamma_factor(2.0 * alpha)
        * _gamma_factor(alpha + 0.25)
        / sinpi(alpha + 0.75)
    )
    return _residual(lhs, rhs)


def residual_cosine_identity(m: int, u: complex) -> float:
    """Residual of the odd-order cosine expansion, k = 2m + 1:

        cos(k*u) = cos(u) * sum_{n=0}^{m} (-1)^n / (2n)! * sin(u)**(2n)
                                         * prod_{j=1}^{n} (k**2 - (2j-1)**2)

    Scaled by max(|cos(k*u)|, |cos(u)| * sum_n |term_n|), the size of what
    was summed, which bounds the sum's rounding (Higham, ASNA, sec. 4.2).
    """
    u = _clear("cosine", m, u, "m")
    k = 2 * m + 1
    lhs = cmath.cos(k * u)
    s = cmath.sin(u)
    s2 = s * s
    acc = 0.0 + 0.0j
    mass = 0.0
    term = 1.0 + 0.0j  # (-1)^n/(2n)! * sin^{2n} * prod, built incrementally
    for n in range(m + 1):
        if n > 0:
            j = 2 * n - 1
            term *= -s2 * (k * k - j * j) / ((2 * n) * (2 * n - 1))
        acc += term
        mass += abs(term)
    c = cmath.cos(u)
    return _residual(lhs, c * acc, max(abs(lhs), abs(c) * mass))


# tag -> (floor, args, residual): the least parameter of the tag (None: it
# takes none); args(param, z), the gamma arguments at z (None: the identity
# is entire); the residual at a complex z, parameter first where there is one
_IDENTITIES = {
    "functional": (None, lambda _, z: (z, z + 1.0), residual_functional),
    # Gamma(z) Gamma(1 - z) has a pole at every integer: the pole distance of
    # z - round(Re z), an exact difference, is z's distance to the nearest one
    "reflection": (None, lambda _, z: (z - round(z.real),), residual_reflection),
    "duplication": (None, lambda _, z: (z, 0.5 * z, 0.5 * z + 0.5), residual_duplication),
    "comb": (None, _comb_args, lambda z: residual_comb(z.real)),
    "mult": (1, lambda n, z: (z, *[(z + j) / n for j in range(n)]), residual_multiplication),
    "sine": (1, None, residual_sine_factorization),
    "cosine": (0, None, residual_cosine_identity),
}


def nonvanishing_scan(re_range, im_range, step):
    """Scan |Gamma| over a rectangular grid and return (min_modulus, argmin).

    Grid points closer than 0.05 to a pole are skipped.  Raises EmptyGridError
    when the grid is empty or every point was skipped.
    """
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step}")
    re_lo, re_hi = float(re_range[0]), float(re_range[1])
    im_lo, im_hi = float(im_range[0]), float(im_range[1])
    if re_hi < re_lo or im_hi < im_lo:
        raise DomainError("ranges must be ordered (lo, hi)")
    import numpy as np

    res = np.arange(re_lo, re_hi + 0.5 * step, step)
    ims = np.arange(im_lo, im_hi + 0.5 * step, step)
    best = math.inf
    argmin = None
    for y in ims:
        for x in res:
            z = complex(x, y)
            if pole_distance(z) < 0.05:
                continue
            mod = abs(_gamma_factor(z))
            if mod < best:
                best = mod
                argmin = z
    if argmin is None:
        raise EmptyGridError("no grid point clears the pole-exclusion radius")
    return best, argmin


@dataclass(frozen=True)
class SampleSpec:
    """Sampling region and reproducibility knobs for verify_grid."""

    count: int
    re_range: tuple = (-4.0, 4.0)
    im_range: tuple = (-4.0, 4.0)
    pole_exclusion: float = 0.1
    seed: int = 20260825

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"sample count must be >= 1, got {self.count}")
        if not self.re_range[0] <= self.re_range[1]:
            raise DomainError("re_range must be ordered")
        if not self.im_range[0] <= self.im_range[1]:
            raise DomainError("im_range must be ordered")
        if self.pole_exclusion < 0:
            raise DomainError("pole_exclusion must be >= 0")


@dataclass(frozen=True)
class IdentityReport:
    """Aggregated residual statistics for one identity over one sample."""

    identity_id: str
    seed: int
    sample_count: int
    skipped_count: int
    max_relative_residual: float
    mean_relative_residual: float
    worst_point: complex
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity_id,
            "seed": self.seed,
            "samples": self.sample_count,
            "skipped": self.skipped_count,
            "max_rel_residual": self.max_relative_residual,
            "mean_rel_residual": self.mean_relative_residual,
            "worst_point": [self.worst_point.real, self.worst_point.imag],
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def parse_identity_tag(tag: str):
    """Split an identity tag into (kind, parameter).

    Accepted tags: functional, reflection, duplication, comb, mult:N, sine:K,
    cosine:M.  The parameter is None for the parameter-free identities.
    """
    base, sep, arg = tag.partition(":")
    if base not in _IDENTITIES:
        raise DomainError(f"unknown identity tag {tag!r}")
    floor, _, _ = _IDENTITIES[base]
    if floor is None:
        if sep:
            raise DomainError(f"identity {base!r} takes no parameter")
        return base, None
    if not sep:
        raise DomainError(f"identity {base!r} needs a parameter, e.g. {base}:3")
    try:
        n = int(arg)
    except ValueError:
        raise DomainError(f"bad integer parameter {arg!r} in tag {tag!r}") from None
    if n < floor:
        raise DomainError(f"parameter of {base!r} must be >= {floor}, got {n}")
    return base, n


def verify_grid(identity_id: str, sample_spec: SampleSpec, tolerance: float) -> IdentityReport:
    """Check one identity over a seeded uniform sample of its region.

    Draws sample_spec.count points from the rectangle re_range x im_range.
    Points where a gamma argument of the identity lies within the
    pole-exclusion radius of a pole, or whose evaluation raises a
    domain/pole/overflow error, are counted as skipped rather than failing
    the run.  The report is deterministic for a fixed spec (same seed, same
    bytes).
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    kind, param = parse_identity_tag(identity_id)
    _, args, residual = _IDENTITIES[kind]
    if param is not None:
        residual = partial(residual, param)
    radius = sample_spec.pole_exclusion
    import numpy as np

    rng = np.random.default_rng(sample_spec.seed)
    res = rng.uniform(sample_spec.re_range[0], sample_spec.re_range[1], sample_spec.count)
    ims = rng.uniform(sample_spec.im_range[0], sample_spec.im_range[1], sample_spec.count)
    if kind == "comb":
        ims = np.zeros_like(ims)  # the quarter-step relation is real-only

    worst = 0.0
    worst_point = None
    total = 0.0
    used = 0
    skipped = 0
    for x, y in zip(res, ims):
        z = complex(x, y)
        try:
            if args and min(map(pole_distance, args(param, z))) <= radius:
                r = None
            else:
                r = residual(z)
        except (DomainError, PoleError, OverflowError):
            r = None
        if r is None:
            skipped += 1
            continue
        used += 1
        total += r
        if worst_point is None or r > worst:
            worst = r
            worst_point = z
    if used == 0:
        raise EmptyGridError(
            f"all {sample_spec.count} sampled points for {identity_id!r} were skipped"
        )
    return IdentityReport(
        identity_id=identity_id,
        seed=sample_spec.seed,
        sample_count=used,
        skipped_count=skipped,
        max_relative_residual=worst,
        mean_relative_residual=total / used,
        worst_point=worst_point,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
