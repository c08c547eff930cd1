"""Residual checks for the classical gamma and trigonometric identities.

One table, ``_IDENTITIES``, is the one statement of every identity in
gammalab.  A gamma row (functional, reflection, duplication, comb, mult:n)
states its gamma arguments once, as affine slots p z + q with Fraction p
and q, and its forms as (node slot, combine) pairs.  Everything else reads
the slots: each gamma ``residual_*`` function replays the form at its row's
first slot, the 1e-6 pole check of those functions and ``verify_grid``'s
pole exclusion test the slots, ``landau``'s trace rules are the forms of
four rows, and ``closure``'s generating maps the slot-to-slot maps of
three.  sine:k and cosine:m have no slots and keep their own residuals.
``verify_grid`` drives any residual over a seeded random sample and
aggregates the result into an :class:`IdentityReport`.

A gamma row's residual is a function of z built once per row and pole
clearance (``_row_residual``): the slot plan, the window and the clearance
are looked up when it is built, not at each draw.  It skips the pole test
of a slot v with Re v > clearance.  That is exact: every pole k is <= 0,
so |v - k| >= Re v - k >= Re v, and the float distance keeps the bound
(Re v - k rounds to at least Re v, and |.| to at least its real part).
The public residual functions refuse a non-finite argument with
DomainError; ``verify_grid``'s draws are finite and skip that check.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache, partial

from .core import _check_finite, _gamma_factor, _residual, pole_distance, sinpi
from .errors import DomainError, EmptyGridError, PoleError, _Record

_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

# Minimum pole clearance demanded by the point-wise residual functions.  The
# sampling layer skips every draw within the larger _POLE_EXCLUSION of a pole.
_MIN_CLEARANCE = 1e-6
_POLE_EXCLUSION = 0.1


def _slots(*pairs):
    """Slots from (p, q) pairs of ints or Fractions, each standing for p z + q."""
    return tuple((Fraction(p), Fraction(q)) for p, q in pairs)


def _node_maps(slots, node):
    """The maps (P, Q), x -> P x + Q, from slot `node` to each other slot."""
    p0, q0 = slots[node]
    return [(p / p0, q - p / p0 * q0) for j, (p, q) in enumerate(slots) if j != node]


def _term(c, var):
    return var if c == 1 else f"-{var}" if c == -1 else f"{c} * {var}"


def _compile(maps, const=Fraction):
    """(children, ratios) of maps (P, Q), each one straight-line expression.

    children(a) gives P a + Q for each map as the plain formula of its
    shape: a + Q or a - |Q| for P = 1, Q - a for P = -1 and an integer Q,
    else (P S a + Q S) / S over the least common denominator S of P and Q,
    trivial parts left out.  The shape matters on a complex a, where mixed
    int and complex arithmetic sets the sign of a zero imaginary part: P a
    + Q would flip some.  A Q of P = 1 that is not an integer enters as
    const(Q): as a Fraction, a Fraction a gives Fractions; as a float, which
    gives the same float and complex values, a float or complex a takes no
    Fraction arithmetic.  ratios(n, d) gives the values at a = n/d, d > 0,
    as integer pairs (P S n + Q S d, S d).
    """
    consts = {}

    def lit(c):
        if c.denominator == 1:
            return str(c.numerator)
        name = f"_c{len(consts)}"
        consts[name] = const(c)
        return name

    children = ratios = ""
    for p, q in maps:
        s = math.lcm(p.denominator, q.denominator)
        if p == -1 and q.denominator == 1 and q:
            child = f"{q} - a"
        elif p == 1 and q:
            child = f"a + {lit(q)}" if q > 0 else f"a - {lit(-q)}"
        else:
            child = _term(p * s, "a")
            if q:
                child = f"({child} + {q * s})" if q > 0 else f"({child} - {-q * s})"
            if s != 1:
                child = f"{child} / {s}"
        num = " + ".join(_term(c, v) for c, v in ((p * s, "n"), (q * s, "d")) if c)
        children += f"{child}, "
        ratios += f"({num or 0}, {_term(s, 'd')}), "
    return eval(f"lambda a: ({children})", consts), eval(f"lambda n, d: ({ratios})")


def _pow2(x):
    """2**x for a float or complex exponent."""
    if isinstance(x, complex):
        return cmath.exp(x * _LN2)
    return 2.0**x


def _comb_value(a, g4, gq, g2):
    alpha = a - 0.25
    return g4 * gq * sinpi(alpha + 0.75) / (2.0 ** (6 * alpha - 1.5) * g2)


def _multiply(a, *g):
    n = len(g)
    return math.prod(g) / (_TWO_PI ** (0.5 * (n - 1)) * cmath.exp((0.5 - a) * math.log(n)))


def _floor_check(kind, param, name):
    floor = _IDENTITIES[kind].floor
    if param < floor:
        raise DomainError(f"{name} must be >= {floor}, got {param}")


def _slots_of(kind, param):
    """The slots of a gamma row, at the parameter of a family (mult:n)."""
    slots = _IDENTITIES[kind].slots
    return slots(param) if callable(slots) else slots


@lru_cache(maxsize=64)
def _plan(kind, param):
    """(slot values at z, combine of the form at the first slot) of a gamma row."""
    return _compile(_slots_of(kind, param), float)[0], dict(_IDENTITIES[kind].forms)[0]


@lru_cache(maxsize=64)
def _row_residual(kind, param, clearance):
    """The residual of a gamma row at z, built once per row and clearance:
    Gamma at the first slot against the combine of Gamma at the others, at a
    complex z, or a real z on a real-only row's window.

    Raises DomainError off the window or at a complex z on a real-only row,
    PoleError where a slot lies within `clearance` of a pole (DomainError
    for the reflection, whose slots meet a pole at every integer), and
    OverflowError where a factor or the combine leaves the floating range.
    """
    at, combine = _plan(kind, param)
    window = _IDENTITIES[kind].window

    def residual(z):
        if window:
            if isinstance(z, complex):
                raise DomainError(f"{kind} is stated for real arguments, got {z!r}")
            z = float(z)
            if not window[0] < z < window[1]:
                raise DomainError(f"{kind} is stated on ({window[0]}, {window[1]}), got {z}")
        a, *others = values = at(z)
        for v in values:
            # every pole k is <= 0 and |v - k| >= Re v: a slot right of the
            # clearance clears them all
            if v.real <= clearance and pole_distance(v) <= clearance:
                if kind == "reflection":
                    raise DomainError(f"{z!r} is within {clearance} of an integer")
                raise PoleError(f"argument {v!r} is within {clearance} of a pole")
        lhs = _gamma_factor(a)
        rhs = combine(a, *[_gamma_factor(c) for c in others])
        if not cmath.isfinite(rhs):
            raise OverflowError(f"the {kind} combine at {z!r} leaves the floating range")
        return _residual(lhs, rhs)

    return residual


def _pointwise(kind, param, z, name="z"):
    """A gamma row's residual at a caller's z, refused unless finite (a
    complex z off a real-only row), at the 1e-6 pole clearance."""
    zc = _check_finite(z, name)
    return _row_residual(kind, param, _MIN_CLEARANCE)(z if _IDENTITIES[kind].window else zc)


def residual_functional(z: complex) -> float:
    """Residual of the functional relation Gamma(z+1) = z*Gamma(z), read up
    from z: Gamma(z) against Gamma(z + 1) / z.

    Raises DomainError at a non-finite z, PoleError within 1e-6 of a pole.
    """
    return _pointwise("functional", None, z)


def residual_reflection(z: complex) -> float:
    """Residual of Gamma(z)*Gamma(1-z) = pi / sin(pi*z): Gamma(z) against
    pi / (sin(pi z) Gamma(1 - z)).

    Raises DomainError at a non-finite z and within 1e-6 of any integer,
    where both sides blow up.
    """
    return _pointwise("reflection", None, z)


def residual_duplication(z: complex) -> float:
    """Residual of sqrt(pi)*Gamma(z) = 2**(z-1) * Gamma(z/2) * Gamma(z/2 + 1/2):
    Gamma(z) against the right-hand side over sqrt(pi).

    Raises DomainError at a non-finite z, PoleError within 1e-6 of a pole.
    """
    return _pointwise("duplication", None, z)


def residual_multiplication(n: int, z: complex) -> float:
    """Residual of the order-n multiplication formula.

    (2*pi)**((n-1)/2) * n**(1/2 - z) * Gamma(z) = prod_{j=0}^{n-1} Gamma(z/n + j/n),
    Gamma(z) against the product over the factor on the left.  The n = 2
    case is the duplication identity.  Raises DomainError for n < 1 or a
    non-finite z, PoleError where a slot is within 1e-6 of a pole.
    """
    _floor_check("mult", n, "multiplication order")
    return _pointwise("mult", n, z)


def _sine_residual(k, z):
    lhs = sinpi(z)
    rhs = 2.0 ** (k - 1)
    for j in range(k):
        rhs *= sinpi((z + j) / k)
    return _residual(lhs, rhs)


def residual_sine_factorization(k: int, z: complex) -> float:
    """Residual of sin(pi*z) = 2**(k-1) * prod_{j=0}^{k-1} sin(pi*(z+j)/k).

    At an integer z both sides are exactly 0 (sinpi is exact there), and so
    is the residual.  Raises DomainError for k < 1 or a non-finite z.
    """
    _floor_check("sine", k, "factorization order")
    return _sine_residual(k, _check_finite(z))


def residual_comb(alpha: float) -> float:
    """Residual of the quarter-step relation

        Gamma(4a) * Gamma(1/4 - a)
            = 2**(6a - 3/2) * Gamma(2a) * Gamma(a + 1/4) / sin(pi*(a + 3/4))

    for real a in the open interval (0, 1/4): Gamma(a + 1/4) against the
    relation solved for it.  Raises DomainError for any other a, a complex
    or non-finite one included.
    """
    return _pointwise("comb", None, alpha, "alpha")


@lru_cache(maxsize=64)
def _cosine_steps(m):
    """The integer factors (k**2 - (2n-1)**2, 2n (2n-1)), n = 1..m, of the
    cosine:m terms, k = 2m + 1."""
    k = 2 * m + 1
    return tuple((k * k - (2 * n - 1) ** 2, (2 * n) * (2 * n - 1)) for n in range(1, m + 1))


def _cosine_residual(m, u):
    lhs = cmath.cos((2 * m + 1) * u)
    s = cmath.sin(u)
    s2 = s * s
    # (-1)^n/(2n)! * sin^{2n} * prod, built incrementally from the n = 0 term
    acc = term = 1.0 + 0.0j
    mass = 1.0
    for up, down in _cosine_steps(m):
        term *= -s2 * up / down
        acc += term
        mass += abs(term)
    c = cmath.cos(u)
    return _residual(lhs, c * acc, max(abs(lhs), abs(c) * mass))


def residual_cosine_identity(m: int, u: complex) -> float:
    """Residual of the odd-order cosine expansion, k = 2m + 1:

        cos(k*u) = cos(u) * sum_{n=0}^{m} (-1)^n / (2n)! * sin(u)**(2n)
                                         * prod_{j=1}^{n} (k**2 - (2j-1)**2)

    Scaled by max(|cos(k*u)|, |cos(u)| * sum_n |term_n|), the size of what
    was summed, which bounds the sum's rounding (Higham, ASNA, sec. 4.2).
    Raises DomainError for m < 0 or a non-finite u.
    """
    _floor_check("cosine", m, "m")
    return _cosine_residual(m, _check_finite(u, "u"))


class _Row(_Record):
    """One identity; a gamma row has slots and forms, an entire one a residual."""

    __slots__ = (
        "floor",  # the least parameter of the tag; None: it takes none
        # the gamma arguments, (p, q) Fraction pairs standing for p z + q, or
        # the function of the parameter giving them for a family (mult:n)
        "slots",
        # (node slot, combine): combine(a, *g) is Gamma at the node slot a, a
        # float or complex, from Gamma at the other slots, in slot order; one
        # form sits at the first slot, the one the residual replays
        "forms",
        "residual",  # residual(param, z) of an entire identity
        "window",  # the open real interval of a real-only identity
    )

    def __init__(self, floor: int | None = None, slots=(), forms: tuple = (),
                 residual=None, window: tuple | None = None):
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "window", window)


_IDENTITIES = {
    # Gamma(z + 1) = z Gamma(z), read down from z + 1 and up from z
    "functional": _Row(slots=_slots((1, 0), (1, 1)), forms=(
        (1, lambda a, g: (a - 1) * g),
        (0, lambda a, g: g / a),
    )),
    # Gamma(z) Gamma(1 - z) = pi / sin(pi z)
    "reflection": _Row(slots=_slots((1, 0), (-1, 1)), forms=(
        (0, lambda a, g: math.pi / (sinpi(a) * g)),
    )),
    # sqrt(pi) Gamma(z) = 2**(z - 1) Gamma(z/2) Gamma(z/2 + 1/2), solved for
    # Gamma(z) and, with z/2 + 1/2 = a, for Gamma(a) (the inverse form)
    "duplication": _Row(slots=_slots((1, 0), (_HALF, 0), (_HALF, _HALF)), forms=(
        (0, lambda a, g1, g2: _pow2(a - 1) * g1 * g2 / _SQRT_PI),
        (2, lambda a, g1, g2: _SQRT_PI * g1 * _pow2(2 - 2 * a) / g2),
    )),
    # the quarter-step relation at real alpha in (0, 1/4), solved for
    # Gamma(alpha + 1/4):
    # Gamma(4 alpha) Gamma(1/4 - alpha) sin(pi (alpha + 3/4))
    #     = 2**(6 alpha - 3/2) Gamma(2 alpha) Gamma(alpha + 1/4)
    "comb": _Row(slots=_slots((1, _QUARTER), (4, 0), (-1, _QUARTER), (2, 0)),
                 forms=((0, _comb_value),), window=(0.0, 0.25)),
    # (2 pi)**((n - 1)/2) n**(1/2 - z) Gamma(z) = prod_{j<n} Gamma(z/n + j/n)
    "mult": _Row(1, lambda n: _slots((1, 0), *[(Fraction(1, n), Fraction(j, n)) for j in range(n)]),
                 forms=((0, _multiply),)),
    "sine": _Row(1, residual=_sine_residual),
    "cosine": _Row(0, residual=_cosine_residual),
}


def _arange(start, stop, step):
    """The points of numpy.arange(start, stop, step), bit for bit."""
    delta = (start + step) - start
    return [start + i * delta for i in range(math.ceil((stop - start) / step))]


def nonvanishing_scan(re_range, im_range, step):
    """Scan |Gamma| over a rectangular grid and return (min_modulus, argmin).

    Grid points closer than 0.05 to a pole are skipped.  Raises EmptyGridError
    when the grid is empty or every point was skipped.
    """
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step}")
    re_lo, re_hi = float(re_range[0]), float(re_range[1])
    im_lo, im_hi = float(im_range[0]), float(im_range[1])
    if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi, step))):
        raise DomainError("ranges and step must be finite")
    if re_hi < re_lo or im_hi < im_lo:
        raise DomainError("ranges must be ordered (lo, hi)")
    res = _arange(re_lo, re_hi + 0.5 * step, step)
    ims = _arange(im_lo, im_hi + 0.5 * step, step)
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


class SampleSpec(_Record):
    """Sampling region of verify_grid, which draws from ``random.Random(seed)``, seed >= 0."""

    __slots__ = ("count", "re_range", "im_range", "seed")

    def __init__(self, count: int, re_range: tuple = (-4.0, 4.0),
                 im_range: tuple = (-4.0, 4.0), seed: int = 20260825):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "re_range", re_range)
        object.__setattr__(self, "im_range", im_range)
        object.__setattr__(self, "seed", seed)
        if count < 1:
            raise DomainError(f"sample count must be >= 1, got {count}")
        for name, (lo, hi) in (("re_range", re_range), ("im_range", im_range)):
            if not lo <= hi:
                raise DomainError(f"{name} must be ordered")
            # an infinite end, or a width hi - lo that overflows, is no region
            if not math.isfinite(hi - lo):
                raise DomainError(f"{name} must be finite, got ({lo}, {hi})")
        # Random(-n) replays the stream of Random(n)
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")


class IdentityReport(_Record):
    """Aggregated residual statistics for one identity over one sample."""

    __slots__ = (
        "identity_id", "seed", "sample_count", "skipped_count", "max_relative_residual",
        "mean_relative_residual", "worst_point", "tolerance", "passed",
    )

    def __init__(self, identity_id: str, seed: int, sample_count: int, skipped_count: int,
                 max_relative_residual: float, mean_relative_residual: float,
                 worst_point: complex, tolerance: float, passed: bool):
        object.__setattr__(self, "identity_id", identity_id)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "sample_count", sample_count)
        object.__setattr__(self, "skipped_count", skipped_count)
        object.__setattr__(self, "max_relative_residual", max_relative_residual)
        object.__setattr__(self, "mean_relative_residual", mean_relative_residual)
        object.__setattr__(self, "worst_point", worst_point)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", passed)

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
    floor = _IDENTITIES[base].floor
    if floor is None:
        if sep:
            raise DomainError(f"identity {base!r} takes no parameter")
        return base, None
    if not sep:
        raise DomainError(f"identity {base!r} needs a parameter, e.g. {base}:3")
    try:
        n = int(arg)
    except ValueError:
        n = None
    # the canonical decimal only: int() also takes a sign, underscores,
    # spaces, leading zeros and non-ASCII digits, and the report echoes the
    # tag as given
    if n is None or str(n) != arg:
        raise DomainError(f"bad integer parameter {arg!r} in tag {tag!r}")
    _floor_check(base, n, f"parameter of {base!r}")
    return base, n


def verify_grid(identity_id: str, sample_spec: SampleSpec, tolerance: float) -> IdentityReport:
    """Check one identity over a seeded uniform sample of its region.

    Draws sample_spec.count points from the rectangle re_range x im_range,
    or for a real-only identity (a row with a window) from re_range on the
    real axis, refusing an im_range that excludes 0 (DomainError).  Points
    where a gamma argument of the identity lies within _POLE_EXCLUSION = 0.1
    of a pole, or whose residual is not finite or raises a domain/pole/
    overflow error, are skipped rather than failing the run.  The report is
    deterministic for a fixed spec (same seed, same bytes).

    A mult:n slot (z + j)/n, j = 0..n-1, lies within the exclusion of the
    pole 0 whenever |z + j| < n/10, so large n skips most draws near the
    origin: on the default box (-4, 4)^2 at seed 0, mult:51 keeps 1 of 200
    draws, and mult:52 keeps none and raises EmptyGridError.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    kind, param = parse_identity_tag(identity_id)
    row = _IDENTITIES[kind]
    (re_lo, re_hi), (im_lo, im_hi) = sample_spec.re_range, sample_spec.im_range
    if row.window and not im_lo <= 0.0 <= im_hi:
        raise DomainError(
            f"{identity_id!r} is real-only: its draws lie on the real axis, "
            f"outside {im_lo} <= Im <= {im_hi}"
        )
    if row.slots:
        # one pole test per draw, at the sampling layer's radius
        residual = _row_residual(kind, param, _POLE_EXCLUSION)
    else:
        residual = partial(row.residual, param)
    draw = random.Random(sample_spec.seed).random
    re_w, im_w = re_hi - re_lo, im_hi - im_lo

    worst = 0.0
    worst_point = None
    total = 0.0
    used = 0
    skipped = 0
    near_pole = False
    for _ in range(sample_spec.count):
        # Random.uniform's formula; a real-only identity draws no imaginary part
        z = complex(re_lo + re_w * draw(), 0.0 if row.window else im_lo + im_w * draw())
        try:
            r = residual(z.real if row.window else z)
        except PoleError:
            # on a gamma row only the clearance raises it (gamma's own pole
            # test is far inside it)
            near_pole = True
            r = math.nan
        except (DomainError, OverflowError):
            r = math.nan
        if not math.isfinite(r):
            skipped += 1
            continue
        used += 1
        total += r
        if worst_point is None or r > worst:
            worst = r
            worst_point = z
    if used == 0:
        detail = f"all {sample_spec.count} sampled points for {identity_id!r} were skipped"
        if kind == "mult" and near_pole:
            detail += (
                f"; a slot (z + j)/{param} lies within {_POLE_EXCLUSION} of the pole 0 "
                f"wherever |z + j| < {param * _POLE_EXCLUSION:g}"
            )
        raise EmptyGridError(detail)
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
