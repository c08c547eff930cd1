"""Master-theorem checks: Mellin transforms of alternating power series.

If phi is analytic and suitably bounded, the function

    psi(x) = sum_{n>=0} (-x)**n phi(n)

continues past its convergence disc and its Mellin transform evaluates in
closed form:

    integral_0^inf x**(s-1) psi(x) dx = pi / sin(pi s) * phi(-s),

for s in the strip (0, eta).  This module ships a small catalog of phi
with known closed-form psi, evaluates both sides numerically, and reports
the relative residual.  phi = 1 recovers the reflection-formula values.

Each catalog entry states psi once, as log(psi(e^u)) in a form stable for
all u: near the strip edges the integrand decays like exp(-c|u|) with
tiny c, so the truncation window reaches far beyond where e^u is a
representable float.  The transform is the one Mellin integral that
`quadrature` also evaluates the gamma and beta integrals with.
"""

import math

from .core import _check_finite, _residual
from .errors import DomainError, _Record
from .quadrature import _mellin_integral, _minus_exp, _softplus


class PhiSpec(_Record):
    """A catalog entry: the sequence phi, psi stated once as log psi(e^u),
    and the growth/strip constants.

    eta is the half-width of the admissible strip 0 < s < eta; |phi(n)|
    grows at most like exp(q n), so the series converges for x < exp(-q).
    log_psi_of_exp(u) = log(psi(e^u)), computed stably for all u, is the
    only closed form of psi: the transform integrates it, and psi_eval
    uses it beyond the series' disc.
    """

    __slots__ = ("id", "phi", "eta", "log_psi_of_exp", "q")

    def __init__(self, id: str, phi, eta: float, log_psi_of_exp, q: float = 0.0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "log_psi_of_exp", log_psi_of_exp)
        object.__setattr__(self, "q", q)


def _log_psi_log1p(u):
    # log(log(1 + e^u)) - u; for very negative u, psi(e^u) -> 1 - e^u/2
    if u < -35.0:
        return -0.5 * math.exp(u)
    return math.log(_softplus(u)) - u


def _geom_spec(a: float, id: str | None = None) -> PhiSpec:
    if not a > 0:
        raise DomainError(f"geometric ratio must be > 0, got {a}")
    _check_finite(a, "geometric ratio")
    la = math.log(a)
    return PhiSpec(
        id=id or f"geom:{a:g}",
        phi=lambda n: a**n,
        eta=1.0,
        q=la,
        # -log(1 + a e^u): a shifted copy of the phi = 1 case
        log_psi_of_exp=lambda u: -_softplus(u + la),
    )


_CATALOG = {
    # phi = 1 is the geometric entry at ratio 1
    "one": lambda: _geom_spec(1.0, "one"),
    "exp": lambda: PhiSpec(
        id="exp",
        phi=lambda n: 1.0 / math.gamma(n + 1),
        eta=math.inf,
        log_psi_of_exp=_minus_exp,
    ),
    "log1p": lambda: PhiSpec(
        id="log1p",
        phi=lambda n: 1.0 / (n + 1),
        eta=1.0,
        log_psi_of_exp=_log_psi_log1p,
    ),
}


def catalog_ids() -> list:
    return ["one", "geom:a", "exp", "log1p"]


def catalog_entry(tag: str) -> PhiSpec:
    """Look up a PhiSpec by id; "geom:a" takes a numeric ratio, e.g. geom:2."""
    if tag in _CATALOG:
        return _CATALOG[tag]()
    if tag.startswith("geom:"):
        try:
            a = float(tag.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad geometric ratio in {tag!r}") from None
        return _geom_spec(a)
    raise DomainError(
        f"unknown phi id {tag!r}; known: {', '.join(catalog_ids())}"
    )


def psi_eval(spec: PhiSpec, x: float) -> float:
    """psi(x): the alternating series inside 0.9 * exp(-q), and beyond it
    exp(log_psi_of_exp(log x)), the form the transform integrates (the
    series itself would diverge past exp(-q))."""
    x = float(x)
    if not x > 0:
        raise DomainError(f"x must be > 0, got {x}")
    if x >= 0.9 * math.exp(-spec.q):
        return math.exp(spec.log_psi_of_exp(math.log(x)))
    total = 0.0
    term_x = 1.0
    for n in range(0, 10_000):
        term = term_x * spec.phi(n)
        total += term
        if abs(term) <= 1e-16 * max(abs(total), 1.0) and n > 3:
            return total
        term_x *= -x
    return total


def mellin_transform(spec: PhiSpec, s: float) -> float:
    """integral_0^inf x**(s-1) psi(x) dx for 0 < s < eta.

    With x = e^u this is integral exp(s*u + log psi(e^u)) du over the whole
    line at relative tolerance 1e-9, truncated where the integrand drops
    below it.  A tail that never decays (s at or outside the admissible
    strip) raises ConvergenceError.  At a distance eps from an end of the
    strip a tail decays like e^(-eps |u|), and the window stops at
    |u| = 4000: s down to about 0.006 is reached, and up to about
    eta - 0.006 for a finite eta (0.992 for log1p, whose tail at infinity
    carries a factor u); closer to an end, ConvergenceError.
    """
    s = float(s)
    if not (0.0 < s < spec.eta):
        raise DomainError(
            f"s must lie in the strip (0, {spec.eta}), got {s}"
        )
    return _mellin_integral(spec.log_psi_of_exp, s, 1e-9)


def rmt_closed_form(spec: PhiSpec, s: float) -> float:
    """The predicted transform pi/sin(pi s) * phi(-s).

    s must be finite and non-integral so phi(-s) and sin(pi s) are
    unambiguous; OverflowError where the value leaves the floating range, to
    inf or to 0 (no catalog phi is 0 at a non-integer s).
    """
    s = float(s)
    _check_finite(s, "s")
    if s == int(s):
        raise DomainError(f"s must not be an integer, got {s}")
    try:
        # not core.sinpi: criterion 10 compares with ==; sinpi(0.6) differs in the last bit
        value = math.pi / math.sin(math.pi * s) * spec.phi(-s)
    except ZeroDivisionError:  # exp's phi(-s) = 1 / Gamma(1 - s) at an underflowed Gamma
        value = math.inf
    if not math.isfinite(value) or value == 0.0:
        raise OverflowError(f"the closed form at s = {s!r} leaves the floating range")
    return value


def rmt_residual(spec: PhiSpec, s: float) -> float:
    """Relative residual between the numerical transform and the closed form."""
    rhs = rmt_closed_form(spec, s)
    return _residual(mellin_transform(spec, s), rhs)
