"""Sorted disjoint unions of half-open rational intervals (a, b].

Endpoints are exact fractions, so measures and membership tests are exact
integer arithmetic — the set constructions downstream turn on exact
comparisons like measure < delta, never floating tests.

Every set is built on integers.  Its endpoints are held as integers over
one index denominator D: the scale S = 2**(K t) of the construction for a
set that `landau_construct` builds, and otherwise the lcm of the reduced
denominators of the given endpoints.  Sorting and merging run on these
integers, and the canonical intervals (a_i, b_i] are kept as two sorted
lists lo[i] = D * a_i and hi[i] = D * b_i.  A point x = p/q is scaled once
to c = ceil(p * D / q); since lo[i] and hi[i] are integers, a_i < x <= b_i
holds exactly when lo[i] < c <= hi[i], whichever D was used.  So a
membership test is one integer division, one `bisect_left` on lo and one
integer comparison, with no Fraction compared; the measure is
(sum(hi) - sum(lo)) / D, and `len` and `bool` count lo.  The public
`intervals`, one Fraction pair per merged interval, are made on first read:
by iteration, `==`, `hash` or `repr`.

A membership test takes p and q straight from the point, as the
`as_integer_ratio()` of a Fraction, an int or a float (exact, as every
double is a dyadic rational).  Only other inputs, such as 'p/q' strings, go
through `as_fraction` first.  `contains_ratio(p, q)` is the test itself,
for a caller that holds the point as an integer pair already.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import DomainError, _Record


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, floats, and 'p/q' strings to an exact Fraction.

    Floats convert exactly (they are dyadic rationals), which keeps trace
    bookkeeping honest when arguments arrive as doubles.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational {x!r}: {exc}") from None
    raise DomainError(f"cannot interpret {x!r} as a rational")


class IntervalSet(_Record):
    """Immutable union of half-open intervals (a, b] with Fraction endpoints.

    The constructor accepts intervals in any order, possibly overlapping or
    touching, and normalizes to the canonical sorted disjoint form; (a, b]
    and (b, c] merge into (a, c].  It keeps the integer index of the module
    docstring in its __dict__.  Equality, hash and repr are those of a
    record whose one field is the `intervals` tuple, and assignment and
    deletion raise as on every record.
    """

    def __init__(self, pairs=()):
        pairs = [(as_fraction(lo), as_fraction(hi)) for lo, hi in pairs]
        for lo, hi in pairs:
            if not lo < hi:
                raise DomainError(f"empty or inverted interval ({lo}, {hi}]")
        den = lcm(*(e.denominator for pair in pairs for e in pair))
        self._merge([(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
                     for a, b in pairs], den)

    @classmethod
    def _scaled(cls, pairs, den: int) -> "IntervalSet":
        """The union of (a/den, b/den] over integer pairs (a, b) with a < b."""
        self = object.__new__(cls)
        self._merge(pairs, den)
        return self

    def _merge(self, pairs, den: int) -> None:
        """Sort and merge integer pairs over den: the one merge of both constructors."""
        ilo, ihi = [], []
        for a, b in sorted(pairs):
            if ihi and a <= ihi[-1]:
                if b > ihi[-1]:
                    ihi[-1] = b
            else:
                ilo.append(a)
                ihi.append(b)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_lo", ilo)
        object.__setattr__(self, "_hi", ihi)

    @property
    def intervals(self) -> tuple:
        """The merged intervals as sorted (Fraction, Fraction) pairs."""
        try:
            return self._intervals
        except AttributeError:
            den = self._den
            pairs = tuple((Fraction(a, den), Fraction(b, den)) for a, b in zip(self._lo, self._hi))
            object.__setattr__(self, "_intervals", pairs)
            return pairs

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self):
        return hash((self.intervals,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(intervals={self.intervals!r})"

    def __reduce__(self):
        # copy and pickle rebuild the set from its intervals, not from the
        # record's __slots__, which hold none of it
        return self.__class__, (self.intervals,)

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self._hi) - sum(self._lo), self._den)

    def contains_ratio(self, p: int, q: int) -> bool:
        """Whether p/q lies in the set, for integers p and q > 0 in any terms."""
        c = -(-p * self._den // q)
        # the rightmost interval with lo < c holds p/q when c <= its hi
        idx = bisect_left(self._lo, c) - 1
        return idx >= 0 and c <= self._hi[idx]

    def __contains__(self, x) -> bool:
        if type(x) is not Fraction and type(x) is not float and type(x) is not int:
            x = as_fraction(x)
        return self.contains_ratio(*x.as_integer_ratio())

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self._lo)

    def __bool__(self):
        return bool(self._lo)
