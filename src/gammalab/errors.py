"""Exception taxonomy shared across gammalab, and the base of its records.

Built-in ``OverflowError`` is reused for leaving the floating range
(overflow, or a gamma factor underflowing to zero); everything else derives from :class:`GammalabError` so callers can catch the package
family in one clause.

Every gammalab record (FundamentalSet, SampleSpec, SeriesResult, ...)
derives from `_Record`, which gives it what a frozen dataclass would
without importing ``dataclasses`` at start (see the package docstring).
"""

__all__ = [
    "GammalabError",
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "EmptyGridError",
    "ResourceError",
]


class GammalabError(Exception):
    """Base class for all gammalab exceptions."""


class DomainError(GammalabError, ValueError):
    """Input lies outside the documented domain of an operation.  Also
    landau's: a trace JSON that DerivationTrace.from_json_dict cannot read,
    and a halving chain that ends outside a set that landau_construct did
    not build."""


class PoleError(GammalabError, ZeroDivisionError):
    """Evaluation was requested at (or within tolerance of) a pole."""


class ConvergenceError(GammalabError, ArithmeticError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class EmptyGridError(GammalabError, ValueError):
    """A verification grid contained no admissible sample points."""


class ResourceError(GammalabError, RuntimeError):
    """A node or cardinality budget was exceeded: landau's node budgets (a
    summary-only set cannot be traced; a complex trace outgrows its budget,
    or its shifts z -> z - 1 alone would),
    landau's round cap (a delta that needs more than ROUND_CAP rounds),
    stern's modulus cap (an m over MODULUS_CAP) and closure's cardinality
    budget all raise this."""


class _Record:
    """Base of an immutable record whose fields are its __slots__, in order.

    A record's __init__ sets each field with object.__setattr__, then runs
    its checks.  Equality (with a record of the same class), hash and repr
    are those of the field tuple, as for a frozen dataclass: repr reads
    Name(field=value, ...).  Assignment and deletion raise
    dataclasses.FrozenInstanceError, imported only when raised; copy and
    pickle rebuild a record through its __init__.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
