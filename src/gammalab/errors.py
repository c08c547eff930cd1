"""Exception taxonomy shared across gammalab.

Built-in ``OverflowError`` is reused for leaving the floating range
(overflow, or a gamma factor underflowing to zero); everything else derives from :class:`GammalabError` so callers can catch the package
family in one clause.
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
    landau's round cap (a delta that needs more than ROUND_CAP rounds) and
    closure's cardinality budget all raise this."""
