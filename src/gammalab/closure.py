"""Finite affine closures of rational point sets under the gamma identities.

Each identity relates Gamma at an argument x to Gamma at finitely many
affinely-transformed arguments, the slots of its row in the identity table
(``identities._IDENTITIES``, the one statement of every identity): the
recurrence links x to x +- 1, the reflection to 1 - x, and the n-fold
multiplication formula links any of its n + 1 slots to the others.  The
closure of a finite set under finitely many affine maps stays finite — and
so of measure zero — which is what makes small fundamental sets possible;
this module makes the growth bound |S| * K**depth concrete.

The closure runs on reduced integer pairs (n, d), d > 0: the maps' compiled
integer ratios (``identities._compile``) give each image of n/d as a pair
that one gcd reduces, and Fractions are made only for the returned set.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DomainError, ResourceError
from .identities import _compile, _node_maps, _slots_of
from .intervals import as_fraction

DEFAULT_CARDINALITY_BUDGET = 100_000


def generating_maps(max_n: int) -> list:
    """Affine maps (p, q) meaning x -> p*x + q, excluding the identity.

    The slot-to-slot maps of the functional, reflection and mult:n rows of
    the identity table, n = 2..max_n, each row's maps distinct and the rows
    concatenated: x+1, x-1 and 1-x, then for each n the maps x/n + j/n and
    n*x - j (j = 0..n-1) and x + d/n (d = +-1..+-(n-1)).
    """
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    rows = [("functional", None), ("reflection", None)] + [("mult", n) for n in range(2, max_n + 1)]
    maps = []
    for kind, n in rows:
        slots = _slots_of(kind, n)
        maps += dict.fromkeys(m for node in range(len(slots)) for m in _node_maps(slots, node))
    return maps


def branching_factor(max_n: int) -> int:
    """K = 1 + number of generating maps (the 1 counts the identity), in
    closed form: K = 2 max_n**2 + 2.

    generating_maps concatenates the rows, each row's maps once: 3 from the
    functional and reflection rows and n + n + 2(n - 1) = 4n - 2 from each
    mult:n row, so K = 4 + sum(4n - 2 for n in 2..max_n) = 2 max_n**2 + 2.
    """
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    return 2 * max_n**2 + 2


@lru_cache(maxsize=16)
def _image_ratios(max_n: int):
    """The compiled integer ratios of generating_maps(max_n)."""
    return _compile(generating_maps(max_n))[1]


def affine_closure(points, depth: int, max_n: int,
                   *, budget: int = DEFAULT_CARDINALITY_BUDGET) -> frozenset:
    """Depth-step closure of `points` under the identity maps, in (0, inf).

    Images outside (0, inf) are discarded (gamma arguments stay positive
    here); the identity map is implicit, so the input is contained in the
    output and |output| <= |points| * K**depth with K = branching_factor.
    Raises ResourceError when the set, input included, exceeds `budget`.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    pts = set()
    for p in points:
        p = as_fraction(p)
        if not p > 0:
            raise DomainError(f"points must be positive, got {p}")
        pts.add(p.as_integer_ratio())
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    frontier = pts
    for step in range(depth + 1):
        if len(pts) > budget:
            raise ResourceError(f"closure exceeded the cardinality budget {budget}")
        if step == depth or not frontier:
            break
        # built here, so depth 0 builds none of the maps
        images = _image_ratios(max_n)
        new = {(n // g, d // g) for x in frontier for n, d in images(*x) if n > 0
               for g in (gcd(n, d),)}
        frontier = new - pts
        pts = pts | frontier
    return frozenset(Fraction(n, d) for n, d in pts)
