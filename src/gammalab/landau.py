"""Small-measure fundamental sets for the gamma function, with tracers.

A fundamental set is a subset S of (0, 1] such that every value Gamma(x),
x in (0, 1], is recoverable from gamma evaluations on S through finitely
many identity applications.  The construction here repeatedly applies one
interval lemma: any (a, b] within (0, 1] splits, via the halving maps
x -> x/2 and x -> x/2 + 1/2 of the duplication formula, into one interval
inside (0, delta/2] and a stack of intervals inside (1/2, 1], with exact
length conservation.  Iterating t rounds leaves a remainder of exactly
computable rational mass below (1 - delta/4)**t, so the final set

    S_t = (0, delta/2]-part  union  remainder pieces

has measure < delta.

One construction serves both modes.  Round 0 splits (0, 1] and its nested
high images unite into (1/2, 1]; later rounds split every piece as it
comes, with no merging.  The threshold-state recursion below counts these
pieces exactly in integers, so its remainder mass, piece count and node
count are the set's in both modes.  It runs as one function, compiled
per delta from the recursion's rows and cached, that loops over local
integers.  Its mass balance is a linear form in the state, so it is
checked once per delta, on the unit states, and holds on every round.  The
round count t is a float estimate moved to the least t that passes the
exact integer test; a delta whose t exceeds ROUND_CAP is refused up front.
The two modes:

* explicit — when the forest fits in the node budget, one loop also
  enumerates the pieces as integers over S = 2**(K t), K the class of 1,
  classes each by one comparison of its right end with beta* S, and sorts
  and merges the I-leaves and the remainder on those integers into
  leaf_union; tracers need it;
* summary — leaf_union is (0, delta/2], and the remainder enters through
  its exact mass only.

Tracers turn the construction into derivation trees: `trace_evaluate` walks
the halving chains over (0, 1], `quarter_set_trace` derives Gamma on
(0, 1/2) from (0, 1/4] and {1/3, 1} alone, and `complex_reduce_trace`
extends the real pattern into the strip |Im z| < 1 by duplication halvings.
The tracers and `validate_trace` share one rule table (`_RULES`), a view of
the functional, reflection, duplication and comb rows of the identity table
(`identities._IDENTITIES`, the one statement of every identity): each
rule's forms give a node's child arguments, compiled from the row's slots,
and its value from theirs.

A trace is its flat post-order record: a `DerivationTrace` is the parallel
lists of rule, argument, value and child indices, each node after its
children and the root last.  The tracers append to it; `validate_trace` is
one loop over it.  A trace has one external form, its JSON: `json_parts`
writes the text straight from the record, with no dict per node, and
`to_json_dict` gives the same tree as nested dicts for readers and the csv
and text reports; both take each node's argument from one helper, `_json_arg`.
`DerivationTrace.from_json_dict` reads the tree back into the same lists,
recomputing each value by the form its children match, and
`validate_trace` replays what it reads.

The real walk carries y = n/d as its reduced pair (n, d), the argument the
record stores, and tests membership on the set's integer index with no
Fraction; the halving form's integer ratios give the children's pairs and
its value formula takes n / d, the correctly rounded float of y.  The
complex walk calls the same form's float children and value formula.  A
walker only tests membership and halves, at most K t times on a path, K
the class of 1: each round halves a point at most K times, and what is left
after t rounds is in leaf_union.  A point still outside the set after K t
halvings raises DomainError; only a set that landau_construct did not build
(one that lost leaves) can leave it there.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache

from .core import (
    _check_finite, _gamma_factor, _int_of_text, _residual, _text, gamma, pole_distance, sinpi,
)
from .errors import DomainError, PoleError, ResourceError, _Record
from .identities import _IDENTITIES, _compile, _node_maps
from .intervals import IntervalSet, as_fraction

_HALF = Fraction(1, 2)

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_COMPLEX_BUDGET = 500_000
# The most rounds landau_construct runs.  Each round adds K bits to the
# recursion's integers, so a construction costs about K t**2 bit operations:
# the cap admits delta = 1/400 (t = 10,693, under a second) and refuses
# 1/500 (t = 13,813, about 4 s) and 1/1000 (t = 30,400, about 19 s).
ROUND_CAP = 12_000


# ---------------------------------------------------------------------------
# interval lemma


class DecompositionNode(_Record):
    """One node of the halving-chain decomposition of an interval.

    kind is "split" (two children: the x/2 and x/2 + 1/2 images), "I"
    (leaf inside (0, delta/2]) or "J" (leaf inside (1/2, 1], fed to the
    next round).
    """

    __slots__ = ("interval", "kind", "children")

    def __init__(self, interval: tuple, kind: str, children: tuple):
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", children)


def _class_of(p: int, q: int, delta: Fraction) -> int:
    """Least m >= 0 with (p/q) / 2**m <= delta / 2, for q > 0.

    For delta = r/s that is the least m with 2ps <= rq * 2**m, whether or
    not p/q is in lowest terms.  When 2ps > rq, shifting rq left by the
    difference of the bit lengths gives it the bit length of 2ps, so m is
    that difference, or one more when the shifted rq is still below 2ps.
    """
    lhs = 2 * p * delta.denominator
    rhs = delta.numerator * q
    if lhs <= rhs:
        return 0
    m = lhs.bit_length() - rhs.bit_length()
    return m if lhs <= rhs << m else m + 1


def _check_delta(delta) -> Fraction:
    delta = as_fraction(delta)
    if not (0 < delta <= 1):
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    return delta


def landau_lemma_decompose(alpha, beta, delta):
    """Split (alpha, beta] into I inside (0, delta/2] plus J's in (1/2, 1].

    Returns (I, J_list, node) where I = (alpha/2**m, beta/2**m], the J's are
    (alpha/2**i + 1/2, beta/2**i + 1/2] for i = 1..m, m minimal with
    beta/2**m <= delta/2, and node is the recorded halving chain.  Exact
    conservation |I| + sum |J_i| = beta - alpha and the lower bound
    |I| > (delta/4)(beta - alpha) are checked on every call.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if not (0 <= alpha < beta <= 1):
        raise DomainError(f"need 0 <= alpha < beta <= 1, got ({alpha}, {beta}]")
    delta = _check_delta(delta)
    an, ad, bn, bd = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    m = _class_of(bn, bd, delta)
    # for x = p/q, x / 2**i is p / (q << i) and x / 2**i + 1/2 is
    # (p + (q << (i - 1))) / (q << i): no Fraction division
    I = (Fraction(an, ad << m), Fraction(bn, bd << m))
    J_list = [
        (Fraction(an + (ad << (i - 1)), ad << i), Fraction(bn + (bd << (i - 1)), bd << i))
        for i in range(1, m + 1)
    ]

    # build the chain bottom-up: level m is the I-leaf, level i < m a split
    node = DecompositionNode(I, "I", ())
    for i in range(m, 0, -1):
        high = DecompositionNode(J_list[i - 1], "J", ())
        parent_iv = (Fraction(an, ad << (i - 1)), Fraction(bn, bd << (i - 1)))
        node = DecompositionNode(parent_iv, "split", (node, high))

    # both checks are exact integer sums: the endpoints alpha, beta, I and
    # the J's, in that order, scaled by their common denominator D
    ends = [alpha, beta, *I, *(e for J in J_list for e in J)]
    D = math.lcm(*[e.denominator for e in ends])
    scaled = [e.numerator * (D // e.denominator) for e in ends]
    width = scaled[1] - scaled[0]
    extracted = scaled[3] - scaled[2]
    j_total = sum(scaled[5::2]) - sum(scaled[4::2])
    if extracted + j_total != width:
        raise AssertionError("interval lemma lost mass")  # pragma: no cover
    if not 4 * extracted * delta.denominator > delta.numerator * width:
        raise AssertionError("interval lemma lower bound failed")  # pragma: no cover
    return I, J_list, node


# ---------------------------------------------------------------------------
# threshold-state recursion (exact masses without enumeration)
#
# From round 1 on every piece lies in (1/2, 1] and each round replaces a
# piece (a, b] of class m (the class of b) by its m images
# (a/2**i + 1/2, b/2**i + 1/2], which land in pairwise disjoint dyadic
# bands — so the leftover stays a disjoint union and its mass evolves
# linearly.  The class of a piece depends only on whether its right end
# exceeds beta* = delta * 2**(M-1); tracking, for each threshold theta in
# a finite closure set, the mass S_theta of pieces with right end > theta
# closes the recursion exactly.
#
# The recursion runs in integers.  A band-i image carries 2**-i of its
# parent's mass and no band is deeper than K (the class of right end 1), so
# with masses held as N / 2**E a round maps N to a combination of shifts
# N << (K - i) and adds K to E, with no gcd until the final Fraction.  Unit
# weights give the piece counts in the same loop.  A round keeps the mass
# balance new_total + extracted == total * 2**K (extracted: the round's
# I-leaves, band M for class-M pieces, band K for the deeper ones).  Both
# sides are integer combinations and constant shifts of the state, so the
# balance is a linear form in it: checked once per delta on the unit states,
# it holds on every state of every round, and no round tests it.
#
# The loop is generated per delta, as identities._compile generates its
# lambdas: each statistic's mass and count is a local variable, each round
# one tuple assignment per vector whose sums spell out the rows' integer
# coefficients, so a round does its small-by-big products and no list,
# generator or index work.  The compiled loop is cached per delta.


def _class_bounds(delta: Fraction):
    """Classes of right ends just above 1/2 and at 1: K - 1 and K, or K and K
    when delta * 2**(K - 1) is exactly 1 (K = the class of 1)."""
    K = _class_of(1, 1, delta)
    return (K if delta * 2 ** (K - 1) == 1 else K - 1), K


def _threshold_closure(delta: Fraction):
    """(M, M1, beta_star, thetas): the finite threshold set for delta.

    beta_star is None when every piece in (1/2, 1] has the same class.
    The closure iterates tau_i(theta) = 2**i (theta - 1/2) until no new
    threshold lands strictly inside (1/2, 1); it is finite for rational
    delta because all thresholds share a bounded denominator.
    """
    m_lo, m_hi = _class_bounds(delta)
    if m_lo == m_hi:
        return m_lo, m_hi, None, ()
    beta_star = delta * 2 ** (m_lo - 1)
    thetas = {beta_star}
    frontier = [beta_star]
    while frontier:
        th = frontier.pop()
        for i in range(1, m_hi + 1):
            tau = 2**i * (th - _HALF)
            if _HALF < tau < 1 and tau not in thetas:
                thetas.add(tau)
                frontier.append(tau)
    return m_lo, m_hi, beta_star, tuple(sorted(thetas))


def _threshold_plan(delta: Fraction):
    """(M, K, beta_index, rows): the integer transition matrix for delta.

    M and K = M1 are the classes of _threshold_closure.  The state vector is
    (total, S_theta for theta in thetas), S_beta* at beta_index (None
    without beta*).  rows[j] lists the (state index, mass coefficient,
    count coefficient) terms of the next round's j-th statistic; a band-i
    image adds 2**(K - i) and 1 to them.  A lookup at tau <= 1/2 reads the
    total (every piece ends above 1/2); one at tau >= 1 reads nothing.
    """
    M, K, beta_star, thetas = _threshold_closure(delta)
    index = {th: j for j, th in enumerate(thetas, 1)}

    def row(terms):
        coeffs = {}
        for tau, i in terms:
            if tau < 1:
                k = 0 if tau <= _HALF else index[tau]
                mass, count = coeffs.get(k, (0, 0))
                coeffs[k] = (mass + (1 << (K - i)), count + 1)
        return tuple((k, mass, count) for k, (mass, count) in sorted(coeffs.items()))

    # class-M pieces feed bands 1..M; the class-K pieces (right end > beta*)
    # also feed band K, whose images end above max(tau_K(theta), beta*)
    deep = [] if beta_star is None else [(beta_star, K)]
    rows = [row([(_HALF, i) for i in range(1, M + 1)] + deep)]
    for th in thetas:
        terms = [(2**i * (th - _HALF), i) for i in range(1, M + 1)]
        rows.append(row(terms + [(max(2**K * (th - _HALF), beta_star), K)]))
    return M, K, index.get(beta_star), rows


def _sum(terms) -> str:
    """Source of the sum of (variable, coefficient) terms."""
    return " + ".join(v if c == 1 else f"{v} * {c}" for v, c in terms) or "0"


@lru_cache(maxsize=64)
def _threshold_loop(delta: Fraction):
    """The recursion for delta as one compiled function of `steps`: it
    returns (residual mass, piece count, forest nodes) `steps` rounds after
    round 1, and a decomposed piece of class m adds a chain of 2m + 1 nodes.
    Round 1 holds the one piece (1/2, 1] of mass 1 / 2**1, so every
    statistic starts at mass 1 and count 1; round 0 decomposed (0, 1],
    whose right end 1 has class K, into 2K + 1 nodes.

    The statistics are local integers: masses m0, m1, ... and counts c0,
    c1, ..., index 0 the total; each round is one tuple assignment per
    vector from _threshold_plan's rows.  The mass balance is checked here,
    once, on a `balance` function generated from the same row-0 sum: it
    only adds variables times integer constants and shifts by constants, so
    it is a linear form in the masses, and zero on every unit state means
    zero on every state of every round.  A plan that loses mass raises
    before the loop is returned.
    """
    M, K, b, rows = _threshold_plan(delta)
    n = len(rows)
    masses = ", ".join(f"m{j}" for j in range(n))
    counts = ", ".join(f"c{j}" for j in range(n))
    # a class-M chain has 2M + 1 nodes, a class-K one (right end > beta*) 2K + 1
    nodes = f"c0 * {2 * M + 1}" + (f" + c{b} * {2 * (K - M)}" if b else "")
    # extracted mass: band M of the class-M pieces, band K of the deeper ones
    extracted = f"((m0 - m{b}) << {K - M}) + m{b}" if b else "m0"
    new_masses = [_sum((f"m{k}", c) for k, c, _ in terms) for terms in rows]
    source = f"""\
def balance({masses}):
    return {new_masses[0]} + {extracted} - (m0 << {K})

def loop(steps):
    {masses} = {", ".join(["1"] * n)}
    {counts} = {", ".join(["1"] * n)}
    nodes = {2 * K + 1}
    for _ in range(steps):
        nodes += {nodes}
        {masses} = {", ".join(new_masses)}
        {counts} = {", ".join(_sum((f"c{k}", c) for k, _, c in terms) for terms in rows)}
    return Fraction(m0, 1 << (1 + {K} * steps)), c0, nodes
"""
    namespace = {"Fraction": Fraction}
    exec(source, namespace)
    balance = namespace["balance"]
    if any(balance(*(int(k == j) for k in range(n))) for j in range(n)):
        raise AssertionError("threshold recursion lost mass")
    return namespace["loop"]


def _round_estimate(p: int, q: int):
    """The estimate log(2q/p) / -log(1 - p/(4q)) that iteration_count(p/q)
    starts from; below p/(4q) = 2**-60, where -log(1 - x) is x in doubles,
    the Fraction log(2q/p) 4q/p, which no delta overflows."""
    x, log_ratio = p / (4 * q), math.log(2 * q) - math.log(p)
    return log_ratio / -math.log1p(-x) if x > 2**-60 else Fraction(log_ratio) * 4 * q / p


def iteration_count(delta) -> int:
    """Least t with (1 - delta/4)**t < delta/2.

    For delta = p/q this is the least t with (4q - p)**t * 2q < p * (4q)**t.
    A float estimate, log(2q/p) / -log(1 - p/(4q)), starts t, and the exact
    integer test moves it to the least t that passes.
    """
    delta = _check_delta(delta)
    p, q = delta.numerator, delta.denominator

    def passes(t):
        return (4 * q - p) ** t * 2 * q < p * (4 * q) ** t

    # t = 0 never passes (2q > p), so the descent stops at t >= 1
    t = max(1, math.ceil(_round_estimate(p, q)))
    while not passes(t):
        t += 1
    while passes(t - 1):
        t -= 1
    return t


def _capped_rounds(delta: Fraction) -> int:
    """iteration_count(delta), or ResourceError when it exceeds ROUND_CAP.

    The float estimate decides, before any exact power is computed; only an
    estimate within one of the cap, where its rounding could matter, is
    settled by the exact count.  The detail states t and the bit size the
    summary recursion would reach: its masses carry K bits more each round.
    """
    t = max(1, math.ceil(_round_estimate(delta.numerator, delta.denominator)))
    exact = t <= ROUND_CAP + 1
    if exact:
        t = iteration_count(delta)
    if t > ROUND_CAP:
        bits = _class_of(1, 1, delta) * t
        raise ResourceError(
            f"delta {_text(delta)} needs {'' if exact else 'about '}t = {_text(t)} "
            f"rounds, over the cap of {ROUND_CAP}; the recursion's integers would "
            f"reach about {_text(bits)} bits"
        )
    return t


# ---------------------------------------------------------------------------
# the construction


class FundamentalSet(_Record):
    """A constructed fundamental set with exact rational bookkeeping.

    residual_mass and final_piece_count (the pieces left after t rounds,
    unmerged) and node_count (their forest's) are the threshold recursion's
    in both modes.  In explicit mode leaf_union is the exact union of all
    I-leaves and the remainder, and root_forest regenerates every chain.
    summary mode keeps leaf_union = (0, delta/2] and no forest; its measure
    delta/2 + residual_mass bounds the explicit one.  In both modes
    measure < delta exactly.
    """

    __slots__ = (
        "delta", "t", "leaf_union", "measure", "residual_mass", "explicit",
        "final_piece_count", "node_count",
    )

    def __init__(self, delta: Fraction, t: int, leaf_union: IntervalSet, measure: Fraction,
                 residual_mass: Fraction, explicit: bool, final_piece_count: int,
                 node_count: int):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "leaf_union", leaf_union)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "residual_mass", residual_mass)
        object.__setattr__(self, "explicit", explicit)
        object.__setattr__(self, "final_piece_count", final_piece_count)
        object.__setattr__(self, "node_count", node_count)

    @property
    def root_forest(self) -> tuple:
        """The halving chain of every decomposed piece, round by round, by
        landau_lemma_decompose; () in summary mode."""
        if not self.explicit:
            return ()
        roots, pieces = [], [(Fraction(0), Fraction(1))]
        for r in range(self.t):
            nxt = []
            for lo, hi in pieces:
                _, Js, node = landau_lemma_decompose(lo, hi, self.delta)
                roots.append(node)
                nxt += Js
            # round 0's nested J's unite into the one piece (1/2, 1]
            pieces = nxt if r else [(_HALF, Fraction(1))]
        return tuple(roots)

    def to_json_dict(self) -> dict:
        leaves = []
        boundary = self.delta / 2
        for lo, hi in self.leaf_union:
            leaves.append(
                {
                    "lo": _text(lo),
                    "hi": _text(hi),
                    "kind": "I" if hi <= boundary else "J",
                }
            )
        return {
            "delta": _text(self.delta),
            "t": self.t,
            "leaves": leaves,
            "measure": _text(self.measure),
            "explicit": self.explicit,
            "residual_mass": _text(self.residual_mass),
            "final_piece_count": _text(self.final_piece_count),
        }


def landau_construct(delta, *, node_budget: int = DEFAULT_NODE_BUDGET) -> FundamentalSet:
    """Build a fundamental set of measure < delta for delta in (0, 1].

    Runs t rounds of the interval lemma, t minimal with
    (1 - delta/4)**t < delta/2, through the threshold-state recursion.  The
    pieces are also enumerated when their forest fits in node_budget nodes
    (then tracers work); otherwise the set is reported in summary form.
    Either way every measure statement is an exact rational comparison.
    A delta whose t exceeds ROUND_CAP (any delta below about 1/442) raises
    ResourceError before any round is run.
    """
    delta = _check_delta(delta)
    t = _capped_rounds(delta)
    residual, count, nodes = _threshold_loop(delta)(t - 1)
    explicit = nodes <= node_budget
    if explicit:
        leaf_union = _enumerate_leaves(delta, t, residual, count)
        measure = leaf_union.measure
    else:
        leaf_union = IntervalSet([(Fraction(0), delta / 2)])
        measure = delta / 2 + residual
    if not residual < (1 - delta / 4) ** t:
        raise AssertionError("remainder bound violated")  # pragma: no cover
    if not measure < delta:
        raise AssertionError("constructed set not small")  # pragma: no cover
    return FundamentalSet(delta, t, leaf_union, measure, residual, explicit, count, nodes)


def _enumerate_leaves(delta: Fraction, t: int, residual: Fraction, count: int) -> IntervalSet:
    """The I-leaves of t rounds and the remainder, as one IntervalSet.

    Endpoints are integers over S = 2**(K t), K the class of 1; no piece's
    denominator exceeds S, so every shift below is exact.  Round 0 leaves
    (0, S >> K] and the one piece (1/2, 1]; each later round replaces a
    piece (a, b] of class m by its I-leaf (a >> m, b >> m] and its m J's
    ((a >> i) + S/2, (b >> i) + S/2], with no merging, so the remainder must
    have the recursion's mass and count.  Every such piece lies in
    (1/2, 1], so its class is M or K (_class_bounds), K exactly when its
    right end exceeds beta* = delta * 2**(M - 1), as in the threshold
    recursion: one comparison of b with floor(beta* S).  Sort and merge run
    on these integers too; the IntervalSet makes its Fractions on first read.
    """
    M, K = _class_bounds(delta)
    scale = 1 << (K * t)
    half = scale >> 1
    # b <= floor(beta* S) exactly when b / S <= beta*; M == K needs no split
    split = scale if M == K else (delta.numerator << (M - 1 + K * t)) // delta.denominator
    leaves = [(0, scale >> K)]
    pieces = [(half, scale)]
    bands = {M: range(1, M + 1), K: range(1, K + 1)}
    for _ in range(1, t):
        # each round's pieces are classed once, into a list of the cached
        # ints M and K: a temporary tuple per piece would share the heap's
        # blocks with the kept pairs and raise the peak RSS
        ms = [M if b <= split else K for _, b in pieces]
        leaves += [(a >> m, b >> m) for (a, b), m in zip(pieces, ms)]
        pieces = [((a >> i) + half, (b >> i) + half)
                  for (a, b), m in zip(pieces, ms) for i in bands[m]]
    if Fraction(sum(b - a for a, b in pieces), scale) != residual or len(pieces) != count:
        raise AssertionError("enumeration disagrees with the recursion")  # pragma: no cover
    return IntervalSet._scaled(leaves + pieces, scale)


# ---------------------------------------------------------------------------
# derivation traces


class DerivationTrace:
    """A derivation trace as one post-order record, made by a tracer or by
    `from_json_dict`.

    Node i has rule rules[i], argument args[i], value values[i] and its
    children at the indices kids[i], all below i; the root is last.  A real
    argument is its reduced integer pair (n, d), any other is as it is.  Two
    traces are equal when their four lists are; a trace is not hashable,
    since add changes it.

    Its JSON text is written from these lists by `json_parts`; the same tree
    as nested dicts, `to_json_dict`, is kept for readers and the csv and
    text reports, and `from_json_dict` reads either back.
    """

    __slots__ = ("rules", "args", "values", "kids")

    def __init__(self):
        self.rules, self.args, self.values, self.kids = [], [], [], []

    def add(self, rule: str, a, value, kids: tuple = ()) -> int:
        """Append a node whose children are at kids; returns its index."""
        self.rules.append(rule)
        self.args.append(a)
        self.values.append(value)
        self.kids.append(kids)
        return len(self.kids) - 1

    @property
    def node_count(self) -> int:
        return len(self.rules)

    @property
    def direct_count(self) -> int:
        return self.rules.count("direct")

    def _lists(self) -> tuple:
        return self.rules, self.args, self.values, self.kids

    def __eq__(self, other):
        if not isinstance(other, DerivationTrace):
            return NotImplemented
        return self._lists() == other._lists()

    def __repr__(self) -> str:
        return f"DerivationTrace(direct_count={self.direct_count}, node_count={self.node_count})"

    def to_json_dict(self) -> dict:
        """The trace's JSON as nested dicts: {"arg", "children", "rule"} per
        node, each arg as _json_arg writes it."""
        out = []
        for rule, a, kids in zip(self.rules, self.args, self.kids):
            out.append({"rule": rule, "arg": _json_arg(a), "children": [out[k] for k in kids]})
        return out[-1]

    def json_parts(self) -> list:
        """The trace's JSON text, written from the record, as fragments whose
        "".join is json.dumps(self.to_json_dict(), sort_keys=True,
        allow_nan=False, separators=(",", ":"), ensure_ascii=False).

        One pre-order walk over the lists with an explicit stack, so any
        depth, and no dict per node; a non-finite argument raises
        ValueError, as allow_nan=False does.  json.loads cannot read back
        the text of a trace nested deeper than the recursion limit (it
        raises RecursionError); from_json_dict reads its dict tree at any
        depth."""
        rules, args, kids = self.rules, self.args, self.kids
        # a node's text after its last child, one per rule the trace uses
        close = {r: f'],"rule":{json.dumps(r, ensure_ascii=False)}}}' for r in set(rules)}
        out = []
        # an int is a node to open, a str a fragment to write as it is
        stack = [len(rules) - 1]
        while stack:
            i = stack.pop()
            if type(i) is str:
                out.append(i)
                continue
            arg = _json_arg(args[i])
            if type(arg) is str:
                arg = f'"{arg}"'
            elif type(arg) is list:
                arg = f"[{_float_json(arg[0])},{_float_json(arg[1])}]"
            else:
                arg = _float_json(arg)
            out.append(f'{{"arg":{arg},"children":[')
            stack.append(close[rules[i]])
            ks = kids[i]
            for k in reversed(ks[1:]):
                stack += (k, ",")
            stack += ks[:1]
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "DerivationTrace":
        """The trace whose JSON tree is d, read with no recursion.

        Arguments read back exactly (JSON floats are shortest round-trip);
        values are recomputed bottom-up, by core.gamma at a direct leaf and
        above it by the form of its rule that its children match.  Only what
        to_json_dict writes is read: each node a dict with a str "rule", an
        "arg" as _record_arg reads it and a list "children", empty at a
        "direct" leaf off gamma's poles, and every value recomputed within the
        float range; anything else raises DomainError.  validate_trace then
        checks the leaves and replays.  A tree of any depth is read, but
        json.loads raises RecursionError on the text of one nested deeper
        than the recursion limit, so such a tree must come from a reader
        that does not recurse."""
        # popping the children right to left is the post-order reversed
        order, stack = [], [d]
        while stack:
            node = _json_node(stack.pop())  # (rule, arg, children)
            order.append(node)
            stack.extend(node[2])
        trace = cls()
        done = []  # the indices of finished subtrees that no parent has taken yet
        try:
            for rule, arg, children in reversed(order):
                k = len(done) - len(children)
                kids = tuple(done[k:])
                del done[k:]
                a = _record_arg(arg)
                if rule == "direct":
                    if kids:
                        raise DomainError(f"the direct node at {arg!r} has children")
                    try:
                        value = gamma(a[0] / a[1] if type(a) is tuple else a)
                    except PoleError:
                        raise DomainError(f"the direct leaf at {arg!r} is a pole of gamma") from None
                else:
                    value = _replay(trace, rule, a, kids)
                if not cmath.isfinite(value):
                    raise DomainError(f"the value at {arg!r} leaves the floating range")
                done.append(trace.add(rule, a, value, kids))
        except OverflowError:  # from gamma, or a replayed form's power of 2
            raise DomainError(f"the value at {arg!r} leaves the floating range") from None
        return trace


def _arg(a):
    """A record argument as a number: a pair (n, d) as Fraction(n, d)."""
    return Fraction(*a) if type(a) is tuple else a


def _json_arg(a):
    """A record argument in the trace JSON: a pair (n, d) as "n" (d = 1) or
    "n/d" at any size, a complex as [re, im], anything else as a float."""
    if type(a) is tuple:
        n, d = a
        return _text(n) if d == 1 else f"{_text(n)}/{_text(d)}"
    return [a.real, a.imag] if isinstance(a, complex) else float(a)


def _float_json(x: float) -> str:
    """x as the json module writes a float, repr; ValueError, as its
    allow_nan=False raises, when x is not finite."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


def _json_node(node) -> tuple:
    """(rule, arg, children) of a node of the trace JSON: a dict with a str
    "rule", an "arg" and a list "children"; DomainError for anything else."""
    if type(node) is not dict:
        raise DomainError(f"a trace node is a dict, not a {type(node).__name__}")
    rule, children = node.get("rule"), node.get("children")
    if type(rule) is not str or "arg" not in node or type(children) is not list:
        raise DomainError(
            f'the trace node at {node.get("arg")!r} needs a str "rule", an "arg" and a list "children"'
        )
    return rule, node["arg"], children


def _record_arg(arg):
    """The record argument that _json_arg wrote as arg: "n" or "n/d", ASCII
    digits with an optional leading "-" and d >= 1, as the reduced pair
    (n, d); [re, im], two numbers, as a complex; a number as a float.
    DomainError for anything else, a bool included."""
    kind = type(arg)
    if kind is str:
        n, slash, d = arg.partition("/")
        d = d if slash else "1"
        if all(s.isascii() and s.isdigit() for s in (n.removeprefix("-"), d)):
            n, d = _int_of_text(n), _int_of_text(d)
            if d:
                g = math.gcd(n, d)
                return n // g, d // g
    elif kind is int or kind is float or (
        kind is list and len(arg) == 2 and all(type(x) in (int, float) for x in arg)
    ):
        try:
            return complex(*arg) if kind is list else float(arg)
        except OverflowError:  # an int past the float range
            pass
    raise DomainError(f'trace argument {arg!r} is none of "n", "n/d" (d >= 1), [re, im] and a number')


class _Form(_Record):
    """One form of a rule.

    generic(a): the child arguments of a node at a, in a's own type (exact
    on a Fraction); ratios(n, d): the children of a = n/d, d > 0, as integer
    pairs (p, q), q > 0, each standing for p/q; combine(a, *values): Gamma(a)
    from the children's gamma values, with a as a float or complex.
    """

    __slots__ = ("generic", "ratios", "combine")

    def __init__(self, generic, ratios, combine):
        object.__setattr__(self, "generic", generic)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "combine", combine)

    def matches(self, a, kids: tuple, args: list) -> bool:
        """Whether the record nodes at kids, whose arguments args holds, are
        the children of a node at a.  The children of a pair a are pairs,
        matched to the integer ratios by cross-multiplication; those of any
        other a must equal generic(a)."""
        if type(a) is not tuple:
            return self.generic(a) == tuple([args[k] for k in kids])
        want = self.ratios(*a)
        if len(want) != len(kids):
            return False
        for (p, q), k in zip(want, kids):
            c = args[k]
            if type(c) is not tuple or c[0] * q != p * c[1]:
                return False
        return True


# The rule table, a view of four rows of the identity table: each form's
# children are compiled from its row's slots.  Every trace node is built
# from one of its rule's forms, and validate_trace replays every node
# against the same forms.
_RULES = {
    tag: tuple(
        _Form(*_compile(_node_maps(_IDENTITIES[tag].slots, node)), combine)
        for node, combine in _IDENTITIES[tag].forms
    )
    for tag in ("functional", "reflection", "duplication", "comb")
}


# the halving step x -> (x/2, (x + 1)/2) that the real and complex walks take
_HALVES = _RULES["duplication"][0]


def _node(rec: DerivationTrace, rule: str, a, build, form: int = 0) -> int:
    """Append the node at a float or complex a by the given form of rule;
    build(*child arguments) appends the children and returns their indices."""
    spec = _RULES[rule][form]
    kids = build(*spec.generic(a))
    values = rec.values
    return rec.add(rule, a, spec.combine(a, *[values[k] for k in kids]), kids)


def _direct(rec: DerivationTrace, a) -> int:
    return rec.add("direct", a, gamma(a))


def _finish_trace(trace: DerivationTrace):
    """(value, trace), value the root's; OverflowError, as gamma raises, when
    the value is not finite."""
    value = trace.values[-1]
    if not cmath.isfinite(value):
        raise OverflowError(f"gamma({_arg(trace.args[-1])!r}) exceeds the floating range")
    return value, trace


def _replay(trace: DerivationTrace, rule: str, a, kids: tuple):
    """Gamma(a) from the values of the trace's nodes at kids, by the form of
    rule that they are the children of; DomainError when rule is unknown or
    no form matches."""
    forms = _RULES.get(rule)
    if forms is None:
        raise DomainError(f"unknown trace rule {rule!r}")
    args, values = trace.args, trace.values
    for form in forms:
        if form.matches(a, kids, args):
            return form.combine(a[0] / a[1] if type(a) is tuple else a, *[values[k] for k in kids])
    raise DomainError(
        f"{rule} node at {_arg(a)!r} has children {tuple([_arg(args[k]) for k in kids])!r}, "
        "which match none of its forms"
    )


def validate_trace(trace: DerivationTrace, direct_membership) -> int:
    """Check a trace: direct leaves satisfy direct_membership, every
    internal node's child arguments match a form of its rule, and its value
    re-derives from the children's by that form to 1e-12 relative.

    One loop over the trace's post-order lists, children before parents.
    A real argument stays an integer pair: it is matched by
    cross-multiplication, replayed at n / d, and made a Fraction only for
    direct_membership at a direct leaf.

    Returns the number of nodes checked; raises DomainError on violation.
    """
    for rule, a, value, ks in zip(*trace._lists()):
        if rule == "direct":
            if ks:
                raise DomainError(f"direct node at {_arg(a)!r} has children")
            if not direct_membership(_arg(a)):
                raise DomainError(f"direct leaf {_arg(a)!r} outside the restricted set")
            continue
        want = _replay(trace, rule, a, ks)
        if not _residual(value, want) <= 1e-12:  # NaN fails too
            raise DomainError(f"{rule} node at {_arg(a)!r} fails replay: {value!r} vs {want!r}")
    return len(trace.values)


# ---------------------------------------------------------------------------
# tracer 1: walking the explicit forest on (0, 1]


def _require_explicit(fs: FundamentalSet):
    if not fs.explicit:
        raise ResourceError(
            "this construction is summary-only (no recorded decomposition); "
            "tracing needs an explicit forest, available when the node "
            "budget admits it (e.g. delta = 1/2)"
        )


def _walk_real(n: int, d: int, fs: FundamentalSet, rec: DerivationTrace) -> int:
    """Append the trace at x = n/d (d > 0) to rec; returns the index of
    x's node."""
    add, values = rec.add, rec.values
    member, gcd = fs.leaf_union.contains_ratio, math.gcd
    ratios, combine = _HALVES.ratios, _HALVES.combine

    def walk(n, d, depth):
        """Append the node for y = n/d: a direct leaf if y is in the set,
        else a halving step, with depth halvings left on its path."""
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if member(n, d):
            # n / d is correctly rounded, so it is float(y)
            return add("direct", (n, d), gamma(n / d))
        if not depth:
            raise DomainError(f"chain bottomed out at {Fraction(n, d)} outside the set")
        (ln, ld), (hn, hd) = ratios(n, d)
        low = walk(ln, ld, depth - 1)
        high = walk(hn, hd, depth - 1)
        return add("duplication", (n, d), combine(n / d, values[low], values[high]), (low, high))

    try:
        return walk(n, d, _class_of(1, 1, fs.delta) * fs.t)
    finally:
        # walk's closure holds walk: break that cycle, so that rec is freed
        # with the trace and not kept until the cycle collector runs
        del walk


def trace_evaluate(x, fs: FundamentalSet):
    """Evaluate Gamma(x) for x in (0, 1] using direct gamma calls only on
    fs.leaf_union, combining intermediate values with the duplication
    formula along halving chains of at most K t steps.

    Returns (value, DerivationTrace).
    """
    x = as_fraction(x)
    if not (0 < x <= 1):
        raise DomainError(f"x must lie in (0, 1], got {x}")
    _require_explicit(fs)
    rec = DerivationTrace()
    _walk_real(x.numerator, x.denominator, fs, rec)
    return _finish_trace(rec)


# ---------------------------------------------------------------------------
# tracer 2: the quarter set (0, 1/4] with the two spare points {1/3, 1}

_THIRD = 1.0 / 3.0


def quarter_set_trace(x: float):
    """Derive Gamma(x) for x in (0, 1/2) from values on (0, 1/4] and {1/3, 1}.

    Points in (1/4, 1/3) use the quarter-step relation at alpha = x - 1/4,
    whose recursive argument 4*alpha quadruples the distance to the fixed
    point 1/3 and so escapes the window; points in (1/3, 1/2) first reflect
    to 1 - x and then peel that with an inverted duplication step.  Raises
    DomainError within 1e-9 of 1/3 (except at the representable 1/3 itself,
    a direct leaf), and PoleError within 1e-12 of 0, where the direct leaf
    at x meets gamma's absolute pole test, and within 1e-12 of 1/2, where
    the duplication step's child 1/2 - x meets it.

    The escape needs no cap.  On (1/4, 1/3) the child 4x - 1 is exact in
    doubles (x - 1/4 by Sterbenz, then a power of two), so each step
    quadruples the distance to 1/3, and the (1/3, 1/2) branch doubles it
    once.  A point leaves (1/4, 1/3) when that distance passes 1/12, so
    from outside the 1e-9 band every chain escapes within
    ceil(log4((1/12) / 1e-9)) = 14 steps.
    """
    x = float(x)
    if not (0.0 < x < 0.5):
        raise DomainError(f"x must lie in (0, 1/2), got {x}")
    if x != _THIRD and abs(x - _THIRD) <= 1e-9:
        raise DomainError(f"{x} is inside the 1e-9 exclusion band around 1/3")
    rec = DerivationTrace()
    _quarter_node(rec, x)
    return _finish_trace(rec)


def _quarter_node(rec: DerivationTrace, x: float) -> int:
    if x == _THIRD or x <= 0.25:
        return _direct(rec, x)
    if x < _THIRD:
        return _node(
            rec,
            "comb",
            x,
            lambda c4, cq, c2: (_quarter_node(rec, c4), _direct(rec, cq), _direct(rec, c2)),
        )
    # x in (1/3, 1/2): reflect, then invert a duplication step at w = 1 - x,
    # whose first child 2w - 1 lies in (0, 1/3)
    return _node(
        rec,
        "reflection",
        x,
        lambda w: (
            _node(rec, "duplication", w, lambda z, h: (_quarter_node(rec, z), _direct(rec, h)), form=1),
        ),
    )


def quarter_set_membership(a) -> bool:
    """Membership predicate of the declared quarter set (0, 1/4] + {1/3, 1}."""
    return (0.0 < a <= 0.25) or a == _THIRD or a == 1.0


# ---------------------------------------------------------------------------
# tracer 3: the complex strip


def strip_membership(fs: FundamentalSet):
    """Membership predicate of the strip that complex_reduce_trace's direct
    leaves lie in: a complex a with |Im a| < 1 and Re a in fs.leaf_union."""

    def member(a) -> bool:
        return isinstance(a, complex) and abs(a.imag) < 1.0 and a.real in fs.leaf_union

    return member


def complex_reduce_trace(z, fs: FundamentalSet, *, node_budget: int = DEFAULT_COMPLEX_BUDGET):
    """Reduce Gamma(z) to direct evaluations at points whose real part lies
    in fs.leaf_union and |Im| < 1.

    Order of reduction: shifts/reflection bring Re z into (0, 1], then
    duplication halvings shrink the imaginary part below 1 (both children
    of z have imaginary part Im(z)/2), then the real decomposition pattern
    runs on real parts, which are exact dyadic rationals.

    The halvings end at 2**m strip points, m the bit length of int(|Im z|),
    each a walk of about 1,000 nodes at delta = 1/2: there the default
    budget reaches |Im z| < 256 (at most 266,111 nodes), and |Im z| = 2**16
    would need about 2**27.

    At Re z <= 0 the reflection step divides by sin(pi z), which overflows
    once |Im z| passes about 226.15 (226.26 at the latest, by Re z), though
    Gamma(z) is still a normal double: there the call raises DomainError.
    Only the root can reflect, since every later argument has Re > 0, so
    sin(pi z) is tested once, before any node is built.

    Raises ResourceError when the tree would exceed node_budget nodes, at
    the node that exceeds it, with the strip points z needs and the nodes
    built when it stopped.  Where Gamma(z) is no normal double, as at
    1200.5 + 0.5j (past the range) or 0.5 + 1000j (underflowed), it raises
    OverflowError, as core._gamma_factor does, after the other refusals and
    before any node is built.  A non-finite z raises DomainError.

    Each shift z -> z - 1 is a node, and below 2**53 each is exact, so at
    Re z - 1 > node_budget the shifts alone exceed the budget (and where
    z - 1 rounds to z, as at Re z = 1e300, they never end): there the
    ResourceError comes before any node is built.
    """
    z = _check_finite(z)
    if pole_distance(z) <= 1e-6:
        raise DomainError(f"{z!r} is within 1e-6 of a pole")
    if abs(z.imag) > 2.0**16:
        raise DomainError(f"|Im z| = {abs(z.imag)} exceeds 2**16")
    _require_explicit(fs)
    if z.real - 1.0 > node_budget:
        raise ResourceError(
            f"Re z = {z.real!r} needs more shift steps z -> z - 1, one node each, "
            f"than the node budget of {node_budget}"
        )
    if z.real <= 0.0:
        try:
            sinpi(z)
        except OverflowError:
            raise DomainError(f"sin(pi z) overflows at z = {z!r}: |Im z| past about 226.15") from None
    _gamma_factor(z)
    rec = DerivationTrace()
    left = node_budget

    def spend():
        nonlocal left
        left -= 1
        if left < 0:
            raise ResourceError(
                f"complex reduction exceeded the node budget of {node_budget}: |Im z| = "
                f"{abs(z.imag)!r} needs {1 << int(abs(z.imag)).bit_length()} strip points, "
                f"and {rec.node_count} nodes were built when it stopped"
            )

    _reduce_complex(z, fs, rec, spend)
    return _finish_trace(rec)


def _reduce_complex(z: complex, fs: FundamentalSet, rec: DerivationTrace, spend) -> int:
    def reduce(*args):
        return tuple([_reduce_complex(c, fs, rec, spend) for c in args])

    if z.real > 1.0:
        # shift down in a loop, not a recursion: Re z may run into thousands
        chain = []
        while z.real > 1.0:
            spend()
            chain.append(z)
            (z,) = _RULES["functional"][0].generic(z)
        (node,) = reduce(z)
        for a in reversed(chain):
            node = _node(rec, "functional", a, lambda _, child=node: (child,))
        return node
    if z.real <= 0.0:
        spend()
        return _node(rec, "reflection", z, reduce)
    if abs(z.imag) >= 1.0:
        spend()
        return _node(rec, "duplication", z, reduce)
    return _walk_complex(z, fs, rec, spend)


def _walk_complex(z: complex, fs: FundamentalSet, rec: DerivationTrace, spend) -> int:
    """Complex counterpart of _walk_real on the real part of z, appending
    to rec; returns the index of z's node."""
    add, values = rec.add, rec.values
    member = fs.leaf_union.contains_ratio
    generic, combine = _HALVES.generic, _HALVES.combine

    def walk(z, depth):
        spend()
        if member(*z.real.as_integer_ratio()):
            return add("direct", z, gamma(z))
        if not depth:
            raise DomainError(f"chain bottomed out at {z!r} outside the set")
        low, high = generic(z)
        low = walk(low, depth - 1)
        high = walk(high, depth - 1)
        return add("duplication", z, combine(z, values[low], values[high]), (low, high))

    try:
        return walk(z, _class_of(1, 1, fs.delta) * fs.t)
    finally:
        del walk  # the cycle of _walk_real's walk
