import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalab.errors import DomainError
from gammalab.intervals import IntervalSet, as_fraction


class TestAsFraction:
    def test_strings(self):
        assert as_fraction("3/7") == Fraction(3, 7)
        assert as_fraction("2") == 2
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_passthrough_and_floats(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(0.5) == Fraction(1, 2)
        # floats convert exactly (binary value, not decimal intent)
        assert as_fraction(0.1) == Fraction(0.1)

    def test_rejects_junk(self):
        with pytest.raises(DomainError):
            as_fraction("three sevenths")
        with pytest.raises(DomainError):
            as_fraction(object())


class TestIntervalSet:
    def test_sorts_and_merges(self):
        s = IntervalSet(
            [
                (Fraction(1, 2), Fraction(3, 4)),
                (Fraction(3, 4), Fraction(1)),
                (Fraction(0), Fraction(1, 4)),
            ]
        )
        assert list(s) == [
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1)),
        ]
        assert s.measure == Fraction(3, 4)

    def test_half_open_membership(self):
        s = IntervalSet([(Fraction(0), Fraction(1, 2))])
        assert Fraction(1, 2) in s
        assert Fraction(0) not in s
        assert Fraction(1, 4) in s
        assert Fraction(3, 4) not in s

    def test_union(self):
        a = IntervalSet([(Fraction(0), Fraction(1, 3))])
        b = IntervalSet([(Fraction(1, 3), Fraction(1))])
        assert list(IntervalSet(a.intervals + b.intervals)) == [(Fraction(0), Fraction(1))]

    def test_overlap_merge(self):
        s = IntervalSet([(Fraction(0), Fraction(2, 3)), (Fraction(1, 3), Fraction(1))])
        assert list(s) == [(Fraction(0), Fraction(1))]
        assert s.measure == 1

    def test_empty(self):
        s = IntervalSet([])
        assert len(s) == 0
        assert not s
        assert s.measure == 0
        assert Fraction(1, 2) not in s

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            IntervalSet([(Fraction(1, 2), Fraction(1, 2))])
        with pytest.raises(DomainError):
            IntervalSet([(Fraction(3, 4), Fraction(1, 4))])


_ivs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12)
    ).map(lambda t: (Fraction(t[0], 41), Fraction(t[0], 41) + Fraction(t[1], 41))),
    max_size=8,
)


class TestIntervalSetProperties:
    @settings(max_examples=200, deadline=None)
    @given(_ivs, st.integers(min_value=0, max_value=530))
    def test_membership_matches_brute_force(self, pairs, num):
        s = IntervalSet(pairs)
        x = Fraction(num, 410)
        brute = any(lo < x <= hi for lo, hi in pairs)
        assert (x in s) == brute

    @settings(max_examples=200, deadline=None)
    @given(_ivs)
    def test_canonical_invariants(self, pairs):
        s = IntervalSet(pairs)
        items = list(s)
        # strictly increasing with gaps: no touching or overlapping runs survive
        for (lo1, hi1), (lo2, hi2) in zip(items, items[1:]):
            assert hi1 < lo2
        assert s.measure == sum((hi - lo for lo, hi in items), Fraction(0))

    @settings(max_examples=100, deadline=None)
    @given(_ivs, _ivs)
    def test_union_is_membership_or(self, pa, pb):
        a, b = IntervalSet(pa), IntervalSet(pb)
        u = IntervalSet(a.intervals + b.intervals)
        for num in range(0, 53):
            x = Fraction(num, 41)
            assert (x in u) == ((x in a) or (x in b))


# Endpoints whose denominators mix powers of two up to 2**30 with odd ones,
# so the common denominator of the integer index is a large mixed lcm.
_dens = st.one_of(
    st.integers(min_value=0, max_value=30).map(lambda k: 2**k),
    st.integers(min_value=1, max_value=12).map(lambda k: 3**k),
    st.just(41),
)
_points = st.builds(
    lambda den, u: Fraction(round(u * den), den),
    _dens,
    st.floats(min_value=0.0, max_value=1.0),
)
_mixed_ivs = st.lists(
    st.tuples(_points, _points).filter(lambda t: t[0] != t[1]).map(sorted),
    max_size=8,
)


def _brute_member(pairs, x):
    return any(lo < x <= hi for lo, hi in pairs)


def _probes(pairs, extra):
    """Every endpoint, its neighbours 2**-40 away, and the extra points."""
    tiny = Fraction(1, 2**40)
    out = set(extra)
    for lo, hi in pairs:
        for e in (lo, hi):
            out.update((e - tiny, e, e + tiny))
        out.add((lo + hi) / 2)
    return out


class TestIntegerIndex:
    @settings(max_examples=150, deadline=None)
    @given(_mixed_ivs, st.lists(_points, max_size=6))
    def test_membership_matches_brute_force(self, pairs, extra):
        s = IntervalSet(pairs)
        for x in _probes(pairs, extra):
            assert (x in s) == _brute_member(pairs, x) == _brute_member(s.intervals, x)

    @settings(max_examples=100, deadline=None)
    @given(_mixed_ivs)
    def test_lo_excluded_hi_included(self, pairs):
        s = IntervalSet(pairs)
        for lo, hi in s:
            assert lo not in s
            assert hi in s

    @settings(max_examples=100, deadline=None)
    @given(_mixed_ivs, st.lists(_points, max_size=6))
    def test_int_float_and_string_inputs(self, pairs, extra):
        s = IntervalSet(pairs)
        for x in _probes(pairs, extra):
            text = f"{x.numerator}/{x.denominator}"
            assert (text in s) == (x in s)
            f = float(x)
            assert (f in s) == (Fraction(f) in s)
        for n in (-1, 0, 1, 2):
            assert (n in s) == (Fraction(n) in s)

    @settings(max_examples=50, deadline=None)
    @given(_points)
    def test_empty_set(self, x):
        s = IntervalSet()
        assert x not in s
        assert 0 not in s and 1.0 not in s and "1/2" not in s

    @settings(max_examples=100, deadline=None)
    @given(_mixed_ivs, _mixed_ivs)
    def test_union_index(self, pa, pb):
        u = IntervalSet(IntervalSet(pa).intervals + IntervalSet(pb).intervals)
        for x in _probes(pa + pb, ()):
            assert (x in u) == _brute_member(pa + pb, x) == _brute_member(u.intervals, x)

    @settings(max_examples=100, deadline=None)
    @given(_mixed_ivs, st.lists(_points, max_size=6))
    def test_contains_agrees_with_intervals(self, pairs, extra):
        s = IntervalSet(pairs)
        for x in _probes(pairs, extra):
            for point in (x, float(x), f"{x.numerator}/{x.denominator}"):
                assert (point in s) == _brute_member(s.intervals, as_fraction(point))
        for n in (-1, 0, 1, 2):
            assert (n in s) == _brute_member(s.intervals, n)

    @settings(max_examples=150, deadline=None)
    @given(_mixed_ivs, st.lists(_points, max_size=6))
    def test_membership_matches_brute_force_on_every_input_kind(self, pairs, extra):
        s = IntervalSet(pairs)
        for x in _probes(pairs, extra):
            f = float(x)
            floats = (f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf))
            for point in floats:
                assert (point in s) == _brute_member(pairs, Fraction(point))
            assert (x in s) == _brute_member(pairs, x)
            text = f"{x.numerator}/{x.denominator}"
            assert (text in s) == _brute_member(pairs, x)
        for n in (-1, 0, 1, 2):
            assert (n in s) == _brute_member(pairs, n)

    def test_contains_rejects_junk(self):
        s = IntervalSet([(Fraction(0), Fraction(1))])
        with pytest.raises(DomainError):
            "three sevenths" in s
        with pytest.raises(DomainError):
            object() in s


class TestFractionsOnFirstRead:
    """The Fraction pairs of `intervals` are made on first read; equality,
    hash and repr are those of a frozen dataclass with that one field."""

    PAIRS = [(Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 4), 1), (0, Fraction(1, 4))]

    def test_membership_length_and_measure_make_no_fractions(self):
        for s in (IntervalSet(self.PAIRS), IntervalSet._scaled([(8, 12), (12, 16), (0, 4)], 16)):
            assert Fraction(3, 8) not in s and 0.75 in s and 1 in s and "1/8" in s
            assert len(s) == 2 and s and s.measure == Fraction(3, 4)
            # the index is two lists and an int; the pairs would be a tuple
            assert not any(isinstance(v, tuple) for v in vars(s).values())
            assert list(s) == [(0, Fraction(1, 4)), (Fraction(1, 2), 1)]
            assert any(isinstance(v, tuple) for v in vars(s).values())
            assert s.intervals is s.intervals

    def test_equality_hash_and_repr(self):
        s = IntervalSet(self.PAIRS)
        scaled = IntervalSet._scaled([(8, 12), (12, 16), (0, 4)], 16)
        assert s == scaled and hash(s) == hash(scaled) == hash((s.intervals,))
        assert s != IntervalSet([(0, Fraction(1, 4))])
        assert s.__eq__(s.intervals) is NotImplemented
        assert repr(scaled) == (
            "IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 4)), "
            "(Fraction(1, 2), Fraction(1, 1))))"
        )
        assert repr(IntervalSet()) == "IntervalSet(intervals=())"
        assert IntervalSet() == IntervalSet._scaled([], 8) and not IntervalSet()

    def test_immutable(self):
        s = IntervalSet(self.PAIRS)
        for name in ("intervals", "_lo", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(s, name)
        assert list(s) == [(0, Fraction(1, 4)), (Fraction(1, 2), 1)]

    def test_copy_and_pickle(self):
        s = IntervalSet._scaled([(8, 12), (12, 16), (0, 4)], 16)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and len(twin) == 2 and Fraction(3, 8) not in twin and 1 in twin


# Integer pairs (a, b) over 2**k on a grid of 16 cells, each end moved up by
# 0 or 1, so that pieces overlap, touch and nest often.
_scaled_pairs = st.integers(min_value=4, max_value=30).flatmap(
    lambda k: st.tuples(
        st.just(1 << k),
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 16), st.integers(0, 1), st.integers(0, 1))
            .map(lambda t: ((t[0] << (k - 4)) + t[2], ((t[0] + t[1]) << (k - 4)) + t[3]))
            .filter(lambda p: p[0] < p[1]),
            max_size=10,
        ),
    )
)


class TestScaledConstructor:
    """IntervalSet._scaled, which landau's explicit construction calls, against
    the public constructor on the same pieces as Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(_scaled_pairs)
    def test_agrees_with_public_constructor(self, case):
        den, pairs = case
        fast = IntervalSet._scaled(pairs, den)
        pairs_q = [(Fraction(a, den), Fraction(b, den)) for a, b in pairs]
        slow = IntervalSet(pairs_q)
        assert fast.intervals == slow.intervals
        assert fast == slow
        assert fast.measure == slow.measure
        for a, b in pairs:
            for c in (a - 1, a, a + 1, b - 1, b, b + 1):
                for x in (Fraction(c, den), Fraction(2 * c + 1, 2 * den)):
                    assert (x in fast) == (x in slow) == _brute_member(pairs_q, x)
                    assert (float(x) in fast) == (x in slow)

    def test_touching_nested_and_overlapping(self):
        s = IntervalSet._scaled([(4, 8), (0, 2), (2, 4), (5, 6), (7, 12), (14, 16)], 16)
        assert s.intervals == ((Fraction(0), Fraction(3, 4)), (Fraction(7, 8), Fraction(1)))
        assert s.measure == Fraction(7, 8)
        assert Fraction(3, 4) in s and Fraction(13, 16) not in s and 0 not in s

    def test_empty(self):
        s = IntervalSet._scaled([], 1 << 20)
        assert not s and s.measure == 0 and Fraction(1, 2) not in s
