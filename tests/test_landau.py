import copy
import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalab.core import gamma
from gammalab.errors import (
    DomainError,
    PoleError,
    ResourceError,
)
from gammalab.landau import (
    _RULES,
    ROUND_CAP,
    DerivationTrace,
    complex_reduce_trace,
    iteration_count,
    landau_construct,
    landau_lemma_decompose,
    quarter_set_membership,
    quarter_set_trace,
    strip_membership,
    trace_evaluate,
    validate_trace,
)
from gammalab.identities import _IDENTITIES
from gammalab.intervals import IntervalSet
from gammalab import landau
from gammalab.landau import (
    _capped_rounds,
    _class_bounds,
    _class_of,
    _threshold_loop,
    _threshold_plan,
)


@pytest.fixture(scope="module")
def fs_half():
    return landau_construct(Fraction(1, 2))


@pytest.fixture(scope="module")
def fs_one():
    return landau_construct(Fraction(1))


@pytest.fixture(scope="module")
def fs_tenth():
    return landau_construct(Fraction(1, 10))


class TestIntervalLemma:
    def test_unit_interval_at_one_half(self):
        I, Js, node = landau_lemma_decompose(0, 1, Fraction(1, 2))
        assert I == (Fraction(0), Fraction(1, 4))
        assert Js == [
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1, 2), Fraction(3, 4)),
        ]
        assert node.kind == "split"
        assert node.interval == (Fraction(0), Fraction(1))

    def test_already_small_piece_is_identity(self):
        I, Js, node = landau_lemma_decompose(0, Fraction(1, 8), Fraction(1, 2))
        assert I == (Fraction(0), Fraction(1, 8))
        assert Js == []
        assert node.kind == "I"

    def test_chain_node_count(self):
        def count(n):
            return 1 + sum(count(c) for c in n.children)

        for beta, delta in [(1, Fraction(1, 2)), (1, Fraction(1, 10)), (Fraction(3, 4), Fraction(1, 3))]:
            _, Js, node = landau_lemma_decompose(0, beta, delta)
            assert count(node) == 2 * len(Js) + 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_conservation_and_bounds(self, a, width, d):
        alpha = Fraction(a, 64)
        beta = alpha + Fraction(width, 64)
        if beta > 1:
            return
        delta = Fraction(d, 16)
        I, Js, _ = landau_lemma_decompose(alpha, beta, delta)
        mass = (I[1] - I[0]) + sum((hi - lo for lo, hi in Js), Fraction(0))
        assert mass == beta - alpha
        assert I[1] <= delta / 2
        assert I[1] - I[0] > (delta / 4) * (beta - alpha)
        for lo, hi in Js:
            assert Fraction(1, 2) <= lo < hi <= 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            landau_lemma_decompose(Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(DomainError):
            landau_lemma_decompose(0, Fraction(5, 4), Fraction(1, 2))
        with pytest.raises(DomainError):
            landau_lemma_decompose(0, 1, 0)
        with pytest.raises(DomainError):
            landau_lemma_decompose(0, 1, Fraction(3, 2))


class TestIterationCount:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (Fraction(1), 3),
            (Fraction(1, 2), 11),
            (Fraction(1, 10), 119),
            (Fraction(1, 50), 919),
        ],
    )
    def test_known_counts(self, delta, expected):
        assert iteration_count(delta) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_minimality(self, num, den):
        if num > den:
            return
        delta = Fraction(num, den)
        t = iteration_count(delta)
        ratio = 1 - delta / 4
        assert ratio**t < delta / 2
        if t > 0:
            assert not ratio ** (t - 1) < delta / 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6), st.data())
    def test_matches_fraction_definition_on_large_denominators(self, den, data):
        # num >= den / 16 keeps t below 250, within reach of the Fraction loop
        num = data.draw(st.integers(min_value=max(1, den // 16), max_value=den))
        delta = Fraction(num, den)
        assert iteration_count(delta) == _fraction_iteration_count(delta)

    def test_delta_one_matches_fraction_definition(self):
        assert iteration_count(1) == _fraction_iteration_count(Fraction(1)) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            iteration_count(0)
        with pytest.raises(DomainError):
            iteration_count(Fraction(6, 5))


class TestExplicitConstruction:
    def test_half_frozen_statistics(self, fs_half):
        assert fs_half.explicit
        assert fs_half.t == 11
        assert fs_half.measure == Fraction(583337, 2097152)
        assert fs_half.residual_mass == Fraction(59049, 2097152)
        # at delta = 1/2 every leftover piece has class 2, so each round
        # keeps 3/4 of the mass: residual = (1/2) * (3/4)**10
        assert fs_half.residual_mass == Fraction(1, 2) * Fraction(3, 4) ** 10
        # rounds 1..10 double the one piece (1/2, 1]; each class-2 chain
        # has 5 nodes, round 0's included
        assert fs_half.final_piece_count == 1024
        assert fs_half.node_count == 5120

    def test_half_measure_below_delta(self, fs_half):
        assert fs_half.measure < Fraction(1, 2)
        assert fs_half.residual_mass < (1 - Fraction(1, 2) / 4) ** fs_half.t

    def test_half_leaves_in_declared_bands(self, fs_half):
        for lo, hi in fs_half.leaf_union:
            assert hi <= Fraction(1, 4) or (
                Fraction(1, 2) <= lo and hi <= 1
            ), (lo, hi)

    def test_forest_mass_conservation(self, fs_half):
        # every split node's children carry exactly half its width each
        def walk(node):
            lo, hi = node.interval
            assert lo < hi
            if node.kind == "split":
                child_mass = sum(
                    (c.interval[1] - c.interval[0] for c in node.children),
                    Fraction(0),
                )
                assert child_mass == hi - lo
                for c in node.children:
                    walk(c)
            else:
                assert not node.children

        for root in fs_half.root_forest:
            walk(root)

    def test_json_shape(self, fs_half):
        d = fs_half.to_json_dict()
        assert d["delta"] == "1/2"
        assert d["t"] == 11
        assert d["explicit"] is True
        assert d["measure"] == "583337/2097152"
        assert all(leaf["kind"] in ("I", "J") for leaf in d["leaves"])

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            landau_construct(0)
        with pytest.raises(DomainError):
            landau_construct(2)

    def test_tiny_budget_forces_summary(self):
        fs = landau_construct(Fraction(1, 2), node_budget=10)
        assert not fs.explicit


class TestSummaryConstruction:
    def test_tenth_statistics(self, fs_tenth):
        assert not fs_tenth.explicit
        assert fs_tenth.t == 119
        assert fs_tenth.measure < Fraction(1, 10)
        assert 0.0514 < float(fs_tenth.measure) < 0.0515
        assert fs_tenth.measure == Fraction(1, 20) + fs_tenth.residual_mass
        assert fs_tenth.residual_mass < (1 - Fraction(1, 40)) ** 119
        assert list(fs_tenth.leaf_union) == [(Fraction(0), Fraction(1, 20))]
        assert 5.1e72 < float(fs_tenth.final_piece_count) < 5.2e72

    def test_no_root_forest(self, fs_tenth):
        assert fs_tenth.root_forest == ()

    def test_report_text_needs_no_digit_limit_lift(self):
        # at 1/100 the residual numerator has about 14,800 bits, past the
        # default str() limit of 4300 digits; the report is written in
        # pieces under that limit and must equal str() with it lifted
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no str() digit limit")
        fs = landau_construct(Fraction(1, 100))
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            report = fs.to_json_dict()
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert report == {
                "delta": "1/100",
                "t": fs.t,
                "leaves": [{"lo": "0", "hi": "1/200", "kind": "I"}],
                "measure": str(fs.measure),
                "explicit": False,
                "residual_mass": str(fs.residual_mass),
                "final_piece_count": str(fs.final_piece_count),
            }
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(report["residual_mass"]) > 8000

    def test_tenth_counts_match_brute_force(self):
        # replay the first rounds by raw interval enumeration (no merging)
        # and compare with the piece counts the threshold recursion predicts
        delta = Fraction(1, 10)
        pieces = [(Fraction(1, 2), Fraction(1))]
        brute = [len(pieces)]
        for _ in range(8):
            nxt = []
            for lo, hi in pieces:
                _, Js, _ = landau_lemma_decompose(lo, hi, delta)
                nxt.extend(Js)
            pieces = nxt
            brute.append(len(pieces))
        assert brute == [1, 5, 21, 87, 359, 1481, 6109, 25199, 103943]
        fs = landau_construct(delta, node_budget=0)
        assert not fs.explicit  # counts below are the recursion's, not a walk

    def test_fiftieth_statistics(self):
        fs = landau_construct(Fraction(1, 50))
        assert not fs.explicit
        assert fs.t == 919
        assert fs.measure < Fraction(1, 50)
        assert 0.01005 < float(fs.measure) < 0.01006
        assert len(str(fs.final_piece_count)) == 730


def _fraction_iteration_count(delta):
    """Reference: least t with (1 - delta/4)**t < delta/2, by Fraction powers."""
    acc, t = Fraction(1), 0
    while not acc < delta / 2:
        acc *= 1 - delta / 4
        t += 1
    return t


def _enumerate_remainder(delta):
    """Reference: (mass, count) of the remainder after t rounds, applying
    the interval lemma to every piece without merging.  Round 0's high
    images of (0, 1] are nested; their union is the one piece (1/2, 1]."""
    pieces = [(Fraction(1, 2), Fraction(1))]
    for _ in range(iteration_count(delta) - 1):
        pieces = [J for lo, hi in pieces for J in landau_lemma_decompose(lo, hi, delta)[1]]
    return sum((hi - lo for lo, hi in pieces), Fraction(0)), len(pieces)


class TestThresholdRecursion:
    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(2, 3), Fraction(5, 8)])
    def test_summary_matches_piece_by_piece_enumeration(self, delta):
        fs = landau_construct(delta, node_budget=1)
        assert not fs.explicit
        assert (fs.residual_mass, fs.final_piece_count) == _enumerate_remainder(delta)

    @pytest.mark.parametrize(
        "delta,digest",
        [
            ("1/10", "4a25d6325c2d0dd1f6bca7782cf2661d0b93537b3548d4e017502a1c98999ed0"),
            ("1/25", "191e80196b95bc235ec906e3470b8bab8646356595ae35012b1429b05afeb187"),
            ("7/200", "7d24214794326f6f610d22e8004f9efc52c97cd5bb51f885d29ef3cec0d37955"),
            ("1/64", "e6e1f2e94f1aaa709a4118a08fc383b3a532695154d0644de20d90cb5b0ee505"),
        ],
    )
    def test_summary_statistics_pinned(self, delta, digest):
        # digests recorded from the Fraction-arithmetic recursion; ten
        # thresholds at 1/25 and 7/200, none at 1/64
        fs = landau_construct(Fraction(delta))
        assert not fs.explicit
        got = f"{fs.residual_mass}|{fs.final_piece_count}".encode()
        assert hashlib.sha256(got).hexdigest() == digest

    @pytest.mark.parametrize(
        "delta",
        ["1", "1/2", "1/4", "1/8", "1/64", "3/4", "2/3", "5/8", "3/7", "2/5",
         "1/10", "1/25", "7/200", "1/50", "1/100"],
    )
    def test_iteration_count_matches_fraction_definition(self, delta):
        delta = Fraction(delta)
        assert iteration_count(delta) == _fraction_iteration_count(delta)

    def test_explicit_decision_at_the_node_budget(self):
        # the forest of delta = 1/2 needs 5120 recursion-counted nodes
        assert landau_construct(Fraction(1, 2)).explicit
        assert landau_construct(Fraction(1, 2), node_budget=5120).explicit
        assert not landau_construct(Fraction(1, 2), node_budget=5119).explicit
        # delta = 3/7 needs 231921, over the default budget
        assert not landau_construct(Fraction(3, 7)).explicit
        assert not landau_construct(Fraction(3, 7), node_budget=231920).explicit

    @pytest.mark.parametrize(
        "delta, explicit_nodes, recursion_nodes",
        [("1/2", 5120, 5120), ("3/7", 231921, 231921), ("4/9", 83167, 83167),
         ("3/4", 52, 52), ("1", 9, 9)],
    )
    def test_explicit_forest_within_the_recursion_count(self, delta, explicit_nodes, recursion_nodes):
        # the budget is compared with the recursion's count, which is the
        # explicit forest's own
        delta = Fraction(delta)
        _, _, nodes = _threshold_loop(delta)(iteration_count(delta) - 1)
        fs = landau_construct(delta, node_budget=nodes)
        assert (fs.explicit, fs.node_count, nodes) == (True, explicit_nodes, recursion_nodes)
        assert fs.node_count <= nodes

    @pytest.mark.parametrize("delta", ["1", "3/4", "2/3", "5/8", "1/2", "4/9", "3/7"])
    def test_explicit_and_summary_modes_agree(self, delta):
        delta = Fraction(delta)
        summary = landau_construct(delta, node_budget=1)
        explicit = landau_construct(delta, node_budget=10**7)
        assert (summary.explicit, explicit.explicit) == (False, True)
        fields = ("t", "residual_mass", "final_piece_count", "node_count")
        assert [getattr(explicit, f) for f in fields] == [getattr(summary, f) for f in fields]
        assert explicit.measure <= summary.measure


def _reference_recursion(delta, steps):
    """Reference: the threshold recursion as a plain loop over lists of the
    plan's rows."""
    M, K, b, rows = _threshold_plan(delta)
    mass = [1] * len(rows)
    count = [1] * len(rows)
    nodes = 2 * K + 1
    for _ in range(steps):
        deep_mass = mass[b] if b else 0
        deep_count = count[b] if b else 0
        nodes += (count[0] - deep_count) * (2 * M + 1) + deep_count * (2 * K + 1)
        prev = mass[0]
        mass = [sum(mass[k] * c for k, c, _ in terms) for terms in rows]
        count = [sum(count[k] * c for k, _, c in terms) for terms in rows]
        extracted = ((prev - deep_mass) << (K - M)) + deep_mass
        assert mass[0] + extracted == prev << K
    return Fraction(mass[0], 1 << (1 + K * steps)), count[0], nodes


# the summary ladder of the exact-construct benchmark, and 1/100
_LADDER = ["1/64", "1/32", "1/25", "7/200", "1/30", "1/20", "1/10", "3/7",
           "1/2", "2/3", "5/8", "1/100"]


class TestCompiledRecursion:
    @pytest.mark.parametrize("den", range(1, 31))
    def test_matches_reference_on_small_denominators(self, den):
        for num in range(1, den + 1):
            delta = Fraction(num, den)
            steps = iteration_count(delta) - 1
            assert _threshold_loop(delta)(steps) == _reference_recursion(delta, steps)

    @pytest.mark.parametrize("delta", _LADDER)
    def test_matches_reference_on_the_ladder(self, delta):
        delta = Fraction(delta)
        steps = iteration_count(delta) - 1
        assert _threshold_loop(delta)(steps) == _reference_recursion(delta, steps)

    def test_zero_steps_is_round_one(self):
        # the one piece (1/2, 1]; round 0's chain over (0, 1] has 2K + 1 nodes
        K = _class_of(1, 1, Fraction(1, 25))
        assert _threshold_loop(Fraction(1, 25))(0) == (Fraction(1, 2), 1, 2 * K + 1)

    def test_loop_is_cached_per_delta(self):
        assert _threshold_loop(Fraction(1, 25)) is _threshold_loop(Fraction(2, 50))
        assert _threshold_loop(Fraction(1, 25)) is not _threshold_loop(Fraction(1, 20))

    def test_every_round_checks_the_mass_balance(self, monkeypatch):
        # one row-0 mass coefficient off by one changes the total by the mass
        # of that statistic, which the first round's balance check catches
        def tampered(delta):
            M, K, b, rows = _threshold_plan(delta)
            (k, mass, count), *rest = rows[0]
            return M, K, b, [((k, mass + 1, count), *rest), *rows[1:]]

        _threshold_loop.cache_clear()
        try:
            monkeypatch.setattr(landau, "_threshold_plan", tampered)
            with pytest.raises(AssertionError, match="threshold recursion lost mass"):
                landau_construct(Fraction(1, 25), node_budget=1)
        finally:
            monkeypatch.undo()
            _threshold_loop.cache_clear()
        assert landau_construct(Fraction(1, 25), node_budget=1).residual_mass > 0

    @pytest.mark.parametrize("column", [0, 3])
    def test_the_balance_is_checked_before_the_loop_is_returned(self, monkeypatch, column):
        # at delta = 1/25 row 0 reads column 0 (the total) and column b = 3
        # (S_beta*); one mass coefficient off by one in either is caught on
        # that column's unit state, before any round is run
        delta = Fraction(1, 25)
        assert [k for k, _, _ in _threshold_plan(delta)[3][0]] == [0, 3]

        def tampered(delta):
            M, K, b, rows = _threshold_plan(delta)
            row0 = tuple((k, mass + (k == column), count) for k, mass, count in rows[0])
            return M, K, b, [row0, *rows[1:]]

        _threshold_loop.cache_clear()
        try:
            monkeypatch.setattr(landau, "_threshold_plan", tampered)
            with pytest.raises(AssertionError, match="threshold recursion lost mass"):
                _threshold_loop(delta)
        finally:
            monkeypatch.undo()
            _threshold_loop.cache_clear()
        assert _threshold_loop(delta)(0)[0] == Fraction(1, 2)


class TestRoundCap:
    def test_the_cap_admits_the_smallest_delta_in_use(self):
        assert _capped_rounds(Fraction(1, 200)) == 4791 <= ROUND_CAP

    def test_a_tiny_delta_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=r"1/1000000 needs about t = 58034624 rounds") as err:
            landau_construct(Fraction(1, 10**6))
        assert time.perf_counter() - start < 1.0
        # K = 21 is the class of 1 at delta = 1/10**6
        assert "about 1218727104 bits" in str(err.value)

    def test_a_delta_past_the_float_range_is_refused(self):
        with pytest.raises(ResourceError, match="over the cap of 12000"):
            landau_construct(Fraction(1, 10**400))

    @pytest.mark.parametrize(
        "delta, t, text",
        [("100/44227", 12000, None),
         # estimate 12000.25: within one of the cap, so settled exactly
         ("25/11057", 12001, "needs t = 12001 rounds"),
         # estimate 12001.18: refused on the estimate alone
         ("100/44231", 12002, "needs about t = 12002 rounds")],
    )
    def test_the_cap_at_its_edge(self, delta, t, text):
        delta = Fraction(delta)
        assert iteration_count(delta) == t
        if text is None:
            assert _capped_rounds(delta) == t
        else:
            with pytest.raises(ResourceError, match=text):
                _capped_rounds(delta)


def _unmerged_pieces(delta):
    """Reference: every I-leaf of t rounds and the remainder, unmerged, by
    the Fraction interval lemma.  Round 0's high images of (0, 1] are
    nested; their union is the one piece (1/2, 1]."""
    I, _, _ = landau_lemma_decompose(0, 1, delta)
    leaves, pieces = [I], [(Fraction(1, 2), Fraction(1))]
    for _ in range(iteration_count(delta) - 1):
        nxt = []
        for lo, hi in pieces:
            I, Js, _ = landau_lemma_decompose(lo, hi, delta)
            leaves.append(I)
            nxt += Js
        pieces = nxt
    return leaves + pieces


def _small_forest_deltas(max_q=12, max_nodes=20_000):
    """Every reduced p/q in (0, 1] with q <= max_q whose forest has at most
    max_nodes nodes, as 'p/q' strings."""
    deltas = []
    for q in range(1, max_q + 1):
        for p in range(1, q + 1):
            delta = Fraction(p, q)
            if delta.denominator == q:
                nodes = _threshold_loop(delta)(iteration_count(delta) - 1)[2]
                if nodes <= max_nodes:
                    deltas.append(str(delta))
    return deltas


class TestIntegerEnumeration:
    """The explicit construction classes its pieces against beta* and sorts
    and merges them on integers over S = 2**(K t); the interval lemma's
    pieces, united by the public IntervalSet constructor as Fractions, are
    the oracle."""

    def test_the_small_forests_cover_both_class_splits(self):
        deltas = _small_forest_deltas()
        assert len(deltas) == 24 and {"1/2", "2/3", "5/8"} <= set(deltas)
        # M == K (no beta*) only at delta = 1 and 1/2
        assert {M == K for M, K in map(_class_bounds, map(Fraction, deltas))} == {True, False}

    @pytest.mark.parametrize("delta", sorted({*_small_forest_deltas(), "4/9"}))
    def test_leaf_union_is_the_public_union_of_the_pieces(self, delta):
        delta = Fraction(delta)
        fs = landau_construct(delta)
        assert fs.explicit
        pieces = _unmerged_pieces(delta)
        scale = 2 ** (_class_of(1, 1, delta) * fs.t)
        assert all((e * scale).denominator == 1 for piece in pieces for e in piece)
        oracle = IntervalSet(pieces)
        assert fs.leaf_union.intervals == oracle.intervals
        assert fs.leaf_union.measure == oracle.measure == fs.measure
        rng = random.Random(f"integer-enumeration/{delta}")
        probes = [Fraction(rng.randrange(1, 2**40), 2**40) for _ in range(300)]
        probes += [Fraction(rng.randrange(1, 3**25), 3**25) for _ in range(300)]
        probes += [e for piece in rng.sample(pieces, min(50, len(pieces))) for e in piece]
        assert [x in fs.leaf_union for x in probes] == [x in oracle for x in probes]
        for x in probes[::50]:
            assert (x in oracle) == any(lo < x <= hi for lo, hi in pieces)


class TestTraceEvaluate:
    def test_seeded_points_match_gamma(self, fs_half):
        rng = random.Random(42)
        worst = 0.0
        for _ in range(30):
            x = Fraction(rng.getrandbits(30) + 1, 2**30)
            value, trace = trace_evaluate(x, fs_half)
            ref = gamma(float(x))
            rel = abs(value - ref) / abs(ref)
            worst = max(worst, rel)
            checked = validate_trace(trace, lambda a: a in fs_half.leaf_union)
            assert checked == trace.node_count
        assert worst < 1e-9

    def test_point_already_in_set_is_direct(self, fs_half):
        value, trace = trace_evaluate(Fraction(1, 8), fs_half)
        assert trace.node_count == 1
        assert trace.rules == ["direct"]
        assert value == gamma(0.125)

    def test_trace_counts_are_consistent(self, fs_half):
        _, trace = trace_evaluate(Fraction(3, 7), fs_half)
        assert 1 <= trace.direct_count <= trace.node_count
        assert trace.args[-1] == (3, 7)

    def test_domain_errors(self, fs_half):
        with pytest.raises(DomainError):
            trace_evaluate(0, fs_half)
        with pytest.raises(DomainError):
            trace_evaluate(Fraction(3, 2), fs_half)

    def test_summary_set_refuses_to_trace(self, fs_tenth):
        with pytest.raises(ResourceError):
            trace_evaluate(Fraction(1, 3), fs_tenth)


_THIRD = 1.0 / 3.0


def _band_edge(step_to):
    """The float nearest 1/3, on the side of step_to, outside the 1e-9 band."""
    x = _THIRD + math.copysign(1e-9, step_to - _THIRD)
    while abs(x - _THIRD) <= 1e-9:
        x = math.nextafter(x, step_to)
    while abs(math.nextafter(x, _THIRD) - _THIRD) > 1e-9:
        x = math.nextafter(x, _THIRD)
    return x


# the first floats below and above 1/3 that quarter_set_trace accepts
_THIRD_BAND_EDGES = (_band_edge(0.0), _band_edge(1.0))


def _quarter_escapes(x):
    """The escape steps of the quarter trace at x, a passing trace: its comb
    and duplication nodes, each of which has one non-direct child."""
    value, trace = quarter_set_trace(x)
    assert validate_trace(trace, quarter_set_membership) == trace.node_count
    assert abs(value - gamma(x)) <= 1e-9 * abs(gamma(x)), x
    return trace.rules.count("comb") + trace.rules.count("duplication")


class TestQuarterSet:
    def test_seeded_points_match_gamma(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(1e-4, 0.5 - 1e-4)
            if abs(x - 1.0 / 3.0) <= 1e-6:
                continue
            value, trace = quarter_set_trace(x)
            ref = gamma(x)
            rel = abs(value - ref) / abs(ref)
            worst = max(worst, rel)
            validate_trace(trace, quarter_set_membership)
        assert worst < 1e-9

    def test_direct_region_is_single_node(self):
        value, trace = quarter_set_trace(0.2)
        assert trace.node_count == 1
        assert value == gamma(0.2)

    def test_exact_third_is_direct(self):
        _, trace = quarter_set_trace(1.0 / 3.0)
        assert trace.node_count == 1
        assert trace.rules == ["direct"]

    def test_band_around_third_rejected(self):
        with pytest.raises(DomainError):
            quarter_set_trace(1.0 / 3.0 + 1e-10)
        with pytest.raises(DomainError):
            quarter_set_trace(1.0 / 3.0 - 5e-10)
        # the band is closed: the floats next to its edges are inside it
        below, above = _THIRD_BAND_EDGES
        for x in (math.nextafter(below, _THIRD), math.nextafter(above, _THIRD)):
            with pytest.raises(DomainError, match="1e-9 exclusion band"):
                quarter_set_trace(x)

    def test_comb_branch_shape(self):
        # x in (1/4, 1/3) peels one quarter-step: root comb, recursive 4*alpha
        _, trace = quarter_set_trace(0.3)
        assert trace.rules[-1] == "comb"
        assert trace.args[trace.kids[-1][0]] == pytest.approx(0.2)

    def test_reflection_branch_shape(self):
        # x in (1/3, 1/2) reflects then inverts one duplication
        _, trace = quarter_set_trace(0.45)
        assert trace.rules[-1] == "reflection"
        assert trace.rules[trace.kids[-1][0]] == "duplication"

    def test_every_escape_ends_within_fourteen_steps(self):
        # each comb step quadruples the distance to 1/3 and the reflection
        # branch doubles it once, so from outside the 1e-9 band a chain
        # leaves (1/4, 1/3) within ceil(log4((1/12) / 1e-9)) = 14 steps
        below, above = _THIRD_BAND_EDGES
        xs = [below, above]
        for _ in range(200):
            xs += [math.nextafter(xs[-2], 0.0), math.nextafter(xs[-1], 1.0)]
        rng = random.Random(32)
        xs += [rng.uniform(0.25, 0.5) for _ in range(20_000)]
        escapes = {x: _quarter_escapes(x) for x in xs}
        assert max(escapes.values()) == escapes[0.33333333233333323] == 14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quarter_set_trace(0.0)
        with pytest.raises(DomainError):
            quarter_set_trace(0.6)

    def test_pole_next_to_half(self):
        # the duplication step's child 1/2 - x meets the pole test at 0
        with pytest.raises(PoleError):
            quarter_set_trace(0.5 - 1e-13)
        value, _ = quarter_set_trace(0.5 - 1e-11)
        assert value == pytest.approx(gamma(0.5 - 1e-11), rel=1e-9)

    def test_membership_predicate(self):
        assert quarter_set_membership(0.1)
        assert quarter_set_membership(0.25)
        assert quarter_set_membership(1.0 / 3.0)
        assert quarter_set_membership(1.0)
        assert not quarter_set_membership(0.3)
        assert not quarter_set_membership(0.0)


class TestComplexReduce:
    def test_seeded_strip_matches_gamma(self, fs_half):
        rng = random.Random(13)
        worst = 0.0
        for _ in range(25):
            z = complex(rng.uniform(0.05, 1.0), rng.uniform(-8.0, 8.0))
            value, trace = complex_reduce_trace(z, fs_half)
            ref = gamma(z)
            rel = abs(value - ref) / abs(ref)
            worst = max(worst, rel)
            validate_trace(trace, strip_membership(fs_half))
        assert worst < 1e-8

    def test_functional_chain_for_large_real_part(self, fs_half):
        z = 3.7 + 1.2j
        value, trace = complex_reduce_trace(z, fs_half)
        assert trace.rules[-1] == "functional"
        ref = gamma(z)
        assert abs(value - ref) / abs(ref) < 1e-10
        validate_trace(trace, strip_membership(fs_half))

    def test_reflection_for_left_half_plane(self, fs_half):
        z = -1.3 + 0.5j
        value, trace = complex_reduce_trace(z, fs_half)
        assert trace.rules[-1] == "reflection"
        ref = gamma(z)
        assert abs(value - ref) / abs(ref) < 1e-10

    def test_node_budget_enforced(self, fs_half):
        with pytest.raises(ResourceError):
            complex_reduce_trace(0.37 + 5.0j, fs_half, node_budget=3)

    @pytest.mark.parametrize(
        "z,strip,built",
        [(0.37 + 5.0j, 8, 79), (0.37 - 64.0j, 128, 75), (0.6 + 0.2j, 1, 84)],
    )
    def test_depth_error_states_the_strip_points_and_the_nodes_built(self, fs_half, z, strip, built):
        # the halvings stop below |Im| = 1: 2**m strip points, m the bit
        # length of int(|Im z|); the nodes built are the finished ones, and
        # the budget's ResourceError is raised at the node that exceeds it
        detail = (
            f"complex reduction exceeded the node budget of 100: |Im z| = {abs(z.imag)!r} needs "
            f"{strip} strip points, and {built} nodes were built when it stopped"
        )
        with pytest.raises(ResourceError) as exc:
            complex_reduce_trace(z, fs_half, node_budget=100)
        assert str(exc.value) == detail

    @pytest.mark.parametrize("z", [-0.5 + 226.5j, -3.7 + 230j, -3.7 + 255.9j, -1.3 + 300.5j])
    def test_reflection_past_the_range_of_sin_is_a_domain_error(self, fs_one, z):
        # Gamma(z) is a normal double here, but the reflection step's
        # sin(pi z) overflows; -1.3 + 300.5j also needs more than the
        # default budget, and the sin test comes first
        with pytest.raises(DomainError, match=r"sin\(pi z\) overflows at z = .*226\.15"):
            complex_reduce_trace(z, fs_one)

    def test_reflection_refusal_builds_nothing(self, fs_half, monkeypatch):
        # the sin test comes before the first node, whatever the budget
        def add(*args):
            raise AssertionError("a node was built")

        monkeypatch.setattr(DerivationTrace, "add", add)
        for budget in (100, landau.DEFAULT_COMPLEX_BUDGET):
            with pytest.raises(DomainError, match=r"sin\(pi z\) overflows at z = \(-1\.3\+300\.5j\)"):
                complex_reduce_trace(-1.3 + 300.5j, fs_half, node_budget=budget)

    def test_shift_chain_past_the_budget_builds_nothing(self, fs_half, monkeypatch):
        # each shift z -> z - 1 is a node, so at Re z - 1 > node_budget the
        # chain alone exceeds the budget; at 1e300, z - 1 rounds to z and
        # only the budget would end it
        def add(*args):
            raise AssertionError("a node was built")

        monkeypatch.setattr(DerivationTrace, "add", add)
        for z, budget in ((1e300 + 0.5j, landau.DEFAULT_COMPLEX_BUDGET), (1e6 + 0.5j, 10**6 - 2),
                          (101.5 + 0.5j, 100)):
            start = time.perf_counter()
            with pytest.raises(ResourceError) as exc:
                complex_reduce_trace(z, fs_half, node_budget=budget)
            assert time.perf_counter() - start < 0.01
            assert str(exc.value) == (
                f"Re z = {z.real!r} needs more shift steps z -> z - 1, one node each, "
                f"than the node budget of {budget}"
            )

    def test_shift_chain_within_the_budget_goes_ahead(self, fs_half):
        # Re z - 1 = node_budget: the 100 shifts fit, and the budget runs out
        # at the first strip node, as it did before the up-front refusal
        with pytest.raises(ResourceError, match="and 0 nodes were built when it stopped"):
            complex_reduce_trace(101.0 + 0.5j, fs_half, node_budget=100)

    def test_reflection_inside_the_range_of_sin_goes_ahead(self, fs_one):
        z = -0.5 + 226.1j
        value, trace = complex_reduce_trace(z, fs_one)
        assert trace.rules[-1] == "reflection"
        assert abs(value - gamma(z)) <= 1e-9 * abs(gamma(z))

    def test_domain_errors(self, fs_half):
        with pytest.raises(DomainError):
            complex_reduce_trace(-2.0 + 1e-9j, fs_half)
        with pytest.raises(DomainError):
            complex_reduce_trace(0.5 + 1e6j, fs_half)

    def test_summary_set_refused(self, fs_tenth):
        with pytest.raises(ResourceError):
            complex_reduce_trace(0.3 + 0.4j, fs_tenth)


class TestMembershipCalls:
    """Each trace node costs one membership test of the set."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = [0]
        contains = IntervalSet.contains_ratio

        def counting(self, p, q):
            counter[0] += 1
            return contains(self, p, q)

        monkeypatch.setattr(IntervalSet, "contains_ratio", counting)
        return counter

    def test_real_trace_tests_each_node_once(self, fs_half, calls):
        x = Fraction(1193707 * 2**9 + 7, 2**30)
        _, trace = trace_evaluate(x, fs_half)
        assert trace.node_count == 4093
        assert calls[0] == trace.node_count
        rng = random.Random(17)
        for _ in range(5):
            calls[0] = 0
            _, trace = trace_evaluate(Fraction(rng.randrange(1, 2**30), 2**30), fs_half)
            assert calls[0] == trace.node_count

    @pytest.mark.parametrize("z", [0.3 + 0.2j, 0.77 - 0.6j, 2.5 + 3.5j, -1.3 + 0.4j])
    def test_complex_trace_tests_each_strip_node_once(self, fs_half, calls, z):
        _, trace = complex_reduce_trace(z, fs_half)
        strip_nodes = sum(1 for a in trace.args if 0.0 < a.real <= 1.0 and abs(a.imag) < 1.0)
        assert calls[0] == strip_nodes

    def test_complex_budget_counts_every_node(self, fs_half):
        _, trace = complex_reduce_trace(0.37 + 5.0j, fs_half)
        complex_reduce_trace(0.37 + 5.0j, fs_half, node_budget=trace.node_count)
        with pytest.raises(ResourceError):
            complex_reduce_trace(0.37 + 5.0j, fs_half, node_budget=trace.node_count - 1)


def _tampered(trace, i, value):
    """A copy of trace that holds value at node i."""
    bad = copy.deepcopy(trace)
    bad.values[i] = value
    return bad


class TestValidateTrace:
    def test_tampered_value_detected(self):
        _, trace = quarter_set_trace(0.3)
        bad = _tampered(trace, -1, trace.values[-1] * (1 + 1e-6))
        assert validate_trace(trace, quarter_set_membership) == trace.node_count
        with pytest.raises(DomainError):
            validate_trace(bad, quarter_set_membership)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_leaf_value_detected(self, fs_half, bad):
        _, trace = trace_evaluate(Fraction(3, 7), fs_half)
        bad_trace = _tampered(trace, trace.rules.index("direct"), bad)
        with pytest.raises(DomainError, match="fails replay"):
            validate_trace(bad_trace, lambda a: a in fs_half.leaf_union)

    def test_leaf_outside_set_detected(self):
        trace = DerivationTrace.from_json_dict({"rule": "direct", "arg": 0.9, "children": []})
        with pytest.raises(DomainError):
            validate_trace(trace, quarter_set_membership)

    def test_unknown_rule_detected(self):
        leaf = {"rule": "direct", "arg": 0.2, "children": []}
        with pytest.raises(DomainError, match="unknown trace rule"):
            DerivationTrace.from_json_dict({"rule": "mystery", "arg": 0.5, "children": [leaf]})

    def test_direct_node_with_children_detected(self):
        # the JSON reader refuses this shape; a record built by hand still
        # reaches the validator
        trace = DerivationTrace()
        leaf = trace.add("direct", 0.2, gamma(0.2))
        trace.add("direct", 0.2, gamma(0.2), (leaf,))
        with pytest.raises(DomainError, match="direct node at 0.2 has children"):
            validate_trace(trace, quarter_set_membership)


class TestFlatRecord:
    """A trace is its post-order record: the tracers append to its lists,
    and validate_trace and to_json_dict read them, making a Fraction only
    for the membership callback at a real direct leaf."""

    def test_no_fraction_until_a_real_leaf_is_validated(self, fs_half, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(landau, "Fraction", counting)
        runs = [
            (trace_evaluate(Fraction(3, 7), fs_half)[1], lambda a: a in fs_half.leaf_union),
            (quarter_set_trace(0.3)[1], quarter_set_membership),
            (complex_reduce_trace(-2.3 + 1.7j, fs_half)[1], strip_membership(fs_half)),
        ]
        for trace, _ in runs:
            trace.to_json_dict()
        assert made == []
        for trace, member in runs:
            assert validate_trace(trace, member) == trace.node_count
            assert not any(isinstance(a, Fraction) for a in trace.args)
        # validate_trace makes a Fraction only for the callback at a real leaf
        real = runs[0][0]
        assert len(made) == real.direct_count
        assert all(type(a) is tuple for a in real.args)

    def test_a_trace_reads_back_from_its_json(self, fs_half):
        # 100 seeded traces: real, quarter and complex in turn
        rng = random.Random(24)
        strip = strip_membership(fs_half)
        runs = []
        for j in range(100):
            if j % 3 == 0:
                x = Fraction(rng.randrange(1, 2**30), 2**30)
                runs.append((trace_evaluate(x, fs_half)[1], lambda a: a in fs_half.leaf_union))
            elif j % 3 == 1:
                runs.append((quarter_set_trace(rng.uniform(1e-4, 0.5 - 1e-4))[1], quarter_set_membership))
            else:
                z = complex(rng.uniform(-2.0, 3.0), rng.uniform(-1.5, 1.5))
                runs.append((complex_reduce_trace(z, fs_half)[1], strip))
        for trace, member in runs:
            twin = DerivationTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
            assert validate_trace(twin, member) == validate_trace(trace, member) == trace.node_count
            assert twin == trace
            # reading the JSON back gives the tracer's lists, in their order,
            # every argument and value to the same bits (repr is exact)
            assert list(map(repr, twin.args)) == list(map(repr, trace.args))
            assert list(map(repr, twin.values)) == list(map(repr, trace.values))
            assert (twin.rules, twin.kids) == (trace.rules, trace.kids)

    def test_reading_back_makes_no_fraction_and_no_trace_node(self, fs_half, monkeypatch):
        traces = [
            trace_evaluate(Fraction(3, 7), fs_half)[1],
            quarter_set_trace(0.3)[1],
            complex_reduce_trace(-2.3 + 1.7j, fs_half)[1],
        ]
        docs = [trace.to_json_dict() for trace in traces]

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(landau, "Fraction", refuse)
        assert [DerivationTrace.from_json_dict(d) for d in docs] == traces

    def test_a_record_is_freed_without_the_cycle_collector(self, fs_half):
        # a walker's record must not sit in a reference cycle, or every
        # trace's lists stay alive until a full collection
        gc.collect()
        gc.disable()
        try:
            trace_evaluate(Fraction(3, 7), fs_half)
            complex_reduce_trace(-2.3 + 1.7j, fs_half)
            quarter_set_trace(0.3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fraction_children_of_a_float_node(self):
        # no tracer mixes pairs with floats: a float node's children are
        # floats, so even the exact halves of 0.375 as pairs match no form
        for child_args in ([Fraction(3, 16), Fraction(11, 16)], [Fraction(3, 16), Fraction(5, 8)]):
            with pytest.raises(DomainError, match="match none of its forms"):
                _hand_trace("duplication", 0.375, child_args)

    def test_equality_hash_and_repr(self, fs_half):
        _, trace = quarter_set_trace(0.3)
        twin = DerivationTrace.from_json_dict(trace.to_json_dict())
        lists = (trace.rules, trace.args, trace.values, trace.kids)
        assert trace == twin
        assert trace != quarter_set_trace(0.31)[1]
        assert trace != _tampered(trace, 0, trace.values[0] * (1 + 2**-52))
        assert trace.__eq__(lists) is NotImplemented
        assert repr(trace) == repr(twin) == (
            f"DerivationTrace(direct_count={trace.direct_count!r}, node_count={trace.node_count!r})"
        )
        # the counts are read from the lists, so no stored count goes stale
        twin.add("direct", 0.2, gamma(0.2))
        assert (twin.node_count, twin.direct_count) == (trace.node_count + 1, trace.direct_count + 1)
        assert twin != trace
        # the four lists are the only state: no root, and no count to set
        for name in ("root", "node_count", "direct_count", "other"):
            with pytest.raises(AttributeError):
                setattr(trace, name, None)

    def test_a_trace_is_not_hashable(self):
        # add changes a trace, so a value hash could change while it sits
        # in a set or a dict
        _, trace = quarter_set_trace(0.3)
        with pytest.raises(TypeError, match="unhashable"):
            hash(trace)


def _trace_digest(traces):
    """sha256 over each trace's preorder (rule, repr(argument), repr(value)),
    a real argument as its Fraction, and its node and direct-leaf counts."""
    h = hashlib.sha256()
    for trace in traces:
        stack = [trace.node_count - 1]
        while stack:
            i = stack.pop()
            a = trace.args[i]
            arg = Fraction(*a) if type(a) is tuple else a
            h.update(f"{trace.rules[i]}|{arg!r}|{trace.values[i]!r};".encode())
            stack.extend(reversed(trace.kids[i]))
        h.update(f"#{trace.node_count},{trace.direct_count}#".encode())
    return h.hexdigest()


def _mp_gamma(a):
    a = complex(a) if isinstance(a, complex) else float(a)
    if isinstance(a, complex):
        return complex(mpmath.gamma(mpmath.mpc(a.real, a.imag)))
    return float(mpmath.gamma(mpmath.mpf(a)))


class TestRuleTable:
    """The rule table drives both the tracers and validate_trace."""

    def test_real_traces_pinned(self, fs_half):
        rng = random.Random(5)
        xs = [Fraction(3, 7), Fraction(1, 8), Fraction(1), Fraction(2, 3),
              Fraction(5, 9), Fraction(1193707 * 2**9 + 7, 2**30)]
        xs += [Fraction(rng.randrange(1, 2**30), 2**30) for _ in range(10)]
        traces = [trace_evaluate(x, fs_half)[1] for x in xs]
        assert sum(t.node_count for t in traces) == 20010
        assert _trace_digest(traces) == (
            "0fe0c4d83d058700a8d978113847056196606d455d3c61aca22064f0e9d2e96a"
        )

    def test_complex_traces_pinned(self, fs_half):
        # negative real parts, |Im z| >= 1, a shift chain and a signed zero
        zs = [0.3 + 0.2j, 0.77 - 0.6j, 2.5 + 3.5j, -1.3 + 0.4j, 3.7 + 1.2j, -2.6 - 1.7j,
              0.37 + 5.0j, complex(0.7, -0.0), 7.25 - 0.5j, -0.5 + 2.25j]
        traces = [complex_reduce_trace(z, fs_half)[1] for z in zs]
        assert sum(t.node_count for t in traces) == 28697
        assert _trace_digest(traces) == (
            "eba19d5046cc89398c5f4ae7161187d1624b23b4b6331b13020c66e392b82766"
        )

    def test_quarter_traces_pinned(self):
        rng = random.Random(11)
        xs = [rng.uniform(1e-4, 0.5 - 1e-4) for _ in range(200)]
        traces = [quarter_set_trace(x)[1] for x in xs if abs(x - 1.0 / 3.0) > 1e-6]
        assert len(traces) == 200
        assert sum(t.node_count for t in traces) == 587
        assert _trace_digest(traces) == (
            "df34a8eb9519a7b62c57eeb23f81cf250af24ee4a6039e8f477871e62786009a"
        )

    def test_six_forms(self):
        assert {rule: len(forms) for rule, forms in _RULES.items()} == {
            "functional": 2, "reflection": 1, "duplication": 2, "comb": 1,
        }

    @pytest.mark.parametrize(
        "rule,form,points",
        [
            ("functional", 0, [3.7, Fraction(7, 3), 2.5 + 1.2j, -1.5 - 0.5j]),
            ("functional", 1, [0.3, Fraction(2, 5), 0.4 - 0.7j, -2.5 + 0.3j]),
            ("reflection", 0, [0.3, Fraction(5, 8), 0.35 + 0.2j, -1.3 + 0.4j]),
            ("duplication", 0, [0.7, Fraction(3, 7), 0.6 + 0.8j, 2.9 - 1.5j]),
            ("duplication", 1, [0.55, Fraction(3, 5), 0.6 + 0.3j, 1.7 - 0.4j]),
            ("comb", 0, [0.26, Fraction(3, 10), 0.32, 0.333]),
        ],
    )
    def test_form_reproduces_gamma(self, rule, form, points):
        spec = _RULES[rule][form]
        for a in points:
            values = [_mp_gamma(c) for c in spec.generic(a)]
            x = complex(a) if isinstance(a, complex) else float(a)
            want = _mp_gamma(a)
            assert abs(spec.combine(x, *values) - want) <= 1e-13 * abs(want), (rule, form, a)

    def test_form_children_keep_the_argument_type(self):
        for forms in _RULES.values():
            for spec in forms:
                assert all(isinstance(c, Fraction) for c in spec.generic(Fraction(2, 7)))
                assert all(isinstance(c, complex) for c in spec.generic(0.3 + 0.1j))

    @pytest.mark.parametrize(
        "rule,a,child_args",
        [
            ("functional", 2.5, [1.25]),
            ("functional", 0.5 + 0.5j, [0.5 + 0.5j]),
            ("reflection", 0.3, [0.6]),
            ("reflection", 0.3, [0.7, 0.7]),
            ("duplication", 0.5, [0.25, 0.7]),
            ("duplication", 0.55, [0.1, 0.05]),
            ("comb", 0.3, [0.2, 0.25, 0.1]),
        ],
    )
    def test_child_matching_no_form_is_rejected(self, rule, a, child_args):
        with pytest.raises(DomainError, match="match none of its forms"):
            _hand_trace(rule, a, child_args)


class TestDeepComplexTraces:
    @pytest.mark.parametrize("z", [600.5 + 0.5j, 1200.5 + 0.5j, -1200.5 + 0.5j])
    def test_overflow_is_raised(self, fs_half, z):
        with pytest.raises(OverflowError):
            complex_reduce_trace(z, fs_half)

    def test_long_shift_chain_validates(self, fs_half):
        value, trace = complex_reduce_trace(160.5 + 0.5j, fs_half)
        ref = gamma(160.5 + 0.5j)
        assert abs(value - ref) / abs(ref) < 1e-10
        assert validate_trace(trace, strip_membership(fs_half)) == trace.node_count


def _json_arg(a):
    """A trace argument, a real one as its Fraction, in the trace JSON."""
    if isinstance(a, complex):
        return [a.real, a.imag]
    if isinstance(a, Fraction):
        return str(a)
    return float(a)


def _json_reference(trace, i=-1):
    """The recursive serialisation of the trace's node i (the root by
    default), which the one loop of DerivationTrace.to_json_dict replaces."""
    a = trace.args[i]
    return {"rule": trace.rules[i], "arg": _json_arg(Fraction(*a) if type(a) is tuple else a),
            "children": [_json_reference(trace, k) for k in trace.kids[i]]}


class TestTraceJson:
    def test_matches_recursive_reference(self, fs_half):
        traces = [
            trace_evaluate(Fraction(3, 7), fs_half)[1],
            quarter_set_trace(0.3)[1],
            complex_reduce_trace(-2.3 + 1.7j, fs_half)[1],
            complex_reduce_trace(0.5 + 6.0j, fs_half)[1],
        ]
        for trace in traces:
            reference = _json_reference(trace)
            assert trace.to_json_dict() == reference
            # the text writer gives json.dumps's bytes, with no dict per node
            assert "".join(trace.json_parts()) == json.dumps(
                reference, sort_keys=True, allow_nan=False, separators=(",", ":"), ensure_ascii=False
            )

    @pytest.mark.parametrize("kind", ["real", "quarter", "complex"])
    def test_a_leaf_moved_outside_the_set_fails_replay(self, fs_half, kind):
        # the last node whose children are all leaves becomes a leaf itself:
        # its argument is one the tracer halved, so outside the set, and its
        # parent still matches its forms
        if kind == "real":
            trace, member = trace_evaluate(Fraction(3, 7), fs_half)[1], lambda a: a in fs_half.leaf_union
        elif kind == "quarter":
            trace, member = quarter_set_trace(0.3)[1], quarter_set_membership
        else:
            trace, member = complex_reduce_trace(0.77 - 0.6j, fs_half)[1], strip_membership(fs_half)
        d = trace.to_json_dict()
        cut, stack = None, [d]
        while stack:
            node = stack.pop()
            if node["children"] and all(not c["children"] for c in node["children"]):
                cut = node
            stack += node["children"]
        cut["rule"], cut["children"] = "direct", []
        moved = DerivationTrace.from_json_dict(d)
        assert moved.node_count < trace.node_count
        with pytest.raises(DomainError, match="outside the restricted set"):
            validate_trace(moved, member)

    @pytest.mark.parametrize(
        "doc,match",
        [
            *[({"rule": "direct", "arg": arg, "children": []}, re.escape(f"trace argument {arg!r}"))
              for arg in ["1/0", "abc", None, "1/-3", "+1/3", " 1/3", "1_0/3", "\u0661/3", "1/",
                          [1.0], [True, 0.5], True, 10**400]],
            ({"rule": "direct", "arg": "1/3"}, "trace node at '1/3' needs"),
            ({"arg": "1/3", "children": []}, "trace node at '1/3' needs"),
            ({"rule": ["direct"], "arg": "1/3", "children": []}, "trace node at '1/3' needs"),
            ({"rule": "direct", "arg": "1/3", "children": {}}, "trace node at '1/3' needs"),
            (["direct", "1/3", []], "a trace node is a dict, not a list"),
            ({"rule": "functional", "arg": "4/3", "children": ["1/3"]}, "a trace node is a dict, not a str"),
            ({"rule": "direct", "arg": "1/3", "children": [{"rule": "direct", "arg": "4/3", "children": []}]},
             "direct node at '1/3' has children"),
            *[({"rule": "direct", "arg": arg, "children": []}, re.escape(f"direct leaf at {arg!r} is a pole"))
              for arg in ["0", "-2", [0.0, 0.0]]],
            *[({"rule": "direct", "arg": arg, "children": []},
               re.escape(f"value at {arg!r} leaves the floating range"))
              for arg in ["200", 1e300, [200.0, 0.0]]],
            ({"rule": "functional", "arg": "172", "children": [{"rule": "direct", "arg": "171", "children": []}]},
             "value at '172' leaves the floating range"),
            # an inner node past the range under a finite root: 0 = pi / (sin * inf)
            ({"rule": "reflection", "arg": "-343/2", "children": [
                {"rule": "functional", "arg": "345/2", "children": [
                    {"rule": "direct", "arg": "343/2", "children": []}]}]},
             "value at '345/2' leaves the floating range"),
        ],
        ids=["pole-denominator", "letters", "null", "negative-denominator", "plus-sign", "space",
             "underscore", "non-ascii-digit", "empty-denominator", "one-number-list", "bool-in-list",
             "bool", "int-past-the-float-range", "no-children", "no-rule", "list-rule",
             "dict-children", "list-node", "str-child", "direct-with-children", "direct-at-zero",
             "direct-at-minus-two", "direct-at-complex-zero", "direct-past-the-range",
             "direct-at-1e300", "direct-at-complex-200", "root-past-the-range",
             "inner-node-past-the-range"],
    )
    def test_reads_only_what_the_writer_writes(self, doc, match):
        # "n" or "n/d" in ASCII digits with d >= 1, [re, im] or a number, in a
        # dict with a str rule and a list of children, a direct node a leaf
        # off the poles, every value finite: anything else is a DomainError
        # that names it
        with pytest.raises(DomainError, match=match):
            DerivationTrace.from_json_dict(doc)

    def test_chain_deeper_than_recursion_limit(self):
        # a functional chain that steps up and down between 4/3 and 1/3, so
        # its values stay finite at any depth, read back and written again,
        # as dicts and as text, with no recursion
        depth = sys.getrecursionlimit() + 500
        d = {"rule": "direct", "arg": "1/3", "children": []}
        for k in range(depth):
            d = {"rule": "functional", "arg": "4/3" if k % 2 == 0 else "1/3", "children": [d]}
        trace = DerivationTrace.from_json_dict(d)
        assert trace.node_count == depth + 1 and trace.direct_count == 1
        assert validate_trace(trace, lambda a: a == Fraction(1, 3)) == depth + 1
        assert trace.values[-1] == pytest.approx(gamma(1 / 3) if depth % 2 == 0 else gamma(4 / 3))
        out, seen = trace.to_json_dict(), 0
        while out["children"]:
            assert out["rule"] == "functional"
            assert out["arg"] == ("4/3" if (depth - 1 - seen) % 2 == 0 else "1/3")
            (out,) = out["children"]
            seen += 1
        assert seen == depth
        assert out == {"rule": "direct", "arg": "1/3", "children": []}
        # the text nests the same chain, root first: depth functional nodes
        # opened, the direct leaf, and depth closed
        opened = "".join(
            f'{{"arg":"{"4/3" if (depth - 1 - s) % 2 == 0 else "1/3"}","children":['
            for s in range(depth)
        )
        leaf = '{"arg":"1/3","children":[],"rule":"direct"}'
        assert "".join(trace.json_parts()) == opened + leaf + '],"rule":"functional"}' * depth


def _halving_class_of(b, delta):
    """Reference: least m with b / 2**m <= delta / 2, by halving a Fraction."""
    m = 0
    while b > delta / 2:
        b = b / 2
        m += 1
    return m


_class_dens = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: 2**k),
    st.integers(min_value=1, max_value=20).map(lambda k: 3**k),
    st.just(41),
)
_unit_points = st.builds(
    lambda den, u: Fraction(u % den + 1, den), _class_dens, st.integers(min_value=0, max_value=2**70)
)
_deltas = st.one_of(st.just(Fraction(1)), _unit_points)


class TestClassOf:
    """_class_of reads the class off bit lengths; the halving loop is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_unit_points, _deltas)
    def test_matches_halving_loop(self, b, delta):
        assert _class_of(*b.as_integer_ratio(), delta) == _halving_class_of(b, delta)

    @settings(max_examples=200, deadline=None)
    @given(_unit_points, _deltas, st.integers(min_value=1, max_value=2**40))
    def test_unreduced_pair_has_the_class_of_its_value(self, b, delta, k):
        p, q = b.as_integer_ratio()
        assert _class_of(p * k, q * k, delta) == _class_of(p, q, delta)

    @settings(max_examples=300, deadline=None)
    @given(_deltas, st.integers(min_value=0, max_value=45))
    def test_equality_at_a_class_boundary(self, delta, m):
        b = delta / 2 * 2**m
        if b > 1:
            return
        assert _class_of(*b.as_integer_ratio(), delta) == m == _halving_class_of(b, delta)
        above = b + Fraction(1, 2**80)
        assert _class_of(*above.as_integer_ratio(), delta) == m + 1 == _halving_class_of(above, delta)

    @settings(max_examples=200, deadline=None)
    @given(_deltas, _unit_points)
    def test_at_most_half_delta_is_class_zero(self, delta, u):
        assert _class_of(*(delta / 2 * u).as_integer_ratio(), delta) == 0

    def test_known_classes(self):
        half = Fraction(1, 2)
        assert [_class_of(p, q, half) for p, q in ((1, 4), (1, 3), (1, 2), (1, 1))] == [0, 1, 1, 2]
        assert _class_of(1, 1, Fraction(1)) == 1
        assert _class_of(1, 1, Fraction(1, 10)) == 5


def _loop_class_bounds(delta):
    """Reference: the classes of right ends near 1/2 and at 1 by two loops."""
    m_lo = 1
    while delta * 2 ** (m_lo - 1) <= Fraction(1, 2):
        m_lo += 1
    m_hi = 1
    while delta * 2 ** (m_hi - 1) < 1:
        m_hi += 1
    return m_lo, m_hi


_any_deltas = st.fractions(min_value=0, max_value=1, max_denominator=10**12).filter(bool)


class TestClassBounds:
    """_class_bounds reads both classes off _class_of; the loops are the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_deltas, _any_deltas))
    def test_matches_the_loops(self, delta):
        assert _class_bounds(delta) == _loop_class_bounds(delta)

    def test_powers_of_two_and_their_neighbours(self):
        eps = Fraction(1, 10**70)
        for k in range(0, 230):
            for delta in (Fraction(1, 2**k) - eps, Fraction(1, 2**k), Fraction(1, 2**k) + eps):
                if 0 < delta <= 1:
                    assert _class_bounds(delta) == _loop_class_bounds(delta), delta


# The child arguments of each form other than the halving one as integer
# pairs (p, q), standing for p/q, of a = n/d: the oracle for its generic
# children on a Fraction.
_FORM_RATIOS = {
    ("functional", 0): lambda n, d: ((n - d, d),),
    ("functional", 1): lambda n, d: ((n + d, d),),
    ("reflection", 0): lambda n, d: ((d - n, d),),
    ("duplication", 1): lambda n, d: ((2 * n - d, d), (2 * n - d, 2 * d)),
    ("comb", 0): lambda n, d: ((4 * n - d, d), (2 * d - 4 * n, 4 * d), (4 * n - d, 2 * d)),
}
_form_points = st.fractions(min_value=-64, max_value=64, max_denominator=2**40)

# The six forms' child formulas as written by hand before they were
# compiled from the identity table's slots: the oracle for the compiled
# children on floats and complex numbers.
_HAND_CHILDREN = {
    ("functional", 0): lambda a: (a - 1,),
    ("functional", 1): lambda a: (a + 1,),
    ("reflection", 0): lambda a: (1 - a,),
    ("duplication", 0): lambda a: (a / 2, (a + 1) / 2),
    ("duplication", 1): lambda a: (2 * a - 1, a - Fraction(1, 2)),
    ("comb", 0): lambda a: (4 * a - 1, (1 - (4 * a - 1)) / 4, (4 * a - 1) / 2),
}


class TestFormChildren:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_FORM_RATIOS)), _form_points)
    def test_generic_children_are_the_integer_ratios(self, key, a):
        rule, form = key
        got = _RULES[rule][form].generic(a)
        want = tuple(Fraction(p, q) for p, q in _FORM_RATIOS[key](*a.as_integer_ratio()))
        assert got == want
        assert all(type(c) is Fraction for c in got)

    @settings(max_examples=300, deadline=None)
    @given(_form_points)
    def test_halving_ratios_are_its_generic_children(self, a):
        halves = _RULES["duplication"][0]
        got = tuple(Fraction(p, q) for p, q in halves.ratios(*a.as_integer_ratio()))
        assert got == halves.generic(a)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_HAND_CHILDREN)), _form_points)
    def test_children_are_the_slot_maps(self, key, a):
        # each form's children, generic and ratios, are the other slots of
        # its identity-table row at the z that puts the node slot at a
        rule, form = key
        row = _IDENTITIES[rule]
        node = row.forms[form][0]
        p0, q0 = row.slots[node]
        z = (a - q0) / p0
        want = tuple(p * z + q for j, (p, q) in enumerate(row.slots) if j != node)
        spec = _RULES[rule][form]
        assert spec.generic(a) == want == _HAND_CHILDREN[key](a)
        assert tuple(Fraction(p, q) for p, q in spec.ratios(*a.as_integer_ratio())) == want


def _bits(values):
    """float.hex of each value, of its real and imaginary parts if complex."""
    return [(c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c.hex() for c in values]


def _child_grid(count, seed):
    """Seeded floats: uniform on (-8, 8), random signs and binades from the
    subnormals to 2**1000, and a few exact values; each also as complex with
    every signed zero for a part and a random part."""
    rng = random.Random(seed)
    special = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 2.0, -0.5, 1 / 3, 5e-324]
    points = []
    for _ in range(count):
        xs = [rng.uniform(-8.0, 8.0), rng.choice(special),
              rng.choice((-1, 1)) * 2.0 ** rng.uniform(-1074, 1000)]
        y = rng.uniform(-8.0, 8.0)
        for x in xs:
            points += [x, complex(x, y), complex(x, 0.0), complex(x, -0.0),
                       complex(0.0, x), complex(-0.0, x)]
    return points


class TestFormChildBits:
    """The compiled children are the hand-written ones bit for bit, signed
    zeros included, with one exception: comb's middle child is now the
    correctly rounded 1/2 - a, which (1 - (4a - 1))/4 rounds twice."""

    @pytest.mark.parametrize("key", sorted(_HAND_CHILDREN), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_seeded_grid(self, key):
        generic = _RULES[key[0]][key[1]].generic
        for a in _child_grid(2000, seed=17):
            got, want = generic(a), _HAND_CHILDREN[key](a)
            if key == ("comb", 0) and _bits(got) != _bits(want):
                assert _bits(got[::2]) == _bits(want[::2]), a
                x, y = (a.real, a.imag) if isinstance(a, complex) else (a, None)
                middle, hand = complex(got[1]), complex(want[1])
                assert middle.real == float(Fraction(1, 2) - Fraction(x)) != hand.real, a
                assert middle.imag.hex() == hand.imag.hex(), a
                continue
            assert _bits(got) == _bits(want), (key, a)

    def test_comb_on_its_window(self):
        # the quarter-set tracer applies comb on (1/4, 1/3), where 4a - 1 is
        # exact and both middle children are 1/2 - a
        rng = random.Random(23)
        generic, hand = _RULES["comb"][0].generic, _HAND_CHILDREN[("comb", 0)]
        for _ in range(20000):
            a = rng.uniform(0.25, 1 / 3)
            assert _bits(generic(a)) == _bits(hand(a)), a


def _without_leaves(fs):
    """fs with an empty leaf_union, so that every halving chain runs out."""
    return dataclasses.replace(fs, leaf_union=IntervalSet([]))


class TestTraceDepthErrors:
    """Each walker's DomainError for a halving chain that ends outside the
    set."""

    @pytest.mark.parametrize("broken,match", [("leaves", "chain bottomed out at .* outside the set")])
    def test_real_walk(self, fs_half, broken, match):
        with pytest.raises(DomainError, match=match):
            trace_evaluate(Fraction(3, 5), _without_leaves(fs_half))

    @pytest.mark.parametrize("broken,match", [("leaves", "chain bottomed out at .* outside the set")])
    def test_complex_walk(self, fs_half, broken, match):
        with pytest.raises(DomainError, match=match):
            complex_reduce_trace(0.6 + 0.2j, _without_leaves(fs_half))


def _height(trace):
    """The most halvings on a root-to-leaf path of trace's record."""
    heights = []
    for kids in trace.kids:
        heights.append(1 + max(heights[k] for k in kids) if kids else 0)
    return heights[-1]


class TestHalvingBound:
    """A walker allows K t halvings on a path, K the class of 1: enough for
    every point of (0, 1] on a valid set, and a DomainError, not a
    RecursionError, on a set that has lost a piece."""

    @pytest.fixture(
        scope="class", params=[Fraction(1, 2), Fraction(4, 9), Fraction(5, 7), Fraction(1)], ids=str
    )
    def fs(self, request):
        return landau_construct(request.param)

    def test_no_path_is_longer_than_the_bound(self, fs):
        # 200 seeded points per delta: 100 real, 100 in the strip
        bound = _class_of(1, 1, fs.delta) * fs.t
        rng = random.Random(25)
        for _ in range(100):
            x = Fraction(rng.randrange(1, 2**30 + 1), 2**30)
            z = complex(1.0 - rng.random(), rng.uniform(-0.999, 0.999))
            assert _height(trace_evaluate(x, fs)[1]) <= bound
            assert _height(complex_reduce_trace(z, fs)[1]) <= bound

    def test_a_lost_remainder_piece_is_a_depth_error(self, fs):
        # the last piece (lo, 1] holds the fixed point 1 of y -> y/2 + 1/2,
        # so without it the chain of high halvings from inside never ends
        *kept, (lo, hi) = fs.leaf_union
        broken = dataclasses.replace(fs, leaf_union=IntervalSet(kept))
        x = (lo + hi) / 2
        with pytest.raises(DomainError, match="chain bottomed out at .* outside the set"):
            trace_evaluate(x, broken)
        with pytest.raises(DomainError, match="chain bottomed out at .* outside the set"):
            complex_reduce_trace(complex(float(x), 0.25), broken)


_TINY = Fraction(1, 2**61)


def _hand_trace(rule, a, child_args):
    """The one-level trace at a with direct children at child_args, read
    from its JSON; from_json_dict recomputes every value, so only the child
    arguments can fail."""
    leaves = [{"rule": "direct", "arg": _json_arg(c), "children": []} for c in child_args]
    return DerivationTrace.from_json_dict({"rule": rule, "arg": _json_arg(a), "children": leaves})


class TestIntegerMatch:
    """validate_trace matches Fraction children by cross-multiplication."""

    @pytest.mark.parametrize(
        "rule,a,child_args",
        [
            ("functional", Fraction(7, 3), [Fraction(4, 3)]),
            ("functional", Fraction(2, 5), [Fraction(7, 5)]),
            ("reflection", Fraction(5, 8), [Fraction(3, 8)]),
            ("duplication", Fraction(3, 7), [Fraction(3, 14), Fraction(5, 7)]),
            ("duplication", Fraction(3, 5), [Fraction(1, 5), Fraction(1, 10)]),
            ("comb", Fraction(3, 10), [Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)]),
        ],
    )
    def test_exact_children_are_accepted(self, rule, a, child_args):
        assert validate_trace(_hand_trace(rule, a, child_args), lambda c: True) == len(child_args) + 1

    @pytest.mark.parametrize(
        "rule,a,child_args",
        [
            # low child off by 2**-61, children swapped, both children equal
            ("duplication", Fraction(3, 7), [Fraction(3, 14) + _TINY, Fraction(5, 7)]),
            ("duplication", Fraction(3, 7), [Fraction(5, 7), Fraction(3, 14)]),
            ("duplication", Fraction(3, 7), [Fraction(3, 14), Fraction(3, 14)]),
            ("duplication", Fraction(3, 7), [Fraction(5, 7), Fraction(5, 7)]),
            ("duplication", Fraction(3, 7), [Fraction(3, 14)]),
            # the inverse form, 2a - 1 and a - 1/2
            ("duplication", Fraction(3, 5), [Fraction(1, 5), Fraction(1, 10) + _TINY]),
            ("duplication", Fraction(3, 5), [Fraction(1, 5) - _TINY, Fraction(1, 10)]),
            ("duplication", Fraction(3, 5), [Fraction(1, 10), Fraction(1, 5)]),
            # functional, down and up
            ("functional", Fraction(7, 3), [Fraction(4, 3) + _TINY]),
            ("functional", Fraction(2, 5), [Fraction(7, 5) - _TINY]),
            ("functional", Fraction(7, 3), [Fraction(4, 3), Fraction(4, 3)]),
            ("reflection", Fraction(5, 8), [Fraction(3, 8) + _TINY]),
            ("comb", Fraction(3, 10), [Fraction(1, 5), Fraction(1, 5) + _TINY, Fraction(1, 10)]),
        ],
    )
    def test_tampered_children_are_rejected(self, rule, a, child_args):
        with pytest.raises(DomainError, match="match none of its forms"):
            _hand_trace(rule, a, child_args)

    def test_float_children_of_a_fraction_node(self):
        # a real walker's children are pairs: float children match no form,
        # not even the exact float halves of 3/8
        for a, child_args in (
            (Fraction(3, 8), [0.1875, 0.6875]),
            (Fraction(3, 8), [Fraction(3, 16), 0.6875]),
            (Fraction(3, 8), [0.1875 + 2.0**-52, 0.6875]),
            (Fraction(3, 8), [0.6875, 0.1875]),
            (Fraction(3, 7), [float(Fraction(3, 14)), float(Fraction(5, 7))]),
        ):
            with pytest.raises(DomainError, match="match none of its forms"):
                _hand_trace("duplication", a, child_args)


class TestNonDyadicTraces:
    def test_non_dyadic_real_traces_pinned(self, fs_half):
        xs = [Fraction(3, 7), Fraction(5, 11), Fraction(1, 3), Fraction(2, 3)]
        traces = [trace_evaluate(x, fs_half)[1] for x in xs]
        assert sum(t.node_count for t in traces) == 262
        assert _trace_digest(traces) == (
            "d9cb5c67d07c3291bb45029cfc19ce8d4b8f6821c11e359fe604b3458f27b899"
        )
        for trace in traces:
            assert validate_trace(trace, lambda a: a in fs_half.leaf_union) == trace.node_count

    def test_long_non_dyadic_real_traces_pinned(self, fs_half):
        # odd denominators: the first halving leaves an even numerator over an
        # even denominator, so each child is reduced before it is stored
        xs = [Fraction(3, 5), Fraction(7, 9), Fraction(13, 17)]
        traces = [trace_evaluate(x, fs_half)[1] for x in xs]
        assert [t.node_count for t in traces] == [4093, 2045, 2045]
        assert _trace_digest(traces) == (
            "6eb0733234d6e30bee631639eb41d236578006bd7c9ed7079c9cd59a8c938155"
        )
        for trace in traces:
            assert validate_trace(trace, lambda a: a in fs_half.leaf_union) == trace.node_count


class TestLeftHalfPlaneComplexTraces:
    def test_reflected_traces_pinned(self, fs_half):
        # Re z <= 0 and |Im z| >= 1: reflection, shift chain, then halvings
        zs = [-0.25 + 1.0j, -3.25 + 6.5j, -1.75 - 2.5j, complex(-0.0, 1.5),
              -7.5 - 1.0j, -12.125 + 3.0j]
        traces = [complex_reduce_trace(z, fs_half)[1] for z in zs]
        assert [t.node_count for t in traces] == [4097, 12288, 12, 6, 12, 8203]
        assert _trace_digest(traces) == (
            "eb8be5329ebf854d0c3ac578da9a9d0a29104bfd7f3bef272670bd4a9cd7dd20"
        )
        for trace in traces:
            assert validate_trace(trace, strip_membership(fs_half)) == trace.node_count
