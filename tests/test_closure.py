from collections import Counter
from fractions import Fraction

import pytest

from gammalab.closure import affine_closure, branching_factor, generating_maps
from gammalab.errors import DomainError, ResourceError
from gammalab.intervals import as_fraction


class TestGeneratingMaps:
    def test_base_maps_only_at_n_one(self):
        maps = generating_maps(1)
        assert set(maps) == {
            (Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(-1)),
            (Fraction(-1), Fraction(1)),
        }

    def test_duplication_maps_at_n_two(self):
        maps = set(generating_maps(2))
        assert (Fraction(1, 2), Fraction(0)) in maps  # x/2
        assert (Fraction(1, 2), Fraction(1, 2)) in maps  # x/2 + 1/2
        assert (Fraction(2), Fraction(0)) in maps  # 2x
        assert (Fraction(2), Fraction(-1)) in maps  # 2x - 1
        assert (Fraction(1), Fraction(1, 2)) in maps  # x + 1/2

    def test_no_identity_map(self):
        for n in (1, 2, 3, 4):
            assert (Fraction(1), Fraction(0)) not in generating_maps(n)

    def test_counts(self):
        # 3 base maps, then 2n + 2(n-1) more per order n
        assert len(generating_maps(1)) == 3
        assert len(generating_maps(2)) == 3 + 6
        assert len(generating_maps(3)) == 3 + 6 + 10

    def test_branching_factor(self):
        assert branching_factor(1) == 4
        assert branching_factor(2) == 10

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            generating_maps(0)


def _loop_maps(max_n):
    """The generating maps as hand-written loops before they were read off
    the identity table: the oracle."""
    maps = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))]
    for n in range(2, max_n + 1):
        for j in range(n):
            maps.append((Fraction(1, n), Fraction(j, n)))
            maps.append((Fraction(n), Fraction(-j)))
        for d in range(1, n):
            maps.append((Fraction(1), Fraction(d, n)))
            maps.append((Fraction(1), Fraction(-d, n)))
    return maps


class TestTableMaps:
    @pytest.mark.parametrize("max_n", range(1, 9))
    def test_maps_are_the_hand_written_loops(self, max_n):
        # as a multiset: x + 1/2 comes from both mult:2 and mult:4
        assert Counter(generating_maps(max_n)) == Counter(_loop_maps(max_n))

    def test_branching_factors(self):
        assert [branching_factor(n) for n in range(1, 5)] == [4, 10, 20, 34]

    def test_branching_factor_closed_form_counts_the_maps(self):
        for max_n in range(1, 41):
            assert branching_factor(max_n) == 1 + len(generating_maps(max_n)), max_n

    def test_branching_factor_rejects_bad_order(self):
        with pytest.raises(DomainError):
            branching_factor(0)


class TestAffineClosure:
    def test_depth_zero_is_identity(self):
        pts = [Fraction(1, 3), Fraction(2, 5)]
        out = affine_closure(pts, 0, 3)
        assert out == frozenset(pts)

    def test_contains_input(self):
        out = affine_closure([Fraction(1, 2)], 2, 2)
        assert Fraction(1, 2) in out

    def test_monotone_in_depth(self):
        prev = None
        for depth in range(4):
            cur = affine_closure([Fraction(2, 7)], depth, 2)
            if prev is not None:
                assert prev <= cur
            prev = cur

    def test_within_cardinality_bound(self):
        pts = [Fraction(1, 3), Fraction(3, 4)]
        k = branching_factor(2)
        for depth in range(4):
            out = affine_closure(pts, depth, 2)
            assert len(out) <= len(pts) * k**depth

    def test_one_step_images_exact(self):
        out = affine_closure([Fraction(1)], 1, 1)
        # x+1 -> 2, x-1 -> 0 dropped, 1-x -> 0 dropped
        assert out == frozenset({Fraction(1), Fraction(2)})

    def test_positivity_clip(self):
        out = affine_closure([Fraction(1, 4)], 1, 1)
        # 1 - 1/4 and 1/4 + 1 survive; 1/4 - 1 is negative and dropped
        assert out == frozenset({Fraction(1, 4), Fraction(5, 4), Fraction(3, 4)})

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            affine_closure([Fraction(1, 7)], 6, 4, budget=50)

    def test_rejects_nonpositive_points(self):
        with pytest.raises(DomainError):
            affine_closure([Fraction(0)], 1, 2)
        with pytest.raises(DomainError):
            affine_closure([Fraction(-1, 2)], 1, 2)

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            affine_closure([Fraction(1, 2)], -1, 2)

    @pytest.mark.parametrize("depth", [0, 1])
    def test_rejects_bad_order_at_any_depth(self, depth):
        # depth 0 builds no maps, but still refuses an order no map has
        with pytest.raises(DomainError, match="max_n must be >= 1, got 0"):
            affine_closure([Fraction(1, 2)], depth, 0)

    def test_all_elements_positive_rationals(self):
        out = affine_closure(["2/3", 0.5], 3, 3)
        assert all(isinstance(x, Fraction) and x > 0 for x in out)

    def test_budget_enforced_at_depth_zero(self):
        with pytest.raises(ResourceError):
            affine_closure(["1/2", "1/3", "1/5"], 0, 2, budget=2)
        assert len(affine_closure(["1/2", "1/3", "1/5"], 0, 2, budget=3)) == 3


def _fraction_closure(points, depth, max_n, budget):
    """Reference: the closure by Fraction arithmetic, one map at a time."""
    pts = {as_fraction(p) for p in points}
    maps = generating_maps(max_n)
    frontier = set(pts)
    for _ in range(depth):
        new = set()
        for x in frontier:
            for a, b in maps:
                y = a * x + b
                if y > 0 and y not in pts:
                    new.add(y)
        pts |= new
        if len(pts) > budget:
            raise ResourceError(f"closure exceeded the cardinality budget {budget}")
        if not new:
            break
        frontier = new
    return frozenset(pts)


class TestIntegerClosure:
    """affine_closure holds points as integer pairs; the Fraction loop is the oracle."""

    @pytest.mark.parametrize("points", [["1/7"], ["2/3", "5/11"], ["3", "1/2", "9/4"]])
    @pytest.mark.parametrize("max_n", range(1, 5))
    @pytest.mark.parametrize("depth", range(4))
    def test_matches_fraction_loop(self, points, depth, max_n):
        want = _fraction_closure(points, depth, max_n, budget=10**6)
        got = affine_closure(points, depth, max_n)
        assert got == want
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("points, depth, max_n", [(["1/7"], 2, 4), (["2/3", "5/11"], 3, 2), (["1/3"], 1, 1)])
    def test_resource_error_boundary(self, points, depth, max_n):
        size = len(_fraction_closure(points, depth, max_n, budget=10**6))
        assert affine_closure(points, depth, max_n, budget=size) == _fraction_closure(
            points, depth, max_n, budget=size
        )
        with pytest.raises(ResourceError):
            _fraction_closure(points, depth, max_n, budget=size - 1)
        with pytest.raises(ResourceError):
            affine_closure(points, depth, max_n, budget=size - 1)
