import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammalab
from gammalab.core import log_gamma
from gammalab import stern
from gammalab.errors import DomainError, ResourceError
from gammalab.stern import (
    MODULUS_CAP,
    _folded_rows,
    _rank,
    independent_count,
    relation_matrix,
    totient,
)


def _fraction_rank(rows):
    """Reference: rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                factor = mat[i][c] / mat[rank][c]
                pairs = zip(mat[i], mat[rank])
                mat[i] = [a - factor * b if b else a for a, b in pairs]
        rank += 1
    return rank


def _bareiss_rank(rows):
    """Reference: rank over Q by fraction-free (Bareiss) elimination, the
    count's rank before the sparse elimination.  After r pivots every entry
    below the pivot rows is an (r+1)-minor of the input, so dividing by the
    previous pivot (an r-minor) is exact."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    rank = 0
    prev = 1
    for c in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[c]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f or p != prev:  # else the row is unchanged
                mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = p
        rank += 1
        if rank == len(mat):
            break
    return rank


_matrices = st.integers(0, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols), max_size=7
    )
)


def _fold_of_relation_matrix(m):
    """Reference: fold the multiplication rows of the dense relation_matrix(m)
    (v_{m-k} -> -v_k, v_{m/2} -> 0), keep the nonzero ones once up to sign
    with a positive first entry, sorted."""
    folded = set()
    for r in relation_matrix(m)[m // 2:]:
        row = tuple(r[k - 1] - r[m - k - 1] for k in range(1, (m + 1) // 2))
        lead = next((x for x in row if x), 0)
        if lead:
            folded.add(row if lead > 0 else tuple(-x for x in row))
    return sorted(folded)


class TestTotient:
    @pytest.mark.parametrize(
        "m,expected",
        [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (7, 6), (12, 4), (30, 8)],
    )
    def test_known_values(self, m, expected):
        assert totient(m) == expected

    def test_multiplicative_on_coprimes(self):
        assert totient(35) == totient(5) * totient(7)


class TestRelationMatrix:
    def test_row_shapes(self):
        rows = relation_matrix(6)
        assert all(len(r) == 5 for r in rows)

    def test_reflection_rows_present(self):
        rows = relation_matrix(5)
        # k = 1: e_1 + e_4; k = 2: e_2 + e_3
        assert [1, 0, 0, 1] in rows
        assert [0, 1, 1, 0] in rows

    def test_duplication_row_for_even_modulus(self):
        rows = relation_matrix(4)
        # n = 2, k = 1: v_1 + v_3 - v_2
        assert [1, -1, 1] in rows

    def test_rows_are_identities_of_log_gamma(self):
        # each row, dotted with log Gamma(k/m), gives its constant: the
        # reflection rows k = 1..m//2 first, then each divisor n's rows
        # k = 1..m/n; relative to the sum of the magnitudes, the worst row
        # for m = 3..200 reads 2.7e-15
        worst = 0.0
        for m in range(3, 201):
            v = [log_gamma(k / m) for k in range(1, m)]
            consts = [math.log(math.pi) - math.log(math.sin(math.pi * k / m)) for k in range(1, m // 2 + 1)]
            consts += [
                (n - 1) / 2 * math.log(2 * math.pi) + (0.5 - n * k / m) * math.log(n)
                for n in range(2, m + 1) if m % n == 0 for k in range(1, m // n + 1)
            ]
            rows = relation_matrix(m)
            assert len(rows) == len(consts)
            for row, c in zip(rows, consts):
                terms = [a * x for a, x in zip(row, v) if a]
                scale = math.fsum(map(abs, terms)) + abs(c)
                worst = max(worst, abs(math.fsum(terms) - c) / scale)
        assert worst <= 1e-14

    def test_small_modulus_rejected(self):
        with pytest.raises(DomainError):
            relation_matrix(2)
        with pytest.raises(DomainError):
            relation_matrix(0)


class TestIndependentCount:
    @pytest.mark.parametrize("m", [*range(3, 13), 480, 1000])
    def test_matches_half_totient(self, m):
        assert independent_count(m) == totient(m) // 2

    def test_modulus_over_the_cap(self, monkeypatch):
        # refused before any row is built
        monkeypatch.setattr(stern, "_folded_rows", None)
        with pytest.raises(ResourceError, match=f"^m = {MODULUS_CAP + 1} is over the cap "):
            independent_count(MODULUS_CAP + 1)

    def test_specific_counts(self):
        # phi(5)/2 = 2: two genuinely free values among v_1..v_4
        assert independent_count(5) == 2
        # phi(12)/2 = 2 despite eleven unknowns and many relations
        assert independent_count(12) == 2

    def test_prime_moduli(self):
        # for prime p only reflection and the full product relation act:
        # (p-1)/2 independent values survive
        for p in (3, 5, 7, 11, 13):
            assert independent_count(p) == (p - 1) // 2

    def test_folded_rank_matches_full_matrix(self):
        for m in range(3, 101):
            full = (m - 1) - _rank(relation_matrix(m))
            assert independent_count(m) == full, m

    def test_prime_modulus_folds_to_no_rows(self):
        # the one multiplication row is all ones, which folds to zero
        for p in (3, 7, 37, 101):
            assert _folded_rows(p) == []

    def test_folded_rows_at_36(self):
        rows = _folded_rows(36)
        assert (len(rows), len(rows[0])) == (20, 17)
        assert rows == sorted(set(rows))
        assert all(next(x for x in row if x) > 0 for row in rows)

    def test_direct_fold_matches_the_fold_of_the_matrix(self):
        for m in range(3, 301):
            assert _folded_rows(m) == _fold_of_relation_matrix(m), m

    def test_small_modulus_rejected_without_the_matrix(self):
        for m in (2, 1, 0):
            with pytest.raises(DomainError, match="relation counting needs m >= 3") as fold:
                _folded_rows(m)
            with pytest.raises(DomainError) as matrix:
                relation_matrix(m)
            with pytest.raises(DomainError) as count:
                independent_count(m)
            assert str(fold.value) == str(matrix.value) == str(count.value)

    def test_half_totient_up_to_200(self):
        for m in range(3, 201):
            assert independent_count(m) == totient(m) // 2, m

    def test_check_survives_optimize_flag(self):
        # python -O strips assert statements; the phi(m)/2 check must stay
        code = (
            "import gammalab.stern as s; s.totient = lambda m: 0; "
            "s.independent_count(7)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gammalab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 1
        assert "AssertionError: independent count 3 at m = 7" in proc.stderr


class TestBareissRank:
    def test_relation_matrices_match_fraction_elimination(self):
        for m in range(3, 61):
            rows = relation_matrix(m)
            assert _rank(rows) == _fraction_rank(rows), m

    @settings(max_examples=200, deadline=None)
    @given(_matrices, st.integers(0, 7), st.integers(0, 6))
    def test_small_matrices_match_fraction_elimination(self, rows, zero_row, zero_col):
        assert _rank(rows) == _fraction_rank(rows)
        # a zero row and a zero column change neither rank
        if rows:
            rows = [row[:zero_col] + [0] + row[zero_col:] for row in rows]
            rows.insert(min(zero_row, len(rows)), [0] * len(rows[0]))
            assert _rank(rows) == _fraction_rank(rows)

    def test_folded_rows_match_bareiss_elimination(self):
        for m in range(3, 201):
            rows = _folded_rows(m)
            assert _rank(rows) == _bareiss_rank(rows), m
