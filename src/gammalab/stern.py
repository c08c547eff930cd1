"""Counting independent linear relations among log-gamma values.

For a modulus m, the values v_k = log Gamma(k/m), k = 1..m-1, satisfy two
families of integer linear relations modulo constants: log pi and logs of
algebraic numbers.  Reflection pairs give v_k + v_{m-k} = log pi -
log sin(pi k/m), and every divisor n >= 2 of m the multiplication relation
sum_j v_{k + j m/n} - v_{nk} = ((n-1)/2) log 2pi + (1/2 - nk/m) log n.
Writing all of them as rows of an integer matrix and computing its rank
over the rationals yields the number of *independent* values left, which
equals phi(m)/2 (phi the totient) for every m >= 3.

The rank is taken on a smaller, folded matrix.  Reflection row k < m/2 is
e_k + e_{m-k}, with entry 1 in column m - k, and for even m row m/2 is
2 e_{m/2}; no other reflection row touches these columns.  Eliminating
them first is therefore exact over Q: it substitutes v_{m-k} -> -v_k and
v_{m/2} -> 0 in each multiplication row r, leaving r[k] - r[m-k] for
k = 1..(m-1)//2.  So the rank of the whole matrix is floor(m/2) (the
reflection rows, one pivot column each) plus the rank of the folded rows,
and dropping folded rows that are zero or repeat another up to sign leaves
that rank unchanged.  At m = 36 the 73 x 35 matrix folds to 20 x 17; at a
prime m no row is left.  The count builds the folded rows straight from the
divisors of m (`_folded_rows`) and never the whole matrix, which
`relation_matrix` still states.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError


def totient(m: int) -> int:
    """Euler's totient by direct gcd counting (m is small here)."""
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _check_modulus(m: int) -> None:
    if m < 3:
        raise DomainError(
            "relation counting needs m >= 3; at m = 2 the only value "
            "v_1 = log Gamma(1/2) is itself constant and the count "
            "phi(m)/2 does not apply"
        )


def relation_matrix(m: int) -> list:
    """Integer relation rows over the unknowns v_1..v_{m-1}.

    Reflection supplies rows for k = 1..floor(m/2): e_k + e_{m-k} (a single
    2 e_k when k = m - k).  Each divisor n >= 2 of m supplies rows for
    k = 1..m/n: sum_{j=0}^{n-1} e_{k + j m/n} - e_{nk}, with the v_m term
    (v_m = log Gamma(1) = 0) dropped.
    """
    _check_modulus(m)
    rows = []
    for k in range(1, m // 2 + 1):
        row = [0] * (m - 1)
        row[k - 1] += 1
        row[m - k - 1] += 1
        rows.append(row)
    for n in range(2, m + 1):
        if m % n != 0:
            continue
        step = m // n
        for k in range(1, step + 1):
            row = [0] * (m - 1)
            for j in range(n):
                idx = k + j * step
                if idx != m:
                    row[idx - 1] += 1
            if n * k != m:
                row[n * k - 1] -= 1
            rows.append(row)
    return rows


def _rank(rows: list) -> int:
    """Rank over Q by integer elimination of the rows with an entry in the
    pivot column; no other row is rewritten.

    Zero rows go first.  The pivot in column c is the sparsest of the rows
    with the least nonzero |entry| p there; each other row with an entry f
    becomes (p/g) row - (f/g) pivot, g = gcd(p, f), divided by its content,
    and goes at zero.  Invertible over Q, these steps keep the rank; each
    pivot adds one, and leaves columns up to c zero in every row left.
    """
    mat, rank, c = [row for row in rows if any(row)], 0, -1
    while mat:
        c += 1
        hits = [row for row in mat if row[c]]
        if not hits:
            continue
        top = min(hits, key=lambda row: (abs(row[c]), -row.count(0)))
        p, tail = top[c], top[c + 1:]
        mat = [row for row in mat if not row[c]]
        for row in hits:
            if row is not top:
                g = gcd(p, row[c])
                q, f = p // g, row[c] // g
                new = [q * a - f * b for a, b in zip(row[c + 1:], tail)]
                content = gcd(*new)
                if content > 1:
                    new = [a // content for a in new]
                if content:
                    mat.append([0] * (c + 1) + new)
        rank += 1
    return rank


def _folded_rows(m: int) -> list:
    """The multiplication rows of relation_matrix(m) with the reflection
    rows eliminated (see the module docstring): the nonzero ones, each once
    up to sign with a positive first entry, sorted.

    Each row is built from its divisor n of m straight into a list over the
    (m - 1)//2 folded columns: v_i adds to column i for i < m/2 and
    subtracts from column m - i for i > m/2, the +1 entries v_k, v_{k+m/n},
    ... in one pass over range(k, m, m/n) and then the one -1 entry v_{nk}.
    The row k = m/n of each divisor, the n = m row among them, is e_{m/n} +
    e_{2m/n} + ... + e_{m-m/n} once v_m is dropped; it is symmetric under
    i -> m - i, folds to zero and is not built.  Rows k < m/n have no v_m
    term.
    """
    _check_modulus(m)
    zero, folded = (0,) * ((m - 1) // 2), set()
    for n in range(2, m):
        if m % n:
            continue
        step = m // n
        for k in range(1, step):
            row = list(zero)
            for i in range(k, m, step):
                if 2 * i < m:
                    row[i - 1] += 1
                elif 2 * i > m:
                    row[m - i - 1] -= 1
            i = n * k
            if 2 * i < m:
                row[i - 1] -= 1
            elif 2 * i > m:
                row[m - i - 1] += 1
            row = tuple(row)
            if row != zero:
                folded.add(row if row > zero else tuple(-x for x in row))
    return sorted(folded)


def independent_count(m: int) -> int:
    """Number of log-gamma values at k/m not fixed by the relation families.

    Computed as (m - 1) - rank(relation matrix).  The rank is floor(m/2),
    one for each reflection row, plus the rank of the folded multiplication
    rows; eliminating the reflection rows first is exact because each has a
    pivot column that no other reflection row touches (module docstring).
    The count equals totient(m)/2 for every m >= 3; this is checked, and a
    mismatch raises AssertionError (also under python -O).
    """
    independent = (m - 1) - (m // 2 + _rank(_folded_rows(m)))
    expected, rem = divmod(totient(m), 2)
    if rem or independent != expected:
        raise AssertionError(
            f"independent count {independent} at m = {m} is not phi(m)/2 "
            f"(phi(m) = {totient(m)})"
        )
    return independent
