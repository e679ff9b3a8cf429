"""Exact linear algebra over a prime field GF(p).

Matrices are sequences of rows of Python ints, which never overflow, so one
elimination is exact for every prime.  Ranks of stacked encoding matrices are
the entropies (in field symbols) of the linear source/edge variables, so
everything downstream is exact integer arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Matrix = Sequence[Sequence[int]]
# An echelon basis: (pivot column, row scaled to 1 at the pivot) per row,
# each row zero at every earlier row's pivot.
Basis = tuple[tuple[int, Sequence[int]], ...]

# Miller-Rabin with the first 12 primes as bases is exact for n < 2^64
# (Sorenson & Webster 2015 prove it up to 3.18e23).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= 2^64."""
    if n >= 1 << 64:
        raise ValueError(f"field size {n} is not below 2^64")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def echelon(rows: Matrix, p: int, basis: Basis = ()) -> Basis:
    """The echelon basis `basis` grown by `rows` mod p.

    Each row, reduced mod p, is reduced against the pivot rows kept so far
    and, if anything is left, adds a pivot at its first nonzero column.
    When no row adds a pivot the very same `basis` object comes back, so
    callers can share it.  Every echelon basis of a row space has the same
    length, its rank, whatever order the rows arrived in.
    """
    return grow(([v % p for v in row] for row in rows), p, basis)


def grow(rows: Iterable[Sequence[int]], p: int, basis: Basis = ()) -> Basis:
    """:func:`echelon` of rows whose entries are already in 0..p-1.

    A row that is 1 at its pivot is kept as it is, not rescaled.
    """
    pivots = list(basis)
    for row in rows:
        if len(pivots) == len(row):  # a pivot in every column: no row can add one
            break
        for c, prow in pivots:
            f = row[c]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        if any(row):
            c = 0
            while not row[c]:
                c += 1
            if row[c] != 1:
                inv = pow(row[c], -1, p)
                row = [x * inv % p for x in row]
            pivots.append((c, row))
    return basis if len(pivots) == len(basis) else tuple(pivots)


def rank(M: Matrix, p: int) -> int:
    """Rank mod p: the length of the echelon basis of M's rows."""
    return len(echelon(M, p))
