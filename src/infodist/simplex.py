"""Two-phase primal simplex over exact rationals, on an integer tableau.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with Bland's anti-cycling rule.
Verdicts feed theorem checks, so no floating point or tolerance is allowed.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968): each
constraint row is scaled by the positive lcm L_i of its denominators, its
slack and artificial keep coefficient +-1, and every stored row, the
objective row included, holds its true value times one common positive
denominator D.  A pivot is then one exact integer division per cell instead
of a Fraction gcd.  The scaling multiplies tableau rows and slack columns by
positive constants only, so signs, ratio-test order and hence every pivot
are those of the plain Fraction tableau; the phase-1 weights below keep its
objective a uniform multiple of -sum(artificials).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    value: Optional[Fraction] = None
    dual: Optional[list[Fraction]] = None


def _integer_row(values) -> tuple[int, list[int]]:
    """(L, L*values) for the least positive L that makes every entry integral.

    Only the entries that are not ints become Fractions: L is the lcm of
    their denominators, and an int entry is just multiplied by L."""
    exact = {j: Fraction(v) for j, v in enumerate(values) if type(v) is not int}
    L = lcm(*[v.denominator for v in exact.values()])
    row = [v * L for v in values] if L > 1 else list(values)
    for j, v in exact.items():
        row[j] = v.numerator * (L // v.denominator)
    return L, row


def _pivot(T, basis, prow, pcol, D):
    """Pivot every row of T (objective last) on T[prow][pcol]; return the new D."""
    P = T[prow]
    piv = P[pcol]
    if piv < 0:  # keep D positive: the pivot row's true value is P / piv either way
        piv = -piv
        P = T[prow] = [-v for v in P]
    if piv == D:
        # (v*D - f*p) // D == v - f*p // D, as f*p is then a multiple of D:
        # only the pivot row's nonzero columns change, in place.
        support = [(j, p) for j, p in enumerate(P) if p]
        for r, row in enumerate(T):
            f = row[pcol]
            if f and r != prow:
                for j, p in support:
                    row[j] -= f * p // D
    else:
        for r, row in enumerate(T):
            if r == prow:
                continue
            f = row[pcol]
            if f:
                T[r] = [(v * piv - f * p) // D for v, p in zip(row, P)]
            else:
                T[r] = [v * piv // D for v in row]
    basis[prow] = pcol
    return piv


def _optimize(T, basis, allowed, D):
    """Run simplex steps on T, whose last row holds the reduced costs.

    The objective row is [z_j - c_j ... | z] times D.  Only columns in
    `allowed` (ascending) may enter.  Returns the status and the new D.
    """
    obj = T[-1]
    m = len(basis)
    while True:
        enter = next((j for j in allowed if obj[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, D
        leave = -1
        for r in range(m):
            a = T[r][enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = r, T[r][-1], a
                    continue
                # T[r][-1] / a  vs  num / den, cross-multiplied (a, den > 0)
                lhs, rhs = T[r][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, T[r][-1], a
        if leave < 0:
            return UNBOUNDED, D
        D = _pivot(T, basis, leave, enter, D)
        obj = T[-1]


def _price_out(T, basis, cost, D):
    """Objective row [z_j - c_j ... | z] for the current basis, times D."""
    obj = [-cj * D for cj in cost] + [0]
    for r, bcol in enumerate(basis):
        cb = cost[bcol]
        if cb:
            obj = [o + cb * v for o, v in zip(obj, T[r])]
    return obj


def solve(
    c: Sequence, A: Sequence[Sequence], b: Sequence
) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0 (everything exact)."""
    m = len(A)
    n = len(c)
    assert len(b) == m
    nslack = m
    scaled = [_integer_row([*row, bi]) for row, bi in zip(A, b)]
    scale = [L for L, _ in scaled]
    sign = [-1 if row[-1] < 0 else 1 for _, row in scaled]
    art_rows = [i for i in range(m) if sign[i] < 0]
    nart = len(art_rows)
    ncols = n + nslack + nart

    T: list[list[int]] = []
    basis: list[int] = []
    art_col = {i: n + nslack + k for k, i in enumerate(art_rows)}
    for i, (_, head) in enumerate(scaled):
        assert len(head) == n + 1
        s = sign[i]
        row = [s * v for v in head[:n]] + [0] * (ncols - n) + [s * head[n]]
        row[n + i] = s
        if i in art_col:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        T.append(row)
    D = 1

    if nart:
        # Artificial i carries L_i times its true value; weighting it by
        # lcm/L_i makes this objective lcm * (-sum of true artificials).
        art_lcm = lcm(*[scale[i] for i in art_rows])
        cost1 = [0] * ncols
        for i in art_rows:
            cost1[art_col[i]] = -(art_lcm // scale[i])
        T.append(_price_out(T, basis, cost1, D))
        status, D = _optimize(T, basis, range(ncols), D)
        assert status == OPTIMAL, "phase 1 cannot be unbounded"
        if T[-1][-1] != 0:  # -value != 0  =>  some artificial stuck positive
            return LPResult(INFEASIBLE)
        # Drive leftover artificials out of the basis; the phase-1 objective
        # row rides along and is dropped after.  Each row began with its own
        # slack and pivots are invertible row operations, so no row is zero
        # on the structural and slack columns.
        arts = set(art_col.values())
        for r in range(m):
            if basis[r] in arts:
                pcol = next(j for j in range(n + nslack) if T[r][j] != 0)
                D = _pivot(T, basis, r, pcol, D)
        T.pop()

    cl, cost2 = _integer_row(c)
    cost2 += [0] * (nslack + nart)
    T.append(_price_out(T, basis, cost2, D))
    status, D = _optimize(T, basis, range(n + nslack), D)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(T[r][-1], D)
    obj = T[-1]
    dual = [Fraction(sign[i] * scale[i] * obj[n + i], D * cl) for i in range(m)]
    return LPResult(OPTIMAL, x=x, value=Fraction(obj[-1], D * cl), dual=dual)
