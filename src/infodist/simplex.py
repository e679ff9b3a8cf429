"""One-phase primal simplex over exact rationals, on an integer tableau.

Solves  max c.x  s.t.  A x <= b,  x >= 0  for b >= 0, from the all-slack
basis (the origin), with Bland's anti-cycling rule.  Verdicts feed theorem
checks, so no floating point or tolerance is allowed.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968): each
constraint row is scaled by the positive lcm L_i of its denominators, its
slack keeps coefficient 1, and every stored row, the objective row
included, holds its true value times one common positive denominator D.  A
pivot is then one exact integer division per cell instead of a Fraction
gcd.  The scaling multiplies tableau rows and slack columns by positive
constants only, so signs, ratio-test order and hence every pivot are those
of the plain Fraction tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

OPTIMAL = "optimal"
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
    """Pivot every row of T (objective last) on T[prow][pcol] > 0; return D."""
    P = T[prow]
    piv = P[pcol]
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


def _optimize(T, basis, D):
    """Run simplex steps on T, whose last row holds the reduced costs.

    The objective row is [z_j - c_j ... | z] times D.  The ratio test takes
    positive entries only, so D stays positive.  Returns (status, new D).
    """
    obj = T[-1]
    m = len(basis)
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
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


def solve(
    c: Sequence, A: Sequence[Sequence], b: Sequence
) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0 (everything exact).  Raises
    ValueError when some b_i < 0: the origin must be feasible."""
    m = len(A)
    n = len(c)
    assert len(b) == m
    if any(bi < 0 for bi in b):
        raise ValueError("simplex.solve needs b >= 0")
    scaled = [_integer_row([*row, bi]) for row, bi in zip(A, b)]
    T = [head[:n] + [0] * m + head[n:] for _, head in scaled]
    for i, row in enumerate(T):
        assert len(row) == n + m + 1
        row[n + i] = 1
    basis = list(range(n, n + m))
    # The all-slack basis has z = 0, so its objective row is just -c.
    cl, cost = _integer_row(c)
    T.append([-cj for cj in cost] + [0] * (m + 1))
    status, D = _optimize(T, basis, 1)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(T[r][-1], D)
    obj = T[-1]
    dual = [Fraction(L * obj[n + i], D * cl) for i, (L, _) in enumerate(scaled)]
    return LPResult(OPTIMAL, x=x, value=Fraction(obj[-1], D * cl), dual=dual)
