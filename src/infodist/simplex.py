"""One-phase primal simplex over exact rationals, on an integer tableau.

Solves  max c.x  s.t.  A x <= b,  x >= 0  for b >= 0, from the all-slack
basis (the origin), with Bland's anti-cycling rule.  Verdicts feed theorem
checks, so no floating point or tolerance is allowed.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968): each
constraint row is scaled by the positive lcm L_i of its denominators (a row
of ints is taken as it is), and its slack keeps coefficient 1.  Row r then
holds its true values times its own positive scale[r].  The eager Bareiss
step would keep every row at one common denominator D; here a row that is 0
in the pivot column is left as it is, and any other row gets exactly the
integers the eager step would have stored, with scale D again.  The
objective row is nonzero in every entering column, so its scale is always D.
A pivot is one exact integer division per cell of the rows it touches,
instead of a Fraction gcd per cell of every row.  The ratio test and the
reduced-cost signs each read within one row, and every scale is positive,
so every pivot is that of the plain Fraction tableau.
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

    A row of ints is returned as it is.  Otherwise only the entries that are
    not ints become Fractions: L is the lcm of their denominators, and an
    int entry is just multiplied by L."""
    if {*map(type, values)} <= {int}:
        return 1, list(values)
    exact = {j: Fraction(v) for j, v in enumerate(values) if type(v) is not int}
    L = lcm(*[v.denominator for v in exact.values()])
    row = [v * L for v in values] if L > 1 else list(values)
    for j, v in exact.items():
        row[j] = v.numerator * (L // v.denominator)
    return L, row


def _pivot(T, basis, prow, pcol, scale):
    """Pivot T (objective last) on T[prow][pcol] > 0, updating row scales.

    With D = scale[-1], the eager Bareiss step stores a row r that is 0 in
    pcol as v * piv // D and any other as (v * piv - f * p) // D, all at
    scale D.  A row that is 0 in pcol keeps its values and its scale.  A row
    at scale s != D stands for v * D // s at scale D, so its update is
    (v * piv - f * p) // s: the same exact integers the eager step stores.
    """
    D = scale[-1]
    P = T[prow]
    if scale[prow] != D:
        P = T[prow] = [v * D // scale[prow] for v in P]
    piv = P[pcol]
    if piv == D:
        # (v*D - f*p) // D == v - f*p // D, as f*p is then a multiple of D:
        # a row at scale D changes only in the pivot row's nonzero columns.
        support = [(j, p) for j, p in enumerate(P) if p]
    for r, row in enumerate(T):
        f = row[pcol]
        if not f or r == prow:
            continue
        s = scale[r]
        if piv == s == D:
            for j, p in support:
                row[j] -= f * p // D
        else:
            T[r] = [(v * piv - f * p) // s for v, p in zip(row, P)]
            scale[r] = piv
    scale[prow] = piv
    basis[prow] = pcol


def _optimize(T, basis, scale):
    """Run simplex steps on T, whose last row holds the reduced costs.

    The objective row is [z_j - c_j ... | z] times scale[-1].  The ratio
    test takes positive entries only, so every scale stays positive.
    Returns the status.
    """
    obj = T[-1]
    m = len(basis)
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
        if enter < 0:
            return OPTIMAL
        leave = -1
        for r in range(m):
            a = T[r][enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = r, T[r][-1], a
                    continue
                # T[r][-1] / a  vs  num / den, cross-multiplied (a, den > 0);
                # each ratio is read within one row, so scales cancel.
                lhs, rhs = T[r][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, T[r][-1], a
        if leave < 0:
            return UNBOUNDED
        _pivot(T, basis, leave, enter, scale)
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
    scale = [1] * (m + 1)
    if _optimize(T, basis, scale) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(T[r][-1], scale[r])
    obj = T[-1]
    D = scale[-1]
    dual = [Fraction(L * obj[n + i], D * cl) for i, (L, _) in enumerate(scaled)]
    return LPResult(OPTIMAL, x=x, value=Fraction(obj[-1], D * cl), dual=dual)
