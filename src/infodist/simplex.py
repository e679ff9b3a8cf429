"""One-phase primal simplex over exact rationals, in revised form on integer rows.

Solves  max c.x  s.t.  A x <= b,  x >= 0  for b >= 0, from the all-slack
basis (the origin), with Bland's anti-cycling rule.  Verdicts feed theorem
checks, so no floating point or tolerance is allowed.

A is given by its sparse columns: cols[j] lists the nonzero (i, A_ij) of
column j, each an int or a Fraction, and m = len(b); no dense row is
built.  The rows are fraction-free (Bareiss, Math. Comp. 22, 1968): each
constraint row is scaled by the positive lcm L_i of the denominators of
its entries and of b_i that are not ints, read from the nonzeros in one
pass (a zero entry has denominator 1, so L_i is that of the dense row),
and its slack keeps coefficient 1.  The same pass reads cl, that lcm for
the entries of c, and the objective is cost = cl * c, an int row.  Row r
then holds its true values times its own positive scale[r].  `_pivot`
leaves a row whose entering cell is 0 as it is, gives any other row
exactly the integers the eager Bareiss step would store, at the common
scale D, and records the entering column in the basis.  A pivot is one
exact integer division per cell of the rows it touches, instead of a
Fraction gcd per cell of every row.

The form is revised (Dantzig and Orchard-Hays, MTAC 8, 1954): of the
tableau [L*A | I | L*b] with objective row [-cost | 0 | 0], only m + 1 rows
[entering cell | slack part | rhs] are kept.  The slack block starts as the
identity, so a row's slack part is the row operations applied to it so
far, times its scale.  Its cell in structural column j is therefore its
slack part times column j of L*A, and the objective row's cell is
y.(L*A_j) - D*cost_j, with y its slack part and D its scale: integer
identities at the row's own scale, in which a zero of A_j adds nothing.
So each cell computed here from the scaled columns, the pairs
(1 + i, L_i * A_ij), is the integer the dense tableau stores, at the same
scale.  Pricing reads the structural columns in index order, then the
slacks (Bland's order); the ratio test keeps the least ratio and, on a tie,
the least basis index; `_pivot` updates the same cells at the same scales.
Each of these reads within one row, and every scale is positive, so every
pivot, x, value and dual is that of the dense tableau, and of the plain
Fraction tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
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


def _pivot(T, basis, prow, enter, scale):
    """Pivot T (objective last) on row prow's entering cell T[prow][0] > 0,
    updating row scales, and record column `enter` as basic in row prow.

    With D = scale[-1], the eager Bareiss step stores a row r whose entering
    cell is 0 as v * piv // D and any other as (v * piv - f * p) // D, all
    at scale D.  A row with entering cell 0 keeps its values and its scale.
    A row at scale s != D stands for v * D // s at scale D, so its update is
    (v * piv - f * p) // s: the same exact integers the eager step stores.
    """
    D = scale[-1]
    P = T[prow]
    if scale[prow] != D:
        P = T[prow] = [v * D // scale[prow] for v in P]
    piv = P[0]
    if piv == D:
        # (v*D - f*p) // D == v - f*p // D, as f*p is then a multiple of D:
        # a row at scale D changes only in the pivot row's nonzero columns.
        support = [(j, p) for j, p in enumerate(P) if p]
    for r, row in enumerate(T):
        f = row[0]
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
    basis[prow] = enter


def solve(c: Sequence, b: Sequence, cols: Sequence[Sequence]) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0 (everything exact), where A
    has m = len(b) rows and cols[j] lists the nonzero (i, A_ij) of its
    column j.  Raises ValueError when some b_i < 0: the origin must be
    feasible."""
    m = len(b)
    n = len(c)
    assert len(cols) == n
    if any(bi < 0 for bi in b):
        raise ValueError("simplex.solve needs b >= 0")
    # L[i]: the lcm of the denominators of row i's entries that are not ints;
    # L[m], read in the same pass, is that of c's entries (the objective's cl).
    L = [1] * (m + 1)
    for i, v in chain(enumerate(b), *cols, zip(repeat(m), c)):
        if type(v) is not int:
            L[i] = lcm(L[i], v.denominator)
    cl = L.pop()
    cost = [v * cl if type(v) is int else v.numerator * (cl // v.denominator) for v in c]
    # cols[j]: the nonzero (k, L_i * A_ij) of column j, where k = 1 + i is
    # slack i's cell in a row [entering cell | slack part | rhs].
    cols = [[(i + 1, v * L[i] if type(v) is int else v.numerator * (L[i] // v.denominator))
             for i, v in col] for col in cols]
    T = []
    for k, (Li, bi) in enumerate(zip(L, b), 1):
        T.append([0] * (m + 2))
        T[-1][k] = 1
        T[-1][-1] = bi * Li if type(bi) is int else bi.numerator * (Li // bi.denominator)
    basis = list(range(n, n + m))
    T.append([0] * (m + 2))
    scale = [1] * (m + 1)
    basic = [False] * (n + m)
    while True:
        obj = T[-1]
        D = scale[-1]
        # Bland's order: the structural columns by index, then the slacks.
        for enter, col in enumerate(cols):
            if basic[enter]:  # its reduced cost is 0
                continue
            d = -D * cost[enter]
            for k, a in col:
                d += obj[k] * a
            if d < 0:
                break
        else:
            k = next((k for k in range(1, m + 1) if obj[k] < 0), 0)
            if not k:
                break
            enter, col, d = n + k - 1, [(k, 1)], obj[k]
        obj[0] = d
        # Each row's entering cell, one sparse dot product, and the ratio test.
        leave = -1
        for r, row in zip(range(m), T):
            a = 0
            for k, v in col:
                a += row[k] * v
            row[0] = a
            if a > 0:
                if leave < 0:
                    leave, num, den = r, row[-1], a
                    continue
                # row[-1] / a  vs  num / den, cross-multiplied (a, den > 0);
                # each ratio is read within one row, so scales cancel.
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, row[-1], a
        if leave < 0:
            return LPResult(UNBOUNDED)
        basic[basis[leave]] = False
        basic[enter] = True
        _pivot(T, basis, leave, enter, scale)
    zero = Fraction(0)
    x = [zero] * n
    for r, bcol in enumerate(basis):
        if bcol < n and T[r][-1]:
            x[bcol] = Fraction(T[r][-1], scale[r])
    obj = T[-1]
    D = scale[-1]
    dual = [Fraction(Li * y, D * cl) if y else zero for Li, y in zip(L, obj[1:])]
    return LPResult(OPTIMAL, x=x, value=Fraction(obj[-1], D * cl), dual=dual)
