"""Exact rational linear algebra: simplex LP, kernels, cocircuits, Smith
normal form.

Nothing here uses floating point, so the stability certificates and
stabilizer invariants built on top are exact.  One fraction-free
Gauss-Jordan elimination over the integers (`_eliminate`) is behind
`matrix_rank` and `integer_kernel_basis` (and its rational view
`kernel_basis`); a rational row is first scaled by the lcm of its
denominators (`_integer_row`).  `cocircuits` reads the
cocircuits of an integer vector configuration off one-dimensional integer
kernels, as bitmask pairs, so `Fraction` appears only in the results
`kernel_basis` hands back and in the simplex tableau, and the Smith form
works on plain ints.  The LP is a textbook two-phase simplex with Bland's
rule, which both terminates and makes vertex choices deterministic; the
problem sizes in this package are tiny (tens of variables), and the
simplex has not been tuned.  It returns its row multipliers too: an
optimal dual solution, or a Farkas certificate when the LP is infeasible.
Only the stability classifier in `git_stability` still solves LPs, one
per verdict, and reads its certificates off those multipliers.  The one
caller of `cocircuits`, `git_stability.cocircuit_signs`, takes those of
(the weights, theta) once per system, and its readers solve none: the
enumeration of both loci composes them, a single support S is semistable
iff none is negative on theta and nowhere on S (Farkas), compactness asks
whether the nonnegative ones cover every weight (Gordan's alternative),
and hol-consistency whether one meets T in one index alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

Status = str  # "optimal" | "infeasible" | "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def lp_maximize(
    c: Sequence,
    A_ub: Optional[Sequence[Sequence]] = None,
    b_ub: Optional[Sequence] = None,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
) -> tuple[Status, Optional[list[Fraction]], Optional[Fraction], Optional[list[Fraction]]]:
    """Maximize c.x subject to A_ub x <= b_ub and A_eq x = b_eq.

    Variables are free (internally split into nonnegative pairs).  Returns
    (status, x, value, y); x and value are None unless status == "optimal".
    y holds one multiplier per row, the rows of A_ub first and then those
    of A_eq, with y_ub >= 0:

    * optimal: A_ub^T y_ub + A_eq^T y_eq = c and b . y = value (an optimal
      dual solution);
    * infeasible: A_ub^T y_ub + A_eq^T y_eq = 0 and b . y < 0 (a Farkas
      certificate);
    * unbounded: y is None.

    The multipliers are read off the reduced costs of the artificial
    columns, which are kept but never enter in phase 2.  All arithmetic is
    exact.
    """
    c = [Fraction(v) for v in c]
    n = len(c)
    A_ub = _frac_rows(A_ub or [])
    b_ub = [Fraction(v) for v in (b_ub or [])]
    A_eq = _frac_rows(A_eq or [])
    b_eq = [Fraction(v) for v in (b_eq or [])]
    if len(A_ub) != len(b_ub) or len(A_eq) != len(b_eq):
        raise ValueError("constraint matrix/rhs length mismatch")
    for row in A_ub + A_eq:
        if len(row) != n:
            raise ValueError("constraint row length mismatch")

    n_ub = len(A_ub)
    nv = 2 * n + n_ub  # x+ block, x- block, slack block
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, row in enumerate(A_ub):
        r = [_ZERO] * nv
        for j, v in enumerate(row):
            r[j] = v
            r[n + j] = -v
        r[2 * n + i] = _ONE
        rows.append(r)
        rhs.append(b_ub[i])
    for row, b in zip(A_eq, b_eq):
        r = [_ZERO] * nv
        for j, v in enumerate(row):
            r[j] = v
            r[n + j] = -v
        rows.append(r)
        rhs.append(b)
    m = len(rows)
    sign = [1] * m  # -1 on the rows negated to make their rhs >= 0
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            sign[i] = -1

    # Phase 1: artificial variable per row, minimize their sum.
    total = nv + m
    tab = [rows[i] + [_ONE if j == i else _ZERO for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [nv + i for i in range(m)]
    cost = [_ZERO] * nv + [_ONE] * m + [_ZERO]
    for row in tab:
        cost = [cv - rv for cv, rv in zip(cost, row)]
    _pivot_to_optimum(tab, basis, cost, allowed=total)
    if -cost[-1] != 0:  # leftover artificial mass
        # the phase-1 price of row i is 1 - cost[nv + i]; y is its negative,
        # times the sign that row was given
        return "infeasible", None, None, [sg * (cost[nv + i] - 1) for i, sg in enumerate(sign)]

    # Drive artificials out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(m):
        if basis[i] < nv:
            keep.append(i)
            continue
        piv = next((j for j in range(nv) if tab[i][j] != 0), None)
        if piv is None:
            continue  # redundant constraint row
        _pivot(tab, basis, i, piv)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: minimize -c.x; the artificial columns stay out of the basis.
    obj = [-v for v in c] + [v for v in c] + [_ZERO] * (n_ub + m)
    cost = obj + [_ZERO]
    for i, b in enumerate(basis):
        if obj[b] != 0:
            cost = [cv - obj[b] * rv for cv, rv in zip(cost, tab[i])]
    unbounded = not _pivot_to_optimum(tab, basis, cost, allowed=nv)
    if unbounded:
        return "unbounded", None, None, None

    xsplit = [_ZERO] * nv
    for i, b in enumerate(basis):
        xsplit[b] = tab[i][-1]
    x = [xsplit[j] - xsplit[n + j] for j in range(n)]
    value = sum((cj * xj for cj, xj in zip(c, x)), _ZERO)
    # the phase-2 price of row i is -cost[nv + i]; y is its negative, likewise
    return "optimal", x, value, [sg * cost[nv + i] for i, sg in enumerate(sign)]


def _pivot(tab: list[list[Fraction]], basis: list[int], i: int, j: int) -> None:
    piv = tab[i][j]
    tab[i] = [v / piv for v in tab[i]]
    for r in range(len(tab)):
        if r != i and tab[r][j] != 0:
            f = tab[r][j]
            tab[r] = [a - f * b for a, b in zip(tab[r], tab[i])]
    basis[i] = j


def _pivot_to_optimum(tab, basis, cost, allowed: int) -> bool:
    """Run Bland-rule simplex until optimal.  False means unbounded."""
    while True:
        enter = next((j for j in range(allowed) if cost[j] < 0), None)
        if enter is None:
            return True
        leave = None
        best = None
        for i in range(len(tab)):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        _pivot(tab, basis, leave, enter)
        f = cost[enter]
        if f != 0:
            for j in range(len(cost)):
                cost[j] -= f * tab[leave][j]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _integer_row(row: Sequence) -> list[int]:
    """A rational row scaled by the lcm of its denominators: a positive
    multiple in plain ints."""
    if all(type(v) is int for v in row):
        return list(row)
    vals = [Fraction(v) for v in row]
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals]


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination; returns (M, pivot columns, D).

    Each row is made integer first, a rational row scaled by the lcm of
    its denominators, which leaves the row space unchanged.  The step on
    a pivot P in column c replaces every other row by (P row - a pivot
    row) / prev, with a its entry in column c and prev the last pivot;
    the division is exact, since every entry is then a minor of the input
    (Bareiss 1968; Nakos, Turner and Williams 1997).  At the end M / D is
    the reduced row echelon form, D the last pivot (1 if there is none).
    """
    mat = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        row = mat[r]
        piv = row[col]
        for i, other in enumerate(mat):
            if i != r:
                a = other[col]
                mat[i] = [(piv * x - a * y) // prev for x, y in zip(other, row)]
        prev = piv
        pivots.append(col)
    return mat, pivots, prev


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(rows)[1])


def integer_kernel_basis(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list[list[int]]:
    """Primitive integer basis of the right kernel {w : rows @ w = 0}.

    One vector per free column f of the eliminated matrix (M, D): w[f] =
    |D| and w[p] = -sign(D) M[r][f] for the pivot p of row r, divided by
    the gcd.  Its entries vanish after f, so f is its last nonzero entry,
    and there w[f] > 0.
    """
    mat, pivots, d = _eliminate(rows)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    sd = -1 if d > 0 else 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        w = [0] * ncols
        w[f] = abs(d)
        for r, p in enumerate(pivots):
            w[p] = sd * mat[r][f]
        basis.append(integer_primitive(w))
    return basis


def cocircuits(vecs: Sequence[Sequence[int]], k: int) -> list[tuple[tuple[int, int], list[int]]]:
    """The cocircuits of the integer vectors `vecs` in Z^k, each as
    ((pos, neg), y): y a primitive integer vector and pos, neg the bitmasks
    {i : vecs[i] . y > 0} and {i : vecs[i] . y < 0}.

    With r the rank of `vecs` and L = ker(vecs) their lineality space, a
    cocircuit is the sign vector of a y != 0 that vanishes on a hyperplane
    of the configuration, spanned by r - 1 independent vectors; taken
    orthogonal to L as well, y is unique up to a scalar.  So each independent
    (r - 1)-subset with an integer basis of L stacked under it has a
    one-dimensional integer kernel, and y and -y are its two cocircuits.
    A subset inside a hyperplane already found spans it or is dependent,
    and is skipped without an elimination; the subsets are drawn from the
    first vector on each line R v, v != 0, alone.  Rank 0 has none.
    """
    lineality = integer_kernel_basis(vecs, k)
    r = k - len(lineality)
    if r == 0:
        return []
    firsts: dict[tuple[int, ...], int] = {}  # each line R v to its first index
    for i, v in enumerate(vecs):
        if g := gcd(*v):  # 0 for a zero vector, which is on no line
            firsts.setdefault(max(tuple([a // g for a in v]), tuple([-a // g for a in v])), i)
    full = (1 << len(vecs)) - 1
    flats: list[int] = []
    out = []
    for sub in combinations(firsts.values(), r - 1):
        mask = sum(1 << i for i in sub)
        if any(not mask & ~flat for flat in flats):
            continue
        kern = integer_kernel_basis([vecs[i] for i in sub] + lineality, k)
        if len(kern) != 1:
            continue
        y = kern[0]
        pos = neg = 0
        for i, v in enumerate(vecs):
            d = _dot(v, y)
            if d > 0:
                pos |= 1 << i
            elif d < 0:
                neg |= 1 << i
        flats.append(full & ~(pos | neg))
        out.append(((pos, neg), y))
        out.append(((neg, pos), [-a for a in y]))
    return out


def kernel_basis(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list[list[Fraction]]:
    """Rational basis of the right kernel {v : rows @ v = 0}: the
    `integer_kernel_basis` vectors scaled to 1 in their free column."""
    basis = []
    for w in integer_kernel_basis(rows, ncols):
        lead = next(v for v in reversed(w) if v)
        basis.append([Fraction(v, lead) for v in w])
    return basis


def integer_primitive(vec: Sequence) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer vector, a
    positive multiple of it."""
    ints = _integer_row(vec)
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive form")
    return [v // g for v in ints]


def smith_invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Only the diagonal of the Smith normal form is produced (no transform
    matrices); zeros are dropped, so the length of the result is the rank.
    """
    a = [[int(v) for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        pi, pj = -1, -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        changed = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        changed = True
            if not changed:
                break
        stray = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]),
            None,
        )
        if stray is not None:
            a[t] = [x + y for x, y in zip(a[t], a[stray[0]])]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return factors
