"""Exact linear algebra: simplex LP, kernels, cocircuits, primitive vectors, Smith form."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hkquot import exactlin
from hkquot.exactlin import (
    cocircuits,
    integer_kernel_basis,
    integer_primitive,
    kernel_basis,
    lp_maximize,
    matrix_rank,
    smith_invariant_factors,
)
from hkquot.git_stability import _cells
from hkquot.rep_core import WeightSystem

from oracles import fraction_rref

F = Fraction


def check_multipliers(lp, c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> None:
    """The row multipliers y of lp = lp_maximize(...) meet their contract:
    y_ub >= 0, A^T y = c and b . y = value when optimal, A^T y = 0 and
    b . y < 0 when infeasible, None when unbounded."""
    status, _, value, y = lp
    if status == "unbounded":
        assert y is None
        return
    rows, rhs = list(A_ub) + list(A_eq), list(b_ub) + list(b_eq)
    assert len(y) == len(rows)
    assert all(isinstance(v, Fraction) for v in y)
    assert all(v >= 0 for v in y[: len(A_ub)])
    combo = [sum((F(row[j]) * v for row, v in zip(rows, y)), F(0)) for j in range(len(c))]
    by = sum((F(b) * v for b, v in zip(rhs, y)), F(0))
    if status == "optimal":
        assert combo == [F(v) for v in c] and by == value
    else:
        assert status == "infeasible"
        assert not any(combo) and by < 0


def test_lp_bounded_hand_example():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0  -> (8/5, 6/5)
    A_ub, b_ub = [[1, 2], [3, 1], [-1, 0], [0, -1]], [4, 6, 0, 0]
    lp = lp_maximize(c=[1, 1], A_ub=A_ub, b_ub=b_ub)
    status, x, value, y = lp
    assert status == "optimal"
    assert x == [F(8, 5), F(6, 5)]
    assert value == F(14, 5)
    assert y == [F(2, 5), F(1, 5), F(0), F(0)]
    check_multipliers(lp, [1, 1], A_ub, b_ub)


def test_lp_free_variables_and_equalities():
    # max -t  s.t.  x - y = 3, t >= |x| is modeled with two inequalities;
    # optimum pushes x to 3/2? no: x free, minimize max(x, -x) subject to
    # x - y = 3 with y free leaves t* = 0 unattainable only when x is pinned.
    # Pin x = -5 through the equality block and check t* = 5 exactly.
    args = dict(c=[0, 0, -1], A_ub=[[1, 0, -1], [-1, 0, -1]], b_ub=[0, 0],
                A_eq=[[1, -1, 0], [0, 1, 0]], b_eq=[3, -8])
    lp = lp_maximize(**args)
    status, x, value, _ = lp
    assert status == "optimal"
    assert x[0] == F(-5)
    assert value == F(-5)
    check_multipliers(lp, **args)


def test_lp_infeasible_and_unbounded():
    lp = lp_maximize(c=[1], A_ub=[[1], [-1]], b_ub=[1, -2])
    status, x, value, y = lp
    assert status == "infeasible" and x is None and value is None
    assert y == [F(1), F(1)]  # x <= 1 plus -x <= -2 gives 0 <= -1
    check_multipliers(lp, [1], [[1], [-1]], [1, -2])
    status, x, value, y = lp_maximize(c=[1], A_ub=[[-1]], b_ub=[0])
    assert status == "unbounded" and x is None and value is None and y is None
    # infeasible equalities, one with a negative right-hand side, and a
    # redundant equality row on a feasible system
    args = dict(c=[0, 0], A_eq=[[1, 1], [2, 2]], b_eq=[1, -3])
    lp = lp_maximize(**args)
    assert lp[0] == "infeasible"
    check_multipliers(lp, **args)
    args = dict(c=[1, 2], A_ub=[[1, 0], [0, 1]], b_ub=[4, 5], A_eq=[[1, -1], [-2, 2]], b_eq=[-1, 2])
    lp = lp_maximize(**args)
    assert lp[:3] == ("optimal", [F(4), F(5)], F(14))
    check_multipliers(lp, **args)


def test_lp_degenerate_vertex_terminates():
    # redundant constraints meeting at the optimum must not cycle
    A_ub, b_ub = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]], [1, 1, 2, 0, 0]
    lp = lp_maximize(c=[1, 1], A_ub=A_ub, b_ub=b_ub)
    status, x, value, _ = lp
    assert status == "optimal"
    assert value == 2
    check_multipliers(lp, [1, 1], A_ub, b_ub)


def vertex_optimum(cost, rows, rhs) -> Optional[Fraction]:
    """max cost . x over {rows x <= rhs} by enumerating every basic point;
    None when no basic point is feasible."""
    nv = len(cost)
    best = None
    for pick in itertools.combinations(range(len(rows)), nv):
        sub = [rows[i] for i in pick]
        red, piv = fraction_rref([r + [rhs[i]] for r, i in zip(sub, pick)])
        if len(piv) != nv or nv in piv:
            continue
        cand = [F(0)] * nv
        for r, p in zip(red, piv):
            cand[p] = r[-1]
        if all(
            sum(a * b for a, b in zip(row, cand)) <= bb for row, bb in zip(rows, rhs)
        ):
            cv = sum(c * v for c, v in zip(cost, cand))
            best = cv if best is None or cv > best else best
    return best


def test_lp_random_instances_against_vertex_enumeration():
    # Small random bounded LPs: check the simplex optimum against direct
    # enumeration of all basic feasible points of the inequality system,
    # and the row multipliers against their contract.
    rng = np.random.default_rng(7)
    for _ in range(25):
        nv = int(rng.integers(2, 4))
        rows = [[F(int(v)) for v in rng.integers(-3, 4, size=nv)] for _ in range(nv + 3)]
        rhs = [F(int(v)) for v in rng.integers(1, 5, size=nv + 3)]
        # keep the region bounded via a box
        for j in range(nv):
            for s in (1, -1):
                rows.append([F(s) if i == j else F(0) for i in range(nv)])
                rhs.append(F(6))
        cost = [F(int(v)) for v in rng.integers(-3, 4, size=nv)]
        lp = lp_maximize(cost, A_ub=rows, b_ub=rhs)
        assert lp[0] == "optimal"
        assert vertex_optimum(cost, rows, rhs) == lp[2]
        check_multipliers(lp, cost, rows, rhs)
    # Further draws with negative right-hand sides and equality rows, some
    # repeated as a redundant multiple: infeasible draws are common.  The
    # enumeration reads each equality as two inequalities.
    statuses = set()
    for _ in range(60):
        nv = int(rng.integers(2, 4))
        A_ub = [[F(int(v)) for v in rng.integers(-3, 4, size=nv)] for _ in range(nv)]
        b_ub = [F(int(v)) for v in rng.integers(-3, 5, size=nv)]
        A_eq = [[F(int(v)) for v in rng.integers(-2, 3, size=nv)] for _ in range(int(rng.integers(0, 3)))]
        b_eq = [F(int(v)) for v in rng.integers(-3, 4, size=len(A_eq))]
        if A_eq and rng.random() < 0.5:
            scale = int(rng.choice([-2, -1, 2]))
            A_eq.append([scale * v for v in A_eq[0]])
            b_eq.append(scale * b_eq[0])
        for j in range(nv):
            for s in (1, -1):
                A_ub.append([F(s) if i == j else F(0) for i in range(nv)])
                b_ub.append(F(6))
        cost = [F(int(v)) for v in rng.integers(-3, 4, size=nv)]
        lp = lp_maximize(cost, A_ub, b_ub, A_eq, b_eq)
        statuses.add(lp[0])
        split = A_ub + A_eq + [[-v for v in row] for row in A_eq]
        assert vertex_optimum(cost, split, b_ub + b_eq + [-b for b in b_eq]) == lp[2]
        check_multipliers(lp, cost, A_ub, b_ub, A_eq, b_eq)
    assert statuses == {"optimal", "infeasible"}


def lp_open_cone_feasible(rows: list[list[int]], eq: Sequence[Sequence[int]] = ()) -> bool:
    """Whether some y has r . y > 0 for every row r and e . y = 0 for every
    row e of eq, by Gordan's alternative: iff no lam >= 0 with sum 1 and
    no mu have sum lam_r r + sum mu_e e = 0, which is one exact LP
    feasibility test."""
    p, q, d = len(rows), len(eq), len(rows[0])
    A_eq = [[r[j] for r in rows] + [e[j] for e in eq] for j in range(d)]
    A_eq.append([1] * p + [0] * q)
    A_ub = [[-1 if i == j else 0 for j in range(p + q)] for i in range(p)]
    return lp_maximize([0] * (p + q), A_ub, [0] * p, A_eq, [0] * d + [1])[0] == "infeasible"


@st.composite
def cone_rows(draw, mmax: int = 12) -> list[list[int]]:
    """Integer rows in dimension 1..4, with zero rows and parallel and
    opposite copies mixed in, and entries up to 3 or up to 10**6 in size,
    so that coefficient growth is exercised.  Half the draws instead
    orient every row to pair nonnegatively with a hidden point and take
    no zero rows, so that feasible systems are common."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    m = draw(st.integers(1, mmax))
    big = draw(st.sampled_from([3, 3, 10**6]))
    entry = st.integers(-big, big)
    hidden = draw(st.one_of(st.none(), st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=d, max_size=d)))
    rows: list[list[int]] = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random"] * 6 + ["zero", "copy", "copy"]))
        if kind == "zero" and hidden is None:
            row = [0] * d
        elif kind == "copy" and rows:
            scale = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            row = [scale * v for v in draw(st.sampled_from(rows))]
        else:
            row = draw(st.lists(entry, min_size=d, max_size=d))
        if hidden is not None and sum(a * b for a, b in zip(row, hidden)) < 0:
            row = [-v for v in row]
        rows.append(row)
    return rows


@st.composite
def sign_configurations(draw) -> tuple[list[list[int]], list[int]]:
    """Up to 5 vectors from `cone_rows`, in a quarter of the draws all on
    the hyperplane x_d = 0 (rank-deficient), and theta: zero, free, or a
    positive or negative multiple of one of the vectors."""
    vecs = draw(cone_rows(mmax=5))
    d = len(vecs[0])
    if d > 1 and draw(st.integers(0, 3)) == 0:
        vecs = [v[:-1] + [0] for v in vecs]
    kind = draw(st.sampled_from(["zero", "free", "free", "copy"]))
    if kind == "zero":
        theta = [0] * d
    elif kind == "copy":
        scale = draw(st.sampled_from([-2, -1, 1, 3]))
        theta = [scale * v for v in draw(st.sampled_from(vecs))]
    else:
        theta = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return vecs, theta


def sign_masks(vecs, y) -> tuple[int, int]:
    """({i : vecs[i] . y > 0}, {i : vecs[i] . y < 0}) as bitmasks."""
    dots = [sum(a * b for a, b in zip(v, y)) for v in vecs]
    return (sum(1 << i for i, d in enumerate(dots) if d > 0),
            sum(1 << i for i, d in enumerate(dots) if d < 0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sign_configurations())
@example(([[1]], [1]))
@example(([[1], [-2]], [0]))
@example(([[0]], [0]))
@example(([[0, 0]], [1, 0]))
@example(([[1, 2], [2, 4], [-1, -2]], [1, 0]))
@example(([[1, 0], [0, 1]], [-1, -1]))
@example(([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 1]))
@example(([[1, 0, 0], [0, 1, 0]], [1, 1, 0]))
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0]], [1, 2, -1, 0]))
@example(([[0, 0, 0], [1, 0, 0], [-2, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 0, 0]))
def test_cocircuit_closure_matches_lp_oracle(config):
    vecs, theta = config
    d, m = len(theta), len(vecs)
    full = vecs + [theta]

    def rank(idx) -> int:
        return len(fraction_rref([full[i] for i in idx])[1])

    # cocircuits: primitive integer vectors with their signs, whose zero
    # sets are exactly the hyperplanes (flats of rank r - 1), each twice
    r = rank(range(m + 1))
    hyperplanes: Counter = Counter()
    for sub in itertools.combinations(range(m + 1), r - 1) if r else ():
        if rank(sub) == r - 1:
            flat = sum(1 << i for i in range(m + 1) if rank(sub + (i,)) == r - 1)
            hyperplanes[flat] = 2
    zero_sets: Counter = Counter()
    for (pos, neg), y in cocircuits(full, d):
        assert all(type(v) is int for v in y) and math.gcd(*y) == 1
        assert sign_masks(full, y) == (pos, neg)
        zero_sets[(1 << (m + 1)) - 1 & ~(pos | neg)] += 1
    assert zero_sets == hyperplanes

    def realized(pos, neg, j) -> bool:
        # some y has the signs (pos, neg) on vecs[:j] and <theta, y> < 0
        signed = [v if pos >> i & 1 else [-a for a in v]
                  for i, v in enumerate(vecs[:j]) if (pos | neg) >> i & 1]
        eq = [v for i, v in enumerate(vecs[:j]) if not (pos | neg) >> i & 1]
        return lp_open_cone_feasible(signed + [[-a for a in theta]], eq)

    # the closure: each cell is realized; every other sign vector has a
    # first prefix that no cell extends, and there the LP must find no
    # point with its signs
    cells = [(pos, (1 << m) - 1 & ~nonneg) for nonneg, pos in _cells(WeightSystem(d, vecs, theta))]
    assert len(set(cells)) == len(cells)
    for pos, neg in cells:
        assert realized(pos, neg, m), (pos, neg)
    prefixes = {(pos & (1 << j) - 1, neg & (1 << j) - 1, j)
                for pos, neg in cells for j in range(m + 1)}
    stack = [(0, 0, 0)]
    while stack:
        pos, neg, j = stack.pop()
        if (pos, neg, j) in prefixes:
            if j < m:
                stack += [(pos | 1 << j, neg, j + 1), (pos, neg, j + 1), (pos, neg | 1 << j, j + 1)]
            continue
        assert not realized(pos, neg, j), (pos, neg, j)


def test_cocircuits_skip_zero_and_parallel_vectors(monkeypatch):
    # a subset holding a zero vector, or two vectors on one line, spans no
    # hyperplane: one integer kernel per hyperplane, plus the lineality space
    vecs = [[0, 0, 0], [1, 0, 0], [-2, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [1, 1, 1]]
    calls = []

    def counting(*args):
        calls.append(args)
        return integer_kernel_basis(*args)

    monkeypatch.setattr(exactlin, "integer_kernel_basis", counting)
    # the lines R e1, R e2, R e3 and R (1, 1, 1) span six planes in R^3
    assert len(cocircuits(vecs, 3)) == 2 * 6
    assert len(calls) == 6 + 1


@st.composite
def column_systems(draw):
    """Integer columns and a right-hand side: dependent columns, b in the
    span (some coefficients 0), b = 0 and b outside the span all occur,
    and so do zero and repeated coordinates (rows of [cols | b]), more
    rows than columns and k = 0 (no rows).  Also drawn: a nonzero
    rational scale per row of [cols | b], or 1 for every row."""
    k = draw(st.integers(0, 4))
    r = draw(st.integers(0, k + 1))
    m = draw(st.sampled_from([2, 9, 10**6]))
    entry = st.integers(-m, m)
    cols = []
    for _ in range(r):
        if cols and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append(draw(st.lists(entry, min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["span", "span", "zero", "free"]))
    if kind == "span":
        c = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        b = [sum(ci * col[a] for ci, col in zip(c, cols)) for a in range(k)]
    elif kind == "zero":
        b = [0] * k
    else:
        b = draw(st.lists(entry, min_size=k, max_size=k))
    for a in range(k):
        kind = draw(st.sampled_from(["keep"] * 4 + ["zero", "repeat"]))
        src = draw(st.integers(0, k - 1))
        for v in cols + [b]:
            v[a] = 0 if kind == "zero" else v[src] if kind == "repeat" else v[a]
    scale = st.sampled_from([1, 1, F(1, 2), F(-2, 3), F(5, 7), F(-1, 10**6)])
    scales = draw(st.one_of(st.just([1] * k), st.lists(scale, min_size=k, max_size=k)))
    return cols, b, scales


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(column_systems())
@example(([], [], []))
@example(([[]], [], []))
@example(([], [0, 0], [1, 1]))
@example(([], [1, 0], [1, 1]))
@example(([[0, 0]], [0, 0], [1, 1]))
@example(([[1, 2], [2, 4]], [3, 6], [1, 1]))
@example(([[2, 0], [0, 3]], [-2, 0], [1, 1]))
@example(([[1], [1]], [1], [1]))
@example(([[1, 1, 0]], [2, 2, 0], [F(1, 2), F(-2, 3), 1]))
def test_kernels_and_rank_match_rref(system):
    # kernel_basis, integer_kernel_basis and matrix_rank on the rows of
    # [cols | b] scaled by rationals agree with the Fraction oracle
    cols, b, scales = system
    r = len(cols)
    red, pivots = fraction_rref([[col[a] for col in cols] + [b[a]] for a in range(len(b))])
    rows = [[s * col[a] for col in cols] + [s * b[a]] for a, s in enumerate(scales)]
    assert matrix_rank(rows) == len(pivots)
    kern = []
    for f in range(r + 1):
        if f not in pivots:
            v = [F(0)] * (r + 1)
            v[f] = F(1)
            for j, p in enumerate(pivots):
                v[p] = -red[j][f]
            kern.append(v)
    got = kernel_basis(rows, r + 1)
    assert got == kern
    assert all(type(v) is F for vec in got for v in vec)
    # the integer kernel: primitive positive multiples of the same vectors
    ints = integer_kernel_basis(rows, r + 1)
    assert all(type(v) is int for w in ints for v in w)
    assert all(math.gcd(*w) == 1 for w in ints)
    free = [f for f in range(r + 1) if f not in pivots]
    assert [[F(v, w[f]) for v in w] for w, f in zip(ints, free)] == kern


def test_matrix_rank():
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert matrix_rank([[1, 2], [3, 4]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([]) == 0


def test_kernel_basis_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        mat = [[F(int(v)) for v in rng.integers(-4, 5, size=n)] for _ in range(m)]
        basis = kernel_basis(mat)
        assert len(basis) == n - matrix_rank(mat)
        for vec in basis:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in mat)
    assert kernel_basis([], ncols=3) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_integer_primitive():
    assert integer_primitive([F(2), F(4), F(6)]) == [1, 2, 3]
    assert integer_primitive([F(1, 2), F(1, 3)]) == [3, 2]
    assert integer_primitive([F(0), F(-5)]) == [0, -1]
    assert integer_primitive([-4, 6, 0]) == [-2, 3, 0]
    assert all(type(v) is int for v in integer_primitive((3, -9)))
    with pytest.raises(ValueError):
        integer_primitive([F(0), F(0)])


def _minor_gcd_factors(mat: list[list[int]]) -> list[int]:
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    arr = [[F(v) for v in row] for row in mat]
    rank = matrix_rank(arr)
    dets_prev = 1
    out = []
    for k in range(1, rank + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = np.array([[mat[i][j] for j in ci] for i in ri], dtype=object)
                g = math.gcd(g, abs(_int_det(sub)))
        out.append(g // dets_prev)
        dets_prev = g
    return out


def _int_det(a) -> int:
    k = len(a)
    if k == 1:
        return int(a[0][0])
    total = 0
    for j in range(k):
        minor = [[a[i][jj] for jj in range(k) if jj != j] for i in range(1, k)]
        total += (-1) ** j * int(a[0][j]) * _int_det(minor)
    return total


def test_smith_invariant_factors_known_cases():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    for n in range(1, 6):
        assert smith_invariant_factors([[0, 1], [n, -1]]) == [1, n]


def test_smith_invariant_factors_match_minor_gcds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        mat = [[int(v) for v in rng.integers(-6, 7, size=n)] for _ in range(m)]
        got = smith_invariant_factors(mat)
        assert got == _minor_gcd_factors(mat)
        for a, b in zip(got, got[1:]):
            assert b % a == 0
