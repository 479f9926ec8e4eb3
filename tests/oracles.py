"""Independent cross-checks used by the test-suite.

Everything in here is done the dumb way on purpose: full enumeration over
integer boxes, closed-form flows, central differences.  Agreement with the
package is only meaningful if these paths share no code with it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from hkquot import (
    AmbientPoint,
    Cocharacter,
    CotangentPoint,
    WeightSystem,
    act_imaginary,
    doubled_weights,
    mu,
    semistable_support,
    semistable_supports,
    stabilizer,
)
from hkquot.exactlin import cocircuits, integer_primitive, kernel_basis, lp_maximize
from hkquot.strata_examples import HKStratumCandidate

BOX = 10


@lru_cache(maxsize=None)
def _box_lattice(k: int, box: int) -> np.ndarray:
    """All integer vectors in [-box, box]^k except 0, as an (M, k) array."""
    axes = np.meshgrid(*[np.arange(-box, box + 1)] * k, indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1).astype(np.int64)
    return pts[np.any(pts != 0, axis=1)]


def _box_scan(ws: WeightSystem, support, box: int):
    """Box lattice points, their pairings with the support weights, and the
    theta pairings cleared to a common denominator (exact integers)."""
    lattice = _box_lattice(ws.rank, box)
    bmat = np.array([ws.weights[i] for i in sorted(support)], dtype=np.int64)
    bvals = lattice @ bmat.reshape(-1, ws.rank).T
    den = np.lcm.reduce([t.denominator for t in ws.theta])
    tnum = np.array([int(t * den) for t in ws.theta], dtype=np.int64)
    return lattice, bvals, lattice @ tnum


def box_classify_support(ws: WeightSystem, support, box: int = BOX):
    """Brute-force Hilbert-Mumford search over the integer box.

    Returns (status, xi) with xi an integer tuple witnessing the verdict
    (None when stable).  The pairing signs are computed in exact integer
    arithmetic: theta is cleared to a common denominator first.
    """
    lattice, bvals, tvals = _box_scan(ws, support, box)
    hits = np.all(bvals >= 0, axis=1) & (tvals <= 0)
    if not np.any(hits):
        return "stable", None
    at = int(np.argmin(np.where(hits, tvals, np.iinfo(np.int64).max)))
    xi = tuple(int(v) for v in lattice[at])
    if tvals[at] < 0:
        return "unstable", xi
    return "strictly-semistable", xi


def box_polystable_support(ws: WeightSystem, support, box: int = BOX) -> bool:
    """Brute-force relative-interior test over the integer box.

    theta is in the relative interior of Cone{beta^i : i in S} iff no xi has
    <theta, xi> < 0 <= B_S xi (semistable) and every xi with B_S xi >= 0
    and <theta, xi> <= 0 has B_S xi = 0 (no proper face holds theta).
    """
    _, bvals, tvals = _box_scan(ws, support, box)
    hits = np.all(bvals >= 0, axis=1) & (tvals <= 0)
    return not np.any(hits & ((tvals < 0) | np.any(bvals != 0, axis=1)))


def lp_semistable_support(ws: WeightSystem, support) -> bool:
    """theta in Cone{beta^i : i in S}, by exact LP feasibility of
    s >= 0, sum_{i in S} s_i beta^i = theta."""
    idx = sorted(support)
    m = len(idx)
    status, _, _, _ = lp_maximize(
        [0] * m,
        A_ub=[[-1 if j == i else 0 for j in range(m)] for i in range(m)],
        b_ub=[0] * m,
        A_eq=[[ws.weights[i][a] for i in idx] for a in range(ws.rank)],
        b_eq=list(ws.theta),
    )
    return status == "optimal"


def fraction_rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by textbook Gauss-Jordan over `Fraction`:
    each pivot row is divided by its pivot and subtracted from the others.
    Returns (R, pivot columns), R with all the input's rows."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    r = 0
    for col in range(len(mat[0])):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rref_positive_bases(ws: WeightSystem, idx: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each T within idx, |T| <= k, with beta_T linearly independent and
    theta = sum_{i in T} c_i beta^i for some c > 0; T = () when theta = 0.

    By Caratheodory, theta lies in Cone{beta^i : i in S} iff S contains
    such a T.  The rref of [beta_T | theta] has pivots exactly 0..r-1 iff
    beta_T is independent and theta lies in its span, and its last column
    then holds the unique coefficients c.
    """
    for r in range(min(ws.rank, len(idx)) + 1):
        for T in combinations(idx, r):
            red, pivots = fraction_rref(
                [[ws.weights[i][a] for i in T] + [ws.theta[a]] for a in range(ws.rank)]
            )
            if pivots == list(range(r)) and all(red[j][r] > 0 for j in range(r)):
                yield T


def kernel_cover_hol_consistent(ws: WeightSystem, T) -> bool:
    """Can sum_{i in T} beta^i c_i = 0 hold with every c_i nonzero?

    The kernel vectors of the weight columns on T, one per free column of
    their rref, cover T iff it can: a generic combination of them is then
    nonzero on all of T at once.
    """
    idx = sorted(T)
    if not idx:
        return True
    red, pivots = fraction_rref([[ws.weights[i][a] for i in idx] for a in range(ws.rank)])
    covered: set[int] = set()
    for f in (j for j in range(len(idx)) if j not in pivots):
        covered.add(idx[f])
        covered |= {idx[p] for r, p in enumerate(pivots) if red[r][f] != 0}
    return covered == set(idx)


def brute_hk_candidates(ws: WeightSystem) -> list[HKStratumCandidate]:
    """The HK candidates of ws over all 4^n pairs (sx, sz): those whose
    doubled support U is semistable for the doubled system, one support at
    a time, and whose T = sx & sz passes the kernel-cover test, with the
    doubled system's stabilizer on U.  Trivial stabilizer first, then by
    signature, then by the sorted supports."""
    n, dws = ws.n, doubled_weights(ws)
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    found = []
    for sx in subsets:
        for sz in subsets:
            U = set(sx) | {n + i for i in sz}
            if semistable_support(dws, U) and kernel_cover_hol_consistent(ws, sx & sz):
                found.append(HKStratumCandidate(sx, sz, stabilizer(dws, U)))
    found.sort(key=lambda c: (
        not c.stabilizer.is_trivial, c.stabilizer.signature, sorted(c.support_x), sorted(c.support_z)
    ))
    return found


def rational_sample_on_hol_zero(rng, ws: WeightSystem, sx, sz) -> Optional[CotangentPoint]:
    """A random numeric point with supports (sx, sz) and hol moment ~ 0,
    its products x_i z_i on T = sx & sz drawn from the rational kernel of
    the weight columns on T, each entry rounded from its Fraction."""
    T = sorted(set(sx) & set(sz))
    n = ws.n
    prods = np.zeros(n, dtype=complex)
    if T:
        rows = [[ws.weights[i][a] for i in T] for a in range(ws.rank)]
        kern = kernel_basis(rows, len(T))
        if not kern:
            return None
        basis = np.array([[float(c) for c in vec] for vec in kern])
        for _ in range(16):
            coef = rng.standard_normal(len(kern)) + 1j * rng.standard_normal(len(kern))
            combo = coef @ basis
            if np.min(np.abs(combo)) > 1e-3:
                break
        else:
            return None
        for j, i in enumerate(T):
            prods[i] = combo[j]

    def draw() -> complex:
        r = rng.uniform(0.5, 1.5)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        return r * complex(math.cos(ph), math.sin(ph))

    x = np.zeros(n, dtype=complex)
    z = np.zeros(n, dtype=complex)
    for i in sx:
        x[i] = draw()
    for i in sz:
        z[i] = prods[i] / x[i] if i in set(T) else draw()
    return CotangentPoint.numeric(x, z)


def loop_quotient_smooth(ws: WeightSystem) -> tuple[bool, Optional[frozenset]]:
    """The first semistable support, in lexicographic order, whose
    stabilizer is not trivial, by one Smith form per support in turn.

    It takes `semistable_supports` and `stabilizer` from the package, so
    it checks only how `quotient_smooth` reads the answer off the strata.
    """
    for S in semistable_supports(ws):
        if not stabilizer(ws, S).is_trivial:
            return False, S
    return True, None


def lp_quotient_compact(ws: WeightSystem) -> bool:
    """No s >= 0 with sum s_i beta^i = 0 and sum s_i = 1, by exact LP."""
    n = ws.n
    status, _, _, _ = lp_maximize(
        [0] * n,
        A_ub=[[-1 if j == i else 0 for j in range(n)] for i in range(n)],
        b_ub=[0] * n,
        A_eq=[[ws.weights[i][a] for i in range(n)] for a in range(ws.rank)] + [[1] * n],
        b_eq=[0] * ws.rank + [1],
    )
    return status != "optimal"


def dfs_unstable_supports(ws: WeightSystem) -> list[frozenset]:
    """Destabilized supports S(xi), one per realized sign cell, by a plain
    depth-first walk that decides every sign prefix with its own exact LP
    (three per realized prefix).  Output is sorted lexicographically, with
    the empty set only when it is the only one."""
    k = ws.rank
    zero_idx = [i for i in range(ws.n) if all(v == 0 for v in ws.weights[i])]

    # Group coordinates by the line R beta^i: canonical primitive direction
    # plus an orientation per index.
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(ws.n):
        w = ws.weights[i]
        if all(v == 0 for v in w):
            continue
        prim = integer_primitive([Fraction(v) for v in w])
        lead = next(v for v in prim if v != 0)
        orient = 1
        if lead < 0:
            prim = [-v for v in prim]
            orient = -1
        lines.setdefault(tuple(prim), []).append((i, orient))
    dirs = sorted(lines)

    def realized(assign: list[int]) -> bool:
        # max t s.t. sign constraints, <theta, xi> <= -t, |xi| <= 1, t <= 1
        signed: list[list[Fraction]] = []
        A_eq: list[list[Fraction]] = []
        for q, sgn in zip(dirs, assign):
            if sgn == 0:
                A_eq.append([Fraction(v) for v in q] + [Fraction(0)])
            else:
                signed.append([-Fraction(sgn * v) for v in q] + [Fraction(1)])
        signed.append([Fraction(t) for t in ws.theta] + [Fraction(1)])
        A_ub = signed
        b_ub = [Fraction(0)] * len(A_ub)
        for j in range(k):
            for sgn in (1, -1):
                row = [Fraction(0)] * (k + 1)
                row[j] = Fraction(sgn)
                A_ub.append(row)
                b_ub.append(Fraction(1))
        trow = [Fraction(0)] * k + [Fraction(1)]
        A_ub.append(trow)
        b_ub.append(Fraction(1))
        status, _, value, _ = lp_maximize(trow, A_ub, b_ub, A_eq, [Fraction(0)] * len(A_eq))
        return status == "optimal" and value > 0

    found: set[frozenset] = set()

    def walk(assign: list[int]) -> None:
        if not realized(assign):
            return
        if len(assign) == len(dirs):
            S = set(zero_idx)
            for q, sgn in zip(dirs, assign):
                for i, orient in lines[q]:
                    if orient * sgn >= 0:
                        S.add(i)
            found.add(frozenset(S))
            return
        for sgn in (1, 0, -1):
            walk(assign + [sgn])

    walk([])
    nonempty = sorted((s for s in found if s), key=sorted)
    if nonempty:
        return nonempty
    return sorted(found, key=sorted)


class LineCells(NamedTuple):
    dirs: tuple  # the distinct lines R beta^i, as canonical primitive directions
    covectors: tuple  # (pos, neg, xi) per cell: line sign masks and a witness
    cells: tuple  # ({i : beta^i(xi) >= 0}, {i : beta^i(xi) > 0}) per cell


def line_cells(ws: WeightSystem) -> LineCells:
    """The sign cells of ws inside {<theta, xi> < 0}, closed on the lines.

    The coordinates are grouped by the line R beta^i, each on its + or -
    side; the theta-negative covectors of (the lines, theta) are closed
    under composition from the theta-negative cocircuits, each with an
    exact witness; and each covector is mapped back to coordinate masks,
    a zero weight >= 0 and not > 0 in every cell.  With x the witness of
    X and y that of the cocircuit Y, z = M x + y with M = 1 + max |v . y|
    over the vectors v has the signs of X where v . x != 0 and those of Y
    elsewhere: the witness of X o Y, made primitive.  theta = 0 realizes
    nothing.
    """
    lines: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(ws.weights):
        if any(w):
            prim = integer_primitive(w)
            side = 0 if next(v for v in prim if v) > 0 else 1
            if side:
                prim = [-v for v in prim]
            lines.setdefault(tuple(prim), [0, 0])[side] |= 1 << i
    dirs = tuple(sorted(lines))
    if not any(ws.theta):
        return LineCells(dirs, (), ())
    vecs = list(dirs) + [integer_primitive(ws.theta)]
    t = 1 << len(dirs)
    circuits = [
        (pos, neg, y, 1 + max(abs(sum(a * b for a, b in zip(v, y))) for v in vecs))
        for (pos, neg), y in cocircuits(vecs, ws.rank)
    ]
    seen = {(pos, neg): y for pos, neg, y, _ in circuits if neg & t}
    queue = list(seen)
    for xp, xn in queue:
        x = seen[xp, xn]
        for yp, yn, y, big in circuits:
            z = (xp | yp & ~xn, xn | yn & ~xp)
            if z not in seen:
                seen[z] = integer_primitive([big * a + b for a, b in zip(x, y)])
                queue.append(z)
    covectors = tuple((pos, neg & ~t, tuple(xi)) for (pos, neg), xi in seen.items())
    full = (1 << ws.n) - 1
    cells = []
    for pos, neg, _ in covectors:
        up = down = 0
        for j, q in enumerate(dirs):
            plus, minus = lines[q]
            if pos >> j & 1:
                up, down = up | plus, down | minus
            elif neg >> j & 1:
                up, down = up | minus, down | plus
        cells.append((full & ~down, up))
    return LineCells(dirs, covectors, tuple(cells))


def mgs_frame(gauge_raw: np.ndarray, n: int):
    """(gauge, horizontal) orthonormal row matrices splitting R^{4n}, by
    modified Gram-Schmidt with one reorthogonalization pass.

    Each vector is normalized first and dropped when its residual after
    projection falls below 1e-8; the horizontal rows come from running the
    standard basis against the accepted gauge rows.
    """

    def orthonormalize(vectors, fixed=()):
        out = []
        for v in vectors:
            nrm = float(np.linalg.norm(v))
            if nrm == 0.0:
                continue
            w = np.asarray(v, dtype=float) / nrm
            for _ in range(2):
                for q in list(fixed) + out:
                    w = w - (q @ w) * q
            nrm = float(np.linalg.norm(w))
            if nrm > 1e-8:
                out.append(w / nrm)
        return out

    gauge = orthonormalize(gauge_raw)
    horizontal = orthonormalize(np.eye(4 * n), fixed=gauge)
    return np.array(gauge).reshape(-1, 4 * n), np.array(horizontal).reshape(-1, 4 * n)


def j_flow_value(ws: WeightSystem, p, xi, t: float) -> float:
    """<Re M(flow_t(p)), xi> along the J-direction flow, in closed form.

    Writing y = conj(z) and lam_i = beta^i(xi), the flow solves
    (x', y') = (-i lam y, i lam x), i.e. hyperbolic rotation of each
    coordinate pair.  The value is Sum_i lam_i Re(i x_i conj(y_i)).
    """
    q = p.to_numeric()
    lam = np.array([float(ws.weight_pairing(i, xi)) for i in range(ws.n)])
    x = np.asarray(q.x, dtype=complex)
    y = np.conj(np.asarray(q.z, dtype=complex))
    ch = np.cosh(lam * t)
    sh = np.sinh(lam * t)
    xt = ch * x - 1j * sh * y
    yt = 1j * sh * x + ch * y
    return float(np.sum(lam * np.real(1j * xt * np.conj(yt))))


def central_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2.0 * h)
    return g


def random_weight_system(rng, nmax: int = 6, kmax: int = 3, wmax: int = 3) -> WeightSystem:
    k = int(rng.integers(1, kmax + 1))
    n = int(rng.integers(1, nmax + 1))
    weights = tuple(
        tuple(int(v) for v in rng.integers(-wmax, wmax + 1, size=k)) for _ in range(n)
    )
    theta = tuple(
        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))) for _ in range(k)
    )
    return WeightSystem(rank=k, weights=weights, theta=theta)


def random_ambient(rng, n: int, zero_prob: float = 0.35) -> AmbientPoint:
    coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coords[rng.random(n) < zero_prob] = 0.0
    return AmbientPoint.numeric(coords)


def random_cocharacter(rng, k: int, bound: int = 3) -> tuple:
    return tuple(int(v) for v in rng.integers(-bound, bound + 1, size=k))


# ---------------------------------------------------------------------------
# the numeric reduce path as it was first written: every evaluation builds
# its arrays, points and moment values afresh


def _xi_floats(xi) -> np.ndarray:
    if isinstance(xi, Cocharacter):
        return xi.as_floats()
    return np.array([float(u) for u in xi])


def kn_value_oracle(ws: WeightSystem, v: AmbientPoint, xi) -> float:
    xi_arr = _xi_floats(xi)
    lam = ws.beta_array().astype(float) @ xi_arr
    mods = np.array(v.to_numeric().moduli_squared(), dtype=float)
    with np.errstate(over="ignore"):  # a zero coordinate's factor is 0
        factor = np.where(v.to_numeric().coords != 0, np.exp(-2.0 * lam), 0.0)
        quad = 0.25 * float(np.dot(mods, factor))
    val = quad + float(ws.theta_array() @ xi_arr)
    return val if math.isfinite(val) else math.inf


def kn_gradient_oracle(ws: WeightSystem, v: AmbientPoint, xi) -> np.ndarray:
    """mu at the point flowed by exp(sqrt(-1) xi), through the point and
    moment-value objects."""
    return mu(ws, act_imaginary(ws, _xi_floats(xi), 1.0, v)).as_floats()


def kn_hessian_oracle(ws: WeightSystem, v: AmbientPoint, xi) -> np.ndarray:
    xi_arr = _xi_floats(xi)
    beta = ws.beta_array().astype(float)
    lam = beta @ xi_arr
    mods = np.array(v.to_numeric().moduli_squared(), dtype=float)
    with np.errstate(over="ignore"):  # a zero coordinate's factor is 0
        w = mods * np.where(v.to_numeric().coords != 0, np.exp(-2.0 * lam), 0.0)
    return (beta.T * w) @ beta


def split_apply_quaternion(op: str, v: np.ndarray) -> np.ndarray:
    """I, J or K on the last axis, its four blocks cut by np.split."""
    v = np.asarray(v, dtype=float)
    xr, xi, yr, yi = np.split(v, 4, axis=-1)
    blocks = {
        "I": [-xi, xr, yi, -yr],
        "J": [-yr, -yi, xr, xi],
        "K": [yi, -yr, xi, -xr],
    }[op]
    return np.concatenate(blocks, axis=-1)


def gram_matrices_oracle(H: np.ndarray) -> dict:
    out = {"g": H @ H.T}
    for op in ("I", "J", "K"):
        out[f"omega_{op}"] = split_apply_quaternion(op, H) @ H.T
    return out


def quaternion_deviation_oracle(H: np.ndarray, images) -> float:
    """The quaternion deviation of H from its I, J, K images as three
    separate spectral norms."""
    It, Jt, Kt = (H @ image.T for image in images)
    eye = np.eye(H.shape[0])
    devs = [
        np.linalg.norm(It @ Jt - Kt, 2),
        np.linalg.norm(It @ It + eye, 2),
        np.linalg.norm(Jt @ Jt + eye, 2),
    ]
    return float(max(devs))


def quaternion_check_oracle(H: np.ndarray) -> float:
    return quaternion_deviation_oracle(H, [split_apply_quaternion(op, H) for op in ("I", "J", "K")])
