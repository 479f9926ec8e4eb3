"""Exact GIT stability for torus weight systems.

Everything is decided by exact linear algebra on the combinatorial data
(weights, character, coordinate supports), and by rational linear
programming in the classifier only.  Whether a support S is semistable,
theta in Cone{beta^i : i in S}, is pure linear algebra: by Caratheodory
it holds iff S contains a positive basis, a set T of at most k independent
weights with theta a strictly positive combination of beta_T.  One
fraction-free integer elimination per candidate T (`solution_signs`)
gives the sign of every coefficient; the all-positive T are the positive
bases, and the same signed T, read with their signs, are the positive
bases of the cotangent system (beta, -beta).  That pass is memoized for
one system, so `semistable_supports` (the up-closure of the bases, on
bitmasks), `kahler_strata` and the cotangent supports of
`cotangent_semistable_masks` share it.  `semistable_support` stops at
the first positive basis.  `quotient_compact` decides compactness by
Gordan's alternative on the cocircuits of the weights
(`weight_cocircuits`): some xi is positive on every weight iff the
nonnegative cocircuits cover every index.  None of them solves an LP or
does `Fraction` arithmetic per candidate.  A verdict with
certificate costs exactly one LP, the membership LP, whose row multipliers
carry the certificate (LP duality; Farkas 1902):

* a point v is semistable iff theta lies in Cone{beta^i : i in S},
  S = supp(v) (Farkas dual of the Hilbert-Mumford inequality); the
  classifier decides this by one LP, because the same LP gives the
  polystable flag, and when it is infeasible the multipliers xi of its
  rows sum s_i beta^i = theta are a Farkas certificate: B_S xi >= 0 and
  <theta, xi> < 0;
* it is polystable iff theta lies in the relative interior of that cone,
  equivalently iff the Kempf-Ness functional attains its minimum on the
  orbit (Stiemke duality); the membership LP decides this too, and the
  verdict records it as an extra flag;
* it is stable iff it is polystable and B_S has rank k (theta in the
  interior of the cone), read off one exact kernel of B_S.  Otherwise it
  is strictly semistable, with witness xi != 0, B_S xi >= 0 and
  <theta, xi> = 0: a kernel vector of B_S when the rank drops, else the
  optimal multipliers xi of the same LP (its optimum is then t* = 0),
  which also have some beta^i(xi) > 0: theta lies on a proper face;
* certificates and witnesses are primitive integral cocharacters, so they
  can be re-checked by exact mu-weight evaluation.

Unstable-locus enumeration lists the sign cells of the hyperplane
arrangement {beta^i(xi) = 0} inside the open half-space <theta, xi> < 0;
each cell contributes the support S(xi) it destabilizes.  The cells are
the covectors of the configuration (the distinct lines R beta^i, theta)
that are negative on theta, and every covector is a composition of
cocircuits (Bjorner, Las Vergnas, Sturmfels, White and Ziegler, Oriented
Matroids, 1993).  So the enumeration takes the cocircuits once
(`exactlin.cocircuits`, one integer kernel per hyperplane) and closes the
theta-negative ones under composition, on bitmask pairs: it solves no LP
and does no `Fraction` arithmetic, and each cell it reports comes with a
primitive integral witness that can be re-checked exactly.  The closure
depends only on the lines and theta, which the cotangent system
`doubled_weights(ws)` shares with ws, so the two share one memoized
closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import inf, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BoundExceededError, DimensionMismatchError
from .exactlin import (
    cocircuits,
    integer_kernel_basis,
    integer_primitive,
    lp_maximize,
    smith_invariant_factors,
    solution_signs,
)
from .rep_core import AmbientPoint, Cocharacter, WeightSystem, support

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly-semistable"
UNSTABLE = "unstable"

_Z = Fraction(0)
_I = Fraction(1)

DEFAULT_BOUND = 20


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    certificate: Optional[Cocharacter]
    polystable: bool

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "polystable": self.polystable,
        }


@dataclass(frozen=True)
class StabilizerInfo:
    """Structure of the stabilizer of any point with a given support.

    The stabilizer of {v : supp(v) = S} is the kernel of the torus map
    given by the weight rows on S; its shape is read off the Smith normal
    form: a subtorus of dimension k - rank(B_S) times a product of cyclic
    groups of the invariant-factor orders > 1.
    """

    subtorus_rank: int
    finite_invariants: tuple[int, ...]

    @property
    def order(self) -> Optional[int]:
        if self.subtorus_rank:
            return None
        out = 1
        for d in self.finite_invariants:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return self.subtorus_rank == 0 and not self.finite_invariants

    @property
    def signature(self) -> tuple:
        return (self.subtorus_rank, self.finite_invariants)

    def to_json(self) -> dict:
        return {
            "subtorus_rank": self.subtorus_rank,
            "finite_invariants": list(self.finite_invariants),
            "order": self.order,
        }


@dataclass(frozen=True)
class StratumRecord:
    stabilizer: StabilizerInfo
    supports: tuple[frozenset, ...]
    is_open: bool

    def to_json(self) -> dict:
        return {
            "stabilizer": self.stabilizer.to_json(),
            "supports": [sorted(s) for s in self.supports],
            "open": self.is_open,
        }


def _as_xi(xi) -> tuple[Fraction, ...]:
    if isinstance(xi, Cocharacter):
        return tuple(Fraction(v) for v in xi.xi)
    return tuple(Fraction(v) for v in xi)


def mu_weight(ws: WeightSystem, v: AmbientPoint, xi) -> Fraction | float:
    """The mu-weight of (v, xi): +inf if the flow blows up, else <theta, xi>.

    Coordinate i scales like e^{-beta^i(xi) t} along the imaginary flow, so
    any supported index with beta^i(xi) < 0 forces the weight to +infinity;
    otherwise the limit is <theta, xi> exactly.
    """
    exact_xi = _as_xi(xi)
    if len(exact_xi) != ws.rank:
        raise DimensionMismatchError("cocharacter length != rank")
    if v.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    for i in support(v):
        if ws.weight_pairing(i, exact_xi) < 0:
            return inf
    return Fraction(ws.theta_pairing(exact_xi))


def _signed_bases(
    ws: WeightSystem, idx: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(T, sign c) for each T within idx, |T| <= k, with beta_T linearly
    independent and theta = sum_{i in T} c_i beta^i with every c_i != 0;
    T = () when theta = 0.

    T is a positive basis when every c_i > 0.  By Caratheodory, theta lies
    in Cone{beta^i : i in S} iff S contains a positive basis.  The signs
    come from one fraction-free integer elimination of [beta_T | theta]
    (`solution_signs`), with theta scaled once by the lcm of its
    denominators.
    """
    den = lcm(*(t.denominator for t in ws.theta))
    theta = [int(t * den) for t in ws.theta]
    for r in range(min(ws.rank, len(idx)) + 1):
        for T in combinations(idx, r):
            signs = solution_signs([ws.weights[i] for i in T], theta)
            if signs is not None and all(signs):
                yield T, signs


def semistable_support(ws: WeightSystem, S: Iterable[int]) -> bool:
    """True iff theta lies in Cone{beta^i : i in S}: S holds a positive basis."""
    return any(min(signs, default=1) > 0 for _, signs in _signed_bases(ws, sorted(set(S))))


def polystable_support(ws: WeightSystem, S: Iterable[int]) -> bool:
    """True iff theta is in the relative interior of the support cone."""
    return classify_support(ws, S).polystable


def _cone_membership_lp(ws: WeightSystem, idx: list[int]):
    """max t s.t. sum s_i beta^i = theta, s_i >= max(t, 0), t <= 1.

    Feasible iff semistable; optimum t* > 0 iff polystable.  Returns
    (status, t*, xi), t* None unless optimal, and xi the multipliers of the
    rows sum s_i beta^i = theta.  With u_i, v_i >= 0 the multipliers of
    -s_i <= 0 and t - s_i <= 0 and w >= 0 that of t <= 1, the column of
    s_i reads beta^i(xi) = u_i + v_i >= 0 and the column of t reads
    sum v_i + w = 0 or 1, so:

    * infeasible (Farkas): v = w = 0, B_S xi >= 0 and <theta, xi> < 0;
    * optimal with t* = 0: w + <theta, xi> = 0, and <theta, xi> =
      sum s_i beta^i(xi) >= 0 forces w = 0 and <theta, xi> = 0, so
      sum v_i = 1 and some beta^i(xi) >= v_i > 0.
    """
    m = len(idx)
    nv = m + 1  # s_0..s_{m-1}, t
    A_ub = []
    b_ub = []
    for i in range(m):
        row = [_Z] * nv
        row[i] = -_I
        A_ub.append(row)
        b_ub.append(_Z)  # -s_i <= 0
        row = [_Z] * nv
        row[i] = -_I
        row[m] = _I
        A_ub.append(row)
        b_ub.append(_Z)  # t - s_i <= 0
    row = [_Z] * nv
    row[m] = _I
    A_ub.append(row)
    b_ub.append(_I)  # t <= 1
    A_eq = [[Fraction(ws.weights[i][a]) for i in idx] + [_Z] for a in range(ws.rank)]
    c = [_Z] * m + [_I]
    status, _, value, y = lp_maximize(c, A_ub, b_ub, A_eq, list(ws.theta))
    return status, value, y[-ws.rank:]


def classify_support(ws: WeightSystem, S: Iterable[int]) -> StabilityVerdict:
    """Stability of any point whose support is exactly S."""
    idx = sorted(set(S))
    for i in idx:
        if not 0 <= i < ws.n:
            raise DimensionMismatchError(f"support index {i} out of range")
    return _classify_support_cached(_shared(ws), tuple(idx))


@lru_cache(maxsize=1 << 10)
def _shared(ws: WeightSystem) -> WeightSystem:
    # the first instance equal to ws: verdict-cache keys of one system then
    # hold a single copy of its weights, not one per caller
    return ws


@lru_cache(maxsize=1 << 16)
def _classify_support_cached(ws: WeightSystem, S: tuple[int, ...]) -> StabilityVerdict:
    # the verdict is immutable and depends only on (ws, S), so sharing a
    # cached instance across callers is sound; S is the sorted support
    idx = list(S)
    status, topt, xi = _cone_membership_lp(ws, idx)
    if status != "optimal":  # xi is the LP's Farkas certificate
        cert = Cocharacter.exact_from(integer_primitive(xi))
        return StabilityVerdict(UNSTABLE, cert, polystable=False)
    # theta = sum s_i beta^i with s >= 0, so kernel vectors of B_S pair to
    # zero with theta; with s > 0 (polystable), B_S xi >= 0 and
    # <theta, xi> <= 0 force B_S xi = 0, which for rank k means xi = 0.
    # Without a kernel and with t* = 0, xi is the LP's boundary witness.
    polystable = topt > 0
    kern = integer_kernel_basis([ws.weights[i] for i in idx], ws.rank)
    if kern:
        xi = kern[0]
    elif polystable:
        return StabilityVerdict(STABLE, None, polystable=True)
    return StabilityVerdict(
        STRICTLY_SEMISTABLE, Cocharacter.exact_from(integer_primitive(xi)), polystable
    )


def classify_point(ws: WeightSystem, v: AmbientPoint) -> StabilityVerdict:
    """Hilbert-Mumford classification of v with an exact certificate."""
    if v.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    return classify_support(ws, support(v))


def inclusion_maximal(sets: Iterable[frozenset]) -> list[frozenset]:
    """Filter a family of index sets down to its inclusion-maximal members."""
    family = sorted(set(frozenset(s) for s in sets), key=lambda s: (-len(s), sorted(s)))
    out: list[frozenset] = []
    for s in family:
        if not any(s < t for t in out):
            out.append(s)
    return sorted(out, key=sorted)


def unstable_maximal_supports(
    ws: WeightSystem, bound: int = DEFAULT_BOUND
) -> list[frozenset]:
    """Destabilized supports S(xi), one per destabilizing sign cell.

    Enumerates the sign vectors of the arrangement {beta^i(xi) = 0} that
    are realized inside {<theta, xi> < 0} and collects, for each, the set
    S(xi) = {i : beta^i(xi) >= 0}.  Every point whose support lies inside
    some S(xi) is unstable, and every unstable point's support is inside
    one of them.  The family need not be inclusion-maximal: for the
    Sigma_1 system it is [{0, 1}, {2, 3}, {3}] with {3} inside {2, 3};
    `inclusion_maximal` filters it to the maximal sets.  The empty set is
    reported only when it is the only destabilized support (then only the
    origin is unstable).  Output is sorted lexicographically.

    The cells are the theta-negative covectors of the distinct lines R
    beta^i and theta (`_unstable_covectors`), each with an exact witness;
    no LP is solved.  `doubled_weights(ws)` adds only the opposite
    weights, so the cotangent system has the same lines and theta: asked
    right after the base system, it reuses the same covectors and
    computes nothing.
    """
    if ws.n > bound:
        raise BoundExceededError(f"n={ws.n} exceeds enumeration bound {bound}")
    # Group coordinates by the line R beta^i, a canonical primitive
    # direction, into the masks of the indices on its + and - side.
    lines: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(ws.weights):
        if any(w):
            prim = integer_primitive(w)
            side = 0 if next(v for v in prim if v) > 0 else 1
            if side:
                prim = [-v for v in prim]
            lines.setdefault(tuple(prim), [0, 0])[side] |= 1 << i
    dirs = tuple(sorted(lines))
    sides = [lines[q] for q in dirs]

    full = (1 << ws.n) - 1
    found: set[int] = set()
    for pos, neg, _ in _unstable_covectors(dirs, ws.theta):
        # i leaves S(xi) iff beta^i(xi) < 0: i on the - side of a line
        # with q . xi > 0, or on the + side of one with q . xi < 0
        out = 0
        for j, (plus, minus) in enumerate(sides):
            if pos >> j & 1:
                out |= minus
            elif neg >> j & 1:
                out |= plus
        found.add(full & ~out)
    masks = [m for m in found if m] or found
    return sorted((frozenset(i for i in range(ws.n) if m >> i & 1) for m in masks), key=sorted)


@lru_cache(maxsize=1)
def _unstable_covectors(
    dirs: tuple[tuple[int, ...], ...], theta: tuple[Fraction, ...]
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The sign cells of the lines `dirs` realized inside {<theta, xi> < 0}.

    Returns (pos, neg, xi) per cell: pos and neg are the bitmasks of the
    lines q with q . xi > 0 and q . xi < 0, and xi is a primitive integral
    witness with those signs and <theta, xi> < 0.

    The cells are the covectors of the configuration (dirs, theta), theta
    scaled to ints as the last vector, that are negative on theta.  The
    closure starts from the cocircuits negative on theta and composes
    with every cocircuit Y: X o Y = (Xp | Yp & ~Xn, Xn | Yn & ~Xp).  A
    composition of covectors is a covector and keeps X's sign on theta,
    so nothing else is reached; and every covector X is the composition
    of the cocircuits conformal to it (conformal decomposition), one of
    which is negative on theta when X is, so every cell is reached.  With
    x the witness of X and y that of Y, z = M x + y with M = 1 + max |v .
    y| over the vectors v has the signs of X where v . x != 0 and those
    of Y elsewhere: the witness of X o Y, made primitive.  theta = 0
    realizes nothing.  The memo holds one configuration, so nothing is
    kept from one weight system to the next.
    """
    if not any(theta):
        return ()
    vecs = list(dirs) + [integer_primitive(theta)]
    t = 1 << len(dirs)
    circuits = [
        (pos, neg, y, 1 + max(abs(sum(a * b for a, b in zip(v, y))) for v in vecs))
        for (pos, neg), y in cocircuits(vecs, len(theta))
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
    return tuple((pos, neg & ~t, tuple(xi)) for (pos, neg), xi in seen.items())


def stabilizer(ws: WeightSystem, S: Iterable[int]) -> StabilizerInfo:
    """Stabilizer shape of a point with support S, via Smith normal form:
    one per lattice of the rows on S, which weights equal up to sign span
    alike (w and 2w do not), so the memo keys on their classes."""
    bits, rows, memo = _lattice_classes(ws)
    key = 0
    for i in S:
        key |= bits[i]
    if key not in memo:
        factors = smith_invariant_factors([w for j, w in enumerate(rows) if key >> j & 1])
        memo[key] = StabilizerInfo(ws.rank - len(factors), tuple(d for d in factors if d > 1))
    return memo[key]


@lru_cache(maxsize=1)
def _lattice_classes(ws: WeightSystem) -> tuple[list[int], list, dict[int, StabilizerInfo]]:
    """Each weight's class bit up to sign (0 if zero), a row per class, and
    the stabilizers by OR of class bits; the memo holds one system."""
    classes: dict[tuple[int, ...], int] = {}
    bits = [1 << classes.setdefault(max(w, tuple(-v for v in w)), len(classes)) if any(w) else 0
            for w in ws.weights]
    return bits, list(classes), {}


@lru_cache(maxsize=1)
def _basis_masks(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """The signed bases of ws (see `_signed_bases`) as bitmask pairs
    ({i : c_i > 0}, {i : c_i < 0}).

    This one pass serves ws and its cotangent system alike.  The memo
    holds one system, so `analyze` enumerates once, and nothing is kept
    from one weight system to the next.
    """
    out = []
    for T, signs in _signed_bases(ws, range(ws.n)):
        pos = neg = 0
        for i, sgn in zip(T, signs):
            if sgn > 0:
                pos |= 1 << i
            else:
                neg |= 1 << i
        out.append((pos, neg))
    return tuple(out)


def _up_closure(bases: Iterable[int], n: int) -> set[int]:
    """Every n-bit mask that contains one of the masks `bases`."""
    full = (1 << n) - 1
    masks: set[int] = set()
    for base in bases:
        rest = sub = full & ~base
        while True:  # every submask of rest, rest itself down to 0
            masks.add(base | sub)
            if not sub:
                break
            sub = (sub - 1) & rest
    return masks


def semistable_supports(ws: WeightSystem, bound: int = DEFAULT_BOUND) -> list[frozenset]:
    """All semistable supports: the up-closure of the positive bases.

    Semistability is up-closed in the support, and S is semistable iff it
    contains a positive basis (see `_signed_bases`).  Output is sorted
    lexicographically.
    """
    if ws.n > bound:
        raise BoundExceededError(f"n={ws.n} exceeds enumeration bound {bound}")
    masks = _up_closure((pos for pos, neg in _basis_masks(ws) if not neg), ws.n)
    return sorted((frozenset(i for i in range(ws.n) if m >> i & 1) for m in masks), key=sorted)


def cotangent_semistable_masks(ws: WeightSystem) -> set[int]:
    """The semistable supports of `doubled_weights(ws)` as 2n-bit masks,
    bit n + i standing for the fiber coordinate z_i.

    The doubled weights are (beta, -beta) with the same theta.  A positive
    basis of them never holds both i and n + i, whose weights are
    opposite, so it is a signed basis of ws with i taken for c_i > 0 and
    n + i for c_i < 0; theta = 0 gives the empty basis for both.
    """
    return _up_closure((pos | neg << ws.n for pos, neg in _basis_masks(ws)), 2 * ws.n)


def quotient_smooth(
    ws: WeightSystem, bound: int = DEFAULT_BOUND
) -> tuple[bool, Optional[frozenset]]:
    """(True, None) iff every semistable support has trivial stabilizer.

    Otherwise returns (False, S) for the first offending semistable
    support in lexicographic order.
    """
    return strata_smoothness(kahler_strata(ws, bound))


def strata_smoothness(strata: Sequence[StratumRecord]) -> tuple[bool, Optional[frozenset]]:
    """`quotient_smooth` read off `kahler_strata`: the offending support is
    the lexicographically first one outside the open stratum."""
    offending = min((rec.supports[0] for rec in strata if not rec.is_open), key=sorted, default=None)
    return offending is None, offending


def quotient_compact(ws: WeightSystem) -> bool:
    """True iff the recession cone {s >= 0, sum s_i beta^i = 0} is trivial.

    By Gordan's alternative that holds iff some xi has beta^i(xi) > 0 for
    every i.  Such an all-positive covector is the composition of the
    cocircuits conformal to it, which have no negative entry, and a
    composition of nonnegative cocircuits is positive wherever one of them
    is; so it exists iff the nonnegative cocircuits of the weights cover
    every index.  A zero weight is positive in no cocircuit, and n = 0 is
    compact.
    """
    covered = 0
    for pos, neg in weight_cocircuits(ws):
        if not neg:
            covered |= pos
    return covered == (1 << ws.n) - 1


@lru_cache(maxsize=1)
def weight_cocircuits(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """The cocircuits of the weights as sign masks (pos, neg), memoized for
    one system: `quotient_compact` and `hol_consistent` share them."""
    return tuple(signs for signs, _ in cocircuits(ws.weights, ws.rank))


def kahler_strata(ws: WeightSystem, bound: int = DEFAULT_BOUND) -> list[StratumRecord]:
    """Semistable supports grouped by stabilizer signature.

    The trivial-stabilizer group (when present) is the open stratum and
    sorts first; remaining groups follow by signature.
    """
    groups: dict[tuple, list[frozenset]] = {}
    infos: dict[tuple, StabilizerInfo] = {}
    for S in semistable_supports(ws, bound):
        info = stabilizer(ws, S)
        groups.setdefault(info.signature, []).append(S)
        infos[info.signature] = info
    records = []
    for sig in sorted(groups, key=lambda s: (s[0] != 0 or bool(s[1]), s)):
        info = infos[sig]
        records.append(
            StratumRecord(
                stabilizer=info,
                supports=tuple(sorted(groups[sig], key=sorted)),
                is_open=info.is_trivial,
            )
        )
    return records
