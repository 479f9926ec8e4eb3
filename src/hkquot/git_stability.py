"""Exact GIT stability for torus weight systems.

Everything is decided by exact linear algebra on the combinatorial data
(weights, character, coordinate supports), and by rational linear
programming in the classifier only.  A verdict with certificate costs
exactly one LP, the membership LP, whose row multipliers carry the
certificate (LP duality; Farkas 1902):

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

The loci are enumerated from one table of sign cells per system
(`_cells`), with no LP: the sign vectors of the arrangement {beta^i(xi) =
0} inside {<theta, xi> < 0}.  Every covector is a composition of
cocircuits (Bjorner, Las Vergnas, Sturmfels, White and Ziegler, Oriented
Matroids, 1993), so the table closes the theta-negative cocircuits of
(the weights, theta), taken once per system (`cocircuit_signs`), under
composition, on bitmask pairs.  The cotangent system has the same
hyperplanes and theta, so the same cells, and the semistable supports
are the complement of the unstable ones.  The cocircuits of a part of a
configuration are the minimal nonzero restrictions of the whole's
(deletion), so one support is decided by Farkas on the same list and
compactness by Gordan's alternative on it, theta ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import inf
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BoundExceededError, DimensionMismatchError
from .exactlin import (
    cocircuits,
    integer_kernel_basis,
    integer_primitive,
    lp_maximize,
    smith_invariant_factors,
)
from .rep_core import AmbientPoint, Cocharacter, WeightSystem, exact_cocharacter, support

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


def mu_weight(ws: WeightSystem, v: AmbientPoint, xi) -> Fraction | float:
    """The mu-weight of (v, xi): +inf if the flow blows up, else <theta, xi>.

    Coordinate i scales like e^{-beta^i(xi) t} along the imaginary flow, so
    any supported index with beta^i(xi) < 0 forces the weight to +infinity;
    otherwise the limit is <theta, xi> exactly.
    """
    exact_xi = exact_cocharacter(ws, xi)
    if v.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    for i in support(v):
        if ws.weight_pairing(i, exact_xi) < 0:
            return inf
    return Fraction(ws.theta_pairing(exact_xi))


def semistable_support(ws: WeightSystem, S: Iterable[int]) -> bool:
    """True iff theta lies in Cone{beta^i : i in S}.

    By Farkas, S is unstable iff some xi has beta^i(xi) >= 0 on S and
    <theta, xi> < 0, a covector of (beta_S, theta) negative on theta alone.
    It restricts a covector of (the weights, theta), the composition of
    the cocircuits conformal to it, one of them negative on theta; so S is
    semistable iff no member of `cocircuit_signs` is negative on theta and
    nowhere on S.  theta = 0 is in every cone.  The cost is one pass over
    the whole arrangement per system, memoized.
    """
    s = support_mask(ws, S)
    if not any(ws.theta):
        return True
    t = 1 << ws.n
    return all(neg & (s | t) != t for _, neg in cocircuit_signs(ws))


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


def checked_index(ws: WeightSystem, i: int) -> int:
    """i, if it indexes a coordinate of ws; refused otherwise."""
    if not 0 <= i < ws.n:
        raise DimensionMismatchError(f"support index {i} out of range")
    return i


def support_mask(ws: WeightSystem, S: Iterable[int]) -> int:
    """The index set S as an n-bit mask, bit i for coordinate i; an index
    outside range(n) is refused."""
    n, mask = ws.n, 0
    for i in S:
        mask |= 1 << (i if 0 <= i < n else checked_index(ws, i))
    return mask


def classify_support(ws: WeightSystem, S: Iterable[int]) -> StabilityVerdict:
    """Stability of any point whose support is exactly S."""
    idx = sorted({checked_index(ws, i) for i in S})
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


def check_bound(n: int, bound: int) -> None:
    """Refuse to enumerate the supports of n coordinates when n > bound."""
    if n > bound:
        raise BoundExceededError(f"n={n} exceeds enumeration bound {bound}")


def _as_supports(masks: Iterable[int], n: int) -> list[frozenset]:
    """n-bit masks as index sets, sorted lexicographically."""
    return sorted((frozenset(i for i in range(n) if m >> i & 1) for m in masks), key=sorted)


def _destabilized(masks: Iterable[int], n: int) -> list[frozenset]:
    # the empty support is reported only when it is the only one
    found = set(masks)
    return _as_supports([m for m in found if m] or found, n)


def unstable_maximal_supports(
    ws: WeightSystem, bound: int = DEFAULT_BOUND
) -> list[frozenset]:
    """Destabilized supports S(xi) = {i : beta^i(xi) >= 0}, one per
    destabilizing sign cell xi: the >= 0 masks of `_cells`.

    Every point whose support lies inside some S(xi) is unstable, and
    every unstable point's support is inside one of them.  The family
    need not be inclusion-maximal: for the Sigma_1 system it is [{0, 1},
    {2, 3}, {3}] with {3} inside {2, 3}; `inclusion_maximal` filters it to
    the maximal sets.  The empty set is reported only when it is the only
    destabilized support (then only the origin is unstable).  Output is
    sorted lexicographically.
    """
    check_bound(ws.n, bound)
    return _destabilized((nonneg for nonneg, _ in _cells(ws)), ws.n)


def cotangent_unstable_supports(
    ws: WeightSystem, bound: int = DEFAULT_BOUND
) -> list[frozenset]:
    """`unstable_maximal_supports(doubled_weights(ws))`, read off ws's cells.

    The doubled weights (beta, -beta) vanish on the same hyperplanes as
    ws's, so they have the same cells, and the fiber coordinate n + i has
    -beta^i(xi) >= 0 iff i is outside the cell's > 0 mask.
    """
    check_bound(2 * ws.n, bound)
    return _destabilized(_cotangent_cells(ws), 2 * ws.n)


def _cotangent_cells(ws: WeightSystem) -> Iterator[int]:
    """The doubled supports S(xi) of ws's cells as 2n-bit masks: the >= 0
    mask, and the <= 0 mask shifted by n."""
    full = (1 << ws.n) - 1
    return (nonneg | (full & ~pos) << ws.n for nonneg, pos in _cells(ws))


@lru_cache(maxsize=2)
def _cells(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """The cell table: one pair of index masks ({i : beta^i(xi) >= 0},
    {i : beta^i(xi) > 0}) per sign cell xi of the arrangement inside
    {<theta, xi> < 0}, that is per theta-negative covector of (the
    weights, theta).  It decides both loci of ws and of its cotangent
    system; the memo holds two systems, so a caller that alternates
    between a base system and its doubled system, as `hirzebruch_suite`
    does, builds each table once.

    The closure composes the theta-negative cocircuits with every
    cocircuit Y, X o Y = (Xp | Yp & ~Xn, Xn | Yn & ~Xp), which yields
    covectors only and keeps X's sign on theta; and every covector is the
    composition of the cocircuits conformal to it (conformal
    decomposition), one of them negative on theta when it is, so every
    cell is reached.  A zero weight is a loop, in no cocircuit: >= 0 and
    not > 0 in every cell.  theta = 0 realizes nothing.
    """
    if not any(ws.theta):
        return ()
    circuits = cocircuit_signs(ws)
    t = 1 << ws.n
    queue = [(pos, neg) for pos, neg in circuits if neg & t]
    seen = set(queue)
    for xp, xn in queue:
        for yp, yn in circuits:
            z = (xp | yp & ~xn, xn | yn & ~xp)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return tuple(((t - 1) & ~neg, pos) for pos, neg in queue)


def stabilizer(ws: WeightSystem, S: Iterable[int]) -> StabilizerInfo:
    """Stabilizer shape of a point with support S, via Smith normal form
    (`mask_stabilizer` on S's mask)."""
    return mask_stabilizer(ws, support_mask(ws, S))


def mask_stabilizer(ws: WeightSystem, mask: int) -> StabilizerInfo:
    """`stabilizer` of the support with n-bit mask `mask`: one Smith form
    per lattice of the rows on it, which weights equal up to sign span
    alike (w and 2w do not), so the memo keys on their classes."""
    bits, rows, memo = _lattice_classes(ws)
    key = 0
    while mask:
        low = mask & -mask
        key |= bits[low.bit_length() - 1]
        mask ^= low
    if key not in memo:
        factors = smith_invariant_factors([w for j, w in enumerate(rows) if key >> j & 1])
        memo[key] = StabilizerInfo(ws.rank - len(factors), tuple(d for d in factors if d > 1))
    return memo[key]


@lru_cache(maxsize=16)
def _lattice_classes(ws: WeightSystem) -> tuple[list[int], list, dict[int, StabilizerInfo]]:
    """Each weight's class bit up to sign (0 if zero), a row per class, and
    the stabilizers by OR of class bits; the memo holds 16 systems."""
    classes: dict[tuple[int, ...], int] = {}
    bits = [1 << classes.setdefault(max(w, tuple(-v for v in w)), len(classes)) if any(w) else 0
            for w in ws.weights]
    return bits, list(classes), {}


def _semistable_masks(unstable: Iterable[int], nbits: int) -> Iterator[int]:
    """Every nbits-bit mask inside none of the masks `unstable`.

    By Hilbert-Mumford the unstable supports are the subsets of the cells'
    supports S(xi), so the semistable ones are the complement of their
    down-closure.  One byte per mask marks it semistable; each S(xi),
    largest first, clears its submasks, and one inside a mask already
    cleared is skipped, its submasks being cleared too.  The masks come
    off the marks in increasing order, one at a time.
    """
    keep = bytearray(b"\1") * (1 << nbits)
    for top in sorted(set(unstable), key=int.bit_count, reverse=True):
        if keep[top]:
            sub = top
            while True:  # every submask of top, top itself down to 0
                keep[sub] = 0
                if not sub:
                    break
                sub = (sub - 1) & top
    return compress(range(1 << nbits), keep)


def semistable_supports(ws: WeightSystem, bound: int = DEFAULT_BOUND) -> list[frozenset]:
    """All semistable supports: those inside no destabilized support
    (`_semistable_masks` on the cell table).  Output is sorted
    lexicographically."""
    check_bound(ws.n, bound)
    return _as_supports(_semistable_masks((nonneg for nonneg, _ in _cells(ws)), ws.n), ws.n)


def cotangent_semistable_masks(ws: WeightSystem) -> Iterator[int]:
    """The semistable supports of `doubled_weights(ws)` as 2n-bit masks,
    bit n + i standing for the fiber coordinate z_i: those inside none of
    the doubled supports of ws's cells, in increasing order, one at a time."""
    return _semistable_masks(_cotangent_cells(ws), 2 * ws.n)


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
    every index, as the nonnegative restrictions of `cocircuit_signs`,
    theta deleted, do: those are compositions of them.  A zero weight is
    positive in no cocircuit, and n = 0 is compact.
    """
    full = (1 << ws.n) - 1
    covered = 0
    for pos, neg in cocircuit_signs(ws):
        if not neg & full:
            covered |= pos
    return covered & full == full


@lru_cache(maxsize=2)
def cocircuit_signs(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """The cocircuits of (the weights, theta) as sign masks (pos, neg),
    theta scaled to ints at bit n (zero, a loop, when theta = 0), memoized
    for two systems, as `_cells` is: every exact test of a system reads
    this list."""
    theta = integer_primitive(ws.theta) if any(ws.theta) else [0] * ws.rank
    return tuple(signs for signs, _ in cocircuits(list(ws.weights) + [theta], ws.rank))


def kahler_strata(ws: WeightSystem, bound: int = DEFAULT_BOUND) -> list[StratumRecord]:
    """Semistable supports grouped by stabilizer, each group in the
    lexicographic order of `semistable_supports`, and the groups by
    signature: the trivial one, the open stratum, first when present."""
    groups: dict[StabilizerInfo, list[frozenset]] = {}
    for S in semistable_supports(ws, bound):
        groups.setdefault(stabilizer(ws, S), []).append(S)
    return [
        StratumRecord(stabilizer=info, supports=tuple(groups[info]), is_open=info.is_trivial)
        for info in sorted(groups, key=lambda info: info.signature)
    ]
