"""Stratification probes for cotangent quotients, and the ruled-surface suite.

A candidate stratum of the hyperkahler quotient of T*V is labeled by a
support pair (S_x, S_z).  Exact necessary conditions: the doubled support
must be semistable, and the holomorphic moment map must be able to vanish
with every coordinate of S_x cap S_z nonzero, which holds iff that
intersection T is a union of circuits of its weight columns, that is iff
no cocircuit of the weights, read off those of (the weights, theta),
meets T in one index alone (a coloop of the restriction to T; Oxley,
Matroid Theory, ch. 3).  Certification is one-sided: a numerically
produced witness proves a stratum nonempty; the absence of one after R
seeds proves nothing, so candidates are never marked refuted by sampling.

The Hirzebruch-surface suite pins the whole pipeline against the weight
system {(1,0), (1,0), (0,1), (-n,1)} with theta = (c0/2, c1/2): the
unstable-support tables for C^4 and T*C^4, the stable locus, the
exceptional semistable set over the unstable base locus, its intersection
with the zero level of the holomorphic moment map, and the residual
cyclic group of order n acting on the transverse slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError, UndecidedError
from .exactlin import integer_kernel_basis
from .git_stability import (
    DEFAULT_BOUND,
    STABLE,
    UNSTABLE,
    StabilizerInfo,
    check_bound,
    classify_point,
    cocircuit_signs,
    cotangent_semistable_masks,
    cotangent_unstable_supports,
    mask_stabilizer,
    mu_weight,
    semistable_support,
    stabilizer,
    support_mask,
    unstable_maximal_supports,
)
from .kempf_ness import CONVERGED, solve_hyperkahler
from .moment_maps import hol_moment
from .rep_core import (
    AmbientPoint,
    CotangentPoint,
    WeightSystem,
    act_torus,
    point_to_json,
    support,
)
from .scalars import PC_ONE, PC_ZERO, PhasedComplex, format_rational

CERTIFIED = "certified"
CANDIDATE = "candidate"

#: seeds tried per stratum before giving up
CERTIFY_ATTEMPTS = 64


@dataclass(frozen=True)
class HKStratumCandidate:
    support_x: frozenset
    support_z: frozenset
    stabilizer: StabilizerInfo
    status: str = CANDIDATE
    witness: Optional[CotangentPoint] = None
    witness_residual: Optional[float] = None
    log: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "support_x": sorted(self.support_x),
            "support_z": sorted(self.support_z),
            "stabilizer": self.stabilizer.to_json(),
            "status": self.status,
            "witness": None if self.witness is None else point_to_json(self.witness),
            "witness_residual": self.witness_residual,
            "log": list(self.log),
        }


def hol_consistent(ws: WeightSystem, T) -> bool:
    """Can sum_{i in T} beta^i c_i = 0 hold with every c_i nonzero?

    Iff T is a union of circuits of the weight columns, that is, iff their
    matroid M restricted to T has no coloop (`coloop_free` on the mask of
    T and `weight_cocircuits`).  A zero weight is a loop, never a coloop.
    """
    return coloop_free(weight_cocircuits(ws), support_mask(ws, T))


def weight_cocircuits(ws: WeightSystem) -> list[int]:
    """The supports of the cocircuits of the weights, as n-bit masks: the
    inclusion-minimal nonzero restrictions of `cocircuit_signs`, theta
    deleted (oriented-matroid deletion)."""
    full = (1 << ws.n) - 1
    out: list[int] = []
    for d in sorted({(pos | neg) & full for pos, neg in cocircuit_signs(ws)} - {0}, key=int.bit_count):
        if all(c & d != c for c in out):
            out.append(d)
    return out


def coloop_free(circuits: Sequence[int], t: int) -> bool:
    """True iff no cocircuit support in `circuits` meets the mask t in one
    index alone: the cocircuits of M|T are the minimal nonempty sets D cap
    T, D a cocircuit of M (Oxley, Matroid Theory, ch. 3), so i is a coloop
    of M|T iff some D meets T in {i} alone."""
    return all((d & t).bit_count() != 1 for d in circuits)


@lru_cache(maxsize=13)  # n = 0..12
def mask_table(n: int) -> tuple[tuple[frozenset, ...], tuple[int, ...], tuple[int, ...]]:
    """For each n-bit mask m: its index set, as a frozenset shared by every
    caller; its rank in the lexicographic order of the sorted index tuples;
    and, at each rank, the mask holding it (the inverse of the rank)."""
    sets = tuple(frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n))
    by_rank = tuple(sorted(range(1 << n), key=lambda m: sorted(sets[m])))
    rank = [0] * (1 << n)
    for r, m in enumerate(by_rank):
        rank[m] = r
    return sets, tuple(rank), by_rank


def hk_candidate_strata(ws: WeightSystem, bound: int = DEFAULT_BOUND) -> list[HKStratumCandidate]:
    """Support pairs passing the exact necessary conditions, grouped by
    stabilizer signature in increasing order (trivial, (0, ()), first),
    each group in the lexicographic order of (sorted sx, sorted sz).

    The doubled supports come as bitmasks from ws's own cell table
    (`cotangent_semistable_masks`), x in the low n bits and z in the
    high ones, and stay masks up to the output.  The hol test
    (`coloop_free`) runs once per distinct T = x & z.  The doubled rows
    on U are the rows of ws on sx | sz, some negated or repeated, so they
    span the same lattice and U's stabilizer in the doubled system equals
    `mask_stabilizer(ws, W)`, W = x | z, taken once per distinct W, whose
    list of the group it joins is then found by W alone.  A pair is kept
    as one int, rank[x] << n | rank[z] (`mask_table`), so sorting a group
    sorts (sx, sz) lexicographically, and the candidates are built from
    the table's shared frozensets.  The work is a mark per 2n-bit mask,
    so the bound is on those 2n bits, as in `cotangent_unstable_supports`.
    """
    check_bound(2 * ws.n, bound)
    n = ws.n
    full = (1 << n) - 1
    sets, rank, by_rank = mask_table(n)
    circuits = weight_cocircuits(ws)
    # by mask T, None until tested; by mask W, the list of W's group
    consistent: list[Optional[bool]] = [None] * (1 << n)
    keys_by_W: list[Optional[list[int]]] = [None] * (1 << n)
    groups: dict[StabilizerInfo, list[int]] = {}
    for U in cotangent_semistable_masks(ws):
        x = U & full
        z = U >> n
        T = x & z
        ok = consistent[T]
        if ok is None:
            ok = consistent[T] = coloop_free(circuits, T)
        if ok:
            W = x | z
            keys = keys_by_W[W]
            if keys is None:
                keys = keys_by_W[W] = groups.setdefault(mask_stabilizer(ws, W), [])
            keys.append(rank[x] << n | rank[z])
    out = []
    for info in sorted(groups, key=lambda info: info.signature):
        keys = groups[info]
        keys.sort()
        out += [HKStratumCandidate(sets[by_rank[k >> n]], sets[by_rank[k & full]], info) for k in keys]
    return out


def _sample_on_hol_zero(
    rng: np.random.Generator, ws: WeightSystem, sx, sz
) -> Optional[CotangentPoint]:
    """A random numeric point with supports (sx, sz) and hol moment ~ 0.

    The products x_i z_i on T = sx cap sz are drawn from the kernel of the
    weight columns; a generic combination is nonzero throughout T.  Each
    integer kernel vector is scaled to 1 in its last nonzero entry by int /
    int, which rounds once, as float(Fraction(v, lead)) does."""
    T = sorted(set(sx) & set(sz))
    n = ws.n
    prods = np.zeros(n, dtype=complex)
    if T:
        rows = [[ws.weights[i][a] for i in T] for a in range(ws.rank)]
        kern = integer_kernel_basis(rows, len(T))
        if not kern:
            return None
        leads = [next(v for v in reversed(w) if v) for w in kern]
        basis = np.array([[v / lead for v in w] for w, lead in zip(kern, leads)])
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


def certify_stratum(ws: WeightSystem, candidate: HKStratumCandidate, seed: int = 0) -> HKStratumCandidate:
    """Try to attach a moment-zero witness with the candidate's supports.

    Seeds random points on the hol-moment zero locus and runs the solver;
    on success the witness has ||mu_hk|| < 1e-9 and exactly the prescribed
    supports.  Failure leaves the status at "candidate" with a log of what
    went wrong; sampling never refutes.
    """
    rng = np.random.default_rng(seed)
    sx, sz = candidate.support_x, candidate.support_z
    log: list[str] = []
    for _ in range(CERTIFY_ATTEMPTS):
        p = _sample_on_hol_zero(rng, ws, sx, sz)
        if p is None:
            log.append("no all-nonzero kernel combination found")
            break
        if hol_moment(ws, p).norm() >= 1e-10:
            log.append("sampled point missed the hol-moment zero locus")
            continue
        try:
            out = solve_hyperkahler(ws, p)
        except UndecidedError as exc:
            log.append(f"undecided: {exc}")
            break
        if out.status != CONVERGED:
            cert = None if out.certificate is None else out.certificate.to_json()
            log.append(f"diverged with certificate {cert}")
            break
        rep = out.representative
        if support(rep) != (sx, sz):
            log.append("witness support drifted under the flow")
            continue
        return replace(
            candidate, status=CERTIFIED, witness=rep, witness_residual=out.residual, log=tuple(log)
        )
    return replace(candidate, status=CANDIDATE, witness=None, witness_residual=None, log=tuple(log))


# ---------------------------------------------------------------------------
# the Hirzebruch-surface ground truth


def hirzebruch_weight_system(n: int, c0=1, c1=1) -> WeightSystem:
    """Weights {(1,0), (1,0), (0,1), (-n,1)} with theta = (c0/2, c1/2)."""
    if int(n) != n or n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    if c0 <= 0 or c1 <= 0:
        raise PreconditionError("c0 and c1 must both be positive")
    return WeightSystem(
        rank=2,
        weights=((1, 0), (1, 0), (0, 1), (-int(n), 1)),
        theta=(c0 / 2, c1 / 2),
    )


#: unstable maximal supports of the base C^4 (x0 x1 | y0 y1 indexing 0..3)
TABLE_BASE = ({0, 1}, {2, 3}, {3})
#: unstable maximal supports of T*C^4 (doubled indexing 0..7)
TABLE_COTANGENT = (
    {0, 1, 6, 7},
    {0, 1, 4, 5, 6, 7},
    {2, 3, 4, 5},
    {2, 3, 4, 5, 6},
    {4, 5, 6, 7},
    {3, 4, 5, 6, 7},
    {3, 4, 5, 6},
)


def _canon_family(family) -> list[list[int]]:
    return sorted(sorted(s) for s in family)


def _canon_pairs(pairs) -> list[list[list[int]]]:
    return sorted([sorted(a), sorted(b)] for a, b in pairs)


def slice_point(z0: PhasedComplex, z1: PhasedComplex) -> CotangentPoint:
    """The exact slice point (0,0,1,0 | z0, z1, 0, 1)."""
    return CotangentPoint.exact(
        (PC_ZERO, PC_ZERO, PC_ONE, PC_ZERO), (z0, z1, PC_ZERO, PC_ONE)
    )


def slice_invariants(coords: Sequence[PhasedComplex], n: int) -> tuple:
    """Finite invariants separating orbits of z -> zeta z, zeta^n = 1.

    Moduli are invariant; the anchor phase enters through its n-th power
    and the remaining phases through their ratios to the anchor.  Exact on
    root-of-unity phases.
    """
    mods = tuple(c.modulus for c in coords)
    anchor = next((i for i, c in enumerate(coords) if not c.is_zero()), None)
    if anchor is None:
        return (mods, None, ())
    ph = [c.phase for c in coords]
    power = (n * ph[anchor]) % 1
    ratios = tuple(
        (ph[i] - ph[anchor]) % 1 if not c.is_zero() else None
        for i, c in enumerate(coords)
        if i != anchor
    )
    return (mods, power, ratios)


def _assertion(name: str, passed: bool, expected, actual) -> dict:
    return {"name": name, "passed": bool(passed), "expected": expected, "actual": actual}


def hirzebruch_suite(n: int, c0=1, c1=1, seed: int = 0) -> dict:
    """Run the full verification ladder for the weight system of Sigma_n.

    Assertions (letters echo the report): (a) the three unstable maximal
    supports of the base; (b) the seven of the cotangent doubling; (c)
    stable iff base and fiber-direction parts are both hit, on a probe
    set; (d) the semistable-over-unstable-base support pattern; (e) its
    cut by the hol-moment zero condition; (f) the slice stabilizer is
    cyclic of order exactly n; (g) slice points (z) and (lambda z) lie on
    one orbit iff lambda^n = 1, by exact group element and by invariants;
    (h) the slice strata carry solver witnesses.  Each reads ws alone, a
    doubled support's stabilizer as that of sx | sz (`hk_candidate_strata`).
    """
    ws = hirzebruch_weight_system(n, c0, c1)
    n = int(n)
    rng = np.random.default_rng(seed)
    assertions = []

    expected_a = _canon_family(TABLE_BASE)
    actual_a = _canon_family(unstable_maximal_supports(ws))
    assertions.append(_assertion("a-base-table", actual_a == expected_a, expected_a, actual_a))

    expected_b = _canon_family(TABLE_COTANGENT)
    actual_b = _canon_family(cotangent_unstable_supports(ws))
    assertions.append(
        _assertion("b-cotangent-table", actual_b == expected_b, expected_b, actual_b)
    )

    mismatches_c = []
    for r in range(5):
        for S in combinations(range(4), r):
            coords = np.zeros(4, dtype=complex)
            for i in S:
                ph = rng.uniform(0.0, 2.0 * math.pi)
                coords[i] = rng.uniform(0.5, 1.5) * complex(math.cos(ph), math.sin(ph))
            verdict = classify_point(ws, AmbientPoint.numeric(coords))
            want = STABLE if (set(S) & {0, 1} and set(S) & {2, 3}) else UNSTABLE
            ok = verdict.status == want
            if verdict.status != STABLE:
                cert_ok = verdict.certificate is not None and mu_weight(
                    ws, AmbientPoint.numeric(coords), verdict.certificate
                ) < 0
                ok = ok and cert_ok
            if not ok:
                mismatches_c.append({"support": sorted(S), "status": verdict.status})
    assertions.append(_assertion("c-stable-locus", not mismatches_c, [], mismatches_c))

    subsets = [frozenset(s) for r in range(5) for s in combinations(range(4), r)]
    semistable = set(cotangent_semistable_masks(ws))
    e_pairs = []
    mismatches_d = []
    for sx in subsets:
        base_unstable = not semistable_support(ws, sx)
        for sz in subsets:
            in_e = base_unstable and support_mask(ws, sx) | support_mask(ws, sz) << 4 in semistable
            pattern = sx <= {2, 3} and 2 in sx and 3 in sz
            if in_e != pattern:
                mismatches_d.append([sorted(sx), sorted(sz)])
            if in_e:
                e_pairs.append((sx, sz))
    assertions.append(_assertion("d-exceptional-set", not mismatches_d, [], mismatches_d))

    expected_e = _canon_pairs(
        [({2}, set(sz) | {3}) for sz in [(), (0,), (1,), (0, 1)]]
    )
    actual_e = _canon_pairs([p for p in e_pairs if hol_consistent(ws, p[0] & p[1])])
    assertions.append(_assertion("e-hol-zero-cut", actual_e == expected_e, expected_e, actual_e))

    stab = stabilizer(ws, {2, 3})
    actual_f = {"subtorus_rank": stab.subtorus_rank, "order": stab.order}
    passed_f = stab.subtorus_rank == 0 and stab.order == n
    assertions.append(
        _assertion("f-slice-stabilizer", passed_f, {"subtorus_rank": 0, "order": n}, actual_f)
    )

    z0 = PhasedComplex(Fraction(3, 2), Fraction(1, 7))
    z1 = PhasedComplex(Fraction(5, 4), Fraction(2, 5))
    lam = PhasedComplex.root_of_unity(1, n)
    p = slice_point(z0, z1)
    target = slice_point(z0 * lam, z1 * lam)
    moved = act_torus(ws, (lam.inverse(), PC_ONE), p)
    same_orbit = tuple(moved.x) == tuple(target.x) and tuple(moved.z) == tuple(target.z)
    inv_equal = slice_invariants((z0, z1), n) == slice_invariants(
        (z0 * lam, z1 * lam), n
    )
    lam_bad = PhasedComplex.root_of_unity(1, 2 * n)
    inv_differ = slice_invariants((z0, z1), n) != slice_invariants(
        (z0 * lam_bad, z1 * lam_bad), n
    )
    passed_g = same_orbit and inv_equal and inv_differ
    actual_g = {
        "orbit_element_matches": same_orbit,
        "invariants_equal_at_root": inv_equal,
        "invariants_differ_off_root": inv_differ,
    }
    expected_g = {
        "orbit_element_matches": True,
        "invariants_equal_at_root": True,
        "invariants_differ_off_root": True,
    }
    assertions.append(_assertion("g-slice-orbits", passed_g, expected_g, actual_g))

    slice_strata = []
    for sx, sz in [({2}, {0, 1, 3}), ({2}, {3})]:
        cand = HKStratumCandidate(frozenset(sx), frozenset(sz), stabilizer(ws, sx | sz))
        done = certify_stratum(ws, cand, seed=seed)
        slice_strata.append(
            {
                "support_x": sorted(sx),
                "support_z": sorted(sz),
                "status": done.status,
                "stabilizer_order": done.stabilizer.order,
                "witness_residual": done.witness_residual,
            }
        )
    passed_h = all(s["status"] == CERTIFIED for s in slice_strata)
    assertions.append(
        _assertion("h-slice-strata-certified", passed_h, "all certified", slice_strata)
    )

    return {
        "n": n,
        "c0": format_rational(Fraction(c0)),
        "c1": format_rational(Fraction(c1)),
        "passed": all(a["passed"] for a in assertions),
        "assertions": assertions,
    }
