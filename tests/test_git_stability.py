"""Exact GIT layer: mu-weights, verdicts with certificates, loci, stabilizers."""

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from hkquot import (
    AmbientPoint,
    BoundExceededError,
    CotangentPoint,
    DimensionMismatchError,
    WeightSystem,
    classify_point,
    classify_support,
    doubled_weights,
    hk_candidate_strata,
    inclusion_maximal,
    kahler_strata,
    mu_weight,
    polystable_support,
    quotient_compact,
    quotient_smooth,
    semistable_support,
    semistable_supports,
    stabilizer,
    support,
    unstable_maximal_supports,
)
from hkquot import exactlin, git_stability
from hkquot.cli import RunConfig, cmd_analyze, render
from hkquot.git_stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    StabilizerInfo,
    cotangent_semistable_masks,
    cotangent_unstable_supports,
    strata_smoothness,
)
from hkquot.rep_core import weight_system_to_json
from hkquot.strata_examples import hirzebruch_weight_system, hol_consistent, weight_cocircuits

import oracles
from oracles import (
    box_classify_support,
    box_polystable_support,
    brute_hk_candidates,
    dfs_unstable_supports,
    kernel_cover_hol_consistent,
    line_cells,
    lp_quotient_compact,
    loop_quotient_smooth,
    lp_semistable_support,
    random_ambient,
    random_weight_system,
    rref_positive_bases,
)

F = Fraction

#: hand-made degenerate systems; together with S = {} and rank-deficient
#: supports they reach every branch of the stability decision
DEGENERATE = (
    # a zero weight
    WeightSystem(2, ((0, 0), (1, 0), (0, 1), (-1, -1)), (F(1), F(1, 2))),
    # repeated and opposite lines
    WeightSystem(2, ((1, 2), (2, 4), (-1, -2), (1, 0)), (F(1), F(1))),
    # theta = 0
    WeightSystem(2, ((1, 0), (-1, 0), (0, 1), (1, 1)), (F(0), F(0))),
    # only zero weights and theta = 0: every support is semistable
    WeightSystem(1, ((0,), (0,)), (F(0),)),
    # every support rank-deficient
    WeightSystem(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0)), (F(1), F(1), F(0))),
    # theta on a boundary ray of full-rank cones
    WeightSystem(2, ((1, 0), (0, 1), (1, 1)), (F(1), F(0))),
)


def all_supports(ws: WeightSystem):
    for r in range(ws.n + 1):
        for S in combinations(range(ws.n), r):
            yield frozenset(S)


def indicator(ws: WeightSystem, S) -> AmbientPoint:
    return AmbientPoint.numeric([1.0 if i in S else 0.0 for i in range(ws.n)])


def test_mu_weight_cases(hirzebruch1):
    v = AmbientPoint.numeric([1, 0, 0, 0])
    assert mu_weight(hirzebruch1, v, (0, -1)) == F(-1, 2)
    assert mu_weight(hirzebruch1, v, (-1, 0)) == math.inf
    origin = AmbientPoint.numeric([0, 0, 0, 0])
    assert mu_weight(hirzebruch1, origin, (3, -5)) == F(3, 2) - F(5, 2)
    assert isinstance(mu_weight(hirzebruch1, v, (0, -1)), Fraction)


def test_classify_point_examples(hirzebruch1):
    v = AmbientPoint.numeric([1, 1, 0, 0])
    verdict = classify_point(hirzebruch1, v)
    assert verdict.status == UNSTABLE
    assert mu_weight(hirzebruch1, v, verdict.certificate) < 0

    assert classify_point(hirzebruch1, AmbientPoint.numeric([1, 0, 1, 0])).status == STABLE

    origin = classify_point(hirzebruch1, AmbientPoint.numeric([0, 0, 0, 0]))
    assert origin.status == UNSTABLE
    assert mu_weight(hirzebruch1, AmbientPoint.numeric([0, 0, 0, 0]), origin.certificate) < 0


def test_verdicts_do_not_move_when_a_point_is_rescaled():
    # the zero test is relative to the point's largest modulus: [1, 1] on
    # CP^1 stays stable at any scale, and no verdict moves under 1e+-8
    cp1 = WeightSystem(rank=1, weights=((1,), (1,)), theta=(F(1),))
    for scale in (1.0, 1e-8, 1e-13, 1e8):
        assert classify_point(cp1, AmbientPoint.numeric([scale, scale])).status == STABLE
    rng = np.random.default_rng(16)
    for _ in range(60):
        ws = random_weight_system(rng)
        v = random_ambient(rng, ws.n)
        want = classify_point(ws, v)
        for scale in (1e-8, 1e8):
            assert classify_point(ws, AmbientPoint.numeric(scale * v.coords)) == want
        x, z = random_ambient(rng, ws.n).coords, random_ambient(rng, ws.n).coords
        want = support(CotangentPoint.numeric(x, z))
        for scale in (1e-8, 1e8):
            assert support(CotangentPoint.numeric(scale * x, scale * z)) == want


def test_certificates_are_exact_and_primitive(hirzebruch1):
    verdict = classify_point(hirzebruch1, AmbientPoint.numeric([0, 0, 1, 1]))
    assert verdict.status == UNSTABLE
    cert = verdict.certificate
    assert cert.exact
    ints = [int(v) for v in cert.xi]
    assert math.gcd(*[abs(v) for v in ints]) == 1
    # destabilizing inequalities hold exactly on the support
    for i in support(AmbientPoint.numeric([0, 0, 1, 1])):
        assert hirzebruch1.weight_pairing(i, cert.xi) >= 0


def test_strictly_semistable_certificate():
    # theta on the cone boundary: single weight (1), theta = 0
    ws = WeightSystem(1, ((1,),), (F(0),))
    verdict = classify_point(ws, AmbientPoint.numeric([1.0]))
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.certificate is not None
    assert mu_weight(ws, AmbientPoint.numeric([1.0]), verdict.certificate) == 0


def test_unstable_maximal_supports_tables(hirzebruch1):
    got = unstable_maximal_supports(hirzebruch1)
    assert got == [frozenset({0, 1}), frozenset({2, 3}), frozenset({3})]
    # cotangent doubling: seven destabilized chambers, three maximal sets
    doubled = unstable_maximal_supports(doubled_weights(hirzebruch1))
    assert len(doubled) == 7
    maximal = inclusion_maximal(doubled)
    assert maximal == [
        frozenset({0, 1, 4, 5, 6, 7}),
        frozenset({2, 3, 4, 5, 6}),
        frozenset({3, 4, 5, 6, 7}),
    ]
    single = WeightSystem(1, ((1,),), (F(1, 2),))
    assert unstable_maximal_supports(single) == [frozenset()]
    with pytest.raises(BoundExceededError):
        unstable_maximal_supports(hirzebruch1, bound=2)


def test_semistable_support_examples(hirzebruch1):
    assert semistable_support(hirzebruch1, {0, 2})
    assert not semistable_support(hirzebruch1, {0, 1})
    assert semistable_support(hirzebruch1, {0, 1, 2, 3})


def test_stabilizer_examples(hirzebruch1):
    triv = stabilizer(hirzebruch1, {0, 2})
    assert triv.subtorus_rank == 0 and triv.finite_invariants == ()
    assert triv.is_trivial and triv.order == 1

    for n in (1, 2, 3, 5):
        wsn = WeightSystem(2, ((1, 0), (1, 0), (0, 1), (-n, 1)), hirzebruch1.theta)
        res = stabilizer(doubled_weights(wsn), {2, 7})
        assert res.subtorus_rank == 0
        assert res.order == n

    full = stabilizer(hirzebruch1, set())
    assert full.subtorus_rank == 2 and full.order is None


def test_quotient_smooth(hirzebruch1):
    smooth, offender = quotient_smooth(hirzebruch1)
    assert smooth and offender is None
    ws = WeightSystem(1, ((2,),), (F(1),))
    smooth, offender = quotient_smooth(ws)
    assert not smooth and offender == frozenset({0})
    smooth, _ = quotient_smooth(WeightSystem(1, ((1,), (1,)), (F(1, 2),)))
    assert smooth


def test_quotient_compact(hirzebruch1):
    assert quotient_compact(hirzebruch1)
    assert not quotient_compact(WeightSystem(1, ((1,), (-1,)), (F(1, 2),)))
    assert quotient_compact(WeightSystem(1, ((1,),), (F(1, 2),)))


def test_kahler_strata(hirzebruch1):
    strata = kahler_strata(hirzebruch1)
    assert len(strata) == 1
    assert strata[0].stabilizer.is_trivial and strata[0].is_open

    ws = WeightSystem(1, ((1,), (2,)), (F(1),))
    strata = kahler_strata(ws)
    assert [s.stabilizer.signature for s in strata] == [(0, ()), (0, (2,))]
    assert strata[0].is_open and not strata[1].is_open
    assert strata[1].supports == (frozenset({1}),)

    none = WeightSystem(1, ((1,),), (F(-1),))
    assert kahler_strata(none) == []


def check_against_oracles(ws: WeightSystem, v: AmbientPoint, box_exact: bool = False) -> None:
    """The unstable/semistable split is checked against the exact LP oracle.

    The box search is one-sided in general (a destabilizer may lie outside
    it), so a box witness only forces a verdict that is not stable and
    not polystable; box_exact asserts full agreement for systems where
    the box is known to be large enough.
    """
    S = support(v)
    verdict = classify_point(ws, v)
    assert (verdict.status == UNSTABLE) == (not lp_semistable_support(ws, S))
    want, xi = box_classify_support(ws, S)
    box_poly = box_polystable_support(ws, S)
    if box_exact:
        assert verdict.status == want
        assert verdict.polystable == box_poly
    if xi is not None:
        # the box witness is confirmed by the package's mu-weight
        assert mu_weight(ws, v, xi) <= 0
        assert verdict.status != STABLE
    if not box_poly:
        assert not verdict.polystable
    if verdict.status == STABLE:
        assert verdict.certificate is None
        return
    cert = verdict.certificate
    assert any(u != 0 for u in cert.xi)
    w = mu_weight(ws, v, cert)
    assert w <= 0
    if verdict.status == UNSTABLE:
        assert w < 0
    elif not verdict.polystable and S and np.linalg.matrix_rank(
        np.array([ws.weights[i] for i in S], dtype=float)
    ) == ws.rank:
        # a boundary witness: theta lies on the proper face cut out by xi
        assert any(ws.weight_pairing(i, cert.xi) > 0 for i in S)


def test_verdicts_match_box_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        ws = random_weight_system(rng)
        check_against_oracles(ws, random_ambient(rng, ws.n))
    # every support, including S = {}, of further draws and degenerate systems
    rng = np.random.default_rng(7)
    for ws in [random_weight_system(rng, nmax=5) for _ in range(15)]:
        for S in all_supports(ws):
            check_against_oracles(ws, indicator(ws, S))
    for ws in DEGENERATE:
        for S in all_supports(ws):
            check_against_oracles(ws, indicator(ws, S), box_exact=True)


def test_destabilizer_outside_the_box():
    # every destabilizer of these supports has a coordinate beyond BOX,
    # e.g. (9, 15, 4), so the box search calls them stable
    ws = WeightSystem(3, ((2, -2, 3), (0, -2, 2), (-3, 1, 3), (2, 2, 0)), (F(-1), F(-1, 2), F(4)))
    for S in ({0, 2}, {0, 2, 3}):
        v = indicator(ws, S)
        verdict = classify_point(ws, v)
        assert verdict.status == UNSTABLE
        assert mu_weight(ws, v, verdict.certificate) < 0
        assert box_classify_support(ws, S)[0] == "stable"
        check_against_oracles(ws, v)


def counting_calls(calls: list, real):
    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    return counting


def counting_lp(calls: list):
    return counting_calls(calls, exactlin.lp_maximize)


def test_cold_verdict_lp_budget(monkeypatch):
    # every verdict is the membership LP alone: the unstable certificate and
    # the full-rank boundary witness are its row multipliers
    calls = []
    monkeypatch.setattr(git_stability, "lp_maximize", counting_lp(calls))
    rng = np.random.default_rng(11)
    seen = set()
    for ws in [random_weight_system(rng, nmax=5) for _ in range(10)] + list(DEGENERATE):
        for S in all_supports(ws):
            git_stability._classify_support_cached.cache_clear()
            calls.clear()
            verdict = classify_support(ws, S)
            rows = np.array([ws.weights[i] for i in sorted(S)], dtype=float)
            full_rank = bool(S) and np.linalg.matrix_rank(rows) == ws.rank
            assert len(calls) == 1
            seen.add((verdict.status, full_rank))
    git_stability._classify_support_cached.cache_clear()
    assert seen >= {(STABLE, True), (UNSTABLE, True), (UNSTABLE, False),
                    (STRICTLY_SEMISTABLE, True), (STRICTLY_SEMISTABLE, False)}


def check_semistable_against_oracles(ws: WeightSystem, box_exact: bool) -> None:
    supports = list(all_supports(ws))
    want = {S: lp_semistable_support(ws, S) for S in supports}
    assert semistable_supports(ws) == sorted((S for S in supports if want[S]), key=sorted)
    assert quotient_compact(ws) == lp_quotient_compact(ws)
    for S in supports:
        got = semistable_support(ws, S)
        assert got == want[S]
        box_ok = box_classify_support(ws, S)[0] != UNSTABLE
        assert box_ok or not got  # a box destabilizer is exact
        if box_exact:
            assert got == box_ok


def test_semistable_supports_match_lp_oracle():
    # The box oracle proves instability but cannot refute it: it sees only
    # destabilizers with entries <= 10, and some draws need larger ones,
    # e.g. (9, 15, 4).  So it is compared both ways only on the small
    # degenerate systems; the LP reference is exact everywhere.
    rng = np.random.default_rng(5)
    for _ in range(300):
        check_semistable_against_oracles(random_weight_system(rng, nmax=5), box_exact=False)
    for ws in DEGENERATE:
        check_semistable_against_oracles(ws, box_exact=True)


def test_semistable_paths_use_no_lp(monkeypatch, hirzebruch1):
    calls = []
    monkeypatch.setattr(git_stability, "lp_maximize", counting_lp(calls))
    monkeypatch.setattr(exactlin, "lp_maximize", counting_lp(calls))
    rng = np.random.default_rng(13)
    for ws in [hirzebruch1] + [random_weight_system(rng, nmax=4) for _ in range(4)]:
        semistable_support(ws, range(ws.n))
        semistable_supports(ws)
        quotient_compact(ws)
        kahler_strata(ws)
        quotient_smooth(ws)
        hk_candidate_strata(ws)
    assert calls == []


def clear_system_memos() -> None:
    """Forget the two-system memos of the loci: the cell table and the
    cocircuit signs."""
    git_stability._cells.cache_clear()
    git_stability.cocircuit_signs.cache_clear()


def signed_vectors(ws: WeightSystem) -> list:
    """The one configuration whose cocircuits every exact test reads: the
    weights, then theta scaled to ints (the zero vector when theta = 0)."""
    theta = exactlin.integer_primitive(ws.theta) if any(ws.theta) else [0] * ws.rank
    return list(ws.weights) + [theta]


#: several lines in one plane of R^3, so the walk meets lines that lie in
#: the span of the lines already assigned 0
COPLANAR = (
    WeightSystem(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)), (F(1), F(1, 2), F(-1))),
    WeightSystem(3, ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (0, 1, -1)), (F(1), F(0), F(0))),
)


class WalkRun(NamedTuple):
    ws: WeightSystem
    got: list  # unstable_maximal_supports of ws and doubled_weights(ws)
    want: list  # dfs_unstable_supports of the same two systems
    walk_lps: list  # the LPs of both walk calls
    oracle_lps: list  # the LPs of the oracle on ws alone
    oracle: list  # line_cells of the same two systems


@pytest.fixture(scope="module")
def walk_runs() -> list[WalkRun]:
    """The covector closure, the DFS oracle and the line-closure oracle on
    seeded draws, DEGENERATE and COPLANAR."""
    rng = np.random.default_rng(17)
    systems = [random_weight_system(rng, nmax=3) for _ in range(200)]
    systems += [random_weight_system(rng, nmax=6) for _ in range(12)]
    solved: dict = {}
    log: list = []

    def memo_lp(*args):
        # lp_maximize is deterministic, and the oracle asks many of the
        # same LPs on ws and its cotangent system: solve each once per system
        key = repr(args)
        log.append(key)
        if key not in solved:
            solved[key] = exactlin.lp_maximize(*args)
        return solved[key]

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(git_stability, "lp_maximize", memo_lp)
        mp.setattr(oracles, "lp_maximize", memo_lp)
        for ws in systems + list(DEGENERATE) + list(COPLANAR):
            git_stability._cells.cache_clear()
            solved.clear()
            pair = (ws, doubled_weights(ws))
            log.clear()
            want = [dfs_unstable_supports(pair[0])]
            oracle_lps = list(log)
            log.clear()
            got = [unstable_maximal_supports(t) for t in pair]
            walk_lps = list(log)
            want.append(dfs_unstable_supports(pair[1]))
            runs.append(WalkRun(ws, got, want, walk_lps, oracle_lps, [line_cells(t) for t in pair]))
    git_stability._cells.cache_clear()
    return runs


def test_chamber_walk_matches_dfs_oracle(walk_runs):
    for run in walk_runs:
        assert run.got == run.want, run.ws
        assert cotangent_unstable_supports(run.ws) == run.want[1], run.ws
    clear_system_memos()


def test_chamber_walk_witnesses(walk_runs):
    # every cell of the reference closure carries an exact certificate:
    # its witness is a primitive integer vector with the cell's signs,
    # pairs negatively with theta, and destabilizes S(xi); and its cells
    # are the cell table's
    for ws, got, _, _, _, oracle in walk_runs:
        # the base and the cotangent system share one configuration
        assert len(oracle) == 2 and oracle[0][:2] == oracle[1][:2]
        for target, ref in zip((ws, doubled_weights(ws)), oracle):
            assert set(git_stability._cells(target)) == set(ref.cells), target
        dirs, cells = oracle[0].dirs, oracle[0].covectors
        assert len({(pos, neg) for pos, neg, _ in cells}) == len(cells)
        for pos, neg, xi in cells:
            assert all(type(v) is int for v in xi)
            assert math.gcd(*xi) == 1
            assert ws.theta_pairing(xi) < 0
            for j, q in enumerate(dirs):
                d = sum(a * b for a, b in zip(q, xi))
                assert (d > 0, d < 0) == (bool(pos >> j & 1), bool(neg >> j & 1))
        # the supports are exactly what the witnesses destabilize
        for target, supports in zip((ws, doubled_weights(ws)), got):
            family = {
                frozenset(i for i in range(target.n) if target.weight_pairing(i, xi) >= 0)
                for _, _, xi in cells
            }
            if any(family):
                family.discard(frozenset())
            assert supports == sorted(family, key=sorted)


def test_chamber_walk_issues_no_lp(monkeypatch, walk_runs):
    # the closure solves no LP and takes at most one integer kernel per
    # (r - 1)-subset of its m vectors (the lines and theta, of rank r) plus
    # one for their lineality space; the cell table holds two systems, and
    # the cotangent families read the base system's table
    calls: list = []
    solves: list = []
    monkeypatch.setattr(git_stability, "lp_maximize", counting_lp(calls))
    monkeypatch.setattr(exactlin, "lp_maximize", counting_lp(calls))
    monkeypatch.setattr(
        exactlin, "integer_kernel_basis", counting_calls(solves, exactlin.integer_kernel_basis)
    )
    clear_system_memos()

    def closure_solves(ws, family=unstable_maximal_supports) -> int:
        solves.clear()
        family(ws)
        return len(solves)

    sigma1, sigma8 = hirzebruch_weight_system(1), hirzebruch_weight_system(8)
    first = closure_solves(sigma1)
    assert first > 0
    # the cotangent families right after the base call compute nothing
    assert closure_solves(sigma1, cotangent_unstable_supports) == 0
    assert closure_solves(sigma1, cotangent_semistable_masks) == 0
    assert closure_solves(sigma8) > 0
    # the memos hold two systems: back on Sigma_1 it computes nothing, and
    # after two other systems it recomputes
    assert closure_solves(sigma1) == 0
    assert closure_solves(hirzebruch_weight_system(2)) > 0
    assert closure_solves(hirzebruch_weight_system(3)) > 0
    assert closure_solves(sigma1) == first
    for run in walk_runs:
        assert run.walk_lps == [], run.ws
        clear_system_memos()
        n_solves = closure_solves(run.ws) + closure_solves(run.ws, cotangent_unstable_supports)
        if any(run.ws.theta):
            vecs = list(run.oracle[0].dirs) + [list(run.ws.theta)]
            r = exactlin.matrix_rank(vecs)
            assert n_solves <= math.comb(len(vecs), r - 1) + 1, run.ws
        else:
            assert n_solves == 0, run.ws
    clear_system_memos()
    assert calls == []


def test_unstable_supports_are_downward_closed():
    rng = np.random.default_rng(3)
    for _ in range(8):
        ws = random_weight_system(rng, nmax=5, kmax=2)
        for S in unstable_maximal_supports(ws):
            if not S:
                continue
            sub = frozenset(i for i in S if rng.random() < 0.5)
            v = classify_support(ws, sub)
            assert v.status == UNSTABLE
            # certificate reuse: the big support's certificate destabilizes too
            big = classify_support(ws, S).certificate
            coords = np.zeros(ws.n, dtype=complex)
            for i in sub:
                coords[i] = 1.0
            assert mu_weight(ws, AmbientPoint.numeric(coords), big) < 0


def test_doubling_preserves_semistability():
    # a semistable base support stays semistable after adding any fiber part
    rng = np.random.default_rng(8)
    for _ in range(30):
        ws = random_weight_system(rng, nmax=5)
        dws = doubled_weights(ws)
        for sx in semistable_supports(ws):
            sz = frozenset(
                int(i) for i in range(ws.n) if rng.random() < 0.5
            )
            doubled_support = set(sx) | {ws.n + i for i in sz}
            assert semistable_support(dws, doubled_support)


def test_polystable_support_flags():
    # opposite weights, theta = 0: no nonzero destabilizer at full support,
    # so the point is outright stable even though theta sits on the boundary
    ws = WeightSystem(1, ((1,), (-1,)), (F(0),))
    assert polystable_support(ws, {0, 1})
    assert not polystable_support(ws, {0})
    assert polystable_support(ws, set())
    assert classify_support(ws, frozenset({0, 1})).status == STABLE
    with pytest.raises(DimensionMismatchError):
        polystable_support(ws, {2})

    # a line of weights in rank 2 leaves a transverse destabilizer with
    # pairing zero: strictly semistable but still polystable
    line = WeightSystem(2, ((1, 0), (-1, 0)), (F(0), F(0)))
    v = classify_support(line, frozenset({0, 1}))
    assert v.status == STRICTLY_SEMISTABLE and v.polystable

    # theta on the boundary ray: strictly semistable and not polystable
    ray = WeightSystem(1, ((1,), (1,)), (F(0),))
    v = classify_support(ray, frozenset({0}))
    assert v.status == STRICTLY_SEMISTABLE and not v.polystable


@st.composite
def small_systems(draw, nmax: int = 5, kmax: int = 3):
    """Weight systems with n <= nmax and k <= kmax that often hold zero
    weights, repeated and opposite lines, rank-deficient supports (all
    weights in a hyperplane), theta = 0 or theta on the ray of a weight."""
    k = draw(st.integers(1, kmax))
    n = draw(st.integers(0, nmax))
    flat = k > 1 and draw(st.integers(0, 3)) == 0
    weights: list[tuple[int, ...]] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random"] * 4 + ["zero", "line"]))
        if kind == "zero":
            w = (0,) * k
        elif kind == "line" and weights:
            scale = draw(st.sampled_from([-2, -1, 1, 2]))
            w = tuple(scale * v for v in draw(st.sampled_from(weights)))
        else:
            w = tuple(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))
            if flat:
                w = w[:-1] + (0,)
        weights.append(w)
    kind = draw(st.sampled_from(["free", "free", "zero", "ray"]))
    if kind == "zero":
        theta = (F(0),) * k
    elif kind == "ray" and weights:
        scale = F(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        theta = tuple(scale * v for v in draw(st.sampled_from(weights)))
    else:
        theta = tuple(F(draw(st.integers(-4, 4)), draw(st.integers(1, 4))) for _ in range(k))
    return WeightSystem(k, tuple(weights), theta)


def masks_to_sets(masks, n: int) -> list[frozenset]:
    return sorted((frozenset(i for i in range(n) if m >> i & 1) for m in masks), key=sorted)


def has_positive_basis(ws: WeightSystem, S) -> bool:
    """Caratheodory: theta lies in Cone{beta^i : i in S} iff S holds a
    positive basis."""
    return next(rref_positive_bases(ws, sorted(S)), None) is not None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(), st.sampled_from(DEGENERATE)), st.data())
def test_semistable_loci_match_oracles(ws, data):
    # the complement of the cells' down-closure, over n and 2n bits, and
    # the per-support Farkas test on the cocircuits, against the exact LP
    # and the positive bases
    n, dws = ws.n, doubled_weights(ws)
    want = {S: lp_semistable_support(ws, S) for S in all_supports(ws)}
    assert semistable_supports(ws) == sorted((S for S in want if want[S]), key=sorted)
    derived = masks_to_sets(cotangent_semistable_masks(ws), 2 * n)
    assert derived == semistable_supports(dws)
    # every doubled support for n <= 3, else a sample
    if n <= 3:
        doubled = list(all_supports(dws))
    else:
        picks = data.draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=12))
        doubled = [frozenset(i for i in range(2 * n) if m >> i & 1) for m in picks]
    derived_set = set(derived)
    want_doubled = {U: lp_semistable_support(dws, U) for U in doubled}
    for U in doubled:
        assert (U in derived_set) == want_doubled[U], (ws, sorted(U))
    for target, verdicts in ((ws, want), (dws, want_doubled)):
        for S, semistable in verdicts.items():
            assert semistable_support(target, S) == semistable, (target, sorted(S))
            assert has_positive_basis(target, S) == semistable, (target, sorted(S))


# the seed derandomize=True derives from this test's source, pinned so that
# an edit to the body does not redraw the systems (and change the DFS
# oracle's cost with them)
@seed(17303447417662363526821777158943674844227175218530714677575208204868058957776593273159428681164525458589922543388599)
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_systems(nmax=4))
def test_chamber_walk_matches_dfs_oracle_on_degenerate_systems(ws):
    # zero weights, repeated and opposite lines, rank-deficient supports,
    # theta = 0 and theta on the ray of a weight, on ws and its cotangent
    # system; the cotangent family read off ws's cell table is the doubled
    # system's own
    dws = doubled_weights(ws)
    solved: dict = {}

    def memo_lp(*args):
        # lp_maximize is deterministic, and the oracle asks many of the
        # same LPs on ws and its cotangent system: solve each once
        key = repr(args)
        if key not in solved:
            solved[key] = exactlin.lp_maximize(*args)
        return solved[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "lp_maximize", memo_lp)
        want = [dfs_unstable_supports(target) for target in (ws, dws)]
    for target, supports in zip((ws, dws), want):
        assert unstable_maximal_supports(target) == supports
    assert cotangent_unstable_supports(ws) == unstable_maximal_supports(dws)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(nmax=7, kmax=4), st.sampled_from(DEGENERATE + COPLANAR)))
def test_cell_table_matches_line_closure_oracle(ws):
    # the closure over the coordinates against the closure over the
    # distinct lines, mapped back to coordinates, on ws and its cotangent
    # system: zero weights, repeated, opposite and scaled lines, theta = 0
    # and rank-deficient weights
    for target in (ws, doubled_weights(ws)):
        cells = git_stability._cells(target)
        assert len(set(cells)) == len(cells)
        assert set(cells) == set(line_cells(target).cells), target


@pytest.mark.parametrize("check", [semistable_support, stabilizer, classify_support, hol_consistent])
@pytest.mark.parametrize("index", ["first below", "first above"])
def test_support_indices_out_of_range_are_refused(hirzebruch1, check, index):
    # the index is refused, not wrapped (-1 would be coordinate n - 1) nor
    # ignored
    i = -1 if index == "first below" else hirzebruch1.n
    with pytest.raises(DimensionMismatchError, match=f"support index {i} out of range"):
        check(hirzebruch1, [i])


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(), st.sampled_from(DEGENERATE)), st.data())
def test_classify_support_matches_oracles_on_degenerate_systems(ws, data):
    # zero weights, opposite lines, theta = 0, theta on a weight's ray and
    # rank-deficient supports: a few supports per draw, S = {} among them,
    # against the LP oracle and the sound directions of the box oracle
    for m in data.draw(st.lists(st.integers(0, (1 << ws.n) - 1), min_size=1, max_size=4)):
        S = {i for i in range(ws.n) if m >> i & 1}
        check_against_oracles(ws, indicator(ws, S), box_exact=ws in DEGENERATE)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(), st.sampled_from(DEGENERATE)), st.data())
def test_doubled_stabilizer_lattice_identity(ws, data):
    # the doubled rows on U are the rows of ws on sx | sz, some negated or
    # repeated, so they span the same lattice: hk_candidate_strata takes one
    # Smith form per ws-support on this identity
    n, dws = ws.n, doubled_weights(ws)
    for m in data.draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=8)):
        U = {i for i in range(2 * n) if m >> i & 1}
        sx, sz = {i for i in U if i < n}, {i - n for i in U if i >= n}
        assert stabilizer(dws, U) == stabilizer(ws, sx | sz), (ws, sorted(U))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(nmax=7), st.sampled_from(DEGENERATE)))
def test_hol_consistency_matches_kernel_cover_oracle(ws):
    # no cocircuit of the weights meets T in one index iff the kernel of the
    # weight columns on T covers T: on every T, with zero weights, opposite
    # lines, repeated w and 2w and rank-deficient systems among the draws;
    # the minimal restrictions of the list with theta are the supports of
    # the weights' own cocircuits
    own = {pos | neg for (pos, neg), _ in exactlin.cocircuits(list(ws.weights), ws.rank)}
    assert sorted(weight_cocircuits(ws)) == sorted(own), ws
    for m in range(1 << ws.n):
        T = {i for i in range(ws.n) if m >> i & 1}
        assert hol_consistent(ws, T) == kernel_cover_hol_consistent(ws, T), (ws, sorted(T))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(nmax=5), st.sampled_from(DEGENERATE)))
def test_hk_candidates_match_per_pair_oracle(ws):
    # the candidates read off the cell table, the weight cocircuits and one
    # Smith form per lattice are the per-pair filter over all 4^n pairs,
    # in the same order; each candidate's JSON text is json.dumps of its dict
    cands = hk_candidate_strata(ws)
    assert cands == brute_hk_candidates(ws), ws
    for c in cands:
        assert render(c, "json") == json.dumps(c.to_json(), sort_keys=True, indent=2)


def weight_classes(ws: WeightSystem, S) -> frozenset:
    """The nonzero weights on S, each up to sign."""
    return frozenset(max(w, tuple(-v for v in w)) for w in (ws.weights[i] for i in S) if any(w))


def test_stabilizer_memo_keeps_w_and_2w_apart():
    # one Smith form per set of weights up to sign: on every subset of
    # systems holding w and 2w (and often -w and a zero weight) it gives
    # the stabilizer of a fresh Smith form, where a key on lines would not
    rng = np.random.default_rng(41)
    merged_by_lines = 0
    for _ in range(40):
        k = int(rng.integers(1, 4))
        w = tuple(int(v) for v in rng.integers(-3, 4, size=k))
        w = w if any(w) else (1,) + w[1:]
        weights = [w, tuple(2 * v for v in w)]
        weights += [tuple(int(v) for v in rng.integers(-3, 4, size=k)) for _ in range(rng.integers(1, 4))]
        if rng.integers(2):
            weights.append(tuple(-v for v in w))
        if rng.integers(2):
            weights.append((0,) * k)
        order = rng.permutation(len(weights))
        ws = WeightSystem(k, tuple(weights[i] for i in order), (F(1, 2),) * k)
        git_stability._lattice_classes.cache_clear()
        by_lines: dict[frozenset, set] = {}
        for m in range(1 << ws.n):
            S = [i for i in range(ws.n) if m >> i & 1]
            factors = exactlin.smith_invariant_factors([ws.weights[i] for i in S])
            want = StabilizerInfo(k - len(factors), tuple(d for d in factors if d > 1))
            assert stabilizer(ws, S) == want, (ws, S)
            lines = frozenset(tuple(exactlin.integer_primitive(w)) for w in weight_classes(ws, S))
            by_lines.setdefault(lines, set()).add(want)
        merged_by_lines += sum(len(infos) > 1 for infos in by_lines.values())
    assert merged_by_lines
    git_stability._lattice_classes.cache_clear()


def test_analyze_takes_one_smith_form_per_lattice_class(monkeypatch, hirzebruch1):
    # one cmd_analyze: a Smith form per distinct set of weight classes over
    # the Kahler supports and the candidates' sx | sz, and one cocircuit
    # pass, of (the weights, theta), shared by every exact test
    rng = np.random.default_rng(43)
    systems = [hirzebruch1, hirzebruch_weight_system(3)] + list(DEGENERATE)
    systems += [random_weight_system(rng, nmax=5) for _ in range(8)]
    smiths, circuits = [], []
    monkeypatch.setattr(
        git_stability, "smith_invariant_factors",
        counting_calls(smiths, exactlin.smith_invariant_factors),
    )
    monkeypatch.setattr(git_stability, "cocircuits", counting_calls(circuits, exactlin.cocircuits))
    for ws in systems:
        git_stability._lattice_classes.cache_clear()
        clear_system_memos()
        smiths.clear()
        circuits.clear()
        out = cmd_analyze(RunConfig(), analyze_json(ws))
        supports = [S for rec in out["kahler_strata"] for S in rec["supports"]]
        supports += [[*c.support_x, *c.support_z] for c in out["hk_candidates"]]
        assert len(smiths) == len({weight_classes(ws, S) for S in supports}), ws
        assert [args[0] for args in circuits] == [signed_vectors(ws)], ws
    git_stability._lattice_classes.cache_clear()
    clear_system_memos()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_systems(nmax=6), st.sampled_from(DEGENERATE)))
def test_quotient_compact_matches_lp_oracle(ws):
    # Gordan's alternative on the cocircuits against the recession-cone LP,
    # with zero weights, repeated and opposite lines, rank-deficient
    # systems and n = 0 among the draws
    assert quotient_compact(ws) == lp_quotient_compact(ws), ws


def test_quotient_smooth_matches_loop_oracle():
    # the offending support, read off the strata, is the one the old
    # one-Smith-form-per-support loop reported
    rng = np.random.default_rng(31)
    systems = [random_weight_system(rng) for _ in range(150)] + list(DEGENERATE)
    outcomes = set()
    for ws in systems:
        want = loop_quotient_smooth(ws)
        assert quotient_smooth(ws) == want
        assert strata_smoothness(kahler_strata(ws)) == want
        outcomes.add(want[0])
    assert outcomes == {True, False}


def analyze_json(ws: WeightSystem) -> str:
    return json.dumps(weight_system_to_json(ws))


def test_analyze_semistable_budget(monkeypatch, hirzebruch1):
    rng = np.random.default_rng(37)
    systems = [hirzebruch1, hirzebruch_weight_system(2)] + list(DEGENERATE)
    systems += [random_weight_system(rng, nmax=5) for _ in range(6)]
    circuits, stabs = [], []
    monkeypatch.setattr(
        git_stability, "cocircuits", counting_calls(circuits, exactlin.cocircuits)
    )
    monkeypatch.setattr(
        git_stability, "stabilizer", counting_calls(stabs, git_stability.stabilizer)
    )
    for ws in systems:
        # one cocircuit pass of (lines, theta), none when theta = 0, makes
        # the cell table, which gives all four families of ws and of its
        # cotangent system
        clear_system_memos()
        circuits.clear()
        unstable_maximal_supports(ws)
        cotangent_unstable_supports(ws)
        semistable_supports(ws)
        cotangent_semistable_masks(ws)
        assert len(circuits) == (1 if any(ws.theta) else 0)
        assert git_stability._cells.cache_info().misses == 1
        clear_system_memos()
        circuits.clear()
        stabs.clear()
        cmd_analyze(RunConfig(), analyze_json(ws))
        # cmd_analyze makes exactly one pass, of (the weights, theta), theta
        # = 0 included: the cells, compactness and hol-consistency share it
        assert [args[0] for args in circuits] == [signed_vectors(ws)], ws
        assert git_stability._cells.cache_info().misses == 1
        # the strata behind `smooth` and `kahler_strata` are computed once
        supports = [frozenset(args[1]) for args in stabs]
        assert sorted(supports, key=sorted) == semistable_supports(ws)
        # quotient_compact on a cold memo is the same one pass
        clear_system_memos()
        circuits.clear()
        quotient_compact(ws)
        assert [args[0] for args in circuits] == [signed_vectors(ws)]
        # a support reads the memoized list, and needs none when theta = 0
        circuits.clear()
        semistable_support(ws, range(ws.n))
        assert circuits == []
        clear_system_memos()
        semistable_support(ws, range(ws.n))
        assert len(circuits) == (1 if any(ws.theta) else 0)
    for ws in systems[:3]:
        # the candidates read the cell table's own cocircuit pass
        clear_system_memos()
        semistable_supports(ws)
        circuits.clear()
        hk_candidate_strata(ws)
        assert circuits == []
    clear_system_memos()


def test_cell_table_memo_holds_two_systems(hirzebruch1):
    # systems A, B, A: the memo holds two systems, so A's table is built
    # once; A, B, C, A builds A's again; and A's output does not depend on
    # what came in between
    sigma2, sigma3 = hirzebruch_weight_system(2), hirzebruch_weight_system(3)
    git_stability._cells.cache_clear()
    outs = [cmd_analyze(RunConfig(), analyze_json(ws)) for ws in (hirzebruch1, sigma2, hirzebruch1)]
    assert git_stability._cells.cache_info().misses == 2
    assert outs[0] == outs[2] != outs[1]
    git_stability._cells.cache_clear()
    again = [cmd_analyze(RunConfig(), analyze_json(ws)) for ws in (hirzebruch1, sigma2, sigma3, hirzebruch1)]
    assert git_stability._cells.cache_info().misses == 4
    assert again[0] == again[3] == outs[0]
    git_stability._cells.cache_clear()
