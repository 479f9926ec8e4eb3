"""Candidate strata enumeration, certification, and the Hirzebruch suite."""

from fractions import Fraction

import numpy as np
import pytest

from hkquot import (
    BoundExceededError,
    PhasedComplex,
    PreconditionError,
    WeightSystem,
    act_torus,
    doubled_weights,
    hol_moment,
    mu_hyperkahler,
    semistable_supports,
    stabilizer,
    support,
)
from hkquot import git_stability, strata_examples
from hkquot.exactlin import kernel_basis
from hkquot.cli import hirzebruch_report_text
from hkquot.strata_examples import (
    CANDIDATE,
    CERTIFIED,
    TABLE_BASE,
    TABLE_COTANGENT,
    _sample_on_hol_zero,
    certify_stratum,
    hirzebruch_suite,
    hirzebruch_weight_system,
    hk_candidate_strata,
    hol_consistent,
    slice_invariants,
    slice_point,
)

from oracles import random_weight_system, rational_sample_on_hol_zero

F = Fraction


def test_weight_system_constructor_validates():
    ws = hirzebruch_weight_system(3, c0=2, c1=5)
    assert ws.weights == ((1, 0), (1, 0), (0, 1), (-3, 1))
    assert ws.theta == (F(1), F(5, 2))
    for bad in [(0,), (-1,), (2.5,)]:
        with pytest.raises(PreconditionError):
            hirzebruch_weight_system(*bad)
    with pytest.raises(PreconditionError):
        hirzebruch_weight_system(1, c0=0)
    with pytest.raises(PreconditionError):
        hirzebruch_weight_system(1, c1=-1)


def test_frozen_tables_match_enumeration(hirzebruch1):
    from hkquot import doubled_weights, unstable_maximal_supports

    base = unstable_maximal_supports(hirzebruch1)
    assert sorted(map(sorted, base)) == sorted(map(sorted, TABLE_BASE))
    cot = unstable_maximal_supports(doubled_weights(hirzebruch1))
    assert sorted(map(sorted, cot)) == sorted(map(sorted, TABLE_COTANGENT))


def test_hol_consistency_filter(hirzebruch1):
    # a single index can never support a nonzero kernel vector here
    assert not hol_consistent(hirzebruch1, {0})
    assert hol_consistent(hirzebruch1, set())
    # x0 z0 + x1 z1 = 0 admits all-nonzero solutions
    assert hol_consistent(hirzebruch1, {0, 1})
    ws = WeightSystem(1, ((1,), (1,)), (F(0),))
    assert hol_consistent(ws, {0, 1})
    assert not hol_consistent(ws, {1})


def test_hol_consistency_checked_once_per_overlap(monkeypatch):
    # the filter depends only on T = sx & sz, so the candidate loop runs the
    # coloop test once per distinct mask T, at most 2^n times
    rng = np.random.default_rng(5)
    weights = tuple(tuple(int(v) for v in row) for row in rng.integers(-3, 4, size=(6, 2)))
    ws = WeightSystem(2, weights, (F(1, 2), F(1)))
    real = strata_examples.coloop_free
    calls = []

    def counting(circuits, t):
        calls.append(t)
        return real(circuits, t)

    with monkeypatch.context() as mp:
        mp.setattr(strata_examples, "coloop_free", counting)
        got = hk_candidate_strata(ws)
    assert 0 < len(calls) == len(set(calls)) <= 2**ws.n
    # same candidates as filtering every doubled support on its own
    want = set()
    for U in semistable_supports(doubled_weights(ws)):
        sx = frozenset(i for i in U if i < ws.n)
        sz = frozenset(i - ws.n for i in U if i >= ws.n)
        if hol_consistent(ws, sx & sz):
            want.add((sx, sz))
    assert {(c.support_x, c.support_z) for c in got} == want
    assert len(got) == len(want) > 0
    # in the documented order: trivial stabilizer first, then by signature
    # and the sorted supports
    trivial = (0, ())
    assert got == sorted(got, key=lambda c: (
        c.stabilizer.signature != trivial, c.stabilizer.signature,
        sorted(c.support_x), sorted(c.support_z)))
    assert len({c.stabilizer.signature for c in got}) > 1


def test_stabilizer_computed_once_per_ws_support(monkeypatch):
    # stabilizer(dws, U) depends only on the lattice of the rows of U, which
    # is the lattice of the ws rows on sx | sz: the candidate loop asks
    # mask_stabilizer once per distinct mask W = sx | sz, and takes at most
    # one Smith form per W
    rng = np.random.default_rng(23)
    systems = [hirzebruch_weight_system(2), hirzebruch_weight_system(3)]
    systems += [random_weight_system(rng, nmax=5) for _ in range(12)]
    real_smith, real_stab = git_stability.smith_invariant_factors, strata_examples.mask_stabilizer
    smiths, stabs = [], []

    def counting_smith(rows):
        smiths.append(rows)
        return real_smith(rows)

    def counting_stab(ws_, W):
        stabs.append(W)
        return real_stab(ws_, W)

    seen_finite, asked = False, 0
    for ws in systems:
        dws = doubled_weights(ws)
        want = {U: stabilizer(dws, U) for U in semistable_supports(dws)}
        git_stability._lattice_classes.cache_clear()
        smiths.clear()
        stabs.clear()
        with monkeypatch.context() as mp:
            mp.setattr(git_stability, "smith_invariant_factors", counting_smith)
            mp.setattr(strata_examples, "mask_stabilizer", counting_stab)
            got = hk_candidate_strata(ws)
        supports = {c.support_x | c.support_z for c in got}
        assert len(stabs) == len(set(stabs)) == len(supports) <= 2**ws.n
        assert len(smiths) <= len(supports)
        asked += len(stabs)
        for c in got:
            U = frozenset(c.support_x) | {ws.n + i for i in c.support_z}
            assert c.stabilizer == want[U]
            seen_finite |= bool(c.stabilizer.finite_invariants)
    assert seen_finite and asked
    git_stability._lattice_classes.cache_clear()


def test_mask_table_ranks_masks_as_sorted_indices():
    # rank orders the n-bit masks exactly as sorted index tuples sort, the
    # inverse table inverts it, and each mask's set is its index set
    for n in range(9):
        sets, rank, by_rank = strata_examples.mask_table(n)
        indices = [tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
        assert len(sets) == len(rank) == len(by_rank) == 1 << n
        assert [indices[m] for m in by_rank] == sorted(indices)
        assert sorted(rank) == list(range(1 << n))
        assert all(by_rank[rank[m]] == m and rank[by_rank[m]] == m for m in range(1 << n))
        assert all(sets[m] == frozenset(indices[m]) for m in range(1 << n))
        assert strata_examples.mask_table(n) is strata_examples.mask_table(n)


def test_candidate_bound_counts_the_marked_bits():
    # the candidates mark every 2n-bit mask, so the bound is on 2n, not n
    ws = hirzebruch_weight_system(1)
    with pytest.raises(BoundExceededError, match="n=8 exceeds enumeration bound 7"):
        hk_candidate_strata(ws, bound=7)
    assert hk_candidate_strata(ws, bound=8) == hk_candidate_strata(ws)


def test_sampler_matches_rational_kernel_oracle():
    # the integer kernel scaled to 1 in its last nonzero entry, in float,
    # rounds as the rational kernel's Fractions do: equal seeds give equal
    # points, bit for bit, on candidates whose T = sx & sz is nonempty,
    # kernels with fractional entries among them
    rng = np.random.default_rng(41)
    checked = fractional = 0
    for _ in range(12):
        ws = random_weight_system(rng, nmax=5)
        for c in hk_candidate_strata(ws):
            T = sorted(c.support_x & c.support_z)
            if not T:
                continue
            kern = kernel_basis([[ws.weights[i][a] for i in T] for a in range(ws.rank)], len(T))
            fractional += any(v.denominator != 1 for vec in kern for v in vec)
            for seed in range(2):
                got = _sample_on_hol_zero(np.random.default_rng(seed), ws, c.support_x, c.support_z)
                want = rational_sample_on_hol_zero(np.random.default_rng(seed), ws, c.support_x, c.support_z)
                assert got.x.tobytes() == want.x.tobytes() and got.z.tobytes() == want.z.tobytes()
                checked += 1
    assert checked > 100 and fractional


def test_candidates_single_weight():
    ws = WeightSystem(1, ((1,),), (F(1, 2),))
    cands = hk_candidate_strata(ws)
    assert [(set(c.support_x), set(c.support_z)) for c in cands] == [({0}, set())]
    assert cands[0].stabilizer.signature == (0, ())


def test_candidates_empty_system():
    ws = WeightSystem(1, (), (F(0),))
    cands = hk_candidate_strata(ws)
    assert len(cands) == 1
    assert cands[0].support_x == frozenset() and cands[0].support_z == frozenset()
    assert cands[0].stabilizer.subtorus_rank == 1


def test_candidates_diagonal_theta_zero():
    ws = WeightSystem(1, ((1,), (1,)), (F(0),))
    cands = hk_candidate_strata(ws)
    pairs = {(frozenset(c.support_x), frozenset(c.support_z)) for c in cands}
    assert len(pairs) == 10
    # mixed overlaps are killed by the kernel-support condition
    assert (frozenset({0}), frozenset({0})) not in pairs
    assert (frozenset({0, 1}), frozenset({0, 1})) in pairs

    balanced = {
        (frozenset({0}), frozenset({1})),
        (frozenset({1}), frozenset({0})),
        (frozenset({0, 1}), frozenset({0, 1})),
        (frozenset(), frozenset()),
    }
    for c in cands:
        done = certify_stratum(ws, c, seed=5)
        key = (frozenset(c.support_x), frozenset(c.support_z))
        if key in balanced:
            assert done.status == CERTIFIED
            rep = done.witness
            assert support(rep) == (c.support_x, c.support_z)
            assert mu_hyperkahler(ws, rep).norm() < 1e-9
        else:
            assert done.status == CANDIDATE
            assert any("undecided" in line for line in done.log)


def test_certified_witness_properties(hirzebruch1):
    cands = hk_candidate_strata(hirzebruch1)
    open_candidates = [
        c for c in cands if c.support_x == frozenset({0, 1, 2}) and 3 in c.support_z
    ]
    assert open_candidates
    done = certify_stratum(hirzebruch1, open_candidates[0], seed=1)
    assert done.status == CERTIFIED
    assert done.witness_residual < 1e-9
    assert hol_moment(hirzebruch1, done.witness).norm() < 1e-9


def test_candidate_ordering_puts_free_strata_first():
    ws = hirzebruch_weight_system(2)
    cands = hk_candidate_strata(ws)
    trivial_flags = [c.stabilizer.signature == (0, ()) for c in cands]
    # once a nontrivial stabilizer appears, no trivial one follows
    first_nontrivial = trivial_flags.index(False)
    assert all(not f for f in trivial_flags[first_nontrivial:])
    orders = {c.stabilizer.order for c in cands if not c.stabilizer.subtorus_rank}
    assert 2 in orders


def test_slice_point_and_invariants():
    z0 = PhasedComplex.of("3/2", "1/5")
    z1 = PhasedComplex.of(1, "7/10")
    p = slice_point(z0, z1)
    assert tuple(c.modulus for c in p.x) == (0, 0, 1, 0)
    assert p.z[3].modulus == 1

    for n in (1, 2, 3, 5):
        lam = PhasedComplex.root_of_unity(1, n)
        moved = (z0 * lam, z1 * lam)
        assert slice_invariants((z0, z1), n) == slice_invariants(moved, n)
        lam_bad = PhasedComplex.root_of_unity(1, 2 * n)
        off = (z0 * lam_bad, z1 * lam_bad)
        assert slice_invariants((z0, z1), n) != slice_invariants(off, n)
    # all-zero coordinates degenerate gracefully
    zero = PhasedComplex.of(0)
    assert slice_invariants((zero, zero), 3)[1] is None


def test_residual_action_on_slice(hirzebruch1):
    z0 = PhasedComplex.of("3/2", "1/5")
    z1 = PhasedComplex.of(1, "7/10")
    p = slice_point(z0, z1)
    lam = PhasedComplex.root_of_unity(1, 1)
    q = act_torus(hirzebruch1, (lam.inverse(), PhasedComplex.of(1)), p)
    assert tuple(q.x) == tuple(p.x)


def test_suite_passes_for_small_n():
    for n in (1, 2):
        report = hirzebruch_suite(n)
        assert report["n"] == n
        assert report["passed"], [a for a in report["assertions"] if not a["passed"]]
        names = [a["name"] for a in report["assertions"]]
        assert len(names) == 8 and len(set(names)) == 8
    text = hirzebruch_report_text(hirzebruch_suite(1, c0=3, c1=2))
    assert "[PASS]" in text and "[FAIL]" not in text
    assert text.strip().endswith("result: PASS")


def test_suite_reads_one_cocircuit_list_per_system(monkeypatch):
    # the cells, the single supports, hol-consistency and the stabilizers
    # of the suite read the base system alone, which shares one cocircuit
    # pass: the cotangent checks ask no doubled system
    calls = []
    real = git_stability.cocircuits

    def counting(vecs, k):
        calls.append(len(vecs))
        return real(vecs, k)

    monkeypatch.setattr(git_stability, "cocircuits", counting)
    git_stability._cells.cache_clear()
    git_stability.cocircuit_signs.cache_clear()
    assert hirzebruch_suite(3)["passed"]
    assert calls == [4 + 1]
    git_stability._cells.cache_clear()
    git_stability.cocircuit_signs.cache_clear()


def test_suite_respects_parameters():
    report = hirzebruch_suite(2, c0=3, c1=1)
    assert report["c0"] == "3" and report["c1"] == "1"
    assert report["passed"]
