"""Pointwise reduction: horizontal frames, induced metric/forms, checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hkquot import (
    AmbientPoint,
    CotangentPoint,
    PreconditionError,
    WeightSystem,
    certify_stratum,
    hk_candidate_strata,
    mu_hyperkahler,
    psi,
    solve_hyperkahler,
)
from hkquot import hk_reduction
from hkquot.cli import render
from hkquot.hk_reduction import (
    ReducedFrame,
    ambient_frame,
    ambient_potential_check,
    circle_action_check,
    frame_report_json,
    fubini_study_oracle,
    gauge_vectors,
    gram_matrices,
    horizontal_frame,
    kahler_quotient_oracle,
    quaternion_check,
    reduced_form,
    reduced_metric,
    rotate_fiber,
    transport_tangent,
    zero_section_check,
)
from hkquot.strata_examples import hirzebruch_weight_system

from oracles import (
    gram_matrices_oracle,
    mgs_frame,
    quaternion_check_oracle,
    quaternion_deviation_oracle,
    random_weight_system,
)

F = Fraction


def _lift(n: int, u: np.ndarray) -> np.ndarray:
    """Zero-section tangent lift: complex C^n direction into the real model."""
    u = np.asarray(u, dtype=complex)
    return np.concatenate([u.real, u.imag, np.zeros(n), np.zeros(n)])


@pytest.fixture
def hirzebruch_frame(hirzebruch1):
    p = CotangentPoint.numeric([0, 0, 1, 0], [0.7 + 0.2j, 0.3 - 0.5j, 0, 1])
    out = solve_hyperkahler(hirzebruch1, p)
    assert out.status == "converged"
    return horizontal_frame(hirzebruch1, out.representative)


def test_horizontal_dimensions(diag_circle2, hirzebruch_frame):
    p = CotangentPoint.numeric([1, 0], [0, 0])
    frame = horizontal_frame(diag_circle2, p)
    assert frame.dim == 4
    assert frame.gauge.shape == (4, 8)
    assert hirzebruch_frame.dim == 8
    # orthogonality between blocks
    cross = frame.horizontal @ frame.gauge.T
    assert np.max(np.abs(cross)) < 1e-10


def test_horizontal_frame_rejects_bad_points(diag_circle2):
    off_level = CotangentPoint.numeric([2, 0], [0, 0])
    with pytest.raises(PreconditionError):
        horizontal_frame(diag_circle2, off_level)
    # a continuous stabilizer must be refused
    ws = WeightSystem(2, ((1, 0), (0, 1)), (F(1, 2), F(0)))
    p = CotangentPoint.numeric([1, 0], [0, 0])
    with pytest.raises(PreconditionError):
        horizontal_frame(ws, p)


def test_reduced_metric_positive_definite(diag_circle2, hirzebruch_frame):
    p = CotangentPoint.numeric([1, 0], [0, 0])
    for frame in (horizontal_frame(diag_circle2, p), hirzebruch_frame):
        grams = gram_matrices(frame)
        eigs = np.linalg.eigvalsh(grams["g"])
        assert eigs.min() > 1e-10
        for op in ("I", "J", "K"):
            w = grams[f"omega_{op}"]
            assert np.max(np.abs(w + w.T)) < 1e-12


def test_reduced_forms_antisymmetric_and_invariant(hirzebruch_frame):
    rng = np.random.default_rng(3)
    frame = hirzebruch_frame
    for _ in range(6):
        u = frame.project(rng.standard_normal(4 * frame.n))
        v = frame.project(rng.standard_normal(4 * frame.n))
        for op in ("I", "J", "K"):
            a = reduced_form(frame, op, u, v)
            b = reduced_form(frame, op, v, u)
            assert abs(a + b) < 1e-12
            # compatibility: omega_A(Au, Av) = omega_A(u, v)
            from hkquot import apply_quaternion

            au = frame.project(apply_quaternion(op, u))
            av = frame.project(apply_quaternion(op, v))
            assert abs(reduced_form(frame, op, au, av) - a) < 1e-9


def test_quaternion_check_small(diag_circle2, hirzebruch_frame):
    p = CotangentPoint.numeric([1, 0], [0, 0])
    assert quaternion_check(horizontal_frame(diag_circle2, p)) < 1e-10
    assert quaternion_check(hirzebruch_frame) < 1e-9


def test_ambient_frame_is_exact():
    p = CotangentPoint.numeric([0.3 + 1j, -2], [0.5, 1j])
    frame = ambient_frame(p)
    assert frame.k == 0 and frame.dim == 8
    assert quaternion_check(frame) == 0.0


def test_require_horizontal_guards(diag_circle2):
    p = CotangentPoint.numeric([1, 0], [0, 0])
    frame = horizontal_frame(diag_circle2, p)
    g = frame.gauge[0]
    with pytest.raises(PreconditionError):
        frame.require_horizontal(g)
    h = frame.horizontal[0]
    assert np.allclose(frame.require_horizontal(h), h)


def test_gauge_invariance_under_torus_transport(hirzebruch1, hirzebruch_frame):
    frame = hirzebruch_frame
    p = frame.base_point
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
    from hkquot import act_torus

    p2 = act_torus(hirzebruch1, tuple(phases), p)
    frame2 = horizontal_frame(hirzebruch1, p2)
    for _ in range(5):
        u = frame.project(rng.standard_normal(16))
        v = frame.project(rng.standard_normal(16))
        tu = transport_tangent(hirzebruch1, tuple(phases), u)
        tv = transport_tangent(hirzebruch1, tuple(phases), v)
        # transported vectors stay horizontal and keep their pairings
        assert np.linalg.norm(frame2.project(tu) - tu) < 1e-9
        assert abs(reduced_metric(frame2, tu, tv) - reduced_metric(frame, u, v)) < 1e-9
        for op in ("I", "J", "K"):
            assert (
                abs(reduced_form(frame2, op, tu, tv) - reduced_form(frame, op, u, v))
                < 1e-9
            )


def test_psi_constant_on_gauge_orbits(hirzebruch1):
    from hkquot import PhasedComplex, act_torus

    p = CotangentPoint.exact(
        [PhasedComplex.of(0), PhasedComplex.of(0), PhasedComplex.of(1), PhasedComplex.of(0)],
        [
            PhasedComplex.of("3/2", "1/7"),
            PhasedComplex.of("5/4", "2/5"),
            PhasedComplex.of(0),
            PhasedComplex.of(1),
        ],
    )
    for t in [
        (PhasedComplex.of(1, "1/3"), PhasedComplex.of(1, "1/9")),
        (PhasedComplex.of(1, "7/11"), PhasedComplex.of(1)),
    ]:
        assert psi(act_torus(hirzebruch1, t, p)) == psi(p)


def test_zero_section_matches_quotient_oracle(diag_circle2):
    x = AmbientPoint.numeric([1 / math.sqrt(2), 1j / math.sqrt(2)])
    report = zero_section_check(diag_circle2, x)
    assert report["horizontal_dim"] == 4
    assert report["max_error"] < 1e-8


def test_fubini_study_agrees_with_projection_oracle(diag_circle2):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.linalg.norm(x)  # ||x||^2 = 1 = 2 theta
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g1, w1 = fubini_study_oracle(F(1, 2), x, u, v)
        g2, w2 = kahler_quotient_oracle(diag_circle2, x, u, v)
        assert abs(g1 - g2) < 1e-12 and abs(w1 - w2) < 1e-12
    with pytest.raises(PreconditionError):
        fubini_study_oracle(F(1, 2), np.array([2.0, 0.0]), u, v)


def test_product_system_metric_is_block_diagonal():
    ws = WeightSystem(2, ((1, 0), (1, 0), (0, 1), (0, 1)), (F(1, 2), F(1, 2)))
    x = AmbientPoint.numeric([1, 0, 0, 1])
    p = CotangentPoint.numeric(x.coords, np.zeros(4, dtype=complex))
    frame = horizontal_frame(ws, p)
    rng = np.random.default_rng(19)
    for _ in range(6):
        a = np.zeros(4, dtype=complex)
        b = np.zeros(4, dtype=complex)
        a[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b[2:] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = frame.project(_lift(4, a))
        v = frame.project(_lift(4, b))
        assert abs(reduced_metric(frame, u, v)) < 1e-10
        assert abs(reduced_form(frame, "I", u, v)) < 1e-10


def test_potential_identity_finite_differences():
    rng = np.random.default_rng(29)
    points = [
        CotangentPoint.numeric(
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
        )
        for n in (1, 1, 2)
    ]
    fine = ambient_potential_check(points, h=1e-4)
    assert fine["max_error"] < 1e-5
    # the potential is quadratic, so central differences are exact in h
    coarse = ambient_potential_check(points, h=1e-2)
    assert coarse["max_error"] < 1e-9
    # the I-direction computation is a deliberate negative control
    assert coarse["control_error_I"] > 0.5


def test_circle_action_check_rows(hirzebruch_frame):
    report = circle_action_check(hirzebruch_frame)
    rows = {tuple(r["lambda"]): r for r in report["lambdas"]}
    identity = rows[(1.0, 0.0)]
    assert identity["form_scale_deviation"] < 1e-12
    assert identity["mu_I_deviation"] == 0.0
    for lam in ((0.0, 1.0), (math.cos(math.pi / 4), math.sin(math.pi / 4))):
        assert rows[lam]["mu_I_deviation"] < 1e-10
    assert report["max_deviation"] < 1e-8


def test_circle_action_negates_complex_form(diag_circle2):
    # lambda = -1 sends Omega to -Omega on the C^2 example
    p = CotangentPoint.numeric([1, 0], [0, 0])
    frame = horizontal_frame(diag_circle2, p)
    report = circle_action_check(frame, lambdas=(-1.0,), pairs=4, seed=2)
    assert report["max_deviation"] < 1e-8
    q = rotate_fiber(p, -1.0)
    assert np.allclose(q.x, p.x) and np.allclose(q.z, -p.z)


def test_frame_report_shape(hirzebruch_frame):
    report = frame_report_json(hirzebruch_frame)
    assert report["n"] == 4 and report["k"] == 2
    assert report["horizontal_dim"] == 8
    assert report["quaternion_deviation"] < 1e-9
    for key in ("g", "omega_I", "omega_J", "omega_K"):
        mat = np.array(report["gram"][key])
        assert mat.shape == (8, 8)


def test_gram_rounding_matches_per_value_sig12():
    # the CLI formats each Gram row once, a symmetric matrix's mirrored
    # pairs once, and parses no float back; its text reads back bit for bit
    # as `_sig12` taken one entry at a time
    def bits(rows) -> list:
        assert all(type(v) is float for row in rows for v in row)
        return [[v.hex() for v in row] for row in rows]

    mats = []
    for n in (1, 2, 3):
        ws, points = _hirzebruch_solver_points(n, count=2, seed=n)
        for p in points:
            mats += gram_matrices(horizontal_frame(ws, p)).values()
    rng = np.random.default_rng(9)
    mats += [rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-310, 308, (4, 5)) for _ in range(40)]
    mats.append(np.array([[-0.0, 0.0, 5e-324, -2.2e-308], [1e300, -1.7976931348623157e308, 1 / 3, -123456789012.5]]))
    with np.errstate(over="ignore"):
        mats += [m[:, :4] + m[:, :4].T for m in mats if m.shape == (4, 5)]
    for mat in mats:
        want = [[hk_reduction._sig12(v) for v in row] for row in mat]
        assert bits(json.loads(render({"gram": mat}, "json"))["gram"]) == bits(want)


#: either side of each layout switch of "%.12g" and of repr (exponents 12
#: and 16, below 1e-4), signed zeros, integers, subnormals, nan and inf
GRAM_EDGES = (
    0.0, -0.0, 1.0, -3.0, 0.9999999999999998, 1e11, 999999999999.5, 1e12, 1e15, 1e16, 1e19,
    1e20, 1e-4, 1e-5, 1e-17, -1e-17, 2.2250738585072014e-308, 2.2e-308, 1e-310, 5e-324, 1e-300,
    1e300, -1.7976931348623157e308, float("nan"), float("inf"), -float("inf"),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 6)),
        elements=st.one_of(st.floats(), st.sampled_from(GRAM_EDGES)),
    )
)
@example(np.array(GRAM_EDGES).reshape(2, -1))
@example(np.array([[1.0, 0.0, -0.0, 1e-17], [2.0, 1e12, 1e15, 1e16]]))
@example(np.array([[1.0, 0.0, -0.0], [-0.0, 1.0, 1e-17], [0.0, 1e-17, 1e12]]))
def test_sig12_row_text_is_json_text(mat):
    # the text the CLI writes for a float matrix is what json.dumps writes
    # for its `_sig12` values, in every format: from the "%.12g" tokens, or
    # from the values where the layouts differ; a matrix equal to its
    # transpose bit for bit formats each mirrored pair once, and one equal
    # but for the sign of a zero is not mirrored
    square = mat[: min(mat.shape), : min(mat.shape)]
    with np.errstate(over="ignore"):
        mats = {"g": mat, "omega_I": mat[::-1], "omega_J": square + square.T, "omega_K": square}
    sig12 = {key: [[hk_reduction._sig12(x) for x in row] for row in m.tolist()] for key, m in mats.items()}
    report = {"horizontal_dim": len(mat), "gram": mats}
    plain = {"horizontal_dim": len(mat), "gram": sig12}
    assert render(report, "json") == json.dumps(plain, sort_keys=True, indent=2)
    for fmt in ("table", "csv"):
        assert render(report, fmt) == render(plain, fmt)


#: entries whose 12-digit token is an integer: they round to one, or are -0
ROUND_TO_INTEGER = (0.99999999999995, -0.99999999999996, 123456789011.6, -0.0, 0.0, 1.0, -3.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 24),
    st.sampled_from(("symmetric", "square", "1 x d", "d x 1", "0 x d", "d x 0")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(24, "symmetric", False, 0)
@example(24, "square", False, 0)
@example(8, "symmetric", True, 1)
def test_sig12_matrix_text_at_metric_sizes(d, shape, edges, seed):
    # the metric writes Gram matrices of up to 24 x 24, g mirrored: the text
    # of each, at three nesting depths in one payload, is json's text of its
    # `_sig12` values in every format, also where entries round to an
    # integer at 12 digits and where the layout differs (GRAM_EDGES)
    rng = np.random.default_rng(seed)
    rows, cols = {"symmetric": (d, d), "square": (d, d), "1 x d": (1, d), "d x 1": (d, 1),
                  "0 x d": (0, d), "d x 0": (d, 0)}[shape]
    mat = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4, (rows, cols))
    special = ROUND_TO_INTEGER + GRAM_EDGES if edges else ROUND_TO_INTEGER
    picked = rng.random(mat.shape) < 0.25
    mat[picked] = rng.choice(special, size=int(picked.sum()))
    if shape == "symmetric":
        mat = np.where(np.triu(np.ones(mat.shape, dtype=bool)), mat, mat.T)
        assert mat.tobytes() == mat.T.tobytes()
    mats = {"g": mat, "omega_I": mat[::-1], "omega_J": mat.T.copy()}
    report = {"gram": mats, "deeper": [{"g": mat}], "g": mat}
    sig12 = {key: [[hk_reduction._sig12(x) for x in row] for row in m.tolist()] for key, m in mats.items()}
    plain = {"gram": sig12, "deeper": [{"g": sig12["g"]}], "g": sig12["g"]}
    assert render(report, "json") == json.dumps(plain, sort_keys=True, indent=2)
    for fmt in ("table", "csv"):
        assert render(report, fmt) == render(plain, fmt)


def test_quaternion_deviation_matches_three_norms():
    # one batched SVD gives the three spectral norms bit for bit, on
    # arbitrary images as well as on the quaternion images of H
    rng = np.random.default_rng(15)
    for dim in range(25):
        for _ in range(4):
            H = rng.standard_normal((dim, 4 * max(dim, 1))) * 10.0 ** rng.integers(-3, 4)
            for images in (hk_reduction._images(H), list(rng.standard_normal((3, *H.shape)))):
                got = hk_reduction._quaternion_deviation(H, images)
                assert got.hex() == quaternion_deviation_oracle(H, images).hex()
    assert hk_reduction._quaternion_deviation(np.zeros((0, 8)), [np.zeros((0, 8))] * 3) == 0.0


def _assert_report_matches_oracle(frame):
    H = frame.horizontal
    grams, want = gram_matrices(frame), gram_matrices_oracle(H)
    assert list(grams) == list(want)
    for key, mat in grams.items():
        assert mat.shape == want[key].shape and mat.tobytes() == want[key].tobytes()
    deviation = quaternion_check_oracle(H)
    assert quaternion_check(frame).hex() == deviation.hex()
    report = frame_report_json(frame)
    assert report["quaternion_deviation"].hex() == hk_reduction._sig12(deviation).hex()
    # the float matrices themselves, which the CLI writes to 12 digits
    assert list(report["gram"]) == list(want)
    assert all(report["gram"][key].tobytes() == mat.tobytes() for key, mat in want.items())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.data())
def test_frame_report_matches_oracle_images(n, data):
    # the report takes each quaternion image of H once and shares it between
    # the Gram matrices and the quaternion check; both match the per-call
    # formulas bit for bit, on orthonormal and on arbitrary (also strided)
    # row matrices
    dim = data.draw(st.integers(1, 4 * n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = data.draw(st.sampled_from(("orthonormal", "raw", "strided")))
    if shape == "orthonormal":
        H = np.linalg.qr(rng.standard_normal((4 * n, dim)))[0].T
    elif shape == "raw":
        H = rng.standard_normal((dim, 4 * n))
    else:
        H = rng.standard_normal((2 * dim, 4 * n))[::2]
    zeros = np.zeros(n, dtype=complex)
    frame = ReducedFrame(
        ws=None,
        base_point=CotangentPoint.numeric(zeros, zeros),
        gauge_raw=np.zeros((0, 4 * n)),
        gauge=np.zeros((0, 4 * n)),
        horizontal=H,
    )
    _assert_report_matches_oracle(frame)


def test_solved_frames_report_matches_oracle():
    for n in (1, 2, 5):
        ws, points = _hirzebruch_solver_points(n, count=2, seed=10 + n)
        for p in points:
            _assert_report_matches_oracle(horizontal_frame(ws, p))


def test_gauge_vectors_shape(hirzebruch1, hirzebruch_frame):
    p = CotangentPoint.numeric([0, 0, 1, 0], [0, 0, 0, 1])
    vecs = gauge_vectors(hirzebruch1, p)
    assert vecs.shape == (2, 16)
    # the solved representative does sit on the zero level
    hk = mu_hyperkahler(hirzebruch1, hirzebruch_frame.base_point)
    assert hk.norm() < 1e-9


def _hirzebruch_solver_points(n: int, count: int, seed: int):
    ws = hirzebruch_weight_system(n)
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        z0, z1, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = CotangentPoint.numeric([0, 0, 1, 0], [z0, z1, 0, 1 + 0.2 * w])
        out = solve_hyperkahler(ws, p)
        if out.status == "converged":
            points.append(out.representative)
    return ws, points


def _random_witness(rank: int, seed: int):
    """A certified moment-zero point with finite stabilizer on the first
    random_weight_system draw of the given rank that has one."""
    rng = np.random.default_rng(seed)
    while True:
        ws = random_weight_system(rng, nmax=5, kmax=3)
        if ws.rank != rank or ws.n <= rank:
            continue
        for cand in hk_candidate_strata(ws):
            if cand.stabilizer.subtorus_rank == 0:
                witness = certify_stratum(ws, cand).witness
                if witness is not None:
                    return ws, witness


def test_frame_projectors_match_gram_schmidt_oracle():
    cases = []
    for n in (1, 2, 3, 5, 8):
        ws, points = _hirzebruch_solver_points(n, count=3, seed=n)
        cases += [(ws, p) for p in points]
    for rank in (2, 3):
        ws, witness = _random_witness(rank, seed=0)
        cases.append((ws, witness))
    for ws, p in cases:
        frame = horizontal_frame(ws, p)
        gauge, horizontal = mgs_frame(frame.gauge_raw, ws.n)
        assert frame.dim == len(horizontal) == 4 * (ws.n - ws.rank)
        H, G = frame.horizontal, frame.gauge
        assert np.max(np.abs(H.T @ H - horizontal.T @ horizontal)) < 1e-12
        assert np.max(np.abs(G.T @ G - gauge.T @ gauge)) < 1e-12
        assert quaternion_check(frame) < 1e-9


def test_frame_rank_check(monkeypatch, hirzebruch1, hirzebruch_frame):
    p = hirzebruch_frame.base_point
    rows = hk_reduction.gauge_vectors(hirzebruch1, p)
    # two equal rows span one quaternionic line instead of 4k = 8 directions
    monkeypatch.setattr(hk_reduction, "gauge_vectors", lambda ws, q: rows[[0, 0]])
    with pytest.raises(PreconditionError, match="span dimension 4 != 4k = 8"):
        horizontal_frame(hirzebruch1, p)
    # the rank test runs on unit rows, so a tiny but independent row counts
    monkeypatch.setattr(hk_reduction, "gauge_vectors", lambda ws, q: rows * [[1.0], [1e-9]])
    frame = horizontal_frame(hirzebruch1, p)
    H = hirzebruch_frame.horizontal
    assert frame.dim == 8
    assert np.max(np.abs(frame.horizontal.T @ frame.horizontal - H.T @ H)) < 1e-12
