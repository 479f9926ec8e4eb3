"""Data model: weight systems, points, torus actions, quaternionic operators."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkquot import (
    AmbientPoint,
    Cocharacter,
    CotangentPoint,
    DimensionMismatchError,
    PhasedComplex,
    QC,
    WeightSystem,
    act_by_scale,
    act_imaginary,
    act_torus,
    apply_quaternion,
    cotangent_from_real,
    doubled_weights,
    support,
)
from hkquot.git_stability import mu_weight
from hkquot.kempf_ness import kn_gradient, kn_hessian, kn_value
from hkquot.moment_maps import flow_value, j_mu_weight
from hkquot.rep_core import (
    ambient_point_from_json,
    cotangent_point_from_json,
    exact_cocharacter,
    float_cocharacter,
    point_to_json,
    weight_system_from_json,
    weight_system_to_json,
)

from oracles import split_apply_quaternion


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(rank=0, weights=((1,),), theta=(Fraction(0),))
    with pytest.raises(DimensionMismatchError):
        WeightSystem(rank=2, weights=((1,),), theta=(Fraction(0), Fraction(0)))
    with pytest.raises(DimensionMismatchError):
        WeightSystem(rank=1, weights=((1,),), theta=(Fraction(0), Fraction(0)))
    ws = WeightSystem(rank=1, weights=(), theta=(Fraction(1),))
    assert ws.n == 0


def test_weight_system_converts_each_input_type():
    # exact ints and Fractions are kept; numpy ints, bools and strings are
    # converted, once, to the same system
    want = WeightSystem(2, ((1, 0), (-2, 1)), (Fraction(1, 2), Fraction(3)))
    cases = [
        WeightSystem(2, np.array([[1, 0], [-2, 1]]), (Fraction(1, 2), np.int64(3))),
        WeightSystem(2, ((np.int32(1), np.int8(0)), (-2, np.int64(1))), (Fraction(1, 2), 3)),
        WeightSystem(2, ((True, False), (-2, True)), (Fraction(1, 2), 3)),
        WeightSystem(2, (("1", "0"), ("-2", " 1")), ("1/2", "3")),
        weight_system_from_json({"rank": 2, "weights": [[1, 0], [-2, 1]], "theta": ["1/2", 3]}),
    ]
    for ws in cases:
        assert ws == want and hash(ws) == hash(want)
        assert all(type(v) is int for w in ws.weights for v in w)
        assert all(type(t) is Fraction for t in ws.theta)
    assert WeightSystem(1, ((True,),), (True,)) == WeightSystem(1, ((1,),), (Fraction(1),))
    theta = want.theta
    assert all(a is b for a, b in zip(WeightSystem(2, want.weights, theta).theta, theta))
    assert doubled_weights(want).theta == theta
    with pytest.raises(ValueError):
        WeightSystem(2, (("1", "x"),), (0, 0))
    with pytest.raises(DimensionMismatchError):
        WeightSystem(2, np.array([[1, 0, 0]]), (0, 0))


def test_numpy_theta_entries_pair_exactly():
    # a numpy int in theta becomes a Fraction of plain ints, so exact
    # pairings do not wrap at 64 bits
    for t in (np.int64(3), np.int32(3), np.uint8(3)):
        ws = WeightSystem(1, ((1,),), (t,))
        assert type(ws.theta[0].numerator) is int
        assert ws.theta_pairing((2**62,)) == 3 * 2**62


def test_weight_system_pairings(hirzebruch1):
    ws = hirzebruch1
    assert ws.n == 4 and ws.rank == 2
    assert ws.weight_pairing(3, (1, 0)) == -1
    assert ws.theta_pairing((1, -1)) == 0
    assert ws.theta_pairing((0, -2)) == -1
    assert ws.beta_array().shape == (4, 2)
    back = weight_system_from_json(weight_system_to_json(ws))
    assert back == ws


def test_doubled_weights(hirzebruch1):
    dws = doubled_weights(hirzebruch1)
    assert dws.weights[:4] == hirzebruch1.weights
    assert dws.weights[4:] == ((-1, 0), (-1, 0), (0, -1), (1, -1))
    assert dws.theta == hirzebruch1.theta
    single = WeightSystem(1, ((1,),), (Fraction(1, 2),))
    assert doubled_weights(single).weights == ((1,), (-1,))
    # doubling again only repeats the multiset {beta} u {-beta}
    twice = doubled_weights(dws)
    assert sorted(twice.weights) == sorted(dws.weights + dws.weights)


def test_act_imaginary_scalar_example():
    ws = WeightSystem(1, ((1,),), (Fraction(1, 2),))
    v = AmbientPoint.numeric([2.0])
    out = act_imaginary(ws, (1,), math.log(2.0), v)
    assert abs(out.coords[0] - 1.0) < 1e-15
    same = act_imaginary(ws, (0,), 17.3, v)
    assert np.allclose(same.coords, v.coords)


def test_act_imaginary_weight_pattern(hirzebruch1):
    t = 0.37
    p = CotangentPoint.numeric([1, 1, 1, 1], [1, 1, 1, 1])
    out = act_imaginary(hirzebruch1, (1, 0), t, p)
    # base coordinates with weight (1,0) contract, the (-1,1) one expands
    assert np.allclose(out.x, [math.exp(-t), math.exp(-t), 1.0, math.exp(t)])
    # fiber coordinates carry the opposite exponents
    assert np.allclose(out.z, [math.exp(t), math.exp(t), 1.0, math.exp(-t)])


def test_act_imaginary_group_law():
    rng = np.random.default_rng(5)
    ws = WeightSystem(2, ((1, 0), (2, -1), (0, 3)), (Fraction(1), Fraction(1)))
    v = AmbientPoint.numeric(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    xi = (0.7, -0.4)
    a = act_imaginary(ws, xi, 0.3, act_imaginary(ws, xi, 0.5, v))
    b = act_imaginary(ws, xi, 0.8, v)
    assert np.allclose(a.coords, b.coords, rtol=1e-13, atol=0)


def test_act_by_scale_exact_group_law(hirzebruch1):
    p = CotangentPoint.exact(
        [QC.of(1), QC.of("1/2", 1), QC.of(0), QC.of(3)],
        [QC.of(2), QC.of(0), QC.of("1/3"), QC.of(1, 1)],
    )
    xi = (1, -1)
    a = act_by_scale(hirzebruch1, xi, Fraction(2, 3), act_by_scale(hirzebruch1, xi, Fraction(5, 7), p))
    b = act_by_scale(hirzebruch1, xi, Fraction(10, 21), p)
    assert tuple(a.x) == tuple(b.x) and tuple(a.z) == tuple(b.z)
    with pytest.raises(ValueError):
        act_by_scale(hirzebruch1, xi, Fraction(-1), p)


def test_act_torus_preserves_moduli(hirzebruch1):
    t = (PhasedComplex.of(1, "1/3"), PhasedComplex.of(1, "4/7"))
    p = CotangentPoint.exact(
        [PhasedComplex.of("3/2", "1/7")] * 4, [PhasedComplex.of("5/4", "2/5")] * 4
    )
    q = act_torus(hirzebruch1, t, p)
    assert [c.modulus for c in q.x] == [c.modulus for c in p.x]
    assert [c.modulus for c in q.z] == [c.modulus for c in p.z]
    # opposite characters on x and z: the pairwise products are invariant
    for i in range(4):
        assert (q.x[i] * q.z[i]) == (p.x[i] * p.z[i])


def test_act_torus_exact_gaussian():
    ws = WeightSystem(1, ((1,), (-2,)), (Fraction(0),))
    i = QC.of(0, 1)
    p = AmbientPoint.exact([QC.of(3), QC.of(0, "1/2")])
    q = act_torus(ws, (i,), p)
    assert q.coords[0] == QC.of(0, 3)
    # i^{-2} = -1 on the weight -2 coordinate
    assert q.coords[1] == QC.of(0, "-1/2")


def test_support_and_threshold():
    assert support(AmbientPoint.numeric([1, 0, 0, 0])) == frozenset({0})
    assert support(AmbientPoint.numeric([0, 0])) == frozenset()
    assert support(AmbientPoint.numeric([1e-13, 1.0])) == frozenset({1})
    assert support(AmbientPoint.numeric([1e-13, 1.0]), tol=1e-14) == frozenset({0, 1})
    sx, sz = support(CotangentPoint.numeric([0, 0, 1, 0], [0, 0, 0, 1]))
    assert (sx, sz) == (frozenset({2}), frozenset({3}))
    assert support(AmbientPoint.exact([QC.of(0), QC.of("1/7")])) == frozenset({1})


def test_quaternion_relations():
    rng = np.random.default_rng(1)
    I, J, K = (partial(apply_quaternion, op) for op in "IJK")
    for n in (1, 2, 5):
        v = rng.standard_normal(4 * n)
        assert np.array_equal(I(I(v)), -v)
        assert np.array_equal(J(J(v)), -v)
        assert np.array_equal(K(K(v)), -v)
        assert np.array_equal(K(v), I(J(v)))
        assert np.linalg.norm(J(v)) == pytest.approx(np.linalg.norm(v), rel=1e-15)


def test_quaternion_acts_on_matrix_rows():
    rng = np.random.default_rng(2)
    for n in (1, 3):
        M = rng.standard_normal((5, 4 * n))
        for op in "IJK":
            rowwise = np.array([apply_quaternion(op, row) for row in M])
            assert np.array_equal(apply_quaternion(op, M), rowwise)
    with pytest.raises(DimensionMismatchError):
        apply_quaternion("I", np.zeros((2, 6)))


@st.composite
def quaternion_inputs(draw):
    """Arrays with 4n on the last axis: 1-, 2- and 3-D, contiguous, strided
    or transposed, float or int, with signed zeros, infinities and nan."""
    n = draw(st.integers(0, 6))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3), (1, 4, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed", "int", "special")))
    if layout == "strided":
        v = rng.standard_normal(lead + (8 * n,))[..., ::2]
    elif layout == "transposed":
        v = rng.standard_normal((4 * n,) + lead[::-1]).T
    elif layout == "int":
        v = rng.integers(-5, 6, lead + (4 * n,))
    else:
        v = rng.standard_normal(lead + (4 * n,))
        if layout == "special":
            special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])
            mask = rng.random(v.shape) < 0.5
            v[mask] = rng.choice(special, size=int(mask.sum()))
    return v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quaternion_inputs(), st.sampled_from("IJK"))
def test_apply_quaternion_matches_split_oracle(v, op):
    # slicing the last axis gives np.split's blocks, bit for bit
    got, want = apply_quaternion(op, v), split_apply_quaternion(op, v)
    assert got.dtype == want.dtype and got.shape == want.shape == np.shape(v)
    assert got.tobytes() == want.tobytes()


def test_quaternion_j_moves_x_to_y():
    # J(x, y) = (-y, x): a pure-x vector lands in the y block
    v = np.zeros(8)
    v[0] = 1.0
    out = apply_quaternion("J", v)
    want = np.zeros(8)
    want[4] = 1.0
    assert np.array_equal(out, want)
    with pytest.raises(ValueError):
        apply_quaternion("Q", v)


def test_real_vector_round_trip():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = CotangentPoint.numeric(x, z)
    vec = p.real_vector()
    assert vec.shape == (12,)
    q = cotangent_from_real(vec)
    assert np.allclose(q.x, x) and np.allclose(q.z, z)
    # y = conj(z): the third block is Re(conj z) = Re z
    assert np.allclose(vec[6:9], z.real)
    assert np.allclose(vec[9:12], -z.imag)


def test_point_json_round_trip():
    p = AmbientPoint.exact([QC.of("1/2", "-2/3"), QC.of(4)])
    assert tuple(ambient_point_from_json(point_to_json(p)).coords) == tuple(p.coords)
    c = CotangentPoint.exact([QC.of(1), QC.of(0)], [QC.of(0, "5/9"), QC.of(2)])
    back = cotangent_point_from_json(point_to_json(c))
    assert tuple(back.x) == tuple(c.x) and tuple(back.z) == tuple(c.z)


def test_cocharacter_modes():
    e = Cocharacter.exact_from([1, -2])
    assert e.exact and not e.is_zero() and len(e) == 2
    assert e.to_json() == ["1", "-2"]
    z = Cocharacter.exact_from([0, 0])
    assert z.is_zero()
    f = Cocharacter.numeric_from([0.5, 1.5])
    assert not f.exact
    assert np.allclose(f.as_floats(), [0.5, 1.5])


def test_cocharacter_arguments_share_one_coercion(hirzebruch1):
    # a float ndarray, a Cocharacter and a list give the same arrays, and
    # every function taking a cocharacter refuses a wrong length alike
    xi = [Fraction(1, 2), -2]
    want = np.array([0.5, -2.0])
    for arg in (want, Cocharacter.exact_from(xi), Cocharacter.numeric_from(want), xi):
        got = float_cocharacter(hirzebruch1, arg)
        assert got.dtype == float and got.tolist() == want.tolist()
    assert float_cocharacter(hirzebruch1, want) is want
    assert exact_cocharacter(hirzebruch1, Cocharacter.exact_from(xi)) == (Fraction(1, 2), Fraction(-2))
    v = AmbientPoint.numeric([1.0, 1.0, 1.0, 1.0])
    p = CotangentPoint.numeric(np.ones(4), np.ones(4))
    calls = [
        lambda x: exact_cocharacter(hirzebruch1, x),
        lambda x: float_cocharacter(hirzebruch1, x),
        lambda x: mu_weight(hirzebruch1, v, x),
        lambda x: j_mu_weight(hirzebruch1, p, x),
        lambda x: flow_value(hirzebruch1, v, x, 1.0),
        lambda x: act_imaginary(hirzebruch1, x, 1.0, v),
        lambda x: kn_value(hirzebruch1, v, x),
        lambda x: kn_gradient(hirzebruch1, v, x),
        lambda x: kn_hessian(hirzebruch1, v, x),
    ]
    for call in calls:
        for bad in ([1], np.zeros(3), Cocharacter.exact_from([1, 2, 3])):
            with pytest.raises(DimensionMismatchError, match="cocharacter length != rank"):
                call(bad)
