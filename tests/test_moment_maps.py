"""Moment maps: Kahler mu, holomorphic M, hyperkahler triple, psi, J-weights, flows."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hkquot import (
    AmbientPoint,
    CotangentPoint,
    PhasedComplex,
    QC,
    WeightSystem,
    act_torus,
    hol_moment,
    j_mu_weight,
    mu,
    mu_hyperkahler,
    mu_weight,
    psi,
)
from hkquot.moment_maps import flow_tail, flow_trace, flow_value

from oracles import (
    j_flow_value,
    random_ambient,
    random_cocharacter,
    random_weight_system,
)

F = Fraction


def _hirzebruch(n, c0=1, c1=1):
    return WeightSystem(
        2, ((1, 0), (1, 0), (0, 1), (-n, 1)), (F(c0, 2), F(c1, 2))
    )


def test_mu_exact_values(hirzebruch1):
    v = AmbientPoint.exact([QC.of(1), QC.of(0), QC.of(1), QC.of(0)])
    out = mu(hirzebruch1, v)
    assert out.kind == "kahler"
    assert out.value == (F(0), F(0))
    origin = AmbientPoint.exact([QC.of(0)] * 4)
    assert mu(hirzebruch1, origin).value == hirzebruch1.theta


def test_mu_is_phase_invariant(hirzebruch1):
    rng = np.random.default_rng(0)
    v = AmbientPoint.numeric(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    t = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    w = act_torus(hirzebruch1, t, v)
    assert np.allclose(mu(hirzebruch1, w).as_floats(), mu(hirzebruch1, v).as_floats())


def test_hol_moment_matches_displayed_polynomial():
    # M = i(x0 z0 + x1 z1 - n x3 z3, x2 z2 + x3 z3) on the cotangent system
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        ws = _hirzebruch(n)
        for _ in range(5):
            x = [QC.of(int(a), int(b)) for a, b in rng.integers(-3, 4, size=(4, 2))]
            z = [QC.of(int(a), int(b)) for a, b in rng.integers(-3, 4, size=(4, 2))]
            p = CotangentPoint.exact(x, z)
            got = hol_moment(ws, p)
            assert got.kind == "holomorphic"
            first = (x[0] * z[0] + x[1] * z[1] - QC.of(n) * (x[3] * z[3])).times_i()
            second = (x[2] * z[2] + x[3] * z[3]).times_i()
            assert got.value == (first, second)


def test_hol_moment_zero_section_and_invariance(hirzebruch1):
    zero_fiber = CotangentPoint.exact([QC.of(2), QC.of(1), QC.of(0), QC.of(5)], [QC.of(0)] * 4)
    assert all(c.is_zero() for c in hol_moment(hirzebruch1, zero_fiber).value)

    p = CotangentPoint.exact(
        [QC.of(1, 2), QC.of(0, 1), QC.of(3), QC.of(1)],
        [QC.of(2, -1), QC.of(1), QC.of(0, 2), QC.of(-1, 1)],
    )
    i = QC.of(0, 1)
    q = act_torus(hirzebruch1, (i, i * i), p)
    assert hol_moment(hirzebruch1, q).value == hol_moment(hirzebruch1, p).value


def test_mu_hyperkahler_exact_slice_value():
    for n, c0, c1 in [(1, 1, 1), (2, 3, 1), (3, 1, 5)]:
        ws = _hirzebruch(n, c0, c1)
        p = CotangentPoint.exact(
            [QC.of(0), QC.of(0), QC.of(1), QC.of(0)],
            [QC.of(0), QC.of(0), QC.of(0), QC.of(1)],
        )
        out = mu_hyperkahler(ws, p)
        assert out.kind == "hyperkahler"
        assert out.value == (F(c0 - n, 2), F(c1, 2), F(0), F(0), F(0), F(0))


def test_mu_hyperkahler_restricts_to_mu_on_zero_section():
    rng = np.random.default_rng(6)
    for _ in range(10):
        ws = random_weight_system(rng, nmax=5)
        x = rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n)
        p = CotangentPoint.numeric(x, np.zeros(ws.n, dtype=complex))
        hk = mu_hyperkahler(ws, p).as_floats()
        base = mu(ws, AmbientPoint.numeric(x)).as_floats()
        assert np.allclose(hk[: ws.rank], base)
        assert np.allclose(hk[ws.rank :], 0.0)


def test_psi_values_and_descent(hirzebruch1):
    zero = CotangentPoint.exact([QC.of(1)] * 4, [QC.of(0)] * 4)
    assert psi(zero) == 0
    unit = CotangentPoint.exact(
        [QC.of(0)] * 4, [QC.of(1), QC.of(0), QC.of(0), QC.of(0)]
    )
    assert psi(unit) == F(-1, 2)
    p = CotangentPoint.exact(
        [PhasedComplex.of(1)] * 4, [PhasedComplex.of("3/2", "1/7")] * 4
    )
    t = (PhasedComplex.of(1, "1/3"), PhasedComplex.of(1, "5/8"))
    assert psi(act_torus(hirzebruch1, t, p)) == psi(p)


def test_j_mu_weight_zero_criterion(hirzebruch1):
    rng = np.random.default_rng(2)
    xi = (1, -2)
    lam = [hirzebruch1.weight_pairing(i, xi) for i in range(4)]
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # x_i = sgn(lam_i) * i * conj(z_i) forces the flow value to zero
    x = np.array([np.sign(l) * 1j * np.conj(c) for l, c in zip(lam, z)])
    p = CotangentPoint.numeric(x, z)
    assert j_mu_weight(hirzebruch1, p, xi) == 0

    generic = CotangentPoint.numeric(
        rng.standard_normal(4) + 1j * rng.standard_normal(4),
        rng.standard_normal(4) + 1j * rng.standard_normal(4),
    )
    assert j_mu_weight(hirzebruch1, generic, xi) == math.inf
    assert j_mu_weight(hirzebruch1, generic, (0, 0)) == 0


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_j_mu_weight_zero_test_is_relative_to_the_point(scale):
    # the J-zero condition is homogeneous in (x, z): a point and its
    # rescalings read the same weight, exact zero or off by a relative 1e-6
    ws = WeightSystem(1, ((1,), (1,)), (F(1, 2),))
    z = scale * np.array([1 + 2j, 0.5 - 1j])
    x = 1j * np.conj(z)
    assert j_mu_weight(ws, CotangentPoint.numeric(x, z), (1,)) == 0
    off = x * np.array([1 + 1e-6, 1])
    assert j_mu_weight(ws, CotangentPoint.numeric(off, z), (1,)) == math.inf


def test_j_mu_weight_codomain_and_flow_oracle():
    rng = np.random.default_rng(13)
    agree = 0
    for _ in range(100):
        ws = random_weight_system(rng, wmax=2)
        p = CotangentPoint.numeric(
            rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n),
            rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n),
        )
        xi = random_cocharacter(rng, ws.rank, bound=2)
        w = j_mu_weight(ws, p, xi)
        assert w in (0, math.inf)
        # closed-form hyperbolic flow: bounded iff the weight is zero
        grown = abs(j_flow_value(ws, p, xi, 14.0)) > 1e3
        assert (w == math.inf) == grown
        agree += 1
    assert agree == 100


def test_flow_trace_scalar_closed_form():
    ws = WeightSystem(1, ((1,),), (F(1, 2),))
    v = AmbientPoint.numeric([1.0])
    grid = np.linspace(0.0, 5.0, 21)
    got = flow_trace(ws, v, (1,), grid)
    want = [-0.5 * math.exp(-2 * t) + 0.5 for t in grid]
    assert np.allclose(got, want, atol=1e-12)
    flat = flow_trace(ws, v, (0,), grid)
    assert np.allclose(flat, 0.0)


def test_flow_trace_monotone():
    rng = np.random.default_rng(21)
    grid = np.linspace(0.0, 8.0, 33)
    for _ in range(20):
        ws = random_weight_system(rng)
        v = random_ambient(rng, ws.n)
        xi = random_cocharacter(rng, ws.rank)
        values = flow_trace(ws, v, xi, grid)
        finite = [t for t in values if t != math.inf]
        for a, b in zip(finite, finite[1:]):
            assert b >= a - 1e-12


def test_flow_tail_matches_mu_weight(hirzebruch1):
    v = AmbientPoint.numeric([1, 0, 0, 0])
    assert flow_tail(hirzebruch1, v, (-1, 0)) == math.inf
    assert mu_weight(hirzebruch1, v, (-1, 0)) == math.inf
    tail = flow_tail(hirzebruch1, v, (0, -1))
    assert abs(tail - float(F(-1, 2))) < 1e-9

    rng = np.random.default_rng(17)
    for _ in range(30):
        ws = random_weight_system(rng)
        v = random_ambient(rng, ws.n)
        xi = random_cocharacter(rng, ws.rank)
        comb = mu_weight(ws, v, xi)
        tail = flow_tail(ws, v, xi)
        if comb == math.inf:
            assert tail == math.inf
        else:
            assert abs(tail - float(comb)) < 1e-9


def test_flow_value_overflow_is_infinite():
    ws = WeightSystem(1, ((-1,),), (F(0),))
    v = AmbientPoint.numeric([1.0])
    assert flow_value(ws, v, (1,), 400.0) == math.inf


def test_flow_value_reads_the_support_relative_to_the_point():
    # a tiny point on CP^1 still diverges along xi = -1: its coordinates
    # are nonzero relative to each other, as `support` reads them; an exact
    # zero stays out of the sum even where its exponent overflows
    cp1 = WeightSystem(rank=1, weights=((1,), (1,)), theta=(F(1),))
    opposite = WeightSystem(rank=1, weights=((1,), (-1,)), theta=(F(1),))
    for scale in (1.0, 1e-8, 1e-13, 1e8):
        assert flow_value(cp1, AmbientPoint.numeric([scale, scale]), [-1], 60.0) == math.inf
        assert flow_value(opposite, AmbientPoint.numeric([scale, 0.0]), [1], 400.0) == 1.0
