"""Kempf-Ness minimization: values, derivatives, solves, certificates."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hkquot import (
    QC,
    AmbientPoint,
    Cocharacter,
    CotangentPoint,
    DimensionMismatchError,
    PreconditionError,
    UndecidedError,
    WeightSystem,
    act_imaginary,
    classify_point,
    hol_moment,
    instability_certificate,
    mu,
    mu_hyperkahler,
    mu_weight,
    solve_hyperkahler,
    solve_kahler,
)
from hkquot import kempf_ness
from hkquot.git_stability import STABLE, UNSTABLE
from hkquot.kempf_ness import (
    CONVERGED,
    DIVERGED,
    kn_gradient,
    kn_hessian,
    kn_value,
)

from oracles import (
    central_gradient,
    kn_gradient_oracle,
    kn_hessian_oracle,
    kn_value_oracle,
    random_ambient,
    random_weight_system,
)

F = Fraction


def _scalar_ws():
    return WeightSystem(1, ((1,),), (F(1, 2),))


def test_kn_value_scalar_example():
    ws = _scalar_ws()
    v = AmbientPoint.numeric([2.0])
    got = kn_value(ws, v, [math.log(2.0)])
    want = 0.25 + 0.5 * math.log(2.0)
    assert abs(got - want) < 1e-14


def test_kn_value_linear_when_origin():
    ws = WeightSystem(2, ((1, 0), (0, 1)), (F(1, 3), F(-2)))
    origin = AmbientPoint.numeric([0, 0])
    for xi in ([1.0, 0.0], [-3.0, 2.0], [0.5, 0.5]):
        want = float(ws.theta_array() @ np.array(xi))
        assert abs(kn_value(ws, origin, xi) - want) < 1e-14


def test_kn_value_midpoint_convexity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ws = random_weight_system(rng)
        v = random_ambient(rng, ws.n)
        a = rng.standard_normal(ws.rank)
        b = rng.standard_normal(ws.rank)
        mid = kn_value(ws, v, (a + b) / 2)
        assert mid <= (kn_value(ws, v, a) + kn_value(ws, v, b)) / 2 + 1e-12


def test_kn_gradient_is_moment_map():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ws = random_weight_system(rng, nmax=4, kmax=2, wmax=2)
        v = random_ambient(rng, ws.n, zero_prob=0.2)
        xi = 0.3 * rng.standard_normal(ws.rank)
        grad = kn_gradient(ws, v, xi)
        moved = mu(ws, act_imaginary(ws, xi, 1.0, v)).as_floats()
        assert np.allclose(grad, moved, atol=1e-12)
        fd = central_gradient(lambda y: kn_value(ws, v, y), xi, h=1e-5)
        assert np.max(np.abs(fd - grad)) < 1e-6


@st.composite
def kn_inputs(draw):
    """(ws, v, xi) with k <= 4 and n <= 8: numeric or exact points with zero
    coordinates, and xi as a list, tuple, ndarray (strided or of ints) or
    Cocharacter, large enough that the exponentials overflow."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=n, max_size=n))
    theta = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=k, max_size=k))
    ws = WeightSystem(k, tuple(weights), tuple(theta))
    if draw(st.booleans()):
        part = st.one_of(st.just(0.0), st.floats(-50, 50))
        coords = [complex(draw(part), draw(part)) for _ in range(n)]
        v = AmbientPoint.numeric(coords)
    else:
        part = st.one_of(st.just(0), st.fractions(-20, 20, max_denominator=9))
        v = AmbientPoint.exact([QC.of(draw(part), draw(part)) for _ in range(n)])
    vals = draw(st.lists(st.one_of(st.floats(-70, 70), st.integers(-70, 70)), min_size=k, max_size=k))
    form = draw(st.sampled_from(("list", "tuple", "array", "int array", "strided", "exact", "numeric")))
    if form == "list":
        xi = vals
    elif form == "tuple":
        xi = tuple(vals)
    elif form == "array":
        xi = np.array(vals, dtype=float)
    elif form == "int array":
        xi = np.array([int(u) for u in vals])
    elif form == "strided":
        xi = np.repeat(np.array(vals, dtype=float), 2)[::2]
    elif form == "exact":
        xi = Cocharacter.exact_from(int(u) for u in vals)
    else:
        xi = Cocharacter.numeric_from(vals)
    return ws, v, xi


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kn_inputs())
# exp(-2 beta(xi)) overflows at the zero coordinate, which contributes 0:
# the value is -150
@example((WeightSystem(1, ((3,), (-1,)), (F(1, 2),)), AmbientPoint.numeric([0, 1]), [-300.0]))
# and at a nonzero one: the value, gradient and Hessian are infinite
@example((WeightSystem(1, ((3,), (-1,)), (F(1, 2),)), AmbientPoint.numeric([1, 1]), [-300.0]))
@example((WeightSystem(2, ((1, 0), (0, 1)), (F(0), F(1))), AmbientPoint.numeric([0, 0]), (0, 0)))
def test_kn_evaluations_match_oracle_bit_for_bit(args):
    # the value, gradient and Hessian read the system's cached arrays and
    # skip the point and moment-value objects, with the same arithmetic
    ws, v, xi = args
    with np.errstate(all="ignore"):
        value, want = kn_value(ws, v, xi), kn_value_oracle(ws, v, xi)
        assert type(value) is float and value.hex() == want.hex()
        assert _same_bits(kn_gradient(ws, v, xi), kn_gradient_oracle(ws, v, xi))
        assert _same_bits(kn_hessian(ws, v, xi), kn_hessian_oracle(ws, v, xi))


def test_kn_gradient_dimension_errors(hirzebruch1):
    v = AmbientPoint.numeric([1, 0, 1, 0])
    for xi, point in (([0.0], v), ([0.0, 0.0], AmbientPoint.numeric([1, 0, 1]))):
        for grad in (kn_gradient, kn_gradient_oracle):
            with pytest.raises(DimensionMismatchError):
                grad(hirzebruch1, point, xi)


def test_numeric_view_is_shared_and_read_only(hirzebruch1):
    beta, beta_f, theta = hirzebruch1.numeric_view
    assert hirzebruch1.numeric_view[0] is beta
    assert np.array_equal(beta, hirzebruch1.beta_array()) and beta.dtype == np.int64
    assert _same_bits(beta_f, hirzebruch1.beta_array().astype(float))
    assert _same_bits(theta, hirzebruch1.theta_array())
    for arr in (beta, beta_f, theta):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_rowspace_basis_is_one_read_only_array_per_support(hirzebruch1):
    # the Newton basis is built once for each system and support, and no
    # caller can write into the shared array
    Q = kempf_ness._rowspace_basis(hirzebruch1, frozenset({0, 2}))
    assert kempf_ness._rowspace_basis(hirzebruch1, frozenset({2, 0})) is Q
    assert Q.shape == (2, 2) and np.allclose(Q.T @ Q, np.eye(2))
    for arr in (Q, kempf_ness._rowspace_basis(hirzebruch1, frozenset()), *hirzebruch1.numeric_view):
        with pytest.raises(ValueError):
            arr[...] = 0


def test_line_search_overflow_is_silent(monkeypatch):
    # moduli 1e-10 against theta 1/2: the first Newton step is about
    # -2.5e9, where e^{-2 beta(xi)} overflows; the solve halves it without
    # a warning, while kn_value called alone still warns and returns +inf
    ws = WeightSystem(1, ((1,), (-1,)), (Fraction(1, 2),))
    v = AmbientPoint.numeric([1e-5, 1e-5])
    values = []

    def recorded(*args):
        values.append(kn_value(*args))
        return values[-1]

    monkeypatch.setattr(kempf_ness, "kn_value", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_kahler(ws, v)
    assert out.status == CONVERGED and out.residual < 1e-10
    assert math.inf in values
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert kn_value(ws, v, [-2.5e9]) == math.inf


def test_zero_coordinate_contributes_zero_under_the_flow():
    # e^{-2 beta^0(xi)} = e^{1800} overflows (silenced, as the solver
    # silences it), but x_0 = 0 stays 0 along the flow: no 0 * inf = nan, no
    # invalid-value warning, and KN(xi) = <theta, xi> + 1/4 e^{-600}
    ws = WeightSystem(1, ((3,), (-1,)), (F(1, 2),))
    v = AmbientPoint.numeric([0, 1])
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        assert kn_value(ws, v, [-300.0]) == -150.0
        assert np.all(np.isfinite(kn_gradient(ws, v, [-300.0])))
        assert np.all(np.isfinite(kn_hessian(ws, v, [-300.0])))
        flowed = act_imaginary(ws, [-300.0], 1.0, v).coords
        assert flowed[0] == 0 and np.isfinite(flowed[1])


def test_kn_hessian_positive_semidefinite():
    rng = np.random.default_rng(37)
    ws = random_weight_system(rng)
    v = random_ambient(rng, ws.n)
    for _ in range(20):
        xi = rng.standard_normal(ws.rank)
        hess = kn_hessian(ws, v, xi)
        assert np.allclose(hess, hess.T)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.min() >= -1e-10


def test_solve_scalar_converges_to_log_two():
    out = solve_kahler(_scalar_ws(), AmbientPoint.numeric([2.0]))
    assert out.status == CONVERGED
    assert abs(out.xi_star[0] - math.log(2.0)) < 1e-9
    assert out.residual < 1e-10
    assert abs(abs(out.representative.coords[0]) - 1.0) < 1e-10


def test_solve_fixed_point_stays_put(hirzebruch1):
    out = solve_kahler(hirzebruch1, AmbientPoint.numeric([1, 0, 1, 0]))
    assert out.status == CONVERGED
    assert out.iterations == 0
    assert np.array_equal(out.xi_star, np.zeros(2))


def test_solve_unstable_diverges_with_certificate(hirzebruch1):
    v = AmbientPoint.numeric([1, 1, 0, 0])
    out = solve_kahler(hirzebruch1, v)
    assert out.status == DIVERGED
    assert out.certificate is not None
    assert mu_weight(hirzebruch1, v, out.certificate) < 0
    assert out.representative is None


def test_solve_strictly_semistable_is_undecided():
    ws = WeightSystem(1, ((1,), (1,)), (F(0),))
    with pytest.raises(UndecidedError):
        solve_kahler(ws, AmbientPoint.numeric([1.0, 0.5]))


def test_solve_agrees_with_classification():
    rng = np.random.default_rng(43)
    n_conv = n_div = 0
    for _ in range(60):
        ws = random_weight_system(rng)
        v = random_ambient(rng, ws.n)
        verdict = classify_point(ws, v)
        try:
            out = solve_kahler(ws, v)
        except UndecidedError:
            assert verdict.status != STABLE
            assert not verdict.polystable
            continue
        if out.status == CONVERGED:
            n_conv += 1
            assert verdict.status == STABLE or verdict.polystable
            rep = mu(ws, out.representative).norm()
            assert rep < 1e-10
            want = float(np.linalg.norm(kn_gradient_oracle(ws, v, out.xi_star)))
            assert out.residual == want
        else:
            n_div += 1
            assert verdict.status == UNSTABLE
            assert mu_weight(ws, v, out.certificate) < 0
    assert n_conv > 5 and n_div > 5


def test_converged_moduli_unique_across_orbit():
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(300):
        if checked == 10:
            break
        ws = random_weight_system(rng, nmax=5)
        v = random_ambient(rng, ws.n, zero_prob=0.15)
        verdict = classify_point(ws, v)
        if verdict.status != STABLE:
            continue
        first = solve_kahler(ws, v)
        # move along the orbit, then solve again: moduli must agree
        shift = rng.standard_normal(ws.rank)
        moved = act_imaginary(ws, shift, 1.0, v)
        second = solve_kahler(ws, moved)
        assert first.status == CONVERGED and second.status == CONVERGED
        m1 = np.abs(np.asarray(first.representative.coords))
        m2 = np.abs(np.asarray(second.representative.coords))
        assert np.max(np.abs(m1 - m2)) < 1e-8
        checked += 1
    assert checked == 10


def test_solve_hyperkahler_zero_section_fixed_point(hirzebruch1):
    p = CotangentPoint.numeric([1, 0, 1, 0], [0, 0, 0, 0])
    out = solve_hyperkahler(hirzebruch1, p)
    assert out.status == CONVERGED
    assert np.allclose(out.xi_star, 0.0)
    assert out.residual < 1e-9


def test_solve_hyperkahler_slice_family(hirzebruch1):
    p = CotangentPoint.numeric([0, 0, 1, 0], [0.7 + 0.2j, 0.3 - 0.5j, 0, 1])
    assert hol_moment(hirzebruch1, p).norm() < 1e-12
    out = solve_hyperkahler(hirzebruch1, p)
    assert out.status == CONVERGED
    assert mu_hyperkahler(hirzebruch1, out.representative).norm() < 1e-9
    assert isinstance(out.representative, CotangentPoint)


def test_solve_hyperkahler_rejects_nonzero_hol_moment(hirzebruch1):
    p = CotangentPoint.numeric([1, 0, 1, 0], [1, 0, 0, 0])
    assert hol_moment(hirzebruch1, p).norm() > 1e-3
    with pytest.raises(PreconditionError):
        solve_hyperkahler(hirzebruch1, p)


def test_instability_certificate_examples(hirzebruch1):
    cases = [
        AmbientPoint.numeric([1, 1, 0, 0]),
        AmbientPoint.numeric([0, 0, 0, 1]),
        AmbientPoint.numeric([0, 0, 0, 0]),
    ]
    for v in cases:
        cert = instability_certificate(hirzebruch1, v)
        assert mu_weight(hirzebruch1, v, cert) < 0
    with pytest.raises(PreconditionError):
        instability_certificate(hirzebruch1, AmbientPoint.numeric([1, 0, 1, 0]))
