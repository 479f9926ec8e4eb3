"""Moment maps for the torus action on V and T*V, J-weights, flow traces.

Conventions (fixed once here, inherited everywhere):

    <mu(v), e_a>      = -1/2 sum_i beta^i_a |v_i|^2 + theta_a
    <M(x, z), e_a>    = sqrt(-1) sum_i beta^i_a x_i z_i
    <mu_I(x, z), e_a> = -1/2 sum_i beta^i_a (|x_i|^2 - |z_i|^2) + theta_a
    mu_hk             = (mu_I, Re M, Im M)
    psi(x, z)         = -1/2 sum_i |z_i|^2

All evaluations are exact on exact points (Fractions / Gaussian
rationals) and float on numeric ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .rep_core import (
    AmbientPoint,
    CotangentPoint,
    WeightSystem,
    doubled_weights,
    exact_abs2,
    exact_cocharacter,
    float_cocharacter,
    support,
)
from .scalars import QC, format_rational

KAHLER = "kahler"
HOLOMORPHIC = "holomorphic"
HYPERKAHLER = "hyperkahler"

FLOW_HORIZON = 30.0
FLOW_CAP = 1e6


@dataclass(frozen=True)
class MomentValue:
    """A tagged moment-map value; the vector is exact or float per input."""

    kind: str
    value: tuple

    def as_floats(self) -> np.ndarray:
        out = []
        for v in self.value:
            if isinstance(v, QC):
                out.extend([float(v.re), float(v.im)])
            elif isinstance(v, complex):
                out.extend([v.real, v.imag])
            else:
                out.append(float(v))
        return np.array(out)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_floats()))

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, QC):
                return [format_rational(v.re), format_rational(v.im)]
            if isinstance(v, Fraction):
                return format_rational(v)
            if isinstance(v, complex):
                return [v.real, v.imag]
            return float(v)

        return {"kind": self.kind, "value": [enc(v) for v in self.value]}


def mu(ws: WeightSystem, v: AmbientPoint) -> MomentValue:
    """Kahler moment map of the V-action, shifted by theta."""
    if v.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    mods = v.moduli_squared()
    if v.is_exact:
        vals = []
        for a in range(ws.rank):
            s = sum((Fraction(ws.weights[i][a]) * mods[i] for i in range(ws.n)), Fraction(0))
            vals.append(ws.theta[a] - s / 2)
        return MomentValue(KAHLER, tuple(vals))
    # the int weights: float ones would go to BLAS, which may round otherwise
    arr = ws.numeric_view[2] - 0.5 * (ws.numeric_view[0].T @ np.array(mods, dtype=float))
    return MomentValue(KAHLER, tuple(float(x) for x in arr))


def hol_moment(ws: WeightSystem, p: CotangentPoint) -> MomentValue:
    """Holomorphic symplectic moment map M(x, z) = sqrt(-1) sum beta^i x_i z_i."""
    if p.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    if p.is_exact and all(isinstance(c, QC) for c in p.x) and all(
        isinstance(c, QC) for c in p.z
    ):
        vals = []
        for a in range(ws.rank):
            s = QC(Fraction(0), Fraction(0))
            for i in range(ws.n):
                s = s + (p.x[i] * p.z[i]) * Fraction(ws.weights[i][a])
            vals.append(s.times_i())
        return MomentValue(HOLOMORPHIC, tuple(vals))
    q = p.to_numeric()
    prod = q.x * q.z
    vals = 1j * (prod @ ws.numeric_view[1])
    return MomentValue(HOLOMORPHIC, tuple(complex(v) for v in vals))


def mu_hyperkahler(ws: WeightSystem, p: CotangentPoint) -> MomentValue:
    """The triple (mu_I, Re M, Im M) as a real 3k-vector."""
    if p.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    hol = hol_moment(ws, p)
    if p.is_exact and all(isinstance(c, QC) for c in tuple(p.x) + tuple(p.z)):
        # the doubled weights carry -beta on the fiber, so their mu is mu_I
        mu_i = mu(doubled_weights(ws), p.as_doubled_ambient()).value
        re_m = tuple(v.re for v in hol.value)
        im_m = tuple(v.im for v in hol.value)
        return MomentValue(HYPERKAHLER, mu_i + re_m + im_m)
    q = p.to_numeric()
    mods = np.abs(q.x) ** 2 - np.abs(q.z) ** 2
    mu_i = ws.numeric_view[2] - 0.5 * (ws.numeric_view[1].T @ mods)
    hv = np.array(hol.value, dtype=complex)
    vals = list(map(float, mu_i)) + list(map(float, hv.real)) + list(map(float, hv.imag))
    return MomentValue(HYPERKAHLER, tuple(vals))


def psi(p: CotangentPoint) -> Fraction | float:
    """The U(1) moment map -1/2 ||z||^2 (nonpositive; 0 on the zero section)."""
    if p.is_exact:
        return -sum((exact_abs2(c) for c in p.z), Fraction(0)) / 2
    return float(-0.5 * np.sum(np.abs(p.z) ** 2))


def j_mu_weight(ws: WeightSystem, p: CotangentPoint, xi, tol: float = 1e-10):
    """J-weight of (p, xi): always 0 or +inf.

    Zero iff for every coordinate either beta^i(xi) = 0 or
    x_i = sgn(beta^i(xi)) * i * conj(z_i); the coordinate then contracts
    along the J-flow instead of blowing up.  The condition is homogeneous,
    so a numeric point meets it within tol times its largest modulus.
    """
    exact_xi = exact_cocharacter(ws, xi)
    if p.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    exact = p.is_exact and all(isinstance(c, QC) for c in tuple(p.x) + tuple(p.z))
    q = None if exact else p.to_numeric()
    cut = 0.0 if exact else tol * max(np.abs(q.x).max(initial=0.0), np.abs(q.z).max(initial=0.0))
    for i in range(ws.n):
        lam = ws.weight_pairing(i, exact_xi)
        if lam == 0:
            continue
        s = 1 if lam > 0 else -1
        if exact:
            rhs = p.z[i].conj().times_i() * Fraction(s)
            if not (p.x[i] - rhs).is_zero():
                return math.inf
        else:
            rhs = s * 1j * np.conj(q.z[i])
            if abs(q.x[i] - rhs) > cut:
                return math.inf
    return 0


def flow_value(ws: WeightSystem, v: AmbientPoint, xi, t: float) -> float:
    """<mu(exp(sqrt(-1) t xi) v), xi> in closed form, capped at FLOW_CAP."""
    xi_arr = float_cocharacter(ws, xi)
    lam = ws.numeric_view[1] @ xi_arr
    mods = np.array(v.to_numeric().moduli_squared(), dtype=float)
    # only the support contributes; a dead coordinate with a growing
    # exponent would otherwise poison the sum with 0 * inf
    live = sorted(support(v))
    theta_term = float(ws.numeric_view[2] @ xi_arr)
    with np.errstate(over="ignore"):
        scaled = mods[live] * np.exp(-2.0 * lam[live] * t)
    val = -0.5 * float(np.dot(scaled, lam[live])) + theta_term
    if not math.isfinite(val) or val > FLOW_CAP:
        return math.inf
    return val


def flow_trace(ws: WeightSystem, v: AmbientPoint, xi, t_grid: Sequence[float]) -> list[float]:
    """Sample t -> <mu(exp(sqrt(-1) t xi) v), xi> on an increasing grid.

    The sequence is non-decreasing (up to roundoff); values past the cap,
    or float overflow, are flagged as +inf.
    """
    ts = list(t_grid)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be non-decreasing")
    if v.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    return [flow_value(ws, v, xi, t) for t in ts]


def flow_tail(ws: WeightSystem, v: AmbientPoint, xi) -> float:
    """Tail estimate of the mu-weight: the flow value at FLOW_HORIZON.

    +inf past FLOW_CAP (the divergent case), otherwise the finite limit
    estimate.
    """
    return flow_value(ws, v, xi, FLOW_HORIZON)
