"""Data model: weight systems, points, and the flat quaternionic structure.

A torus (C*)^k acts linearly on V = C^n with integer weights beta^1..beta^n
(one per coordinate) and a rational character theta.  The cotangent bundle
T*V doubles the coordinates with the opposite weights on the fibers.  The
real model identifies T*V with R^{4n} via

    [Re x, Im x, Re y, Im y],   y_i = conjugate(z_i),

and carries the flat quaternionic triple

    I(x, y) = (ix, -iy),   J(x, y) = (-y, x),   K = I o J.

Scalars are dual-mode: exact (QC / PhasedComplex coordinates) for all
combinatorics, numpy complex arrays for flows and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Integral
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError
from .scalars import QC, PhasedComplex, format_qc, format_rational, parse_qc, parse_rational

#: share of a point's largest modulus at or below which a numeric coordinate
#: counts as zero
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class WeightSystem:
    """Integer weight matrix plus rational character.

    rank: torus dimension k.
    weights: n vectors in Z^k, one per coordinate of V.
    theta: exact vector in Q^k.
    """

    rank: int
    weights: tuple[tuple[int, ...], ...]
    theta: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("torus rank must be >= 1")
        # exact ints and Fractions are kept; numpy ints, bools, strings
        # converted, integers through int(): Fraction keeps a numpy numerator
        weights = tuple(tuple(map(int, w)) for w in self.weights)
        theta = tuple(
            t if type(t) is Fraction else Fraction(int(t) if isinstance(t, Integral) else t)
            for t in self.theta
        )
        for w in weights:
            if len(w) != self.rank:
                raise DimensionMismatchError(f"weight {w} has length != rank {self.rank}")
        if len(theta) != self.rank:
            raise DimensionMismatchError("theta length != rank")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "theta", theta)
        # the exact layers' memos key on the system: hash it once
        object.__setattr__(self, "_hash", hash((self.rank, weights, theta)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.weights)

    def beta_array(self) -> np.ndarray:
        """Weights as an (n, k) int array."""
        return np.array(self.weights, dtype=np.int64).reshape(self.n, self.rank)

    def theta_array(self) -> np.ndarray:
        return np.array([float(t) for t in self.theta])

    @cached_property
    def numeric_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(beta_array(), its float copy, theta_array()), built once per
        system and read-only; the numeric hot paths share these arrays."""
        arrays = (self.beta_array(), self.beta_array().astype(float), self.theta_array())
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def weight_pairing(self, i: int, xi: Sequence) -> object:
        """beta^i(xi); exact if xi is exact."""
        return sum(w * x for w, x in zip(self.weights[i], xi))

    def theta_pairing(self, xi: Sequence) -> object:
        return sum(t * x for t, x in zip(self.theta, xi))


def weight_system_from_json(data: dict) -> WeightSystem:
    try:
        rank, weights = data["rank"], data["weights"]
        theta = tuple(parse_rational(t) for t in data["theta"])
    except KeyError as exc:
        raise ValueError(f"weight system JSON missing field {exc}") from None
    # int() would read JSON's true, or 1.7, as an integer silently
    for v in (rank, *(v for w in weights for v in w)):
        if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"not an integer: {v!r}")
    return WeightSystem(rank=int(rank), weights=weights, theta=theta)


def weight_system_to_json(ws: WeightSystem) -> dict:
    return {
        "rank": ws.rank,
        "weights": [list(w) for w in ws.weights],
        "theta": [format_rational(t) for t in ws.theta],
    }


@dataclass(frozen=True)
class Cocharacter:
    """A one-parameter subgroup direction xi.

    Exact cocharacters hold Fractions (certificates are integral and
    primitive); numeric ones hold floats.
    """

    xi: tuple
    exact: bool = True

    @staticmethod
    def exact_from(vec: Iterable) -> "Cocharacter":
        return Cocharacter(tuple(Fraction(v) for v in vec), exact=True)

    @staticmethod
    def numeric_from(vec: Iterable) -> "Cocharacter":
        return Cocharacter(tuple(float(v) for v in vec), exact=False)

    def __len__(self) -> int:
        return len(self.xi)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.xi])

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.xi)

    def to_json(self) -> list:
        if self.exact:
            return [format_rational(Fraction(v)) for v in self.xi]
        return [float(v) for v in self.xi]


def exact_cocharacter(ws: WeightSystem, xi: Cocharacter | Sequence) -> tuple[Fraction, ...]:
    """A cocharacter argument as Fractions, refused unless of length k."""
    out = tuple(Fraction(v) for v in (xi.xi if isinstance(xi, Cocharacter) else xi))
    if len(out) != ws.rank:
        raise DimensionMismatchError("cocharacter length != rank")
    return out


def float_cocharacter(ws: WeightSystem, xi: Cocharacter | Sequence) -> np.ndarray:
    """A cocharacter argument as floats, refused unless of length k; a
    contiguous float ndarray passes through uncopied."""
    if not isinstance(xi, np.ndarray):
        xi = [float(v) for v in (xi.xi if isinstance(xi, Cocharacter) else xi)]
    out = np.ascontiguousarray(xi, dtype=float)
    if len(out) != ws.rank:
        raise DimensionMismatchError("cocharacter length != rank")
    return out


Scalar = Union[QC, PhasedComplex, complex]


def _coords_tuple_or_array(coords) -> tuple | np.ndarray:
    if isinstance(coords, np.ndarray):
        return np.asarray(coords, dtype=complex)
    coords = tuple(coords)
    if coords and isinstance(coords[0], (QC, PhasedComplex)):
        return coords
    return np.array([complex(c) for c in coords], dtype=complex)


@dataclass(frozen=True, eq=False)
class AmbientPoint:
    """A point of V = C^n; exact (QC/PhasedComplex tuple) or numeric (ndarray)."""

    coords: tuple | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _coords_tuple_or_array(self.coords))

    @staticmethod
    def exact(coords: Iterable[QC | PhasedComplex]) -> "AmbientPoint":
        return AmbientPoint(tuple(coords))

    @staticmethod
    def numeric(coords) -> "AmbientPoint":
        return AmbientPoint(np.asarray(coords, dtype=complex))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.coords, np.ndarray)

    def to_numeric(self) -> "AmbientPoint":
        if not self.is_exact:
            return self
        return AmbientPoint(np.array([c.to_complex() for c in self.coords], dtype=complex))

    def moduli_squared(self) -> list:
        """|v_i|^2 per coordinate; Fractions in exact mode."""
        if self.is_exact:
            return [exact_abs2(c) for c in self.coords]
        return list(np.abs(self.coords) ** 2)


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """A point of X = T*V: base coordinates x and fiber coordinates z.

    The fiber carries weight -beta^i.  The derived real form uses
    y_i = conjugate(z_i).
    """

    x: tuple | np.ndarray
    z: tuple | np.ndarray

    def __post_init__(self):
        x = _coords_tuple_or_array(self.x)
        z = _coords_tuple_or_array(self.z)
        if len(x) != len(z):
            raise DimensionMismatchError("x and z lengths differ")
        if isinstance(x, np.ndarray) != isinstance(z, np.ndarray):
            raise ValueError("x and z must share a scalar mode")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @staticmethod
    def exact(x, z) -> "CotangentPoint":
        return CotangentPoint(tuple(x), tuple(z))

    @staticmethod
    def numeric(x, z) -> "CotangentPoint":
        return CotangentPoint(np.asarray(x, dtype=complex), np.asarray(z, dtype=complex))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.x, np.ndarray)

    def to_numeric(self) -> "CotangentPoint":
        if not self.is_exact:
            return self
        return CotangentPoint.numeric(
            [c.to_complex() for c in self.x], [c.to_complex() for c in self.z]
        )

    def as_doubled_ambient(self) -> AmbientPoint:
        """The 2n-coordinate point (x, z) for the doubled weight system."""
        if self.is_exact:
            return AmbientPoint(tuple(self.x) + tuple(self.z))
        return AmbientPoint(np.concatenate([self.x, self.z]))

    def real_vector(self) -> np.ndarray:
        """[Re x, Im x, Re y, Im y] with y = conj(z)."""
        p = self.to_numeric()
        y = np.conj(p.z)
        return np.concatenate([p.x.real, p.x.imag, y.real, y.imag])


def cotangent_from_real(vec: np.ndarray) -> CotangentPoint:
    """Inverse of CotangentPoint.real_vector."""
    vec = np.asarray(vec, dtype=float)
    if len(vec) % 4:
        raise DimensionMismatchError("real vector length must be 4n")
    n = len(vec) // 4
    x = vec[0:n] + 1j * vec[n : 2 * n]
    y = vec[2 * n : 3 * n] + 1j * vec[3 * n : 4 * n]
    return CotangentPoint.numeric(x, np.conj(y))


def exact_abs2(c) -> Fraction:
    """|c|^2 as a Fraction for exact scalar types."""
    if isinstance(c, QC):
        return c.abs2()
    if isinstance(c, PhasedComplex):
        return c.modulus * c.modulus
    raise TypeError(f"no exact |.|^2 for {type(c)!r}")


def _is_zero_scalar(c, tol: float) -> bool:
    if isinstance(c, (QC, PhasedComplex)):
        return c.is_zero()
    return abs(c) < tol


def support(p: AmbientPoint | CotangentPoint, tol: float = SUPPORT_TOL):
    """Indices of nonzero coordinates.

    Ambient points give one frozenset; cotangent points give the pair
    (supp x, supp z).  A numeric coordinate counts as zero when its modulus
    is at most tol times the largest modulus in the point, so a rescaled
    point keeps its support.
    """
    cotangent = isinstance(p, CotangentPoint)
    parts = (p.x, p.z) if cotangent else (p.coords,)
    if isinstance(parts[0], np.ndarray):
        mods = [np.abs(part).tolist() for part in parts]
        cut = tol * max(max(m, default=0.0) for m in mods)
        sets = [frozenset(i for i, a in enumerate(m) if a > cut) for m in mods]
    else:
        sets = [
            frozenset(i for i, c in enumerate(part) if not _is_zero_scalar(c, tol))
            for part in parts
        ]
    return tuple(sets) if cotangent else sets[0]


@lru_cache(maxsize=64)
def doubled_weights(ws: WeightSystem) -> WeightSystem:
    """Weights of the T*V action: (beta^1..beta^n, -beta^1..-beta^n), same theta."""
    negs = tuple(tuple(-v for v in w) for w in ws.weights)
    return WeightSystem(rank=ws.rank, weights=ws.weights + negs, theta=ws.theta)


def flow_factors(exponent: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """np.exp(exponent), 0 where coords is 0: a zero coordinate stays 0,
    not 0 * inf = nan, where its factor overflows."""
    factors = np.exp(exponent)
    factors[coords == 0] = 0.0
    return factors


def act_imaginary(ws: WeightSystem, xi: Cocharacter | Sequence, t: float, p):
    """Flow by exp(sqrt(-1) t xi): coordinate i scales by e^{-beta^i(xi) t}.

    On cotangent points the fiber coordinate z_i scales by e^{+beta^i(xi) t}.
    Numeric output; a zero coordinate stays 0 (`flow_factors`).
    """
    lam = ws.numeric_view[0] @ float_cocharacter(ws, xi)
    if p.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    q = p.to_numeric()
    if isinstance(p, CotangentPoint):
        return CotangentPoint.numeric(q.x * flow_factors(-lam * t, q.x), q.z * flow_factors(lam * t, q.z))
    return AmbientPoint(q.coords * flow_factors(-lam * t, q.coords))


def act_by_scale(ws: WeightSystem, xi: Sequence[int], r: Fraction, p):
    """Exact multiplicative form of act_imaginary: scale by r^{-beta^i(xi)}.

    With r = e^t this is the same flow, but for rational r and integer xi it
    stays inside exact scalars, so group-law identities can be tested with
    equality instead of tolerances.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scale must be positive")
    lam = [int(ws.weight_pairing(i, xi)) for i in range(ws.n)]

    def scale(c, e: int):
        f = r ** (-e)
        if isinstance(c, QC):
            return c * f
        if isinstance(c, PhasedComplex):
            return PhasedComplex(c.modulus * f, c.phase)
        return c * float(f)

    if isinstance(p, CotangentPoint):
        return CotangentPoint(
            tuple(scale(c, e) for c, e in zip(p.x, lam)),
            tuple(scale(c, -e) for c, e in zip(p.z, lam)),
        )
    return AmbientPoint(tuple(scale(c, e) for c, e in zip(p.coords, lam)))


def act_torus(ws: WeightSystem, tvec: Sequence[Scalar], p):
    """Act by a torus element t: v_i -> t^{beta^i} v_i, z_i -> t^{-beta^i} z_i.

    Works for any scalar type with * and integer ** (complex, QC with
    nonzero entries, PhasedComplex); exactness follows the inputs.
    """
    if len(tvec) != ws.rank:
        raise DimensionMismatchError("torus element length != rank")

    def char(i: int, sign: int):
        f = None
        for t_a, e in zip(tvec, ws.weights[i]):
            factor = t_a ** (sign * e)
            f = factor if f is None else f * factor
        return f

    if isinstance(p, CotangentPoint):
        xs = tuple(c * char(i, 1) for i, c in enumerate(p.x))
        zs = tuple(c * char(i, -1) for i, c in enumerate(p.z))
        if not p.is_exact:
            return CotangentPoint.numeric(list(xs), list(zs))
        return CotangentPoint(xs, zs)
    cs = tuple(c * char(i, 1) for i, c in enumerate(p.coords))
    if not p.is_exact:
        return AmbientPoint.numeric(list(cs))
    return AmbientPoint(cs)


def apply_quaternion(op: str, v: np.ndarray) -> np.ndarray:
    """Apply I, J or K to a real 4n-vector, or to each row of a matrix of them.

    With v = [Re x, Im x, Re y, Im y] on the last axis,
    I v = [-Im x, Re x, Im y, -Re y], J v = [-Re y, -Im y, Re x, Im x] and
    K = I o J.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % 4:
        raise DimensionMismatchError("real vector length must be 4n")
    n = v.shape[-1] // 4
    xr, xi, yr, yi = v[..., :n], v[..., n : 2 * n], v[..., 2 * n : 3 * n], v[..., 3 * n :]
    if op == "I":
        blocks = [-xi, xr, yi, -yr]
    elif op == "J":
        blocks = [-yr, -yi, xr, xi]
    elif op == "K":
        blocks = [yi, -yr, xi, -xr]
    else:
        raise ValueError(f"unknown operator {op!r}")
    return np.concatenate(blocks, axis=-1)


def ambient_point_from_json(data) -> AmbientPoint:
    return AmbientPoint(tuple(parse_qc(c) for c in data))


def cotangent_point_from_json(data: dict) -> CotangentPoint:
    return CotangentPoint(
        tuple(parse_qc(c) for c in data["x"]),
        tuple(parse_qc(c) for c in data["z"]),
    )


def point_to_json(p: AmbientPoint | CotangentPoint):
    def one(c) -> list:
        if isinstance(c, QC):
            return format_qc(c)
        if isinstance(c, PhasedComplex):
            zc = c.to_complex()
            return [zc.real, zc.imag]
        return [float(np.real(c)), float(np.imag(c))]

    if isinstance(p, CotangentPoint):
        return {"x": [one(c) for c in p.x], "z": [one(c) for c in p.z]}
    return [one(c) for c in p.coords]
