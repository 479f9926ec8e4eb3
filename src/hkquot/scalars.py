"""Exact scalar arithmetic shared by the combinatorial layers.

Two exact complex representations are provided:

* ``QC``: Gaussian rationals ``re + im*i`` with :class:`fractions.Fraction`
  parts.  Closed under ring operations and conjugation, which is all the
  moment-map formulas need.
* ``PhasedComplex``: polar pairs ``m * e^{2 pi i p}`` with rational modulus
  ``m >= 0`` and rational phase ``p`` taken mod 1.  Closed under
  multiplication and integer powers, which is all the root-of-unity orbit
  comparisons need.

Rationals parse from JSON as integers or strings like ``"3/4"``; complex
scalars as two-element ``[re, im]`` arrays.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

RationalLike = Union[int, str, Fraction]


def parse_rational(value: RationalLike | float) -> Fraction:
    """Parse a JSON scalar into an exact Fraction.

    Accepts ints, Fractions, floats (converted via their exact binary
    value) and strings such as ``"5"``, ``"-7/3"`` or ``"0.25"``.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r} ({exc})") from None
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (the JSON wire form)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class QC:
    """A Gaussian rational: exact complex number with Fraction parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike | float = 0, im: RationalLike | float = 0) -> "QC":
        return QC(parse_rational(re), parse_rational(im))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC | Fraction | int") -> "QC":
        if isinstance(other, QC):
            return QC(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return QC(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def inverse(self) -> "QC":
        a2 = self.abs2()
        if a2 == 0:
            raise ZeroDivisionError("inverse of 0")
        return QC(self.re / a2, -self.im / a2)

    def __truediv__(self, other: "QC") -> "QC":
        return self * other.inverse()

    def __pow__(self, k: int) -> "QC":
        base = self if k >= 0 else self.inverse()
        out = QC(Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            out = out * base
        return out

    def times_i(self) -> "QC":
        """Multiply by sqrt(-1), exactly."""
        return QC(-self.im, self.re)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


def parse_qc(value) -> QC:
    """Parse a JSON complex scalar: ``[re, im]`` or a bare rational."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"complex scalar needs two entries, got {value!r}")
        return QC(parse_rational(value[0]), parse_rational(value[1]))
    return QC(parse_rational(value), Fraction(0))


def format_qc(z: QC) -> list[str]:
    return [format_rational(z.re), format_rational(z.im)]


@dataclass(frozen=True)
class PhasedComplex:
    """Exact polar complex number ``modulus * e^{2 pi i phase}``.

    The phase is a Fraction reduced mod 1 (canonical representative in
    [0, 1)); a zero modulus forces phase 0 so equality is structural.
    Multiplication and integer powers are exact, which makes equality of
    root-of-unity orbits decidable without floating point.
    """

    modulus: Fraction
    phase: Fraction

    def __post_init__(self):
        m = Fraction(self.modulus)
        if m < 0:
            raise ValueError("modulus must be nonnegative")
        p = Fraction(self.phase) % 1 if m != 0 else Fraction(0)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "phase", p)

    @staticmethod
    def of(modulus: RationalLike, phase: RationalLike = 0) -> "PhasedComplex":
        return PhasedComplex(parse_rational(modulus), parse_rational(phase))

    @staticmethod
    def root_of_unity(j: int, n: int) -> "PhasedComplex":
        """e^{2 pi i j/n}."""
        if n <= 0:
            raise ValueError("n must be positive")
        return PhasedComplex(Fraction(1), Fraction(j, n))

    def __mul__(self, other: "PhasedComplex") -> "PhasedComplex":
        return PhasedComplex(self.modulus * other.modulus, self.phase + other.phase)

    def __pow__(self, k: int) -> "PhasedComplex":
        if self.modulus == 0:
            if k <= 0:
                raise ZeroDivisionError("0 to a nonpositive power")
            return self
        return PhasedComplex(self.modulus**k, self.phase * k)

    def inverse(self) -> "PhasedComplex":
        if self.modulus == 0:
            raise ZeroDivisionError("inverse of 0")
        return PhasedComplex(1 / self.modulus, -self.phase)

    def conj(self) -> "PhasedComplex":
        return PhasedComplex(self.modulus, -self.phase)

    def is_zero(self) -> bool:
        return self.modulus == 0

    def to_complex(self) -> complex:
        return complex(self.modulus) * cmath.exp(2j * cmath.pi * float(self.phase))


PC_ZERO = PhasedComplex(Fraction(0), Fraction(0))
PC_ONE = PhasedComplex(Fraction(1), Fraction(0))
