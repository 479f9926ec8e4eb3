"""Kempf-Ness minimization: finding moment-map zeros inside orbits.

The functional

    KN(xi) = 1/4 sum_i |v_i|^2 e^{-2 beta^i(xi)} + <theta, xi>

is smooth and convex with gradient mu(exp(sqrt(-1) xi) v) under this
package's sign convention; its minimizers are exactly the xi whose flow
lands on the moment-map zero level.  Whether a minimizer exists is decided
exactly up front (see git_stability.classify_support): unstable points
yield a divergence certificate, strictly semistable points whose orbit
does not reach the zero level raise UndecidedError, and polystable points
are handed to a damped Newton iteration restricted to the row space of
the support weights (the complement of the flat directions).

With B the (n, k) weight matrix, the gradient in closed form is

    grad KN(xi) = theta - 1/2 B^T |v * e^{-B xi}|^2,

the arithmetic of mu(act_imaginary(ws, xi, 1.0, v)).  The value, gradient
and Hessian read B, its float copy and theta from the arrays each weight
system builds once (WeightSystem.numeric_view), so a Newton iteration
builds no point or moment-value objects; the solver still goes through
these three public functions, one arithmetic path for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, UndecidedError
from .git_stability import STABLE, UNSTABLE, classify_point
from .moment_maps import hol_moment, mu_hyperkahler
from .rep_core import (
    AmbientPoint,
    Cocharacter,
    CotangentPoint,
    WeightSystem,
    act_imaginary,
    doubled_weights,
    float_cocharacter,
    flow_factors,
    point_to_json,
    support,
)

CONVERGED = "converged"
DIVERGED = "diverged"

#: Levenberg damping floor on the reduced Hessian.
DAMPING = 1e-10
#: Armijo sufficient-decrease constant.
ARMIJO_C = 0.25


@dataclass(frozen=True)
class KNOutcome:
    status: str
    xi_star: Optional[np.ndarray] = None
    representative: Optional[AmbientPoint | CotangentPoint] = None
    residual: Optional[float] = None
    iterations: int = 0
    certificate: Optional[Cocharacter] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "xi_star": None if self.xi_star is None else [float(v) for v in self.xi_star],
            "representative": None
            if self.representative is None
            else point_to_json(self.representative),
            "residual": self.residual,
            "iterations": self.iterations,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


def kn_value(ws: WeightSystem, v: AmbientPoint, xi) -> float:
    """KN(xi); +inf on float overflow, which numpy warns of unless silenced."""
    _, beta, theta = ws.numeric_view
    xi_arr = float_cocharacter(ws, xi)
    lam = beta @ xi_arr
    coords = v.to_numeric().coords
    mods = np.abs(coords) ** 2
    quad = 0.25 * float(np.dot(mods, flow_factors(-2.0 * lam, coords)))
    val = quad + float(theta @ xi_arr)
    return val if math.isfinite(val) else math.inf


def kn_gradient(ws: WeightSystem, v: AmbientPoint, xi) -> np.ndarray:
    """grad KN(xi) = mu(exp(sqrt(-1) xi) v), as a float vector.

    In closed form, theta - 1/2 sum_i |e^{-beta^i(xi)} v_i|^2 beta^i: the
    arithmetic of mu(act_imaginary(ws, xi, 1.0, v)) on the system's
    cached arrays, with no point or moment value built.
    """
    beta, _, theta = ws.numeric_view
    xi_arr = float_cocharacter(ws, xi)
    coords = v.to_numeric().coords
    if len(coords) != ws.n:
        raise DimensionMismatchError("point length != weight count")
    flowed = coords * flow_factors(-(beta @ xi_arr), coords)
    return theta - 0.5 * (beta.T @ np.abs(flowed) ** 2)


def kn_hessian(ws: WeightSystem, v: AmbientPoint, xi) -> np.ndarray:
    """Hess KN(xi) = sum_i |v_i|^2 e^{-2 beta^i(xi)} beta^i beta^i^T (PSD)."""
    _, beta, _ = ws.numeric_view
    lam = beta @ float_cocharacter(ws, xi)
    coords = v.to_numeric().coords
    w = np.abs(coords) ** 2 * flow_factors(-2.0 * lam, coords)
    return (beta.T * w) @ beta


@lru_cache(maxsize=256)
def _rowspace_basis(ws: WeightSystem, idx: frozenset) -> np.ndarray:
    """Orthonormal basis (k x r) of span{beta^i : i in idx}; read-only."""
    basis = np.zeros((ws.rank, 0))
    if idx:
        _, s, vt = np.linalg.svd(ws.numeric_view[1][sorted(idx)], full_matrices=False)
        basis = vt[: int(np.sum(s > 1e-12 * max(1.0, s[0])))].T
    basis.flags.writeable = False
    return basis


def solve_kahler(
    ws: WeightSystem,
    v: AmbientPoint,
    tol: float = 1e-10,
    maxiter: int = 200,
) -> KNOutcome:
    """Minimize KN over the orbit of v, or certify that no minimum exists.

    The exact classification runs first: unstable points return a diverged
    outcome carrying the destabilizing cocharacter; strictly semistable
    points with no minimizer raise UndecidedError.  Otherwise Newton with
    Levenberg damping and Armijo backtracking runs in the row space of the
    support weights until ||mu|| < tol.
    """
    verdict = classify_point(ws, v)
    if verdict.status == UNSTABLE:
        return KNOutcome(DIVERGED, certificate=verdict.certificate)
    if not verdict.polystable:
        raise UndecidedError(
            "strictly semistable orbit does not meet the moment-map zero level; "
            "no minimizer and no destabilizing certificate exist"
        )
    vnum = v.to_numeric()
    S = support(vnum)
    Q = _rowspace_basis(ws, S)
    eta = np.zeros(Q.shape[1])
    damping = DAMPING * np.eye(len(eta))
    xi = Q @ eta
    # a line search trial may overflow e^{-2 beta(xi)}: its value is +inf
    with np.errstate(over="ignore"):
        for it in range(maxiter):
            grad_full = kn_gradient(ws, vnum, xi)
            gn0 = math.sqrt(grad_full.dot(grad_full))
            if gn0 < tol:
                rep = act_imaginary(ws, xi, 1.0, vnum)
                return KNOutcome(CONVERGED, xi_star=xi, representative=rep, residual=gn0, iterations=it)
            grad = Q.T @ grad_full
            hess = Q.T @ kn_hessian(ws, vnum, xi) @ Q
            hess = hess + damping
            step = -np.linalg.solve(hess, grad)
            slope = float(grad @ step)
            f0 = kn_value(ws, vnum, xi)
            alpha = 1.0
            while alpha > 2.0**-60:
                trial = eta + alpha * step
                xi_trial = Q @ trial
                ftrial = kn_value(ws, vnum, xi_trial)
                if ftrial <= f0 + ARMIJO_C * alpha * slope:
                    break
                # near the minimum the decrease underflows double precision and
                # the value test rejects everything; accept on a strict gradient
                # norm decrease instead (value guarded to within rounding noise)
                if ftrial <= f0 + 1e-12 * max(1.0, abs(f0)):
                    g = kn_gradient(ws, vnum, xi_trial)
                    if math.sqrt(g.dot(g)) < 0.9 * gn0:
                        break
                alpha *= 0.5
            eta = eta + alpha * step
            xi = Q @ eta
    raise UndecidedError(f"Newton did not reach ||mu|| < {tol} within {maxiter} iterations")


def solve_hyperkahler(
    ws: WeightSystem,
    p: CotangentPoint,
    tol: float = 1e-10,
    maxiter: int = 200,
) -> KNOutcome:
    """Land on the hyperkahler moment-map zero level inside the orbit of p.

    Precondition: ||M(p)|| < 1e-10.  M is invariant along the imaginary
    flow, so only the Kahler component needs solving (with the doubled
    weights); on convergence ||mu_hk|| < 1e-9 at the representative.
    """
    hol = hol_moment(ws, p)
    if hol.norm() >= 1e-10:
        raise PreconditionError(
            f"||M(p)|| = {hol.norm():.3e} >= 1e-10; the holomorphic moment map "
            "must vanish before the Kahler solve"
        )
    dws = doubled_weights(ws)
    out = solve_kahler(dws, p.as_doubled_ambient(), tol=tol, maxiter=maxiter)
    if out.status != CONVERGED:
        return out
    coords = out.representative.coords
    rep = CotangentPoint.numeric(coords[: ws.n], coords[ws.n :])
    residual = mu_hyperkahler(ws, rep).norm()
    return KNOutcome(
        CONVERGED,
        xi_star=out.xi_star,
        representative=rep,
        residual=residual,
        iterations=out.iterations,
    )


def instability_certificate(ws: WeightSystem, v: AmbientPoint) -> Cocharacter:
    """An exact integral xi with mu_weight(v, xi) <= 0 (< 0 when unstable)."""
    verdict = classify_point(ws, v)
    if verdict.status == STABLE:
        raise PreconditionError("stable points admit no destabilizing cocharacter")
    if verdict.certificate is None:
        raise UndecidedError(f"{verdict.status} verdict carries no certificate")
    return verdict.certificate
