"""Pointwise reduction at moment-map zeros: horizontal frames and tensors.

At a point p of T*V with mu_hk(p) = 0 and finite stabilizer, the tangent
space splits orthogonally into the quaternionic gauge span

    {xi_a.p, I xi_a.p, J xi_a.p, K xi_a.p : a = 1..k}

and its complement, the horizontal space, which models the tangent space
of the quotient.  Both orthonormal bases come from one SVD of the 4k
gauge vectors: its first 4k right singular vectors span the gauge space
and the remaining 4(n-k) the horizontal space.  The reduced metric is the flat metric restricted to
horizontal vectors, and the three reduced Kahler forms are

    omega_A(u, v) = <A u, v>,   A in {I, J, K}.

Everything here is pointwise linear algebra; no statement about
closedness of the reduced forms is made or checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .git_stability import stabilizer
from .moment_maps import hol_moment, mu, mu_hyperkahler, psi
from .rep_core import (
    AmbientPoint,
    CotangentPoint,
    WeightSystem,
    apply_quaternion,
    cotangent_from_real,
    support,
)

#: residual below which a point counts as a moment-map zero
MOMENT_TOL = 1e-9
#: relative singular-value cutoff for the rank of the unit gauge vectors
RANK_TOL = 1e-8
#: projection residual beyond which a vector is rejected as non-horizontal
HORIZONTAL_TOL = 1e-8

OPS = ("I", "J", "K")


@dataclass(frozen=True, eq=False)
class ReducedFrame:
    """Orthogonal splitting of R^{4n} at a moment-zero point.

    gauge_raw holds the 4k unnormalized gauge vectors (xi_a.p first, then
    their I, J, K images); gauge and horizontal are orthonormal row
    matrices.  ws is None for the trivial-group ambient frame.
    """

    ws: Optional[WeightSystem]
    base_point: CotangentPoint
    gauge_raw: np.ndarray
    gauge: np.ndarray
    horizontal: np.ndarray
    mu_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.base_point.n

    @property
    def k(self) -> int:
        return 0 if self.ws is None else self.ws.rank

    @property
    def dim(self) -> int:
        return self.horizontal.shape[0]

    def project(self, u: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the horizontal space."""
        u = np.asarray(u, dtype=float)
        if len(u) != 4 * self.n:
            raise DimensionMismatchError(f"expected length {4 * self.n}, got {len(u)}")
        return self.horizontal.T @ (self.horizontal @ u)

    def require_horizontal(self, u: np.ndarray, tol: float = HORIZONTAL_TOL) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        res = float(np.linalg.norm(u - self.project(u)))
        if res > tol:
            raise PreconditionError(f"vector is not horizontal: projection residual {res:.3e}")
        return u


def ambient_frame(p: CotangentPoint) -> ReducedFrame:
    """The no-group frame: everything is horizontal."""
    q = p.to_numeric()
    m = 4 * q.n
    return ReducedFrame(
        ws=None,
        base_point=q,
        gauge_raw=np.zeros((0, m)),
        gauge=np.zeros((0, m)),
        horizontal=np.eye(m),
        mu_residual=0.0,
    )


def gauge_vectors(ws: WeightSystem, p: CotangentPoint) -> np.ndarray:
    """The k real tangent vectors xi_a.p = (i beta_a x, -i beta_a z)."""
    q = p.to_numeric()
    beta = ws.numeric_view[1]
    rows = []
    for a in range(ws.rank):
        lam = beta[:, a]
        rows.append(CotangentPoint.numeric(1j * lam * q.x, -1j * lam * q.z).real_vector())
    return np.array(rows).reshape(ws.rank, 4 * ws.n)


def horizontal_frame(ws: WeightSystem, p: CotangentPoint, tol: float = MOMENT_TOL) -> ReducedFrame:
    """Build the ReducedFrame at p.

    Preconditions: ||mu_hk(p)|| < tol and the stabilizer of supp(p) is
    finite.  Fails loudly if the 4k gauge vectors are rank-deficient,
    which the finite-stabilizer check is meant to exclude.  The rank is
    read off the singular values of the gauge vectors scaled to unit
    length, so it does not depend on the scale of the coordinates.
    """
    q = p.to_numeric()
    if q.n != ws.n:
        raise DimensionMismatchError("point length != weight count")
    residual = mu_hyperkahler(ws, q).norm()
    if residual >= tol:
        raise PreconditionError(f"||mu_hk(p)|| = {residual:.3e} >= {tol}; not a moment-map zero")
    sx, sz = support(q)
    stab = stabilizer(ws, sx | sz)
    if stab.subtorus_rank > 0:
        raise PreconditionError(
            f"support pair ({sorted(sx)}, {sorted(sz)}) has a continuous stabilizer "
            f"of rank {stab.subtorus_rank}"
        )
    base = gauge_vectors(ws, q)
    gauge_raw = np.vstack([base] + [apply_quaternion(op, base) for op in OPS])
    unit = gauge_raw / np.linalg.norm(gauge_raw, axis=1, keepdims=True)
    _, sing, vt = np.linalg.svd(unit)
    rank = int(np.sum(sing > RANK_TOL * sing[0]))
    if rank != 4 * ws.rank:
        raise PreconditionError(f"gauge vectors span dimension {rank} != 4k = {4 * ws.rank}")
    gauge, horizontal = vt[: 4 * ws.rank], vt[4 * ws.rank :]
    cross = float(np.max(np.abs(gauge @ horizontal.T))) if len(horizontal) else 0.0
    if cross >= 1e-10:
        raise PreconditionError(f"gauge-horizontal cross term {cross:.3e} >= 1e-10")
    return ReducedFrame(
        ws=ws,
        base_point=q,
        gauge_raw=gauge_raw,
        gauge=gauge,
        horizontal=horizontal,
        mu_residual=residual,
    )


def reduced_metric(frame: ReducedFrame, u: np.ndarray, v: np.ndarray) -> float:
    """g~(u, v): flat inner product of horizontal vectors."""
    u = frame.require_horizontal(u)
    v = frame.require_horizontal(v)
    return float(u @ v)


def reduced_form(frame: ReducedFrame, op: str, u: np.ndarray, v: np.ndarray) -> float:
    """omega~_A(u, v) = <A u, v> for A in {I, J, K}."""
    if op not in OPS:
        raise ValueError(f"operator must be one of {OPS}, got {op!r}")
    u = frame.require_horizontal(u)
    v = frame.require_horizontal(v)
    return float(apply_quaternion(op, u) @ v)


def _images(H: np.ndarray) -> list[np.ndarray]:
    """I H, J H and K H, row by row."""
    return [apply_quaternion(op, H) for op in OPS]


def _quaternion_deviation(H: np.ndarray, images: list[np.ndarray]) -> float:
    """The largest of the three spectral norms, from one batched SVD."""
    if not H.shape[0]:
        return 0.0
    It, Jt, Kt = (H @ image.T for image in images)
    eye = np.eye(H.shape[0])
    sing = np.linalg.svd(np.stack([It @ Jt - Kt, It @ It + eye, Jt @ Jt + eye]), compute_uv=False)
    return float(max(sing.max(axis=1)))


def _grams(H: np.ndarray, images: list[np.ndarray]) -> dict:
    out = {"g": H @ H.T}
    for op, image in zip(OPS, images):
        out[f"omega_{op}"] = image @ H.T
    return out


def quaternion_check(frame: ReducedFrame) -> float:
    """Max operator-norm deviation of the reduced I, J, K from the
    quaternion relations I~J~ = K~, I~^2 = J~^2 = -id."""
    H = frame.horizontal
    return _quaternion_deviation(H, _images(H))


def gram_matrices(frame: ReducedFrame) -> dict:
    """Gram matrices of g~ and the three omega~ in the horizontal basis."""
    H = frame.horizontal
    return _grams(H, _images(H))


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def frame_report_json(frame: ReducedFrame) -> dict:
    H = frame.horizontal
    images = _images(H)
    return {
        "n": frame.n,
        "k": frame.k,
        "horizontal_dim": frame.dim,
        "mu_residual": _sig12(frame.mu_residual),
        "quaternion_deviation": _sig12(_quaternion_deviation(H, images)),
        # the float matrices, which cli writes to 12 significant digits
        "gram": _grams(H, images),
    }


# ---------------------------------------------------------------------------
# zero-section comparison against quotient metrics computed inside C^n alone


def _lift_ambient(n: int, u: np.ndarray) -> np.ndarray:
    """Realify a C^n tangent vector at a zero-section point (fiber part 0)."""
    u = np.asarray(u, dtype=complex)
    return np.concatenate([u.real, u.imag, np.zeros(n), np.zeros(n)])


def kahler_quotient_oracle(ws: WeightSystem, x: np.ndarray, u: np.ndarray, v: np.ndarray):
    """(g, omega_I) of the V-quotient at x, computed inside C^n alone.

    Projects u, v onto the complex-orthogonal complement of the gauge
    directions {beta_a x} and evaluates the flat Hermitian form there.
    Shares nothing with the frame path except numpy.
    """
    x = np.asarray(x, dtype=complex)
    cols = np.array([ws.beta_array()[:, a].astype(float) * x for a in range(ws.rank)]).T
    def perp(w):
        w = np.asarray(w, dtype=complex)
        sol, *_ = np.linalg.lstsq(cols, w, rcond=None)
        return w - cols @ sol
    up, vp = perp(u), perp(v)
    herm = complex(np.sum(up * np.conj(vp)))
    return herm.real, (1j * herm).real


def fubini_study_oracle(theta: Fraction | float, x: np.ndarray, u: np.ndarray, v: np.ndarray):
    """(g, omega) of the diagonal-circle quotient of C^n in closed form.

    The round sphere ||x||^2 = 2 theta submerges onto the quotient; the
    metric is the flat one on the Hermitian complement of the complex line
    through x.  Valid at points with mu(x) = 0 for the diagonal weight
    system, i.e. ||x||^2 = 2 theta.
    """
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    r2 = float(np.sum(np.abs(x) ** 2))
    expected = 2.0 * float(theta)
    if abs(r2 - expected) > 1e-8 * max(1.0, expected):
        raise PreconditionError(f"||x||^2 = {r2} != 2 theta = {expected}")
    herm = (
        complex(np.sum(u * np.conj(v))) * r2
        - complex(np.sum(u * np.conj(x))) * complex(np.sum(x * np.conj(v)))
    ) / r2
    return herm.real, (1j * herm).real


def zero_section_check(
    ws: WeightSystem,
    x: AmbientPoint,
    nsamples: int = 10,
    seed: int = 0,
) -> dict:
    """Compare the reduced (g~, omega~_I) on zero-section tangents with the
    C^n-only quotient oracle at nsamples random tangent pairs."""
    xnum = x.to_numeric()
    res = mu(ws, xnum).norm()
    if res >= 1e-10:
        raise PreconditionError(f"||mu(x)|| = {res:.3e} >= 1e-10")
    p = CotangentPoint.numeric(xnum.coords, np.zeros(ws.n, dtype=complex))
    frame = horizontal_frame(ws, p)
    rng = np.random.default_rng(seed)
    max_g = 0.0
    max_w = 0.0
    for _ in range(nsamples):
        u = rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n)
        v = rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n)
        pu = frame.project(_lift_ambient(ws.n, u))
        pv = frame.project(_lift_ambient(ws.n, v))
        g_frame = reduced_metric(frame, pu, pv)
        w_frame = reduced_form(frame, "I", pu, pv)
        g_orc, w_orc = kahler_quotient_oracle(ws, xnum.coords, u, v)
        max_g = max(max_g, abs(g_frame - g_orc))
        max_w = max(max_w, abs(w_frame - w_orc))
    return {
        "samples": nsamples,
        "horizontal_dim": frame.dim,
        "max_metric_error": max_g,
        "max_form_error": max_w,
        "max_error": max(max_g, max_w),
    }


# ---------------------------------------------------------------------------
# flat-space potential identity


def ambient_potential_check(points: Sequence[CotangentPoint], h: float = 1e-4) -> dict:
    """Check dd^c_J of the potential -psi = ||y||^2/2 against omega_J.

    The Hessian H of -psi is taken by second-order central differences at
    each point; the 2-form matrix J^T H - H J is compared entrywise with
    the matrix of omega_J (which is J^T).  The analogous I-direction
    computation is reported as a control value; it does NOT vanish and is
    not asserted.
    """
    errs = []
    ctrl = []
    for p in points:
        q = p.to_numeric()
        n = q.n
        m = 4 * n
        base = q.real_vector()

        def f(w: np.ndarray) -> float:
            return -float(psi(cotangent_from_real(w)))

        hess = np.zeros((m, m))
        for a in range(m):
            ea = np.zeros(m)
            ea[a] = h
            for b in range(a, m):
                eb = np.zeros(m)
                eb[b] = h
                val = (
                    f(base + ea + eb) - f(base + ea - eb) - f(base - ea + eb) + f(base - ea - eb)
                ) / (4.0 * h * h)
                hess[a, b] = val
                hess[b, a] = val
        jmat = apply_quaternion("J", np.eye(m)).T
        imat = apply_quaternion("I", np.eye(m)).T
        form_j = jmat.T @ hess - hess @ jmat
        form_i = imat.T @ hess - hess @ imat
        errs.append(float(np.max(np.abs(form_j - jmat.T))))
        ctrl.append(float(np.max(np.abs(form_i - imat.T))))
    return {"h": h, "max_error": max(errs), "control_error_I": max(ctrl)}


# ---------------------------------------------------------------------------
# fiberwise circle rotation


def rotate_fiber(p: CotangentPoint, lam: complex) -> CotangentPoint:
    """(x, z) -> (x, lam z)."""
    q = p.to_numeric()
    return CotangentPoint.numeric(q.x, complex(lam) * q.z)


def rotate_fiber_tangent(n: int, lam: complex, u: np.ndarray) -> np.ndarray:
    """Differential of rotate_fiber on the real model.

    x-blocks fixed; the y = conj(z) blocks rotate by conj(lam).
    """
    u = np.asarray(u, dtype=float)
    if len(u) != 4 * n:
        raise DimensionMismatchError(f"expected length {4 * n}, got {len(u)}")
    ux = u[: 2 * n]
    wy = u[2 * n : 3 * n] + 1j * u[3 * n :]
    wy = np.conj(complex(lam)) * wy
    return np.concatenate([ux, wy.real, wy.imag])


def transport_tangent(ws: WeightSystem, tvec: Sequence[complex], u: np.ndarray) -> np.ndarray:
    """Differential of the torus action on the real model.

    The action is complex-linear, so the differential is the map itself:
    x-parts scale by t^{beta}, y-parts by conj(t)^{-beta}.
    """
    u = np.asarray(u, dtype=float)
    n = ws.n
    if len(u) != 4 * n:
        raise DimensionMismatchError(f"expected length {4 * n}, got {len(u)}")
    wx = u[:n] + 1j * u[n : 2 * n]
    wy = u[2 * n : 3 * n] + 1j * u[3 * n :]
    t = np.array([complex(c) for c in tvec])
    for i in range(n):
        ch = complex(1.0)
        for a in range(ws.rank):
            ch *= t[a] ** ws.weights[i][a]
        wx[i] *= ch
        wy[i] *= np.conj(1.0 / ch)
    return np.concatenate([wx.real, wx.imag, wy.real, wy.imag])


DEFAULT_LAMBDAS = (1.0 + 0.0j, -1.0 + 0.0j, 1j, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))


def circle_action_check(
    frame: ReducedFrame,
    lambdas: Sequence[complex] = DEFAULT_LAMBDAS,
    pairs: int = 6,
    seed: int = 0,
) -> dict:
    """Verify the fiber rotation (x, z) -> (x, lam z) at the frame's base.

    For each unit lam: |mu_I| is preserved, M scales by lam, and the
    complex form Omega~ = omega~_J + i omega~_K scales by lam on
    transported horizontal pairs.
    """
    ws = frame.ws
    if ws is None:
        raise PreconditionError("circle check needs a group action")
    p = frame.base_point
    k = ws.rank
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(pairs):
        a = frame.horizontal.T @ rng.standard_normal(frame.dim)
        b = frame.horizontal.T @ rng.standard_normal(frame.dim)
        samples.append((a, b))
    mu0 = mu_hyperkahler(ws, p).as_floats()[:k]
    hol0 = np.array(hol_moment(ws, p).value, dtype=complex)
    rows = []
    worst = 0.0
    for lam in lambdas:
        lam = complex(lam)
        p2 = rotate_fiber(p, lam)
        mu2 = mu_hyperkahler(ws, p2).as_floats()[:k]
        mu_dev = abs(float(np.linalg.norm(mu2)) - float(np.linalg.norm(mu0)))
        hol2 = np.array(hol_moment(ws, p2).value, dtype=complex)
        hol_dev = float(np.linalg.norm(hol2 - lam * hol0))
        form_dev = 0.0
        if abs(abs(lam) - 1.0) < 1e-12:
            frame2 = horizontal_frame(ws, p2)
            for a, b in samples:
                a2 = rotate_fiber_tangent(ws.n, lam, a)
                b2 = rotate_fiber_tangent(ws.n, lam, b)
                before = complex(
                    reduced_form(frame, "J", a, b), reduced_form(frame, "K", a, b)
                )
                after = complex(
                    reduced_form(frame2, "J", a2, b2), reduced_form(frame2, "K", a2, b2)
                )
                form_dev = max(form_dev, abs(after - lam * before))
        rows.append(
            {
                "lambda": [lam.real, lam.imag],
                "mu_I_deviation": mu_dev,
                "hol_scale_deviation": hol_dev,
                "form_scale_deviation": form_dev,
            }
        )
        worst = max(worst, mu_dev, hol_dev, form_dev)
    return {"lambdas": rows, "max_deviation": worst}
