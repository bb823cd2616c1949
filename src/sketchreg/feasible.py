"""Feasible sets: Euclidean projection, the R-metric prox step used by
the full-gradient solvers and its y = R x form used by the SGD solvers,
and the diameter parameter feeding the step-size rule.

Supported sets are R^d, the l2 ball, and the l1 ball (all centered at
the origin, so 0 is always feasible).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InnerSolverStallError, SingularFactorError, UnboundedSetError

__all__ = ["FeasibleSet", "project_euclidean", "project_l1_ball",
           "RMetricProx", "diameter_param"]

UNCONSTRAINED = "unconstrained"
L2_BALL = "l2_ball"
L1_BALL = "l1_ball"

_MEMBERSHIP_TOL = 1e-12
_KKT_TOL = 1e-10
_MAX_INNER = 10_000


@dataclass(frozen=True)
class FeasibleSet:
    """A closed convex constraint set containing the origin."""

    kind: str
    dim: int
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (UNCONSTRAINED, L2_BALL, L1_BALL):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        if self.kind != UNCONSTRAINED and self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    @classmethod
    def unconstrained(cls, dim: int) -> "FeasibleSet":
        return cls(kind=UNCONSTRAINED, dim=dim)

    @classmethod
    def l2_ball(cls, radius: float, dim: int) -> "FeasibleSet":
        return cls(kind=L2_BALL, dim=dim, radius=float(radius))

    @classmethod
    def l1_ball(cls, radius: float, dim: int) -> "FeasibleSet":
        return cls(kind=L1_BALL, dim=dim, radius=float(radius))

    def contains(self, x: np.ndarray, tol: float = _MEMBERSHIP_TOL) -> bool:
        if self.kind == UNCONSTRAINED:
            return True
        if self.kind == L2_BALL:
            return float(np.linalg.norm(x)) <= self.radius * (1.0 + tol) + tol
        return float(np.sum(np.abs(x))) <= self.radius * (1.0 + tol) + tol


def project_l1_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {z : ||z||_1 <= radius} by the sorted
    soft-threshold scan, O(d log d)."""
    if np.sum(np.abs(x)) <= radius:
        return x.copy()
    mags = np.sort(np.abs(x))[::-1]
    cumulative = np.cumsum(mags) - radius
    counts = np.arange(1, x.shape[0] + 1)
    # >= keeps the scan stable when |x| dwarfs the radius and the strict
    # comparison collapses under float cancellation.
    support = np.nonzero(mags >= cumulative / counts)[0]
    k = support[-1]
    theta = cumulative[k] / (k + 1.0)
    return np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)


def project_euclidean(w: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """argmin_{z in W} ||z - x||_2; returns x unchanged when feasible."""
    x = np.asarray(x, dtype=np.float64)
    if w.kind == UNCONSTRAINED:
        return x.copy()
    if w.kind == L2_BALL:
        norm = np.linalg.norm(x)
        if norm <= w.radius:
            return x.copy()
        return (w.radius / norm) * x
    return project_l1_ball(x, w.radius)


def diameter_param(w: FeasibleSet, user_bound: float | None = None) -> float:
    """D_W = sqrt(max_{x in W} ||x||^2/2 - min_{x in W} ||x||^2/2).

    For both ball kinds this is radius / sqrt(2). Unconstrained sets
    need a user-supplied norm bound, else UnboundedSetError.
    """
    if w.kind == UNCONSTRAINED:
        if user_bound is None:
            raise UnboundedSetError("unconstrained set has no diameter; pass a bound")
        return float(user_bound) / np.sqrt(2.0)
    return w.radius / np.sqrt(2.0)


class RMetricProx:
    """Solves argmin_{x in W} 0.5 ||R(x_prev - x)||^2 + eta <c, x>.

    One instance caches the factorizations of R (an SVD for the ball
    subproblems), so solvers construct it once per R and call it every
    iteration. The unconstrained solution is exact via two triangular
    solves; ``project`` is the same step in y = R x coordinates. The l2
    ball is solved exactly by bisection on the KKT multiplier; the l1
    ball runs accelerated projected gradient on the equivalent quadratic
    with Euclidean l1 projections as the inner oracle.
    """

    def __init__(self, r_factor: np.ndarray, w: FeasibleSet):
        self.r = np.asfortranarray(r_factor, dtype=np.float64)
        self.w = w
        if np.any(np.diag(self.r) == 0.0):
            raise SingularFactorError("zero pivot in triangular factor")
        # Raw BLAS handle: the prox runs in solver inner loops, where
        # solve_triangular's per-call overhead dominates.
        self._trsv = scipy.linalg.get_blas_funcs(("trsv",), (self.r,))[0]
        if w.kind == L2_BALL:
            # R = P diag(sv) Q^T; the ball subproblem separates in Q coords.
            _, sv, vt = np.linalg.svd(self.r)
            self._sv2 = sv**2
            self._vt = vt
        elif w.kind == L1_BALL:
            self._gram = self.r.T @ self.r
            sv = np.linalg.svd(self.r, compute_uv=False)
            self._lip = float(sv[0] ** 2)
            kappa = float(sv[0] / sv[-1])
            self._momentum = (kappa - 1.0) / (kappa + 1.0)

    def solve(self, x_prev: np.ndarray, c: np.ndarray, eta: float) -> np.ndarray:
        # Unconstrained minimizer z = x_prev - eta R^-1 R^-T c,
        # via two triangular solves (R is never inverted).
        z = x_prev - eta * self._trsv(self.r, self._trsv(self.r, c, trans=1))
        if self.w.kind == UNCONSTRAINED or self.w.contains(z, tol=0.0):
            return z
        return self._ball_solve(z)

    def project(self, y: np.ndarray) -> np.ndarray:
        """argmin_{y' in R W} ||y' - y||, the prox in y = R x coordinates.

        The identity on R^d. On a ball one triangular solve maps y to
        x = R^-1 y; only an x outside W runs the ball solve, whose
        result maps back through R.
        """
        if self.w.kind == UNCONSTRAINED:
            return y
        x = self.to_x(y)
        if self.w.contains(x, tol=0.0):
            return y
        return self.r @ self._ball_solve(x)

    def to_x(self, y: np.ndarray) -> np.ndarray:
        """x = R^-1 y by one triangular solve."""
        return self._trsv(self.r, y)

    def _ball_solve(self, z: np.ndarray) -> np.ndarray:
        """argmin_{x in W} ||R(x - z)|| for z outside the ball W."""
        if self.w.kind == L2_BALL:
            return self._l2_ball_exact(z)
        return self._l1_ball_apg(z)

    def _l2_ball_exact(self, z: np.ndarray) -> np.ndarray:
        """Root-find the multiplier in min 0.5||R(x-z)||^2, ||x|| <= rho."""
        rho = self.w.radius
        wz = self._vt @ z
        lo, hi = 0.0, float(self._sv2[0] * np.linalg.norm(wz) / rho)

        def radius_at(lam):
            return np.linalg.norm(self._sv2 * wz / (self._sv2 + lam))

        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if radius_at(mid) > rho:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        u = self._sv2 * wz / (self._sv2 + lam)
        # Snap exactly onto the boundary to kill residual bisection error.
        u *= rho / np.linalg.norm(u)
        return self._vt.T @ u

    def _l1_ball_apg(self, z: np.ndarray) -> np.ndarray:
        """Accelerated projected gradient on q(x) = 0.5 (x-z)^T R^T R (x-z)."""
        gram, lip, beta = self._gram, self._lip, self._momentum
        radius = self.w.radius
        x = project_l1_ball(z, radius)
        v = x
        scale = 1.0 + np.linalg.norm(gram @ z)
        prev_q = np.inf
        for _ in range(_MAX_INNER):
            grad_v = gram @ (v - z)
            if not np.isfinite(grad_v).all():
                raise InnerSolverStallError("l1 prox iterates became non-finite")
            x_new = project_l1_ball(v - grad_v / lip, radius)
            grad_x = gram @ (x_new - z)
            kkt = np.linalg.norm(x_new - project_l1_ball(x_new - grad_x, radius))
            if kkt <= _KKT_TOL * scale:
                return x_new
            q_new = 0.5 * float((x_new - z) @ grad_x)
            if q_new > prev_q:  # lost monotonicity: restart momentum
                v = x_new
            else:
                v = x_new + beta * (x_new - x)
            prev_q = q_new
            x = x_new
        raise InnerSolverStallError(
            f"l1 prox above KKT tolerance after {_MAX_INNER} iterations"
        )

