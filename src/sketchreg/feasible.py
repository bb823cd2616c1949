"""Feasible sets: Euclidean projection, the R-metric prox step used by
the full-gradient solvers and its y = R x form used by the SGD solvers,
and the diameter D_W, measured in the prox's metric, that feeds the SGD
step-size rule.

Supported sets are R^d, the l2 ball, and the l1 ball (all centered at
the origin, so 0 is always feasible). The prox solves both balls
exactly, at a cost that does not grow with kappa(R): a Newton solve of
the l2 secular equation and a Lasso-path homotopy for the l1 ball. The
l1 solve first tries the signed support of its previous answer, which
costs one piece of the path; that answer is kept only where the path
would stop on that face too, and it passes the same KKT test.
"""

import math
from dataclasses import dataclass

import numpy as np
# Raw BLAS and LAPACK handles: the prox runs in solver inner loops on
# d x d factors, where the numpy and scipy wrappers cost more than the
# arithmetic.
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dgeqrf, dorgqr

from .errors import InnerSolverStallError, SingularFactorError, UnboundedSetError

__all__ = ["FeasibleSet", "project_euclidean", "project_l1_ball",
           "RMetricProx", "diameter_param"]

UNCONSTRAINED = "unconstrained"
L2_BALL = "l2_ball"
L1_BALL = "l1_ball"

_KKT_TOL = 1e-10
# A warm l1 face is kept only if its other correlations lie inside
# [-lam, lam] by this many rounding units of ||R^T R z||_inf; their
# rounding measured up to 2 units.
_WARM_MARGIN = 8.0 * float(np.finfo(np.float64).eps)
# Newton steps of the l2 secular equation; a handful is typical.
_NEWTON_CAP = 50
_NEWTON_RTOL = 4.0 * float(np.finfo(np.float64).eps)
# l1 path: breakpoints within this relative distance of each other in
# lam are one tie; at most this many tied candidates are searched
# exhaustively; the path may have this many breakpoints per coordinate.
_TIE_RTOL = 1e-12
_MAX_TIE = 8
_BREAKPOINT_CAP_PER_DIM = 10


@dataclass(frozen=True)
class FeasibleSet:
    """A closed convex constraint set containing the origin."""

    kind: str
    dim: int
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (UNCONSTRAINED, L2_BALL, L1_BALL):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        # NaN fails the test; an infinite radius is legal.
        if self.kind != UNCONSTRAINED and not self.radius > 0.0:
            raise ValueError(f"ball radius must be positive, got {self.radius!r}")

    @classmethod
    def unconstrained(cls, dim: int) -> "FeasibleSet":
        return cls(kind=UNCONSTRAINED, dim=dim)

    @classmethod
    def l2_ball(cls, radius: float, dim: int) -> "FeasibleSet":
        return cls(kind=L2_BALL, dim=dim, radius=float(radius))

    @classmethod
    def l1_ball(cls, radius: float, dim: int) -> "FeasibleSet":
        return cls(kind=L1_BALL, dim=dim, radius=float(radius))

    def contains(self, x: np.ndarray, tol: float) -> bool:
        if self.kind == UNCONSTRAINED:
            return True
        if self.kind == L2_BALL:
            # np.linalg.norm of a real vector is this same sqrt(x . x),
            # behind a dispatch that costs more than the product; .dot
            # is the same BLAS ddot as @ with less dispatch.
            return math.sqrt(x.dot(x)) <= self.radius * (1.0 + tol) + tol
        return float(np.sum(np.abs(x))) <= self.radius * (1.0 + tol) + tol


def project_l1_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {z : ||z||_1 <= radius} by the sorted
    soft-threshold scan, O(d log d); x itself when it is inside."""
    if np.sum(np.abs(x)) <= radius:
        return x
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
    """argmin_{z in W} ||z - x||_2 of a float64 vector x; returns x
    itself, not a copy, when it is feasible. The plain SGD loop projects
    every step, where a copy would cost more than the test."""
    if w.kind == UNCONSTRAINED:
        return x
    if w.kind == L2_BALL:
        norm = math.sqrt(x.dot(x))
        if norm <= w.radius:
            return x
        return (w.radius / norm) * x
    return project_l1_ball(x, w.radius)


def diameter_param(w: FeasibleSet, user_bound: float | None = None,
                   r_factor: np.ndarray | None = None) -> float:
    """D_W = sqrt(max_{x in W} ||R x||^2/2 - min_{x in W} ||R x||^2/2),
    the diameter of W in the metric of the prox, 0.5 ||R(x - x')||^2
    (R = I when r_factor is None).

    The minimum is 0, at the origin. On an l2 ball of radius rho the
    maximum is sigma_max(R)^2 rho^2 / 2; on an l1 ball it is attained at
    a vertex, rho^2 max_j ||R e_j||^2 / 2. An unconstrained set needs a
    user-supplied bound on ||x||, read as an l2 ball of that radius, else
    UnboundedSetError.
    """
    if w.kind == UNCONSTRAINED:
        if user_bound is None:
            raise UnboundedSetError("unconstrained set has no diameter; pass a bound")
        radius, kind = float(user_bound), L2_BALL
    else:
        radius, kind = w.radius, w.kind
    if r_factor is None:
        stretch = 1.0
    elif kind == L2_BALL:
        stretch = float(np.linalg.norm(r_factor, 2))
    else:
        stretch = float(np.max(np.linalg.norm(r_factor, axis=0)))
    return stretch * radius / np.sqrt(2.0)


class RMetricProx:
    """Solves argmin_{x in W} 0.5 ||R(x_prev - x)||^2 + eta <c, x>.

    One instance caches what the ball subproblems reuse (the SVD of R on
    an l2 ball), so solvers construct it once per R and call it every
    iteration. The unconstrained solution is exact via two triangular
    solves; ``project`` is the same step in y = R x coordinates. Both
    ball subproblems are solved exactly, at a cost that does not grow
    with kappa(R): the l2 ball by Newton's method on the secular
    equation of its KKT multiplier (More and Sorensen 1983), the l1 ball
    by following the Lasso path of min 0.5 ||R(x - z)||^2 + lam ||x||_1
    down from lam = ||R^T R z||_inf until ||x||_1 = radius (Osborne,
    Presnell and Turlach 2000). Successive solver steps give nearby z, so
    the instance keeps the signed support of its last l1 answer and first
    solves that single piece of the path; the path from lam_max runs only
    when the path would not stop on that piece (see
    ``_l1_ball_homotopy``) or it fails the KKT test. Either way the l1
    answer is returned only after its KKT conditions are checked;
    InnerSolverStallError reports a failed check of the path, a
    non-finite input or an exhausted step budget.
    """

    def __init__(self, r_factor: np.ndarray, w: FeasibleSet,
                 warm_from: "RMetricProx | None" = None):
        """``warm_from``, a prox for another R (a fresh sketch's), hands
        over the face of its last l1 answer as this one's first guess."""
        self.r = np.asfortranarray(r_factor, dtype=np.float64)
        self.w = w
        if np.any(np.diag(self.r) == 0.0):
            raise SingularFactorError("zero pivot in triangular factor")
        # (indices, signs) of the nonzeros of the last l1 point built: the
        # warm start of the next l1 solve, if any.
        self._l1_face = (warm_from._l1_face if warm_from is not None
                         else (np.empty(0, dtype=np.intp), np.empty(0)))
        if w.kind == L2_BALL:
            # R = P diag(sv) Q^T; the ball subproblem separates in Q coords.
            _, sv, vt = np.linalg.svd(self.r)
            self._sv2 = sv**2
            self._vt = vt

    def solve(self, x_prev: np.ndarray, c: np.ndarray, eta: float) -> np.ndarray:
        # Unconstrained minimizer z = x_prev - eta R^-1 R^-T c,
        # via two triangular solves (R is never inverted).
        z = x_prev - eta * dtrsv(self.r, dtrsv(self.r, c, trans=1))
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
        return dtrsv(self.r, y)

    def _ball_solve(self, z: np.ndarray) -> np.ndarray:
        """argmin_{x in W} ||R(x - z)|| for z outside the ball W."""
        if not np.isfinite(z).all():
            raise InnerSolverStallError("ball prox input is not finite")
        if self.w.kind == L2_BALL:
            return self._l2_ball_exact(z)
        return self._l1_ball_homotopy(z)

    def _l2_ball_exact(self, z: np.ndarray) -> np.ndarray:
        """Newton's method on phi(lam) = 1/||u(lam)|| - 1/rho, where
        u(lam) = sv^2 w / (sv^2 + lam) is the minimizer of
        0.5 ||R(x - z)||^2 + lam/2 ||x||^2 in the coordinates w = Q^T z.

        phi is concave and increasing, so the steps from lam = 0 rise
        monotonically to its root; they stop once a step no longer moves
        lam by more than ``_NEWTON_RTOL`` of itself.
        """
        rho = self.w.radius
        sv2 = self._sv2
        top = sv2 * (self._vt @ z)
        lam = 0.0
        for _ in range(_NEWTON_CAP):
            den = sv2 + lam
            u = top / den
            norm2 = float(u @ u)
            norm = np.sqrt(norm2)
            # -phi / phi' with phi' = sum(u^2 / den) / ||u||^3.
            step = norm2 * (norm - rho) / (rho * float((u / den) @ u))
            # A z on the sphere to rounding can give a first step below 0.
            lam = max(lam + step, 0.0)
            if step <= _NEWTON_RTOL * lam:
                break
        else:
            raise InnerSolverStallError(
                f"l2 prox multiplier not converged after {_NEWTON_CAP} Newton steps")
        # Snap exactly onto the boundary to kill the residual root error.
        u = top / (sv2 + lam)
        u *= rho / np.linalg.norm(u)
        return self._vt.T @ u

    def _segment(self, rz: np.ndarray, idx: np.ndarray, signs: np.ndarray):
        """One piece of the Lasso path with nonzeros ``idx`` of signs
        ``signs``: x[idx](lam) = x_ls - lam * slope and the correlations
        R^T R (z - x(lam)) = base + lam * drift, from a QR of R[:, idx]
        (G = R^T R, whose condition number is kappa(R)^2, is never formed).
        """
        k = idx.size
        householder, tau, _, _ = dgeqrf(self.r[:, idx])
        q = dorgqr(householder, tau)[0]
        t = householder[:k, :k]  # trsv reads only the upper triangle
        qt_rz = q.T @ rz
        w = dtrsv(t, signs, trans=1)
        x_ls = dtrsv(t, qt_rz)
        slope = dtrsv(t, w)
        base = self.r.T @ (rz - q @ qt_rz)
        drift = self.r.T @ (q @ w)
        return x_ls, slope, base, drift

    def _l1_ball_homotopy(self, z: np.ndarray) -> np.ndarray:
        """Follow x(lam) = argmin 0.5 ||R(x - z)||^2 + lam ||x||_1 from
        lam_max = ||R^T R z||_inf, where x = 0, down to the lam where
        ||x(lam)||_1 = rho.

        Between breakpoints the signed support is fixed, x is affine in
        lam, and so is ||x||_1, so the final lam is found in closed form.
        At a breakpoint the coordinates in ``cand`` sit at zero with
        |correlation| = lam (a coordinate that hit the boundary, one that
        just crossed zero, or several tied); the next piece keeps the
        subset of them that moves consistently: a kept coordinate grows
        with its sign, a dropped one's correlation falls back inside
        [-lam, lam]. A kept coordinate is never read as crossing zero on
        the piece it joins: a slope that rounds toward zero would drop
        and re-add it at the same lam until the budget runs out.

        The path starts from lam_max only when the last answer's signed
        support (``_l1_face``), solved as a final piece, is not where the
        path would stop, or fails the KKT test; a hit costs that one
        piece. The path stops on a piece when no coordinate crosses zero
        and no other correlation passes lam, which the warm piece checks
        on its own correlations base + lam drift, with a margin of
        ``_WARM_MARGIN`` ||R^T R z||_inf. At high kappa(R) the rounding
        of R^T R (z - x) is a sizeable part of lam (5 % at kappa 1e7), so
        a test on that gradient cannot tell a wrong face from rounding;
        these correlations are the numbers the path itself decides by.
        """
        rho = self.w.radius
        d = z.shape[0]
        rz = self.r @ z
        corr = self.r.T @ rz
        idx, signs = self._l1_face
        if idx.size:
            x_ls, slope, base, drift = self._segment(rz, idx, signs)
            norm_slope = float(signs @ slope)
            if norm_slope > 0.0:
                lam = (float(signs @ x_ls) - rho) / norm_slope
                x_e = x_ls - lam * slope
                off = np.ones(d, dtype=bool)
                off[idx] = False
                margin = _WARM_MARGIN * float(np.max(np.abs(corr)))
                if (np.all(signs * x_e >= 0.0)
                        and np.all(np.abs(base[off] + lam * drift[off]) <= lam - margin)):
                    x = self._on_face(d, idx, signs, x_e)
                    if self._l1_kkt_failure(z, x, lam) is None:
                        return x
        lam = float(np.max(np.abs(corr)))
        support = np.empty(0, dtype=np.intp)
        sup_signs = np.empty(0)
        cand = np.flatnonzero(np.abs(corr) >= lam * (1.0 - _TIE_RTOL))
        cand_signs = np.sign(corr[cand])
        cand_in = np.ones(cand.size, dtype=bool)
        for _ in range(_BREAKPOINT_CAP_PER_DIM * d):
            keep, piece = self._consistent_piece(rz, support, sup_signs,
                                                 cand, cand_signs, cand_in)
            idx = np.concatenate([support, cand[keep]])
            signs = np.concatenate([sup_signs, cand_signs[keep]])
            x_ls, slope, base, drift = piece
            x_lam = x_ls - lam * slope

            # Next breakpoint: a nonzero coordinate moving toward zero
            # reaches it, or an inactive correlation reaches +-lam.
            events = np.full(d, -np.inf)
            event_side = np.zeros(d)
            moving_in = signs * slope < 0.0
            moving_in[support.size:] = False
            events[idx[moving_in]] = lam + x_lam[moving_in] / slope[moving_in]
            outside = np.ones(d, dtype=bool)
            outside[idx] = False
            for side in (1.0, -1.0):
                den = 1.0 - side * drift
                ok = outside & (den > 0.0)
                hit = np.full(d, -np.inf)
                hit[ok] = side * base[ok] / den[ok]
                better = hit > events
                events[better] = hit[better]
                event_side[better] = side
            events = np.minimum(events, lam)
            lam_next = max(float(np.max(events)), 0.0)

            norm_slope = float(signs @ slope)
            if not norm_slope > 0.0:
                raise InnerSolverStallError("l1 prox path lost positive definiteness")
            lam_stop = min((float(signs @ x_ls) - rho) / norm_slope, lam)
            if lam_stop >= lam_next:
                x = self._on_face(d, idx, signs, x_ls - lam_stop * slope)
                return self._checked_l1(z, x, lam_stop)

            tied = events >= lam_next * (1.0 - _TIE_RTOL)
            dropped = tied[idx]
            support, sup_signs = idx[~dropped], signs[~dropped]
            joined = np.flatnonzero(tied & outside)
            cand = np.concatenate([idx[dropped], joined])
            cand_signs = np.concatenate([signs[dropped], event_side[joined]])
            cand_in = np.concatenate([np.zeros(dropped.sum(), dtype=bool),
                                      np.ones(joined.size, dtype=bool)])
            lam = lam_next
        raise InnerSolverStallError(
            f"l1 prox path has more than {_BREAKPOINT_CAP_PER_DIM * d} breakpoints")

    def _consistent_piece(self, rz: np.ndarray, support: np.ndarray, sup_signs: np.ndarray,
                          cand: np.ndarray, cand_signs: np.ndarray, cand_in: np.ndarray):
        """The subset ``keep`` of the breakpoint candidates that continues
        the path, and its piece. The natural guess (coordinates that hit
        the boundary join, ones that crossed zero leave) is tried first;
        ties try the other subsets of up to ``_MAX_TIE`` candidates. If
        none is consistent the natural guess is used, and the final KKT
        check decides."""
        choices = [cand_in]
        if 0 < cand.size <= _MAX_TIE:
            flips = ((np.arange(1, 2 ** cand.size)[:, None] >> np.arange(cand.size)) & 1)
            flips = flips[np.argsort(flips.sum(axis=1), kind="stable")].astype(bool)
            choices += [cand_in ^ f for f in flips]
        first = None
        for keep in choices:
            idx = np.concatenate([support, cand[keep]])
            signs = np.concatenate([sup_signs, cand_signs[keep]])
            if idx.size == 0:
                continue
            piece = self._segment(rz, idx, signs)
            if first is None:
                first = (keep, piece)
            _, slope, _, drift = piece
            grow = cand_signs[keep] * slope[support.size:]
            stay = cand_signs[~keep] * drift[cand[~keep]] - 1.0
            if (np.all(grow >= -_TIE_RTOL * np.max(np.abs(slope)))
                    and np.all(stay >= -_TIE_RTOL * max(1.0, np.max(np.abs(drift))))):
                return keep, piece
        if first is None:
            raise InnerSolverStallError("l1 prox path has an empty active set")
        return first

    def _on_face(self, d: int, idx: np.ndarray, signs: np.ndarray,
                 x_e: np.ndarray) -> np.ndarray:
        """x with x[idx] = x_e, remembered as the face of the next warm
        start; a coordinate at its own breakpoint may round past zero and
        is set to zero."""
        x_e[signs * x_e < 0.0] = 0.0
        x = np.zeros(d)
        x[idx] = x_e
        on = x_e != 0.0
        self._l1_face = (idx[on], signs[on])
        return x

    def _l1_kkt_failure(self, z: np.ndarray, x: np.ndarray, lam: float) -> str | None:
        """None when x passes the KKT test for the l1 ball, else what
        failed: with g = R^T R (z - x), |g_j| <= lam everywhere and
        g_j = lam sign(x_j) on the support, to ``_KKT_TOL`` times
        ||R^T R z||_inf (the correlation scale of the problem), and
        ||x||_1 = rho to ``_KKT_TOL`` relative."""
        rho = self.w.radius
        g = self.r.T @ (self.r @ (z - x))
        scale = float(np.max(np.abs(self.r.T @ (self.r @ z))))
        on = x != 0.0
        gap = max(float(np.max(np.abs(g))) - lam,
                  float(np.max(np.abs(g[on] - lam * np.sign(x[on])), initial=0.0)))
        size = abs(float(np.sum(np.abs(x))) - rho) / rho
        if lam >= 0.0 and gap <= _KKT_TOL * scale and size <= _KKT_TOL:
            return None
        return (f"l1 prox fails its KKT check: gradient gap {gap / scale:.1e}, "
                f"norm gap {size:.1e}")

    def _checked_l1(self, z: np.ndarray, x: np.ndarray, lam: float) -> np.ndarray:
        """x once it passes the KKT test; InnerSolverStallError if not."""
        failure = self._l1_kkt_failure(z, x, lam)
        if failure is not None:
            raise InnerSolverStallError(failure)
        return x
