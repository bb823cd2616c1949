"""Reference forms of package operations that only the tests need."""

import numpy as np

from sketchreg.feasible import FeasibleSet, RMetricProx, project_l1_ball
from sketchreg.linalg import fwht_inplace
from sketchreg.sketches import SketchOperator, apply


def prox_r_metric(w: FeasibleSet, r_factor: np.ndarray, x_prev: np.ndarray,
                  c: np.ndarray, eta: float) -> np.ndarray:
    """One-shot form of :class:`RMetricProx`: argmin_{x in W}
    0.5 ||R(x_prev - x)||^2 + eta <c, x>."""
    return RMetricProx(r_factor, w).solve(
        np.asarray(x_prev, dtype=np.float64), np.asarray(c, dtype=np.float64), eta
    )


def fwht(v: np.ndarray) -> np.ndarray:
    """Copying form of :func:`sketchreg.linalg.fwht_inplace`."""
    return fwht_inplace(np.array(v, dtype=np.float64, order="C"))


def dense_sketch(sk: SketchOperator) -> np.ndarray:
    """S materialized as an s x n array."""
    return apply(sk, np.eye(sk.n))


def l2_ball_bisection(r_factor: np.ndarray, radius: float, z: np.ndarray) -> np.ndarray:
    """Reference l2-ball step argmin_{||x|| <= radius} ||R(x - z)||:
    bisection on the KKT multiplier in the SVD coordinates of R until the
    midpoint of the bracket is one of its ends (adjacent floats), then a
    snap onto the sphere (the package's solve before Newton). A fixed
    count of 80 halvings is not enough: the bracket starts as wide as
    sigma_max^2 ||V z|| / radius, 2e14 at kappa(R) = 1e7, so it would
    still be 1.7e-10 wide."""
    _, sv, vt = np.linalg.svd(r_factor)
    sv2 = sv**2
    wz = vt @ z
    lo, hi = 0.0, float(sv2[0] * np.linalg.norm(wz) / radius)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if np.linalg.norm(sv2 * wz / (sv2 + mid)) > radius:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    u = sv2 * wz / (sv2 + mid)
    u *= radius / np.linalg.norm(u)
    return vt.T @ u


def l1_ball_apg(r_factor: np.ndarray, radius: float, z: np.ndarray,
                max_iter: int = 10_000) -> np.ndarray:
    """Reference l1-ball step argmin_{||x||_1 <= radius} ||R(x - z)||:
    accelerated projected gradient on 0.5 (x - z)^T R^T R (x - z) with
    monotone restarts (the package's solve before the homotopy), run to a
    1e-13 projected-gradient test where the package stopped at 1e-10, so
    it is accurate to about 1e-11. Its rate degrades with kappa(R)^2, so
    it is a reference at small kappa only; returns None when the test is
    not met in ``max_iter`` steps."""
    gram = r_factor.T @ r_factor
    sv = np.linalg.svd(r_factor, compute_uv=False)
    lip = float(sv[0] ** 2)
    kappa = float(sv[0] / sv[-1])
    beta = (kappa - 1.0) / (kappa + 1.0)
    x = v = project_l1_ball(z, radius)
    scale = 1.0 + np.linalg.norm(gram @ z)
    prev_q = np.inf
    for _ in range(max_iter):
        x_new = project_l1_ball(v - gram @ (v - z) / lip, radius)
        grad_x = gram @ (x_new - z)
        if np.linalg.norm(x_new - project_l1_ball(x_new - grad_x, radius)) <= 1e-13 * scale:
            return x_new
        q_new = 0.5 * float((x_new - z) @ grad_x)
        v = x_new if q_new > prev_q else x_new + beta * (x_new - x)
        prev_q = q_new
        x = x_new
    return None


def l2_kkt_residual(r_factor: np.ndarray, radius: float, z: np.ndarray,
                    x: np.ndarray) -> float:
    """Relative KKT residual of x as argmin_{||x|| <= radius} ||R(x - z)||
    for z outside the ball: with g = R^T R (z - x) and the multiplier
    lam = g^T x / radius^2 >= 0, the larger of ||g - lam x|| / ||R^T R z||
    and | ||x|| - radius | / radius (inf for a negative multiplier)."""
    g = r_factor.T @ (r_factor @ (z - x))
    lam = float(g @ x) / radius**2
    if lam < 0.0:
        return float("inf")
    scale = float(np.linalg.norm(r_factor.T @ (r_factor @ z)))
    return max(float(np.linalg.norm(g - lam * x)) / scale,
               abs(float(np.linalg.norm(x)) - radius) / radius)


def l1_kkt_residual(r_factor: np.ndarray, radius: float, z: np.ndarray,
                    x: np.ndarray) -> float:
    """Relative KKT residual of x as argmin_{||x||_1 <= radius} ||R(x - z)||
    for z outside the ball: with g = R^T R (z - x) and lam = max_j |g_j|,
    the larger of max_{x_j != 0} |g_j - lam sign(x_j)| / ||R^T R z||_inf
    (the correlation scale of the problem) and | ||x||_1 - radius | / radius."""
    g = r_factor.T @ (r_factor @ (z - x))
    lam = float(np.max(np.abs(g)))
    on = x != 0.0
    scale = float(np.max(np.abs(r_factor.T @ (r_factor @ z))))
    sign_gap = float(np.max(np.abs(g[on] - lam * np.sign(x[on])), initial=0.0))
    return max(sign_gap / scale, abs(float(np.sum(np.abs(x))) - radius) / radius)
