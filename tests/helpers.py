"""Reference forms of package operations that only the tests need."""

import numpy as np

import sketchreg.linalg as linalg_mod
import sketchreg.solvers as solvers_mod
from sketchreg.feasible import FeasibleSet, RMetricProx, project_l1_ball
from sketchreg.linalg import fwht_inplace
from sketchreg.precond import sketched_r
from sketchreg.sketches import _PANEL_COLS, _PANEL_ROWS, SketchOperator, apply, seeds, stream


def force_workers(monkeypatch, workers: int) -> None:
    """Run every ``linalg.parallel`` pass, however small, on ``workers``
    threads, whatever the CPU and task counts."""
    monkeypatch.setattr(linalg_mod, "_worker_count", lambda tasks: workers)
    monkeypatch.setattr(linalg_mod, "_PARALLEL_MIN_SIZE", 0)
    monkeypatch.setattr(linalg_mod, "_FWHT_PARALLEL_MIN_SIZE", 0)


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


def signed_r(m: np.ndarray) -> np.ndarray:
    """numpy's Householder R of m in one piece, rows flipped to a
    nonnegative diagonal: qr_thin's R of one block."""
    r = np.linalg.qr(m, mode="r")
    return np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None] * r


def sketch_ihs(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg,
               fresh_sketch: bool = False) -> tuple[np.ndarray, list[float]]:
    """IHS from its definition: R of the seeded S A (a new seeded sketch
    each iteration if ``fresh_sketch``, else one for all), then
    x <- argmin_W 0.5 ||R (x - x_from)||^2 + eta <A^T (A x_t - b), x>.
    With an explicit ``cfg.step_size``, or a fresh sketch each iteration,
    x_from = x_t and eta is that step or the sketch's ratio step
    (1 - rho)^2 / (1 + rho), rho = d/s. The auto step on one sketch is
    Polyak heavy ball: x_from = x_t + rho (x_t - x_{t-1}) (x_0 before the
    first step) and eta = (1 - rho)^2. Returns (final x, objectives from x0)."""
    n, d = a.shape
    s = solvers_mod.resolve_sketch_size(cfg, n, d, True)
    if cfg.x0 is None:
        x, resid = np.zeros(d), -b
    else:
        x = np.asarray(cfg.x0, dtype=np.float64).copy()
        resid = a @ x - b
    x_prev = x
    objectives = [float(resid @ resid)]
    for t in range(1, cfg.iterations + 1):
        if t == 1 or fresh_sketch:
            seed = seeds(cfg.seed, "ihs", t).generate_state(1)[0] if fresh_sketch else cfg.seed
            r_factor, rows = sketched_r(a, cfg.sketch_kind, s, seed)
            prox = RMetricProx(r_factor, w)
            rho = d / rows
        if cfg.step_size != "auto":
            x_from, eta = x, float(cfg.step_size)
        elif fresh_sketch:
            x_from, eta = x, (1.0 - rho) ** 2 / (1.0 + rho)
        else:
            x_from, eta = x + rho * (x - x_prev), (1.0 - rho) ** 2
        x, x_prev = prox.solve(x_from, a.T @ resid, eta), x
        resid = a @ x - b
        objectives.append(float(resid @ resid))
    return x, objectives


def distortion_per_direction(sm: np.ndarray, m: np.ndarray, seed: int, trials: int) -> float:
    """Reference for ``sketches.range_distortion``: one unit direction drawn
    at a time, max | ||sm x|| / ||m x|| - 1 | kept as it goes."""
    rng = stream(seed, "distortion")
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(m.shape[1])
        x /= np.linalg.norm(x)
        worst = max(worst, abs(np.linalg.norm(sm @ x) / np.linalg.norm(m @ x) - 1.0))
    return worst


def dense_sketch(sk: SketchOperator) -> np.ndarray:
    """S materialized as an s x n array, applied to 512 columns of the
    identity at a time so that no n x n array is formed."""
    return np.hstack([apply(sk, np.eye(sk.n, min(512, sk.n - j), -j))
                      for j in range(0, sk.n, 512)])


def box_muller_sketch(sk: SketchOperator) -> np.ndarray:
    """A Gaussian ``sk``'s S built from its stated rule, panel by panel:
    panel p, rows [64 p, 64 p + 64), draws its tiles of 2048 columns in
    column order from stream(seed, "gaussian", spawn_key=(p,)). A tile of
    N entries, in row-major order, takes 2 ceil(N/2) float32 uniforms u,
    radii r = sqrt(-2 ln(1 - u)) from the first half and angles 2 pi u
    from the second, and is cos(angle) r then sin(angle) r, each product
    in float64; S is the tiles over sqrt(s)."""
    out = np.empty((sk.s, sk.n))
    for p, top in enumerate(range(0, sk.s, _PANEL_ROWS)):
        rng = stream(sk.seed, "gaussian", spawn_key=(p,))
        k = min(_PANEL_ROWS, sk.s - top)
        for left in range(0, sk.n, _PANEL_COLS):
            cols = min(_PANEL_COLS, sk.n - left)
            half = -(-k * cols // 2)
            u = rng.random(2 * half, dtype=np.float32)
            radius = np.sqrt(np.float32(-2.0) * np.log(np.float32(1.0) - u[:half]))
            angle = np.float32(2.0 * np.pi) * u[half:]
            z = np.concatenate([np.cos(angle).astype(np.float64) * radius,
                                np.sin(angle).astype(np.float64) * radius])
            out[top:top + k, left:left + cols] = z[:k * cols].reshape(k, cols)
    return out * (1.0 / np.sqrt(sk.s))


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


def batch_index_stream(seed: int, n: int, batch: int):
    """The uniform-with-replacement index stream the SGD solvers consume,
    one batch per step, so tests can replay a run's sample sequence."""
    for block in solvers_mod._index_blocks(seed, n, batch):
        yield from block


def batch_sgd_per_step(w, cfg, prob, rec, objective, batches):
    """Reference for ``solvers._batch_sgd``: the same update, with one
    ``next`` on ``batch_index_stream`` in place of ``batches``, two take()
    gathers and two @ products per step. Run it through
    ``solvers._sgd_solve``."""
    m, r = prob.u.shape[0], cfg.batch_size
    eta = solvers_mod._sgd_eta(cfg, w, prob)
    scale = 2.0 * m / r
    y = prob.y0
    y_sum = np.zeros_like(y)
    indices = batch_index_stream(cfg.seed, m, r)
    for t in range(1, cfg.iterations + 1):
        idx = next(indices)
        batch = prob.u.take(idx, axis=0)
        resid = batch @ y - prob.rhs.take(idx)
        y = prob.project(y - eta * scale * (batch.T @ resid))
        y_sum += y
        if rec.due(t) and rec.stop(t, objective(y_sum / t)):
            break
    return t, y, y_sum / t


def acc_sgd_per_step(w, cfg, prob, rec, objective, batches):
    """Reference for ``solvers._acc_sgd``: the same stacked recursion on
    z = (y, y_hat, g) over ``solvers._epochs``, gathering each step's
    batch as ``batch_sgd_per_step`` does and multiplying with @."""
    mu, scale = prob.consts.mu, 2.0 * prob.u.shape[0] / cfg.batch_size
    z = np.zeros((3, prob.y0.shape[0]))
    z[1] = prob.y0
    indices = batch_index_stream(cfg.seed, prob.u.shape[0], cfg.batch_size)
    total = 0
    for n_s, eta_s in solvers_mod._epochs(cfg, prob):
        z[0] = z[1]
        for t in range(1, min(n_s, cfg.iterations - total) + 1):
            alpha = 2.0 / (t + 1.0)
            avg = np.array([alpha, 1.0 - alpha])
            idx = next(indices)
            rows = prob.u.take(idx, axis=0)
            z[2] = rows.T @ (rows @ (avg @ z[:2]) - prob.rhs.take(idx))
            e = eta_s * t * mu
            c = np.array([(1.0 + e * alpha) / (1.0 + e), e * (1.0 - alpha) / (1.0 + e),
                          -eta_s * t * scale / (1.0 + e)])
            z[0] = prob.project(c @ z)
            z[1] = avg @ z[:2]
            total += 1
            if rec.due(total) and rec.stop(total, objective(z[1])):
                break
        if total >= cfg.iterations or rec.stop_reason != "iterations":
            break
    return total, z[1], z[1]


def acc_sgd_unstacked_per_step(w, cfg, prob, rec, objective, batches):
    """The accelerated recursion as written before its vectors were
    stacked: y_tilde = y_hat + alpha (y - y_hat), y_next = P((y + eta_t mu
    y_tilde - eta_t scale g) / (1 + eta_t mu)), y_hat = y_tilde +
    alpha (y_next - y). The same arithmetic in another order, so it holds
    ``solvers._acc_sgd`` to a tolerance, not bit for bit."""
    mu, scale = prob.consts.mu, 2.0 * prob.u.shape[0] / cfg.batch_size
    y_hat = prob.y0.copy()
    indices = batch_index_stream(cfg.seed, prob.u.shape[0], cfg.batch_size)
    total = 0
    for n_s, eta_s in solvers_mod._epochs(cfg, prob):
        y = y_hat.copy()
        for t in range(1, min(n_s, cfg.iterations - total) + 1):
            alpha = 2.0 / (t + 1.0)
            y_tilde = y_hat + alpha * (y - y_hat)
            idx = next(indices)
            rows = prob.u.take(idx, axis=0)
            resid = rows @ y_tilde - prob.rhs.take(idx)
            eta_t = eta_s * t
            y_next = prob.project((y + eta_t * mu * y_tilde
                                   - eta_t * scale * (rows.T @ resid)) / (1.0 + eta_t * mu))
            y_hat = y_tilde + alpha * (y_next - y)
            y = y_next
            total += 1
            if rec.due(total) and rec.stop(total, objective(y_hat)):
                break
        if total >= cfg.iterations or rec.stop_reason != "iterations":
            break
    return total, y_hat, y_hat
