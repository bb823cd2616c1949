"""Solvers for min_{x in W} ||Ax - b||^2.

Four preconditioned methods plus one baseline:

* ``hd_pw_batch_sgd``   -- two-step preconditioning, then mini-batch SGD
  with uniform row sampling and the R-metric prox update.
* ``hd_pw_acc_batch_sgd`` -- same preconditioning, multi-epoch accelerated
  stochastic gradient with geometric error halving across epochs.
* ``pw_gradient``       -- one sketch, full-gradient R-metric descent;
  linearly convergent for the high precision regime.
* ``ihs``               -- the iterative-Hessian-sketch baseline, a fresh
  sketch per iteration; ``ihs_fixed`` keeps one sketch and reproduces
  pw_gradient at eta = 1/2.
* ``plain_sgd_baseline`` -- uniform SGD on the raw, unpreconditioned
  problem, for comparison runs; it shares hd_pw_batch_sgd's loop.

All solvers are deterministic given the config seed: independent RNG
streams are derived for the sketch, the Hadamard signs, the sampled
batch indices, and the auto step-size estimators.
"""

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateOptimumError,
    DimensionMismatchError,
    EpochBudgetError,
    UnboundedSetError,
)
from .feasible import FeasibleSet, RMetricProx, diameter_param, project_euclidean
from .linalg import qr_thin, tri_solve
from .precond import Preconditioner, build_preconditioner
from .sketches import KINDS, apply, default_sketch_size, make_sketch

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TracePoint",
    "sgd_step_size",
    "acc_epoch_schedule",
    "hd_pw_batch_sgd",
    "hd_pw_acc_batch_sgd",
    "pw_gradient",
    "ihs",
    "ihs_fixed",
    "plain_sgd_baseline",
    "batch_index_stream",
    "resolve_sketch_size",
    "objective_value",
    "relative_error",
    "SOLVERS",
]

# Child-stream tags for SeedSequence([seed, tag]); sketch internals use
# small tags, so solver streams live in a disjoint range.
_STREAM_SAMPLE = 1002
_STREAM_ESTIMATE = 1003
_STREAM_IHS = 1005

_INDEX_CHUNK = 8192


@dataclass
class SolverConfig:
    """Knobs shared by all solvers; fields that a given solver does not
    use are ignored by it.

    ``step_size``, ``sigma2`` and ``v0`` accept the string ``"auto"``:
    the step size then follows the min(1/(2L), sqrt(D^2/(2 T sigma^2)))
    rule with power-iteration estimates of the smoothness constants and
    a sampled variance estimate at x0.
    """

    iterations: int = 1000
    batch_size: int = 1
    step_size: float | str = "auto"
    epochs: int = 8
    v0: float | str = "auto"
    sigma2: float | str = "auto"
    seed: int = 0
    record_every: int | None = None
    sketch_kind: str = "srht"
    sketch_size: int | None = None
    diameter_bound: float | None = None
    max_seconds: float | None = None
    objective_tol: float | None = None
    stop_below_rel: float | None = None
    x0: np.ndarray | None = None
    epoch_iter_cap: int = 10_000_000

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not isinstance(self.step_size, str) and self.step_size <= 0.0:
            raise ValueError("explicit step_size must be > 0")
        for name in ("step_size", "sigma2", "v0"):
            value = getattr(self, name)
            if isinstance(value, str) and value != "auto":
                raise ValueError(f"{name} must be a number or 'auto', got {value!r}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1 (None picks the default)")
        if self.sketch_kind not in KINDS:
            raise ValueError(f"unknown sketch_kind {self.sketch_kind!r}; pick one of {KINDS}")


class TracePoint(NamedTuple):
    iteration: int
    elapsed_seconds: float
    objective: float
    relative_error: float


@dataclass
class SolveReport:
    """Per-run record: trace of (iteration, wall time, objective,
    relative error), the last iterate, the averaged iterate, and how
    long preconditioning took."""

    solver: str
    trace: list[TracePoint]
    final_x: np.ndarray
    final_x_avg: np.ndarray
    iterations_run: int
    preconditioning_seconds: float

    @property
    def final_relative_error(self) -> float:
        return self.trace[-1].relative_error if self.trace else float("nan")

    @property
    def final_objective(self) -> float:
        return self.trace[-1].objective if self.trace else float("nan")


def objective_value(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    r = a @ x - b
    return float(r @ r)


def relative_error(f_x: float, f_star: float | None) -> float:
    """(f(x) - f(x*)) / f(x*), clipped at zero (float fuzz can put f(x)
    just below the oracle optimum); NaN when f_star is None.

    Raises DegenerateOptimumError when f_star is ~0 (noiseless data).
    """
    if f_star is None:
        return float("nan")
    if f_star <= 1e-14:
        raise DegenerateOptimumError(f"optimal objective {f_star:.3e} is ~0")
    return max((f_x - f_star) / f_star, 0.0)


def sgd_step_size(L: float, d_w: float, T: int, sigma2: float) -> float:
    """Fixed SGD step: min(1/(2L), sqrt(D_W^2 / (2 T sigma^2)))."""
    cap = 1.0 / (2.0 * L)
    if sigma2 <= 0.0:
        return cap
    return min(cap, float(np.sqrt(d_w * d_w / (2.0 * T * sigma2))))


def acc_epoch_schedule(L: float, mu: float, sigma2: float, v0: float,
                       s: int) -> tuple[int, float]:
    """Per-epoch iteration count and base step of the accelerated
    multi-epoch scheme (epochs are 1-indexed; the error bound targeted
    by epoch s is v0 * 2^-s).

    Returns (N_s, eta_s) with N_s already rounded up.
    """
    target = v0 * 2.0 ** (-s)
    n_float = max(4.0 * np.sqrt(2.0 * L / mu), 64.0 * sigma2 / (3.0 * mu * target))
    n_s = int(np.ceil(n_float))
    eta_s = min(
        1.0 / (4.0 * L),
        float(np.sqrt(3.0 * v0 * 2.0 ** (-(s - 1))
                      / (2.0 * mu * sigma2 * n_s * (n_s + 1.0) ** 2)))
        if sigma2 > 0.0 else np.inf,
    )
    return n_s, float(eta_s)


def batch_index_stream(seed: int, n: int, batch: int,
                       chunk: int = _INDEX_CHUNK) -> Iterator[np.ndarray]:
    """The exact uniform-with-replacement index stream the SGD solvers
    consume, exposed so tests can replay a run's sample sequence."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_SAMPLE]))
    while True:
        block = rng.integers(0, n, size=(chunk, batch))
        yield from block


def _validate_problem(a: np.ndarray, b: np.ndarray, w: FeasibleSet):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"A is {a.shape}, b is {b.shape}; need (n, d) with matching n"
        )
    if w.dim != a.shape[1]:
        raise DimensionMismatchError(
            f"feasible set has dim {w.dim}, A has {a.shape[1]} columns"
        )
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("input data contains non-finite entries")
    return a, b


def _start_point(cfg: SolverConfig, d: int) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros(d)
    x0 = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x0.shape != (d,):
        raise DimensionMismatchError(f"x0 has shape {x0.shape}, expected ({d},)")
    return x0


def resolve_sketch_size(cfg: SolverConfig, n: int, d: int,
                        high_precision: bool) -> int:
    """Sketch rows a solver uses on an n x d problem: ``cfg.sketch_size``
    if set, else the default for its kind (larger for the full-gradient
    high-precision methods), kept between d + 1 and n - 1."""
    if cfg.sketch_size is not None:
        return cfg.sketch_size
    if cfg.sketch_kind == "identity":
        return n
    if high_precision:
        # Full-gradient methods need sigma_max(A R^-1)^2 < 2 for the
        # eta = 1/2 step, hence a distinctly larger sketch than SGD.
        s = 50 * d
    else:
        s = default_sketch_size(cfg.sketch_kind, d)
    return max(min(s, n - 1), min(d + 1, n - 1))


def _estimate_extreme_eigs(matvec, d: int, rng: np.random.Generator,
                           steps: int = 20) -> tuple[float, float]:
    """Power-iteration estimates of the extreme eigenvalues of a PSD
    operator given by ``matvec``; returns (lam_max, lam_min)."""
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    for _ in range(steps):
        v = matvec(v)
        v /= np.linalg.norm(v)
    lam_max = float(v @ matvec(v))
    shift = 1.05 * lam_max
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    for _ in range(steps):
        u = shift * u - matvec(u)
        u /= np.linalg.norm(u)
    lam_min = float(shift - u @ (shift * u - matvec(u)))
    return lam_max, max(lam_min, 0.0)


def _smoothness_bounds(a: np.ndarray, r_factor: np.ndarray | None,
                       seed: int) -> tuple[float, float]:
    """(L, mu) of the objective after preconditioning by R (raw problem
    when r_factor is None); conservative by 10% each way."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_ESTIMATE]))
    if r_factor is None:
        matvec = lambda v: a.T @ (a @ v)
    else:
        def matvec(v):
            u = tri_solve(r_factor, v)
            return tri_solve(r_factor, a.T @ (a @ u), transposed=True)
    lam_max, lam_min = _estimate_extreme_eigs(matvec, a.shape[1], rng)
    return 2.0 * lam_max * 1.1, 2.0 * lam_min * 0.9


def _sampled_gradient_variance(rows: np.ndarray, rhs: np.ndarray,
                               r_factor: np.ndarray | None, x0: np.ndarray,
                               seed: int, draws: int = 200) -> float:
    """Empirical variance (x safety factor 2) of single-row gradients at
    x0, measured in the preconditioned metric when r_factor is given."""
    n = rows.shape[0]
    resid = rows @ x0 - rhs
    mean_grad = 2.0 * (rows.T @ resid)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_ESTIMATE, 1]))
    idx = rng.integers(0, n, size=draws)
    grads = 2.0 * n * rows[idx] * resid[idx][:, None]
    if r_factor is not None:
        grads = tri_solve(r_factor, grads.T, transposed=True).T
        mean_grad = tri_solve(r_factor, mean_grad, transposed=True)
    return 2.0 * float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))


def _stochastic_smoothness(rows: np.ndarray, r_factor: np.ndarray | None) -> float:
    """Worst per-row smoothness 2 n max_i ||row_i||^2, measured in the
    preconditioned metric when r_factor is given. The average-case SGD
    step must stay below its inverse or single-row updates explode."""
    if r_factor is not None:
        rows = tri_solve(r_factor, rows.T, transposed=True).T
    return 2.0 * rows.shape[0] * float(np.max(np.sum(rows**2, axis=1)))


def _sigma2(cfg: SolverConfig, rows: np.ndarray, rhs: np.ndarray,
            r_factor: np.ndarray | None, x0: np.ndarray) -> float:
    if cfg.sigma2 != "auto":
        return float(cfg.sigma2)
    return _sampled_gradient_variance(rows, rhs, r_factor, x0, cfg.seed)


def _sgd_eta(cfg: SolverConfig, w: FeasibleSet, a: np.ndarray, rows: np.ndarray,
             rhs: np.ndarray, r_factor: np.ndarray | None) -> float:
    """Explicit ``step_size``, or the auto rule on the sampled problem
    (rows, rhs) measured in the metric of ``r_factor``."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    r = cfg.batch_size
    L, _ = _smoothness_bounds(a, r_factor, cfg.seed)
    sigma2 = _sigma2(cfg, rows, rhs, r_factor, _start_point(cfg, a.shape[1]))
    # Eq-style rule min(1/(2L), sqrt(D^2/(2 T sigma^2))), additionally
    # capped for stochastic stability: with L the full-gradient
    # smoothness alone, single-row steps are wildly unstable (the
    # per-row smoothness L_stoch >> L). A batch of r rows concentrates
    # toward the full Hessian, so the cap relaxes as 1/(L_stoch/r + L).
    cap = min(1.0 / (2.0 * L), 1.0 / (_stochastic_smoothness(rows, r_factor) / r + L))
    try:
        d_w = diameter_param(w, cfg.diameter_bound)
    except UnboundedSetError:
        return cap
    return min(cap, sgd_step_size(L, d_w, cfg.iterations, sigma2 / r))


def _precondition(a: np.ndarray, b: np.ndarray,
                  cfg: SolverConfig) -> tuple[Preconditioner, float]:
    """Both preconditioning steps at the SGD sketch size, and their time."""
    n, d = a.shape
    tic = time.perf_counter()
    pre = build_preconditioner(
        a, b, cfg.sketch_kind, resolve_sketch_size(cfg, n, d, False), cfg.seed
    )
    return pre, time.perf_counter() - tic


class _Recorder:
    """Trace, stop rules and time budget shared by every solver loop.

    The clock starts at construction; ``stop`` traces a point when its
    iteration is due and applies ``max_seconds``, ``stop_below_rel`` and
    (given the previous objective) ``objective_tol``; ``report`` adds the
    final point when the loop ended between due iterations.
    """

    def __init__(self, cfg: SolverConfig, f_star: float | None, f0: float,
                 dense: bool = False):
        self.cfg = cfg
        self.f_star = f_star
        # Full-gradient loops get each objective for free and trace every
        # iteration by default; SGD loops pay O(nd) a point and trace ~512.
        self.every = cfg.record_every or (1 if dense else max(1, cfg.iterations // 512))
        self.trace = [TracePoint(0, 0.0, f0, relative_error(f0, f_star))]
        self.start = time.perf_counter()

    def due(self, t: int) -> bool:
        return t % self.every == 0 or t == self.cfg.iterations

    def stop(self, t: int, f: float, f_prev: float | None = None) -> bool:
        cfg = self.cfg
        elapsed = time.perf_counter() - self.start
        rel = relative_error(f, self.f_star)
        if self.due(t):
            self.trace.append(TracePoint(t, elapsed, f, rel))
        return ((f_prev is not None and cfg.objective_tol is not None
                 and f_prev - f <= cfg.objective_tol * max(f, 1.0))
                or (cfg.max_seconds is not None and elapsed > cfg.max_seconds)
                or (cfg.stop_below_rel is not None and rel <= cfg.stop_below_rel))

    def report(self, solver: str, ran: int, x: np.ndarray, x_avg: np.ndarray,
               pre_seconds: float, final_objective) -> SolveReport:
        """The run's report; ``final_objective()`` is only evaluated when
        iteration ``ran`` is not traced yet."""
        if self.trace[-1].iteration != ran:
            f = final_objective()
            self.trace.append(TracePoint(ran, time.perf_counter() - self.start, f,
                                         relative_error(f, self.f_star)))
        return SolveReport(solver=solver, trace=self.trace, final_x=x, final_x_avg=x_avg,
                           iterations_run=ran, preconditioning_seconds=pre_seconds)


def _batch_sgd(a: np.ndarray, b: np.ndarray, cfg: SolverConfig, f_star: float | None,
               rows: np.ndarray, rhs: np.ndarray, step, solver: str,
               pre_seconds: float) -> SolveReport:
    """Shared loop of hdpwbatch and sgd: T updates x <- step(x, v, scale)
    on i.i.d. uniform batches of ``batch_size`` rows of (rows, rhs), where
    scale * v is the unbiased batch gradient. The trace follows the
    averaged iterate."""
    m, r = rows.shape[0], cfg.batch_size
    scale = 2.0 * m / r
    x = _start_point(cfg, a.shape[1])
    x_sum = np.zeros_like(x)
    indices = batch_index_stream(cfg.seed, m, r)
    rec = _Recorder(cfg, f_star, objective_value(a, b, x))
    ran = 0
    for t in range(1, cfg.iterations + 1):
        idx = next(indices)
        batch = rows[idx]
        resid = batch @ x - rhs[idx]
        x = step(x, batch.T @ resid, scale)
        x_sum += x
        ran = t
        if rec.due(t) and rec.stop(t, objective_value(a, b, x_sum / t)):
            break
    x_avg = x_sum / ran if ran else x.copy()
    return rec.report(solver, ran, x, x_avg, pre_seconds,
                      lambda: objective_value(a, b, x_avg))


def hd_pw_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                    cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Two-step preconditioned mini-batch SGD (uniform sampling).

    Preconditions once (R factor + Hadamard transform of A and b),
    then runs T prox steps on i.i.d. batches of ``batch_size`` rows of
    the transformed, zero-padded problem. The report's trace and
    ``final_x_avg`` follow the averaged iterate, which is what the
    method's convergence guarantee is about; ``final_x`` is the last
    iterate.
    """
    a, b = _validate_problem(a, b, w)
    pre, pre_seconds = _precondition(a, b, cfg)
    eta = _sgd_eta(cfg, w, a, pre.hda, pre.hdb, pre.r_factor)
    prox = RMetricProx(pre.r_factor, w)
    return _batch_sgd(a, b, cfg, f_star, pre.hda, pre.hdb,
                      lambda x, v, scale: prox.solve(x, scale * v, eta),
                      "hdpwbatch", pre_seconds)


def hd_pw_acc_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Multi-epoch accelerated mini-batch SGD on the preconditioned
    problem.

    Epoch s runs N_s inner accelerated steps sized to halve the error
    bound V_0 2^-s, warm starting from the previous epoch's output; the
    inner recursion averages with weights 2/(t+1). ``iterations`` acts
    as a cap on the total number of inner steps; a single epoch
    demanding more than ``epoch_iter_cap`` steps raises EpochBudgetError.
    """
    a, b = _validate_problem(a, b, w)
    pre, pre_seconds = _precondition(a, b, cfg)

    r = cfg.batch_size
    x0 = _start_point(cfg, a.shape[1])
    L, mu = _smoothness_bounds(a, pre.r_factor, cfg.seed)
    sigma2_batch = _sigma2(cfg, pre.hda, pre.hdb, pre.r_factor, x0) / r
    f0 = objective_value(a, b, x0)
    v0 = f0 if cfg.v0 == "auto" else float(cfg.v0)

    prox = RMetricProx(pre.r_factor, w)
    x_hat = x0.copy()
    scale = 2.0 * pre.n_pad / r
    indices = batch_index_stream(cfg.seed, pre.n_pad, r)
    rec = _Recorder(cfg, f_star, f0)
    total = 0
    stopped = False
    for s in range(1, cfg.epochs + 1):
        if stopped or total >= cfg.iterations:
            break
        n_s, eta_s = acc_epoch_schedule(L, mu, sigma2_batch, v0, s)
        if n_s > cfg.epoch_iter_cap:
            raise EpochBudgetError(f"epoch {s} wants {n_s} iterations")
        x = x_hat.copy()
        for t in range(1, min(n_s, cfg.iterations - total) + 1):
            alpha = 2.0 / (t + 1.0)
            x_tilde = (1.0 - alpha) * x_hat + alpha * x
            idx = next(indices)
            rows = pre.hda[idx]
            resid = rows @ x_tilde - pre.hdb[idx]
            c = scale * (rows.T @ resid)
            eta_t = eta_s * t
            denom = 1.0 + eta_t * mu
            x = prox.solve((x + eta_t * mu * x_tilde) / denom, c, eta_t / denom)
            x_hat = (1.0 - alpha) * x_hat + alpha * x
            total += 1
            if rec.due(total) and rec.stop(total, objective_value(a, b, x_hat)):
                stopped = True
                break
    return rec.report("hdpwacc", total, x_hat, x_hat, pre_seconds,
                      lambda: objective_value(a, b, x_hat))


def _full_gradient_descent(a, b, w, cfg, f_star, *, solver: str,
                           eta: float, grad_scale: float,
                           fresh_sketch: bool) -> SolveReport:
    """Shared loop of pw_gradient and IHS: full gradient, R-metric prox."""
    a, b = _validate_problem(a, b, w)
    n, d = a.shape
    s = resolve_sketch_size(cfg, n, d, True)

    def sketched_prox(seed: int) -> RMetricProx:
        return RMetricProx(qr_thin(apply(make_sketch(cfg.sketch_kind, s, n, seed), a)).r, w)

    tic = time.perf_counter()
    prox = None if fresh_sketch else sketched_prox(cfg.seed)
    pre_seconds = time.perf_counter() - tic

    x = _start_point(cfg, d)
    resid = a @ x - b
    f = float(resid @ resid)
    rec = _Recorder(cfg, f_star, f, dense=True)
    ran = 0
    for t in range(1, cfg.iterations + 1):
        if fresh_sketch:
            prox = sketched_prox(int(np.random.SeedSequence(
                [int(cfg.seed), _STREAM_IHS, t]).generate_state(1)[0]))
        x = prox.solve(x, grad_scale * (a.T @ resid), eta)
        resid = a @ x - b
        f_prev, f = f, float(resid @ resid)
        ran = t
        if rec.stop(t, f, f_prev):
            break
    return rec.report(solver, ran, x, x.copy(), pre_seconds, lambda: f)


def pw_gradient(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Preconditioned projected gradient descent: one sketch, one R,
    full gradient 2 A^T (Ax - b) each iteration. Default step 1/2."""
    eta = 0.5 if cfg.step_size == "auto" else float(cfg.step_size)
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="pwgrad",
                                  eta=eta, grad_scale=2.0, fresh_sketch=False)


def ihs(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Iterative Hessian sketch: a new seeded sketch every iteration."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="ihs",
                                  eta=1.0, grad_scale=1.0, fresh_sketch=True)


def ihs_fixed(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
              cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Iterative Hessian sketch with one sketch for all iterations. The
    update is algebraically identical to pw_gradient with eta = 1/2,
    since the inner argmin depends on M = SA only through R^T R."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="ihs-fixed",
                                  eta=1.0, grad_scale=1.0, fresh_sketch=False)


def plain_sgd_baseline(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                       cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Uniform mini-batch SGD on the raw problem with Euclidean
    projection; no preconditioning. Reports the averaged iterate."""
    a, b = _validate_problem(a, b, w)
    eta = _sgd_eta(cfg, w, a, a, b, None)
    return _batch_sgd(a, b, cfg, f_star, a, b,
                      lambda x, v, scale: project_euclidean(w, x - eta * scale * v),
                      "sgd", 0.0)


SOLVERS = {
    "hdpwbatch": hd_pw_batch_sgd,
    "hdpwacc": hd_pw_acc_batch_sgd,
    "pwgrad": pw_gradient,
    "ihs": ihs,
    "ihs-fixed": ihs_fixed,
    "sgd": plain_sgd_baseline,
}
