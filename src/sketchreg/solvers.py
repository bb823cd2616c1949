"""Solvers for min_{x in W} ||Ax - b||^2.

Four preconditioned methods plus one baseline:

* ``hd_pw_batch_sgd``   -- preconditioning by one randomized Hadamard
  pass and a sketch's R, then mini-batch SGD with uniform row sampling
  on the preconditioned problem.
* ``hd_pw_acc_batch_sgd`` -- same preconditioning, multi-epoch accelerated
  stochastic gradient with geometric error halving across epochs.
* ``pw_gradient``       -- one sketch, full-gradient R-metric descent;
  linearly convergent for the high precision regime.
* ``ihs``               -- the iterative-Hessian-sketch baseline, a fresh
  sketch per iteration; ``ihs_fixed`` keeps one sketch and reproduces
  pw_gradient at eta = 1/2.
* ``plain_sgd_baseline`` -- uniform SGD on the raw, unpreconditioned
  problem, for comparison runs; it shares hd_pw_batch_sgd's loop.

Every solver takes R from ``precond.sketched_r``, under one rank-loss
retry policy. The SGD solvers get it from ``build_preconditioner``,
which transforms A and b once and samples an SRHT's rows from that
same H D A.

The three SGD solvers share one pipeline, ``_sgd_solve``, and differ only
in their loops. They step in y = R x coordinates over U = HDA R^-1 (U = A,
R = I for plain SGD), i.e. SGD on min ||U y - HDb||^2 over R W: a step
costs O(batch * d) with no triangular solve on R^d, and on a ball only a
step that leaves W pays for the R-metric projection. One blocked pass
writes U over the Hadamard-transformed rows and yields the exact
smoothness constants and the eigendecomposition of G = U^T U, so trace
points cost O(d^2) each (see ``_trace_objective``); the returned iterates
are x = R^-1 y.

With batch * d in the hundreds, a step's arithmetic is cheaper than
numpy's per-call dispatch, so the loops make as few calls as they can:
``_batches`` gathers the rows and responses of 256 steps with one take()
each, and a step is two BLAS gemv calls through ``ndarray.dot`` plus a
few vector operations and the projection. The iterates are bitwise
those of a per-step gather with ``@``.

All solvers are deterministic given the config seed: independent RNG
streams are derived for the sketch (whose SRHT stream also gives the
Hadamard signs), the sampled batch indices, and the sampled
gradient-variance estimate. The smoothness constants are exact and draw
no random numbers.
"""

import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateOptimumError,
    DimensionMismatchError,
    DivergenceError,
    EpochBudgetError,
    UnboundedSetError,
)
from .feasible import FeasibleSet, RMetricProx, diameter_param, project_euclidean
# qr_thin and apply run inside precond.sketched_r; perfbench/tracer.py
# also wraps them under this module's names, so they stay importable here.
from .linalg import qr_thin, tri_solve  # noqa: F401
from .precond import build_preconditioner, sketched_r
from .sketches import KINDS, apply, default_sketch_size  # noqa: F401

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

# Index rows per draw. numpy's bounded-integer draw buffers within one
# call, so a different chunk gives a different stream.
_INDEX_CHUNK = 8192
# Steps per gather in ``_batches``: one take of rows and one of rhs per
# 256 steps, a buffer of 256 * batch * d floats.
_GATHER_STEPS = 256
# Rows per block of the constant estimators' pass: large enough that each
# block is one efficient GEMM, small enough to bound the temporaries.
_GRAM_BLOCK = 4096
# Above this kappa(G) the minimiser y_c of the centred quadratic cannot
# be trusted, so SGD trace points are evaluated exactly.
_CENTRED_MAX_COND = 1e8
# hdpwacc raises EpochBudgetError for an epoch that wants more steps.
_EPOCH_ITER_CAP = 10_000_000


@dataclass
class SolverConfig:
    """Knobs shared by all solvers; fields that a given solver does not
    use are ignored by it.

    ``step_size="auto"`` makes the SGD step follow the
    min(1/(2L), sqrt(D^2/(2 T sigma^2))) rule with the exact smoothness
    constants of the preconditioned objective (the SGD solvers' one
    blocked pass over the rows), D = D_W measured in y = R x, the
    coordinates of the prox (``feasible.diameter_param``), and, only when
    D is finite, a sampled gradient-variance estimate sigma^2 at x0.
    hdpwacc always uses that sigma^2 and V_0 = f(x0). ``ihs`` and
    ``ihs_fixed`` take the unit step when ``step_size`` is "auto".

    ``record_every`` spaces the trace points (default: every iteration
    for the full-gradient solvers, about 512 points for the SGD solvers,
    whose points cost O(d^2) each). ``max_seconds``, ``objective_tol``
    (full-gradient solvers) and ``stop_below_rel`` (needs ``f_star``)
    end a run early; ``SolveReport.stop_reason`` says which rule did.
    The SGD solvers' stop rules read the trace value, and the last trace
    point is always the exact objective of the returned iterate.
    """

    iterations: int = 1000
    batch_size: int = 1
    step_size: float | str = "auto"
    epochs: int = 8
    seed: int = 0
    record_every: int | None = None
    sketch_kind: str = "srht"
    sketch_size: int | None = None
    diameter_bound: float | None = None
    max_seconds: float | None = None
    objective_tol: float | None = None
    stop_below_rel: float | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not isinstance(self.step_size, str) and self.step_size <= 0.0:
            raise ValueError("explicit step_size must be > 0")
        if isinstance(self.step_size, str) and self.step_size != "auto":
            raise ValueError(f"step_size must be a number or 'auto', got {self.step_size!r}")
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
    relative error), the last iterate, the averaged iterate, how long
    preconditioning took, and why the run stopped: "iterations" (ran
    its iteration budget or epoch schedule), "target"
    (``stop_below_rel``), "time" (``max_seconds``) or "objective_tol"."""

    solver: str
    trace: list[TracePoint]
    final_x: np.ndarray
    final_x_avg: np.ndarray
    iterations_run: int
    preconditioning_seconds: float
    stop_reason: str

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
    """Fixed SGD step: min(1/(2L), sqrt(D_W^2 / (2 T sigma^2))); just the
    1/(2L) cap when there is no noise or no step to take (T < 1)."""
    cap = 1.0 / (2.0 * L)
    if sigma2 <= 0.0 or T < 1:
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


def _index_blocks(seed: int, n: int, batch: int) -> Iterator[np.ndarray]:
    """(_INDEX_CHUNK, batch) blocks of uniform-with-replacement indices."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_SAMPLE]))
    while True:
        yield rng.integers(0, n, size=(_INDEX_CHUNK, batch))


def batch_index_stream(seed: int, n: int, batch: int) -> Iterator[np.ndarray]:
    """The exact uniform-with-replacement index stream the SGD solvers
    consume, exposed so tests can replay a run's sample sequence."""
    for block in _index_blocks(seed, n, batch):
        yield from block


def _batches(u: np.ndarray, rhs: np.ndarray, seed: int,
             batch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(U_B, rhs_B) per step, in ``batch_index_stream`` order. Rows are
    gathered ``_GATHER_STEPS`` steps at a time, so the per-step cost is
    iterating a view rather than two take() calls."""
    for block in _index_blocks(seed, u.shape[0], batch):
        for start in range(0, _INDEX_CHUNK, _GATHER_STEPS):
            idx = block[start:start + _GATHER_STEPS]
            # take() gathers rows about twice as fast as fancy indexing.
            yield from zip(u.take(idx, axis=0), rhs.take(idx))


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


class _Constants(NamedTuple):
    """What one blocked pass over U = rows R^-1 yields."""

    L: float  # 2 lambda_max(G)
    mu: float  # 2 lambda_min(G), clipped at 0
    worst_row_sq: float  # max_i ||u_i||^2
    eigvals: np.ndarray  # ascending eigenvalues of G = U^T U
    eigvecs: np.ndarray  # G = eigvecs @ diag(eigvals) @ eigvecs.T


def _smoothness_bounds(rows: np.ndarray, r_factor: np.ndarray | None) -> _Constants:
    """Exact (L, mu) = 2 (sigma_max^2, sigma_min^2) of U = rows R^-1
    (rows itself when r_factor is None), the eigendecomposition of its
    Gram matrix and its largest squared row norm, from one pass over
    consecutive blocks of ``_GRAM_BLOCK`` rows. Given r_factor, each block
    is overwritten by its GEMM against an explicit d x d inverse, so
    ``rows`` ends as U and no n x d array is allocated."""
    n, d = rows.shape
    r_inv = None if r_factor is None else tri_solve(r_factor, np.eye(d))
    gram = np.zeros((d, d))
    worst = 0.0
    for start in range(0, n, _GRAM_BLOCK):
        u = rows[start:start + _GRAM_BLOCK]
        if r_inv is not None:
            u[...] = u @ r_inv
        gram += u.T @ u
        worst = max(worst, float(np.max(np.sum(u * u, axis=1))))
    eigs, vecs = np.linalg.eigh(gram)
    return _Constants(2.0 * float(eigs[-1]), 2.0 * max(float(eigs[0]), 0.0), worst,
                      eigs, vecs)


def _sampled_gradient_variance(rows: np.ndarray, rhs: np.ndarray, y0: np.ndarray,
                               seed: int, draws: int = 200) -> float:
    """Empirical variance (x safety factor 2) of single-row gradients of
    ||rows y - rhs||^2 at y0."""
    n = rows.shape[0]
    resid = rows @ y0 - rhs
    mean_grad = 2.0 * (rows.T @ resid)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_ESTIMATE, 1]))
    idx = rng.integers(0, n, size=draws)
    grads = 2.0 * n * rows[idx] * resid[idx][:, None]
    return 2.0 * float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))


def _stochastic_smoothness(consts: _Constants, n: int) -> float:
    """Worst per-row smoothness 2 n max_i ||u_i||^2 of the n-row sampled
    problem. The average-case SGD step must stay below its inverse or
    single-row updates explode."""
    return 2.0 * n * consts.worst_row_sq


class _YProblem(NamedTuple):
    """An SGD solver's problem min ||U y - rhs||^2 over y in R W, started at
    y0 = R x0 with f0 = f(x0); ``r_factor`` is R (None for plain SGD)."""

    u: np.ndarray
    rhs: np.ndarray
    consts: _Constants
    y0: np.ndarray
    f0: float
    project: Callable[[np.ndarray], np.ndarray]
    to_x: Callable[[np.ndarray], np.ndarray]
    r_factor: np.ndarray | None


def _sgd_eta(cfg: SolverConfig, w: FeasibleSet, prob: _YProblem) -> float:
    """Explicit ``step_size``, or the auto rule on the sampled problem."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    r = cfg.batch_size
    L = prob.consts.L
    # Eq-style rule min(1/(2L), sqrt(D^2/(2 T sigma^2))), additionally
    # capped for stochastic stability: with L the full-gradient
    # smoothness alone, single-row steps are wildly unstable (the
    # per-row smoothness L_stoch >> L). A batch of r rows concentrates
    # toward the full Hessian, so the cap relaxes as 1/(L_stoch/r + L).
    l_stoch = _stochastic_smoothness(prob.consts, prob.u.shape[0])
    cap = min(1.0 / (2.0 * L), 1.0 / (l_stoch / r + L))
    try:
        # D_W in y = R x coordinates, the metric sigma^2 and the prox use.
        d_w = diameter_param(w, cfg.diameter_bound, prob.r_factor)
    except UnboundedSetError:
        return cap
    sigma2 = _sampled_gradient_variance(prob.u, prob.rhs, prob.y0, cfg.seed)
    return min(cap, sgd_step_size(L, d_w, cfg.iterations, sigma2 / r))


def _trace_objective(a: np.ndarray, b: np.ndarray,
                     prob: _YProblem) -> Callable[[np.ndarray], float]:
    """y -> f(y) = ||U y - rhs||^2 of a ``_YProblem``, for trace points.

    With G = V diag(lam) V^T and its minimiser y_c = G^-1 U^T rhs,
    f(y) = f(y_c) + ||lam^1/2 V^T (y - y_c)||^2: two nonnegative terms, so
    a point costs O(d^2) and suffers no cancellation. When kappa(G)
    exceeds ``_CENTRED_MAX_COND`` (plain SGD on an ill-conditioned A), y_c
    is not trustworthy and each point is evaluated exactly instead.
    """
    lam, vecs = prob.consts.eigvals, prob.consts.eigvecs
    if lam[0] <= 0.0 or lam[-1] > _CENTRED_MAX_COND * lam[0]:
        return lambda y: objective_value(a, b, prob.to_x(y))
    y_c = vecs @ ((vecs.T @ (prob.u.T @ prob.rhs)) / lam)
    f_c = objective_value(prob.u, prob.rhs, y_c)
    half = np.sqrt(lam)[:, None] * vecs.T
    return lambda y: f_c + float(np.square(half @ (y - y_c)).sum())


class _Recorder:
    """Trace, stop rules and time budget shared by every solver loop.

    The clock starts at construction; ``stop`` traces a point when its
    iteration is due and applies ``stop_below_rel``, ``objective_tol``
    (given the previous objective) and ``max_seconds``, keeping the
    rule that fired as ``stop_reason``; ``report`` makes the exact
    objective of the returned iterate the last point. A non-finite
    objective, checked or traced, raises DivergenceError.
    """

    def __init__(self, cfg: SolverConfig, f_star: float | None, f0: float,
                 dense: bool = False):
        self.cfg = cfg
        self.f_star = f_star
        # Full-gradient loops get each objective for free and trace every
        # iteration by default; SGD loops estimate a point in O(d^2) and
        # trace ~512.
        self.every = cfg.record_every or (1 if dense else max(1, cfg.iterations // 512))
        self.trace = [self._point(0, 0.0, f0)]
        self.stop_reason = "iterations"
        self.start = time.perf_counter()

    def _point(self, t: int, elapsed: float, f: float) -> TracePoint:
        if not np.isfinite(f):
            raise DivergenceError(f"objective is {f} at iteration {t}")
        return TracePoint(t, elapsed, f, relative_error(f, self.f_star))

    def _rule(self, point: TracePoint, f_prev: float | None) -> str | None:
        cfg = self.cfg
        if cfg.stop_below_rel is not None and point.relative_error <= cfg.stop_below_rel:
            return "target"
        if (f_prev is not None and cfg.objective_tol is not None
                and f_prev - point.objective <= cfg.objective_tol * max(point.objective, 1.0)):
            return "objective_tol"
        if cfg.max_seconds is not None and point.elapsed_seconds > cfg.max_seconds:
            return "time"
        return None

    def due(self, t: int) -> bool:
        return t % self.every == 0 or t == self.cfg.iterations

    def stop(self, t: int, f: float, f_prev: float | None = None) -> bool:
        """Whether a stop rule fires at iteration t; traces t when due."""
        point = self._point(t, time.perf_counter() - self.start, f)
        rule = self._rule(point, f_prev)
        if self.due(t):
            self.trace.append(point)
        if rule is not None:
            self.stop_reason = rule
        return rule is not None

    def report(self, solver: str, ran: int, x: np.ndarray, x_avg: np.ndarray,
               pre_seconds: float, final_objective: float) -> SolveReport:
        """The run's report, whose point at iteration ``ran`` carries
        ``final_objective``, the exact objective of the returned iterate."""
        elapsed = time.perf_counter() - self.start
        if self.trace[-1].iteration == ran:
            elapsed = self.trace.pop().elapsed_seconds
        self.trace.append(self._point(ran, elapsed, final_objective))
        return SolveReport(solver=solver, trace=self.trace, final_x=x, final_x_avg=x_avg,
                           iterations_run=ran, preconditioning_seconds=pre_seconds,
                           stop_reason=self.stop_reason)


def _sgd_solve(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig,
               f_star: float | None, solver: str,
               loop: Callable[..., tuple], precondition: bool) -> SolveReport:
    """The pipeline of the three SGD solvers, which differ only in ``loop``:
    preconditioning (skipped for plain SGD; a bad sketch size raises even
    at ``iterations=0``, which reports x0 and runs no estimator), the
    y-problem, ``loop`` -> (recorder, iterations run, last x, reported x),
    and the exact objective of the reported x as the last trace point."""
    a, b = _validate_problem(a, b, w)
    x0 = _start_point(cfg, a.shape[1])
    # At x0 = 0 the residual is -b, and b @ b is the same bits as f(0).
    f0 = float(b @ b) if cfg.x0 is None else objective_value(a, b, x0)
    pre_seconds = 0.0
    if precondition:
        tic = time.perf_counter()
        pre = build_preconditioner(a, b, cfg.sketch_kind,
                                   resolve_sketch_size(cfg, *a.shape, False), cfg.seed)
        pre_seconds = time.perf_counter() - tic
    if cfg.iterations == 0:
        return _Recorder(cfg, f_star, f0).report(solver, 0, x0, x0.copy(), pre_seconds, f0)
    if precondition:
        prox = RMetricProx(pre.r_factor, w)
        prob = _YProblem(pre.hda, pre.hdb, _smoothness_bounds(pre.hda, pre.r_factor),
                         pre.r_factor @ x0, f0, prox.project, prox.to_x, pre.r_factor)
    else:
        prob = _YProblem(a, b, _smoothness_bounds(a, None), x0, f0,
                         lambda y: project_euclidean(w, y), lambda y: y, None)
    rec, ran, x, x_avg = loop(a, b, w, cfg, f_star, prob)
    return rec.report(solver, ran, x, x_avg, pre_seconds, objective_value(a, b, x_avg))


def _batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig,
               f_star: float | None, prob: _YProblem) -> tuple:
    """Loop of hdpwbatch and sgd: T updates
    y <- P(y - eta * scale * U_B^T (U_B y - rhs_B)) on i.i.d. uniform
    batches B of ``batch_size`` rows (the scaled batch gradient is
    unbiased). The trace follows, and it reports, the averaged iterate."""
    m, r = prob.u.shape[0], cfg.batch_size
    # One float: eta * scale * g evaluates eta * scale first anyway.
    step = _sgd_eta(cfg, w, prob) * (2.0 * m / r)
    y = prob.y0
    y_sum = np.zeros_like(y)
    objective = _trace_objective(a, b, prob)
    rec = _Recorder(cfg, f_star, prob.f0)
    batches = _batches(prob.u, prob.rhs, cfg.seed, r)
    for t, (rows, rhs) in zip(range(1, cfg.iterations + 1), batches):
        # U_B^T resid as resid.dot(U_B): ndarray.dot runs the same BLAS
        # gemv as @, with less dispatch and no transposed view.
        y = prob.project(y - step * (rows.dot(y) - rhs).dot(rows))
        y_sum += y
        if rec.due(t) and rec.stop(t, objective(y_sum / t)):
            break
    # _sgd_solve runs at least one iteration, so t is the last one run.
    return rec, t, prob.to_x(y), prob.to_x(y_sum / t)


def _acc_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig,
             f_star: float | None, prob: _YProblem) -> tuple:
    """Loop of hdpwacc: the epochs of ``acc_epoch_schedule`` with
    V_0 = f0 and the sampled sigma^2. It traces and reports y_hat."""
    m, r = prob.u.shape[0], cfg.batch_size
    L, mu = prob.consts.L, prob.consts.mu
    sigma2_batch = _sampled_gradient_variance(prob.u, prob.rhs, prob.y0, cfg.seed) / r
    y_hat = prob.y0.copy()
    scale = 2.0 * m / r
    batches = _batches(prob.u, prob.rhs, cfg.seed, r)
    objective = _trace_objective(a, b, prob)
    rec = _Recorder(cfg, f_star, prob.f0)
    total = 0
    for s in range(1, cfg.epochs + 1):
        if total >= cfg.iterations or rec.stop_reason != "iterations":
            break
        n_s, eta_s = acc_epoch_schedule(L, mu, sigma2_batch, prob.f0, s)
        if n_s > _EPOCH_ITER_CAP:
            raise EpochBudgetError(f"epoch {s} wants {n_s} iterations")
        y = y_hat.copy()
        for t, (rows, rhs) in zip(range(1, min(n_s, cfg.iterations - total) + 1), batches):
            alpha = 2.0 / (t + 1.0)
            y_tilde = y_hat + alpha * (y - y_hat)
            eta_t = eta_s * t
            y_next = prob.project((y + eta_t * mu * y_tilde
                                   - eta_t * scale * (rows.dot(y_tilde) - rhs).dot(rows))
                                  / (1.0 + eta_t * mu))
            # (1 - alpha) y_hat + alpha y_next, reusing y_tilde.
            y_hat = y_tilde + alpha * (y_next - y)
            y = y_next
            total += 1
            if rec.due(total) and rec.stop(total, objective(y_hat)):
                break
    x_hat = prob.to_x(y_hat)
    return rec, total, x_hat, x_hat


def hd_pw_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                    cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Preconditioned mini-batch SGD (uniform sampling).

    Preconditions once (Hadamard transform of A and b, R factor), then
    runs T projected steps in y = R x coordinates on i.i.d. batches of
    ``batch_size`` rows of the transformed, zero-padded problem. The
    trace and ``final_x_avg`` follow the averaged iterate, which the
    method's convergence guarantee is about; ``final_x`` is the last one.
    """
    return _sgd_solve(a, b, w, cfg, f_star, "hdpwbatch", _batch_sgd, precondition=True)


def hd_pw_acc_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Multi-epoch accelerated mini-batch SGD on the preconditioned
    problem, in y = R x coordinates.

    Epoch s runs N_s inner accelerated steps sized to halve the error
    bound V_0 2^-s (V_0 = f(x0)), warm starting from the previous epoch's
    output; the inner recursion averages with weights 2/(t+1).
    ``iterations`` caps the total number of inner steps; a single epoch
    demanding more than ``_EPOCH_ITER_CAP`` steps raises EpochBudgetError.
    """
    return _sgd_solve(a, b, w, cfg, f_star, "hdpwacc", _acc_sgd, precondition=True)


def _full_gradient_descent(a, b, w, cfg, f_star, *, solver: str,
                           auto_eta: float, grad_scale: float,
                           fresh_sketch: bool) -> SolveReport:
    """Shared loop of pw_gradient and IHS: full gradient, R-metric prox,
    step ``auto_eta`` unless ``step_size`` is given."""
    eta = auto_eta if cfg.step_size == "auto" else float(cfg.step_size)
    a, b = _validate_problem(a, b, w)
    n, d = a.shape
    s = resolve_sketch_size(cfg, n, d, True)

    def sketched_prox(seed: int, warm_from: RMetricProx | None = None) -> RMetricProx:
        return RMetricProx(sketched_r(a, cfg.sketch_kind, s, seed), w, warm_from)

    tic = time.perf_counter()
    prox = None if fresh_sketch else sketched_prox(cfg.seed)
    pre_seconds = time.perf_counter() - tic

    x = _start_point(cfg, d)
    # At x0 = 0 the residual is exactly -b: no pass over A.
    resid = -b if cfg.x0 is None else a @ x - b
    f = float(resid @ resid)
    rec = _Recorder(cfg, f_star, f, dense=True)
    ran = 0
    for t in range(1, cfg.iterations + 1):
        if fresh_sketch:
            # The new R's l1 solve starts from the last step's face; its
            # KKT test still decides.
            prox = sketched_prox(int(np.random.SeedSequence(
                [int(cfg.seed), _STREAM_IHS, t]).generate_state(1)[0]), prox)
        x = prox.solve(x, grad_scale * (a.T @ resid), eta)
        resid = a @ x - b
        f_prev, f = f, float(resid @ resid)
        ran = t
        if rec.stop(t, f, f_prev):
            break
    return rec.report(solver, ran, x, x.copy(), pre_seconds, f)


def pw_gradient(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Preconditioned projected gradient descent: one sketch, one R,
    full gradient 2 A^T (Ax - b) each iteration. Default step 1/2."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="pwgrad",
                                  auto_eta=0.5, grad_scale=2.0, fresh_sketch=False)


def ihs(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Iterative Hessian sketch: a new seeded sketch every iteration.
    Default step 1."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="ihs",
                                  auto_eta=1.0, grad_scale=1.0, fresh_sketch=True)


def ihs_fixed(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
              cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Iterative Hessian sketch with one sketch for all iterations. The
    update is algebraically identical to pw_gradient with eta = 1/2,
    since the inner argmin depends on M = SA only through R^T R.
    Default step 1."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="ihs-fixed",
                                  auto_eta=1.0, grad_scale=1.0, fresh_sketch=False)


def plain_sgd_baseline(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                       cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Uniform mini-batch SGD on the raw problem with Euclidean
    projection; no preconditioning. Reports the averaged iterate."""
    return _sgd_solve(a, b, w, cfg, f_star, "sgd", _batch_sgd, precondition=False)


SOLVERS = {
    "hdpwbatch": hd_pw_batch_sgd,
    "hdpwacc": hd_pw_acc_batch_sgd,
    "pwgrad": pw_gradient,
    "ihs": ihs,
    "ihs-fixed": ihs_fixed,
    "sgd": plain_sgd_baseline,
}
