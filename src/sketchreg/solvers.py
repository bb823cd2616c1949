"""Solvers for min_{x in W} ||Ax - b||^2.

Four preconditioned methods plus one baseline:

* ``hd_pw_batch_sgd``   -- two-step preconditioning, then mini-batch SGD
  with uniform row sampling on the preconditioned problem.
* ``hd_pw_acc_batch_sgd`` -- same preconditioning, multi-epoch accelerated
  stochastic gradient with geometric error halving across epochs.
* ``pw_gradient``       -- one sketch, full-gradient R-metric descent;
  linearly convergent for the high precision regime.
* ``ihs``               -- the iterative-Hessian-sketch baseline, a fresh
  sketch per iteration; ``ihs_fixed`` keeps one sketch and reproduces
  pw_gradient at eta = 1/2.
* ``plain_sgd_baseline`` -- uniform SGD on the raw, unpreconditioned
  problem, for comparison runs; it shares hd_pw_batch_sgd's loop.

The three SGD solvers step in y = R x coordinates over U = HDA R^-1
(U = A, R = I for plain SGD), i.e. SGD on min ||U y - HDb||^2 over R W:
a step costs O(batch * d) with no triangular solve on R^d, and on a
ball only a step that leaves W pays for the R-metric projection. One
blocked pass writes U over the Hadamard-transformed rows and yields the
exact smoothness constants and G = U^T U, so trace points cost O(d^2)
each (see ``_AnchoredObjective``); the returned iterates are x = R^-1 y.

All solvers are deterministic given the config seed: independent RNG
streams are derived for the sketch, the Hadamard signs, the sampled
batch indices, and the sampled gradient-variance estimate. The
smoothness constants are exact and draw no random numbers.
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
# Rows per block of the constant estimators' pass: large enough that each
# block is one efficient GEMM, small enough to bound the temporaries.
_GRAM_BLOCK = 4096
# An SGD trace point estimated from the anchored quadratic is trusted
# while its rounding bound, _TRACE_ROUNDING * (f0 + 2 |g0^T delta| +
# lambda_max ||delta||^2), stays below _TRACE_RTOL * f; otherwise it is
# evaluated exactly and becomes the new anchor.
_TRACE_ROUNDING = 64.0 * float(np.finfo(np.float64).eps)
_TRACE_RTOL = 1e-11


@dataclass
class SolverConfig:
    """Knobs shared by all solvers; fields that a given solver does not
    use are ignored by it.

    ``step_size``, ``sigma2`` and ``v0`` accept the string ``"auto"``:
    the step size then follows the min(1/(2L), sqrt(D^2/(2 T sigma^2)))
    rule with the exact smoothness constants of the preconditioned
    objective (the SGD solvers' one blocked pass over the rows), a
    sampled variance estimate at x0 and D = D_W measured in y = R x, the
    coordinates of sigma^2 and of the prox (``feasible.diameter_param``).
    ``ihs`` and ``ihs_fixed`` take the unit step when ``step_size`` is
    "auto".

    ``record_every`` spaces the trace points (default: every iteration
    for the full-gradient solvers, about 512 points for the SGD solvers,
    whose points cost O(d^2) each). ``max_seconds``, ``objective_tol``
    (full-gradient solvers) and ``stop_below_rel`` (needs ``f_star``)
    end a run early; ``SolveReport.stop_reason`` says which rule did.
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


class _Constants(NamedTuple):
    """What one blocked pass over U = rows R^-1 yields."""

    L: float  # 2 lambda_max(G)
    mu: float  # 2 lambda_min(G), clipped at 0
    worst_row_sq: float  # max_i ||u_i||^2
    gram: np.ndarray  # G = U^T U


def _smoothness_bounds(rows: np.ndarray, r_factor: np.ndarray | None) -> _Constants:
    """Exact (L, mu) = 2 (sigma_max^2, sigma_min^2) of U = rows R^-1
    (rows itself when r_factor is None), its Gram matrix and its largest
    squared row norm, from one pass over consecutive blocks of
    ``_GRAM_BLOCK`` rows. Given r_factor, each block is overwritten by
    its GEMM against an explicit d x d inverse, so ``rows`` ends as U and
    no n x d array is allocated."""
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
    eigs = np.linalg.eigvalsh(gram)
    return _Constants(2.0 * float(eigs[-1]), 2.0 * max(float(eigs[0]), 0.0), worst, gram)


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
    """An SGD solver's problem in y = R x coordinates: min ||U y - rhs||^2
    over y in R W, started at y0 = R x0 with f0 = f(x0); ``r_factor`` is
    R (None for plain SGD, where R = I)."""

    u: np.ndarray
    rhs: np.ndarray
    consts: _Constants
    y0: np.ndarray
    f0: float
    project: Callable[[np.ndarray], np.ndarray]
    to_x: Callable[[np.ndarray], np.ndarray]
    r_factor: np.ndarray | None


def _y_problem(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig,
               pre: Preconditioner | None) -> _YProblem:
    """With ``pre``: U = HDA R^-1, written over ``pre.hda`` by the
    estimator pass, and the R-metric projection. Without (plain SGD):
    U = A, R = I and the Euclidean projection."""
    x0 = _start_point(cfg, a.shape[1])
    f0 = objective_value(a, b, x0)
    if pre is None:
        return _YProblem(a, b, _smoothness_bounds(a, None), x0, f0,
                         lambda y: project_euclidean(w, y), lambda y: y, None)
    prox = RMetricProx(pre.r_factor, w)
    consts = _smoothness_bounds(pre.hda, pre.r_factor)
    return _YProblem(pre.hda, pre.hdb, consts, pre.r_factor @ x0, f0,
                     prox.project, prox.to_x, pre.r_factor)


def _sigma2(cfg: SolverConfig, prob: _YProblem) -> float:
    if cfg.sigma2 != "auto":
        return float(cfg.sigma2)
    return _sampled_gradient_variance(prob.u, prob.rhs, prob.y0, cfg.seed)


def _sgd_eta(cfg: SolverConfig, w: FeasibleSet, prob: _YProblem) -> float:
    """Explicit ``step_size``, or the auto rule on the sampled problem."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    r = cfg.batch_size
    L = prob.consts.L
    sigma2 = _sigma2(cfg, prob)
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
    return min(cap, sgd_step_size(L, d_w, cfg.iterations, sigma2 / r))


class _AnchoredObjective:
    """f(y) = ||U y - rhs||^2 of a ``_YProblem`` in O(d^2) a point.

    With G = U^T U, an anchor y0, its exact objective f0 and
    g0 = U^T (rhs - U y0): f(y0 + delta) = f0 - 2 g0^T delta + delta^T G delta.
    A point whose rounding bound (module constants ``_TRACE_ROUNDING``,
    ``_TRACE_RTOL``) is too large for its value is evaluated exactly
    instead and becomes the new anchor; ``exact`` evaluates a point
    without moving the anchor.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, prob: _YProblem):
        self.a, self.b, self.prob = a, b, prob
        self.lam_max = 0.5 * prob.consts.L
        self._anchor(prob.y0, prob.f0)

    def _anchor(self, y: np.ndarray, f: float) -> float:
        u, rhs = self.prob.u, self.prob.rhs
        self.y0, self.f0, self.g0 = y.copy(), f, u.T @ (rhs - u @ y)
        return f

    def exact(self, y: np.ndarray) -> float:
        return objective_value(self.a, self.b, self.prob.to_x(y))

    def __call__(self, y: np.ndarray) -> float:
        delta = y - self.y0
        lin = float(self.g0 @ delta)
        f = self.f0 - 2.0 * lin + float(delta @ (self.prob.consts.gram @ delta))
        bound = _TRACE_ROUNDING * (self.f0 + 2.0 * abs(lin)
                                   + self.lam_max * float(delta @ delta))
        if bound > _TRACE_RTOL * f:
            return self._anchor(y, self.exact(y))
        return f


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
    iteration is due and applies ``stop_below_rel``, ``objective_tol``
    (given the previous objective) and ``max_seconds``, keeping the
    rule that fired as ``stop_reason``; ``report`` adds the final
    point when the loop ended between due iterations or on an estimated
    point. A non-finite objective, checked or traced, raises
    DivergenceError.
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
        self._last_estimated = False
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

    def stop(self, t: int, f: float, f_prev: float | None = None,
             exact: Callable[[], float] | None = None) -> bool:
        """Whether a stop rule fires at iteration t. Given ``exact``, f is
        an estimate, and ``exact()`` replaces it before a target or
        objective_tol stop takes effect."""
        point = self._point(t, time.perf_counter() - self.start, f)
        rule = self._rule(point, f_prev)
        estimated = exact is not None
        if estimated and rule in ("target", "objective_tol"):
            point = self._point(t, point.elapsed_seconds, exact())
            rule, estimated = self._rule(point, f_prev), False
        if self.due(t):
            self.trace.append(point)
            self._last_estimated = estimated
        if rule is not None:
            self.stop_reason = rule
        return rule is not None

    def report(self, solver: str, ran: int, x: np.ndarray, x_avg: np.ndarray,
               pre_seconds: float, final_objective) -> SolveReport:
        """The run's report; ``final_objective()`` is only evaluated when
        iteration ``ran`` is not traced yet, or traced by an estimate."""
        if self.trace[-1].iteration == ran and self._last_estimated:
            self.trace.pop()
        if self.trace[-1].iteration != ran:
            self.trace.append(self._point(ran, time.perf_counter() - self.start,
                                          final_objective()))
        return SolveReport(solver=solver, trace=self.trace, final_x=x, final_x_avg=x_avg,
                           iterations_run=ran, preconditioning_seconds=pre_seconds,
                           stop_reason=self.stop_reason)


def _unmoved(a: np.ndarray, b: np.ndarray, cfg: SolverConfig, f_star: float | None,
             solver: str, pre_seconds: float) -> SolveReport:
    """Report of an SGD solve with ``iterations=0``: x0, and no estimator."""
    x0 = _start_point(cfg, a.shape[1])
    rec = _Recorder(cfg, f_star, objective_value(a, b, x0))
    return rec.report(solver, 0, x0, x0.copy(), pre_seconds, None)


def _batch_sgd(a: np.ndarray, b: np.ndarray, cfg: SolverConfig, f_star: float | None,
               prob: _YProblem, eta: float, solver: str,
               pre_seconds: float) -> SolveReport:
    """Shared loop of hdpwbatch and sgd: T updates
    y <- P(y - eta * scale * U_B^T (U_B y - rhs_B)) on i.i.d. uniform
    batches B of ``batch_size`` rows, where the scaled batch gradient is
    unbiased. The trace follows the averaged iterate."""
    m, r = prob.u.shape[0], cfg.batch_size
    scale = 2.0 * m / r
    y = prob.y0
    y_sum = np.zeros_like(y)
    indices = batch_index_stream(cfg.seed, m, r)
    objective = _AnchoredObjective(a, b, prob)
    rec = _Recorder(cfg, f_star, prob.f0)
    ran = 0
    for t in range(1, cfg.iterations + 1):
        idx = next(indices)
        # take() gathers rows about twice as fast as fancy indexing.
        batch = prob.u.take(idx, axis=0)
        resid = batch @ y - prob.rhs.take(idx)
        y = prob.project(y - eta * scale * (batch.T @ resid))
        y_sum += y
        ran = t
        if rec.due(t):
            y_avg = y_sum / t
            if rec.stop(t, objective(y_avg), exact=lambda: objective.exact(y_avg)):
                break
    x_avg = prob.to_x(y_sum / ran)
    return rec.report(solver, ran, prob.to_x(y), x_avg, pre_seconds,
                      lambda: objective_value(a, b, x_avg))


def hd_pw_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                    cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Two-step preconditioned mini-batch SGD (uniform sampling).

    Preconditions once (R factor + Hadamard transform of A and b),
    then runs T projected steps in y = R x coordinates on i.i.d. batches
    of ``batch_size`` rows of the transformed, zero-padded problem. The
    report's trace and ``final_x_avg`` follow the averaged iterate,
    which is what the method's convergence guarantee is about;
    ``final_x`` is the last iterate.
    """
    a, b = _validate_problem(a, b, w)
    pre, pre_seconds = _precondition(a, b, cfg)
    if cfg.iterations == 0:
        return _unmoved(a, b, cfg, f_star, "hdpwbatch", pre_seconds)
    prob = _y_problem(a, b, w, cfg, pre)
    return _batch_sgd(a, b, cfg, f_star, prob, _sgd_eta(cfg, w, prob),
                      "hdpwbatch", pre_seconds)


def hd_pw_acc_batch_sgd(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Multi-epoch accelerated mini-batch SGD on the preconditioned
    problem, in y = R x coordinates.

    Epoch s runs N_s inner accelerated steps sized to halve the error
    bound V_0 2^-s, warm starting from the previous epoch's output; the
    inner recursion averages with weights 2/(t+1). ``iterations`` acts
    as a cap on the total number of inner steps; a single epoch
    demanding more than ``epoch_iter_cap`` steps raises EpochBudgetError.
    """
    a, b = _validate_problem(a, b, w)
    pre, pre_seconds = _precondition(a, b, cfg)
    if cfg.iterations == 0:
        return _unmoved(a, b, cfg, f_star, "hdpwacc", pre_seconds)
    prob = _y_problem(a, b, w, cfg, pre)

    r = cfg.batch_size
    L, mu = prob.consts.L, prob.consts.mu
    sigma2_batch = _sigma2(cfg, prob) / r
    v0 = prob.f0 if cfg.v0 == "auto" else float(cfg.v0)

    y_hat = prob.y0.copy()
    scale = 2.0 * pre.n_pad / r
    indices = batch_index_stream(cfg.seed, pre.n_pad, r)
    objective = _AnchoredObjective(a, b, prob)
    rec = _Recorder(cfg, f_star, prob.f0)
    total = 0
    stopped = False
    for s in range(1, cfg.epochs + 1):
        if stopped or total >= cfg.iterations:
            break
        n_s, eta_s = acc_epoch_schedule(L, mu, sigma2_batch, v0, s)
        if n_s > cfg.epoch_iter_cap:
            raise EpochBudgetError(f"epoch {s} wants {n_s} iterations")
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
            # (1 - alpha) y_hat + alpha y_next, reusing y_tilde.
            y_hat = y_tilde + alpha * (y_next - y)
            y = y_next
            total += 1
            if rec.due(total) and rec.stop(total, objective(y_hat),
                                           exact=lambda: objective.exact(y_hat)):
                stopped = True
                break
    x_hat = prob.to_x(y_hat)
    return rec.report("hdpwacc", total, x_hat, x_hat, pre_seconds,
                      lambda: objective_value(a, b, x_hat))


def _full_gradient_descent(a, b, w, cfg, f_star, *, solver: str,
                           auto_eta: float, grad_scale: float,
                           fresh_sketch: bool) -> SolveReport:
    """Shared loop of pw_gradient and IHS: full gradient, R-metric prox,
    step ``auto_eta`` unless ``step_size`` is given."""
    eta = auto_eta if cfg.step_size == "auto" else float(cfg.step_size)
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
    a, b = _validate_problem(a, b, w)
    if cfg.iterations == 0:
        return _unmoved(a, b, cfg, f_star, "sgd", 0.0)
    prob = _y_problem(a, b, w, cfg, None)
    return _batch_sgd(a, b, cfg, f_star, prob, _sgd_eta(cfg, w, prob), "sgd", 0.0)


SOLVERS = {
    "hdpwbatch": hd_pw_batch_sgd,
    "hdpwacc": hd_pw_acc_batch_sgd,
    "pwgrad": pw_gradient,
    "ihs": ihs,
    "ihs-fixed": ihs_fixed,
    "sgd": plain_sgd_baseline,
}
