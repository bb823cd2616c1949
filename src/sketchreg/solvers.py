"""Solvers for min_{x in W} ||Ax - b||^2.

Four preconditioned methods plus one baseline:

* ``hd_pw_batch_sgd``   -- preconditioning by one randomized Hadamard
  pass and a sketch's R, then mini-batch SGD with uniform row sampling
  on the preconditioned problem.
* ``hd_pw_acc_batch_sgd`` -- same preconditioning, multi-epoch accelerated
  stochastic gradient with geometric error halving across epochs.
* ``pw_gradient``       -- one sketch, full-gradient R-metric heavy ball;
  linearly convergent for the high precision regime. With a plain step
  it is IHS with one sketch, which ``SOLVERS`` also lists as "ihs-fixed".
* ``ihs``               -- the iterative-Hessian-sketch baseline, a fresh
  sketch per iteration.
* ``plain_sgd_baseline`` -- uniform SGD on the raw, unpreconditioned
  problem, for comparison runs; it shares hd_pw_batch_sgd's loop.

The full-gradient solvers step on A^T (Ax - b), in which IHS's unit
step is 1. Their auto step comes from the sketch ratio rho = d/s, which
keeps it inside the sketch's expected spectrum at every sketch size:
heavy ball with step (1 - rho)^2 and momentum rho on pwgrad's one
sketch (``_heavy_ball_step``), the plain step (1 - rho)^2 / (1 + rho)
on each of IHS's fresh sketches (``_ratio_step``). The default sizes
(see ``resolve_sketch_size``) leave room for a drawn spectrum's spread.

Every solver takes R from ``precond.sketched_r``, under one rank-loss
retry policy. The SGD solvers get it from ``build_preconditioner``,
which transforms A and b once and samples an SRHT's rows from that
same H D A.

A run starts at ``SolverConfig.x0`` when one is given. Otherwise the SGD
solvers start at 0, and the full-gradient solvers at the sketch-and-solve
point of their t = 1 sketch (``_sketch_start``): that sketch is of
[A | b], so one pass and one QR give R and Q^T S b, and
x_ss = R^-1 Q^T S b (Sarlos, FOCS 2006), projected onto W in R's metric,
leaves only the last digits to iterate, as Epperly (SIMAX 2024) starts
iterative sketching. On the illcond-highprec benchmark's data (2^15 x 50,
kappa 1e8) it cut the iterations to 1e-10 from 13-14 to 5-6 at the 50d
SRHT and CountSketch, and from 22-49 to 9-19 at the 10d Gaussian. The
stop rules judge the start, so ``iterations=0`` returns the
sketch-and-solve estimate and a loose target takes no step.

Each pipeline builds one ``_Recorder`` per run before any sketch; it
keeps the trace, the stop rules and both clocks. The three SGD solvers
share one pipeline, ``_sgd_solve``, and differ only in their loops. The
pipeline builds the y-problem with V_0, the trace objective and the
batch stream once; the loops keep only their step rule and update, and
hdpwacc reads its epochs from ``_epochs``.
They step in y = R x coordinates over U = HDA R^-1 (U = A,
R = I for plain SGD), i.e. SGD on min ||U y - HDb||^2 over R W: a step
costs O(batch * d) with no triangular solve on R^d, and on a ball only a
step that leaves W pays for the R-metric projection. One blocked pass,
on every CPU for tall inputs and bitwise the same on any number, writes
U over the Hadamard-transformed rows and yields the exact smoothness
constants and the eigendecomposition of G = U^T U, so trace points cost
O(d^2) each (see ``_trace_objective``); the returned iterates are
x = R^-1 y. A step costs less arithmetic than numpy dispatch, so the
loops make few calls: 256 steps' rows are gathered by one take(), a
gradient is two gemv calls, and hdpwacc's three vectors are rows of one
array, so each update is one product with a coefficient vector.

All solvers are deterministic given the config seed: ``sketches.seeds``
derives independent streams for the sketch (whose SRHT stream also gives
the Hadamard signs), each ``ihs`` iteration's sketch seed, the sampled
batch indices, and the sampled gradient-variance estimate. The
smoothness constants are exact and draw no random numbers.
"""

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateOptimumError,
    DimensionMismatchError,
    DivergenceError,
    EpochBudgetError,
    SketchSizeError,
    UnboundedSetError,
)
from .feasible import FeasibleSet, RMetricProx, diameter_param, project_euclidean
# qr_thin and apply run inside precond.sketched_r; perfbench/tracer.py
# also wraps them under this module's names, so they stay importable here.
from .linalg import parallel, qr_thin, tri_solve  # noqa: F401
from .precond import build_preconditioner, sketched_r
from .sketches import KINDS, apply, check_integer, seeds, stream  # noqa: F401

__all__ = ["SolverConfig", "SolveReport", "TracePoint", "sgd_step_size",
           "acc_epoch_schedule", "hd_pw_batch_sgd", "hd_pw_acc_batch_sgd", "pw_gradient",
           "ihs", "plain_sgd_baseline", "resolve_sketch_size", "objective_value", "relative_error", "SOLVERS"]

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
# Rows sampled for the gradient-variance estimate sigma^2.
_VARIANCE_DRAWS = 200
# A traced objective above this multiple of the start's f_ref (see
# _start) raises DivergenceError. The highest converging peaks measured
# are 1.34 f_ref (ihs, srht, s = 4d, 2048 x 20, kappa 1e4, 40 iterations,
# unit step) and, for SGD, 1.07 f_ref (hdpwbatch, batch 1, started at x*,
# 8192 x 20); an explicit unit step on a 2d-8d sketch passes 10 f_ref
# within 2-34 iterations and grows geometrically from there.
_DIVERGENCE_FACTOR = 10.0
# Rounding level of an objective, relative to f(0) = ||b||^2: the floor of f_ref.
_EPS = float(np.finfo(np.float64).eps)
# Fewest rows of a high-precision Gaussian sketch. The edge of a small
# sketch's spectrum strays far past the auto step's interval: at 12d
# rows the ratio step diverged on 3.2 % of sampled sketches at d = 1,
# 0.5 % at d = 5 and 0.05 % at d = 10, and heavy ball diverges above the
# same top eigenvalue. At 400 rows none of 2e6 (d = 1) to 4e4 (d = 20)
# samples diverged or contracted slower than 0.85 a step.
_GAUSSIAN_MIN_ROWS = 400


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
    hdpwacc always uses that sigma^2 and V_0 = f(x0), floored at
    eps ||b||^2. For the full-gradient
    solvers "auto" reads rho = d/s for the s rows of the sketch that made
    R: ``pw_gradient`` takes heavy ball, step (1 - rho)^2 on A^T (Ax - b)
    and momentum rho (``_heavy_ball_step``), and ``ihs`` the step
    (1 - rho)^2 / (1 + rho) (``_ratio_step``). An explicit ``step_size``
    is in the same unit and takes no momentum.

    ``x0`` is the start. Without it the SGD solvers start at 0 and the
    full-gradient solvers at the sketch-and-solve point of their first
    sketch, projected onto W (0 if f is no lower there than at 0);
    ``SolveReport.start`` says which. An explicit x0, 0 included, keeps
    the sketch of A alone, so its runs are the same bits as before that
    default; R of [S A | S b] differs from R of S A in the last bits.
    With ``iterations=0`` a solver returns its start: for the
    full-gradient solvers, the sketch-and-solve estimate.

    ``record_every`` spaces the trace points (default: every iteration
    for the full-gradient solvers, about 512 points for the SGD solvers,
    whose points cost O(d^2) each). ``max_seconds``, ``objective_tol``
    and ``stop_below_rel`` (which raises ValueError without ``f_star``)
    end a run early; ``SolveReport.stop_reason`` says which rule did.
    ``objective_tol`` fires when |f - f_last| <= tol max(f, 1), f_last the
    last traced objective, so it tells a stall from a rise. The SGD
    solvers apply the rules at their traced points, and the last trace
    point is always the exact objective of the returned iterate. On an
    SGD trace ``objective_tol`` compares two noisy points, so a loose
    tolerance can fire on chance agreement far from the optimum: hdpwacc
    on 1024 x 6, kappa 10, batch 1, ``record_every=50`` and
    ``objective_tol=1e-3`` stopped after 50 of 5000 steps at rel-err 0.11.
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
        # None picks the default where one exists.
        for name, low in (("iterations", 0), ("batch_size", 1), ("epochs", 1), ("seed", 0),
                          ("sketch_size", 1), ("record_every", 1)):
            value = getattr(self, name)
            if value is not None or name not in ("sketch_size", "record_every"):
                check_integer(name, value, low)
        if isinstance(self.step_size, str) and self.step_size != "auto":
            raise ValueError(f"step_size must be a number or 'auto', got {self.step_size!r}")
        if self.sketch_kind not in KINDS:
            raise ValueError(f"unknown sketch_kind {self.sketch_kind!r}; pick one of {KINDS}")
        if self.x0 is not None and not np.isfinite(np.asarray(self.x0, dtype=np.float64)).all():
            raise ValueError("x0 must have finite entries")
        # Each test is written so that NaN fails it.
        if not isinstance(self.step_size, str) and not 0.0 < self.step_size < np.inf:
            raise ValueError(f"explicit step_size must be finite and > 0, got {self.step_size!r}")
        if self.diameter_bound is not None and not self.diameter_bound > 0.0:
            raise ValueError("diameter_bound must be > 0")
        for name in ("max_seconds", "objective_tol", "stop_below_rel"):
            value = getattr(self, name)
            if value is not None and not value >= 0.0:
                raise ValueError(f"{name} must be >= 0")


class TracePoint(NamedTuple):
    iteration: int
    elapsed_seconds: float
    objective: float
    relative_error: float


@dataclass
class SolveReport:
    """Per-run record: trace of (iteration, wall time, objective,
    relative error), the last iterate, the averaged iterate, how long
    the set-up took, why the run stopped: "iterations" (ran its
    iteration budget or epoch schedule), "target" (``stop_below_rel``),
    "time" (``max_seconds``) or "objective_tol", and where it started:
    "x0" (``SolverConfig.x0``), "zero" or "sketch" (the sketch-and-solve
    point, see ``SolverConfig``). Trace point 0 is the start's objective.

    ``preconditioning_seconds`` is the whole set-up lap, from the checked
    start to the first step: the first sketch and its R, and for the SGD
    solvers also the pass that writes U, the eigendecomposition of its
    Gram matrix, U^T rhs and the trace set-up (for plain ``sgd``, just
    that Gram pass). A trace point's ``elapsed_seconds`` counts from the
    end of that lap."""

    solver: str
    trace: list[TracePoint]
    final_x: np.ndarray
    final_x_avg: np.ndarray
    iterations_run: int
    preconditioning_seconds: float
    stop_reason: str
    start: str

    @property
    def final_relative_error(self) -> float:
        return self.trace[-1].relative_error

    @property
    def final_objective(self) -> float:
        return self.trace[-1].objective


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
    rng = stream(seed, "sample")
    while True:
        yield rng.integers(0, n, size=(_INDEX_CHUNK, batch))


def _batches(u: np.ndarray, rhs: np.ndarray, seed: int,
             batch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(U_B, rhs_B) per step, in ``_index_blocks`` order. Rows are
    gathered ``_GATHER_STEPS`` steps at a time, so the per-step cost is
    iterating a view rather than two take() calls."""
    for block in _index_blocks(seed, u.shape[0], batch):
        for start in range(0, _INDEX_CHUNK, _GATHER_STEPS):
            idx = block[start:start + _GATHER_STEPS]
            # take() gathers rows about twice as fast as fancy indexing.
            yield from zip(u.take(idx, axis=0), rhs.take(idx))


def _start(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig):
    """(A, b, x0, r0, f0, f_ref): the checked float64 problem, the start x0
    (zero unless ``cfg.x0`` is given; the full-gradient solvers replace a
    zero start by ``_sketch_start`` once their first sketch is drawn), its
    residual r0 = A x0 - b, its objective f0 = f(x0) and the divergence
    guard's reference objective. At x0 = 0, r0 is -b with no pass over A,
    and f0 is ||b||^2.

    f_ref is the largest of f(x0), f at x0's Euclidean projection onto W
    (an infeasible x0 can sit below every feasible objective) and the
    rounding level eps f(0) = eps ||b||^2 (an exact x0 has f(x0) = 0)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0] or b.size == 0:
        raise DimensionMismatchError(
            f"A is {a.shape}, b is {b.shape}; need (n, d) with matching n >= 1"
        )
    if w.dim != a.shape[1]:
        raise DimensionMismatchError(
            f"feasible set has dim {w.dim}, A has {a.shape[1]} columns"
        )
    # Row blocks: a mask of all of A would take A.nbytes / 8.
    rows = range(0, a.shape[0], _GRAM_BLOCK)
    if not (np.isfinite(b).all()
            and all(np.isfinite(a[lo:lo + _GRAM_BLOCK]).all() for lo in rows)):
        raise ValueError("input data contains non-finite entries")
    d = a.shape[1]
    if cfg.x0 is None:
        f0 = float(b @ b)
        return a, b, np.zeros(d), -b, f0, f0
    x0 = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x0.shape != (d,):
        raise DimensionMismatchError(f"x0 has shape {x0.shape}, expected ({d},)")
    r0 = a @ x0 - b
    f0 = float(r0 @ r0)
    f_ref = max(f0, _EPS * float(b @ b))
    p0 = project_euclidean(w, x0)
    if p0 is not x0:
        f_ref = max(f_ref, objective_value(a, b, p0))
    return a, b, x0, r0, f0, f_ref


def resolve_sketch_size(cfg: SolverConfig, n: int, d: int,
                        high_precision: bool) -> int:
    """Sketch rows a solver uses on an n x d problem: ``cfg.sketch_size``
    if set, else the default for its kind, kept between d + 1 and n - 1.

    The full-gradient high-precision methods take 50d rows of an SRHT or
    a CountSketch: those pay their pass over A whatever s is, so more
    rows cost only the s x d QR and buy a smaller rho = d/s, a faster
    contraction. A Gaussian sketch costs s n draws, so it takes 10d, but
    never fewer than ``_GAUSSIAN_MIN_ROWS`` (so 10d only for d > 40): the
    edge of its spectrum strays past the auto step's interval, by more
    the fewer rows it has. 10d is sized for ``pw_gradient``'s heavy ball
    step (``_heavy_ball_step``), whose worst sampled 50-column spectrum
    at 10d needed 50 iterations for 1e-10 and at 8d 134 (p99.9 28 and
    45); runs from x = 0 at kappa 1e8 took about 2.2 times these. From
    the default sketch-and-solve start they take fewer: 9-19 at 10d on
    illcond-highprec's data, against 22-49 from x = 0 (datasets 1-3,
    seeds 1001-1007). At small d, 10d rows are too few (see
    ``_GAUSSIAN_MIN_ROWS``)."""
    if cfg.sketch_size is not None:
        return cfg.sketch_size
    if cfg.sketch_kind == "gaussian":
        s = max(10 * d, _GAUSSIAN_MIN_ROWS) if high_precision else 8 * d
    elif high_precision:
        s = 50 * d
    elif cfg.sketch_kind == "srht":
        s = max(8 * d, int(np.ceil(d * np.log2(max(d, 2)))))
    else:  # CountSketch needs O(d^2) rows to embed a subspace
        s = d * d + d
    return max(min(s, n - 1), min(d + 1, n - 1))


def _sketch_ratio(d: int, s: int) -> float:
    """rho = d/s of a sketch of s rows; SketchSizeError for s <= d, where
    the sketch's spectrum has no interval to step on."""
    if s <= d:
        raise SketchSizeError(f"the auto step needs more sketch rows than d = {d}, got s={s}")
    return d / s


def _ratio_step(d: int, s: int) -> float:
    """The step (1 - rho)^2 / (1 + rho), rho = d/s, on A^T (Ax - b) in
    the metric of a sketch's R: the auto step of ``ihs``, whose sketch
    changes every iteration. Heavy ball's momentum did not pay there:
    at 2^15 x 50, kappa 1e8, 13-14 iterations to 1e-10 became 15 at 50d
    and 21-22 became 25-26 at 12d.

    For a Gaussian sketch of s rows the eigenvalues of the preconditioned
    Hessian (A R^-1)^T (A R^-1) lie, with high probability, near the
    Marchenko-Pastur interval [(1 + sqrt(rho))^-2, (1 - sqrt(rho))^-2],
    and this is the step 2 / (lo + hi) that contracts that interval best
    (Lacotte, Liu, Dobriban and Pilanci, NeurIPS 2020). Its product with
    the top of the interval, (1 + sqrt(rho))^2 / (1 + rho), stays below 2
    for every rho < 1; at 50d the step is 0.94. The interval is a
    large-d limit, though: a drawn sketch's top eigenvalue can pass
    2 / eta = 2 (1 + rho) / (1 - rho)^2, and then the step diverges.
    That is rare at the default sizes and common at few rows or small d
    (at d = 1 and s = 12, 3 % of Gaussian draws). Raises SketchSizeError
    for s <= d, where no interval exists."""
    rho = _sketch_ratio(d, s)
    return (1.0 - rho) ** 2 / (1.0 + rho)


def _heavy_ball_step(d: int, s: int) -> tuple[float, float]:
    """(eta, beta) = ((1 - rho)^2, rho), rho = d/s: the auto Polyak heavy
    ball step of ``pw_gradient``, x_{t+1} = prox of
    x_t + beta (x_t - x_{t-1}) - eta (R^T R)^-1 A^T (A x_t - b).

    It is the optimal fixed-momentum method for a sketch's
    Marchenko-Pastur spectrum (Lacotte and Pilanci, ICML 2020; Ozaslan,
    Pilanci and Arikan, ICASSP 2019), and it needs the sketch to stay
    fixed. It converges below the same top eigenvalue as
    ``_ratio_step``, 2 (1 + beta) / eta = 2 (1 + rho) / (1 - rho)^2, so
    momentum adds no divergence risk at any size. On the interval its
    error contracts by sqrt(rho) a step, against 2 sqrt(rho) / (1 + rho)
    for the ratio step, so fewer sketch rows reach the same tail: over
    20000 sampled 50-column Gaussian spectra, heavy ball at 10d needed
    at most 50 iterations for 1e-10 (p99.9 28), the ratio step at 12d
    at most 34 (p99.9 28). Raises SketchSizeError for s <= d."""
    rho = _sketch_ratio(d, s)
    return (1.0 - rho) ** 2, rho


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
    Gram matrix G and its largest squared row norm, from one pass over
    blocks of ``_GRAM_BLOCK`` rows on ``linalg.parallel``'s workers. Given
    r_factor, each block is overwritten by its GEMM against an explicit
    d x d inverse, so ``rows`` ends as U and no n x d array is allocated.
    Summed in block order, G is bitwise the same on any worker count."""
    n, d = rows.shape
    r_inv = None if r_factor is None else tri_solve(r_factor, np.eye(d))
    starts = range(0, n, _GRAM_BLOCK)
    grams = np.empty((len(starts), d, d))
    worst = [0.0] * len(starts)

    def block(i: int, buf: np.ndarray) -> None:
        u = rows[starts[i]:starts[i] + _GRAM_BLOCK]
        tmp = buf[:u.shape[0]]
        if r_inv is not None:
            u[...] = np.matmul(u, r_inv, out=tmp)
        grams[i] = u.T @ u
        worst[i] = float(np.max(np.sum(np.multiply(u, u, out=tmp), axis=1)))

    with parallel(len(starts), rows.size,
                  scratch=lambda: np.empty((min(n, _GRAM_BLOCK), d))) as (_, run):
        run(block, range(len(starts)))
    eigs, vecs = np.linalg.eigh(sum(grams, np.zeros((d, d))))
    return _Constants(2.0 * float(eigs[-1]), 2.0 * max(float(eigs[0]), 0.0),
                      max(worst, default=0.0), eigs, vecs)


def _sampled_gradient_variance(rows: np.ndarray, rhs: np.ndarray, y0: np.ndarray,
                               seed: int, u_rhs: np.ndarray) -> float:
    """Empirical variance (x safety factor 2) of single-row gradients of
    ||rows y - rhs||^2 at y0, given u_rhs = rows^T rhs."""
    n = rows.shape[0]
    # At y0 = 0 (every default hdpwacc start) the residual is -rhs and the
    # mean gradient is bitwise -2 u_rhs: no O(nd) pass.
    resid = rows @ y0 - rhs if y0.any() else -rhs
    mean_grad = 2.0 * (rows.T @ resid) if y0.any() else -2.0 * u_rhs
    rng = stream(seed, "estimate", 1)
    idx = rng.integers(0, n, size=_VARIANCE_DRAWS)
    grads = 2.0 * n * rows[idx] * resid[idx][:, None]
    return 2.0 * float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))


def _stochastic_smoothness(consts: _Constants, n: int) -> float:
    """Worst per-row smoothness 2 n max_i ||u_i||^2 of the n-row sampled
    problem. The average-case SGD step must stay below its inverse or
    single-row updates explode."""
    return 2.0 * n * consts.worst_row_sq


class _YProblem(NamedTuple):
    """An SGD solver's problem min ||U y - rhs||^2 over y in R W, started at
    y0 = R x0 with V_0 = f(x0), at least eps ||b||^2 (an exact x0 has
    f(x0) = 0); ``r_factor`` is R (None for plain SGD)."""

    u: np.ndarray
    rhs: np.ndarray
    consts: _Constants
    y0: np.ndarray
    v0: float
    project: Callable[[np.ndarray], np.ndarray]
    to_x: Callable[[np.ndarray], np.ndarray]
    r_factor: np.ndarray | None
    u_rhs: np.ndarray  # U^T rhs, for the trace's y_c and sigma^2 at y0 = 0


def _stability_cap(cfg: SolverConfig, prob: _YProblem) -> float:
    """1/(L_stoch/r + L), the step cap of both SGD loops: single-row steps
    at 1/L are unstable (L_stoch >> L); a batch of r rows relaxes the cap."""
    l_stoch = _stochastic_smoothness(prob.consts, prob.u.shape[0])
    return 1.0 / (l_stoch / cfg.batch_size + prob.consts.L)


def _sgd_eta(cfg: SolverConfig, w: FeasibleSet, prob: _YProblem) -> float:
    """Explicit ``step_size``, or the auto rule on the sampled problem."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    r, L = cfg.batch_size, prob.consts.L
    # Eq-style rule min(1/(2L), sqrt(D^2/(2 T sigma^2))) under ``_stability_cap``.
    cap = min(1.0 / (2.0 * L), _stability_cap(cfg, prob))
    try:
        # D_W in y = R x coordinates, the metric sigma^2 and the prox use.
        d_w = diameter_param(w, cfg.diameter_bound, prob.r_factor)
    except UnboundedSetError:
        return cap
    sigma2 = _sampled_gradient_variance(prob.u, prob.rhs, prob.y0, cfg.seed, prob.u_rhs)
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
    y_c = vecs @ ((vecs.T @ prob.u_rhs) / lam)
    f_c = objective_value(prob.u, prob.rhs, y_c)
    half = np.sqrt(lam)[:, None] * vecs.T
    return lambda y: f_c + float(np.square(half @ (y - y_c)).sum())


class _Recorder:
    """Trace, stop rules and clocks of one solve, shared by every solver loop.

    A pipeline builds it right after ``_start``, so a bad stop rule
    raises before any work, and calls ``begin`` once its set-up is done:
    the set-up lap becomes ``preconditioning_seconds`` and the trace clock
    starts. Point 0 is the start's objective; a start chosen in the set-up
    re-``anchor``s it, and ``at_target`` lets the full-gradient loop stop
    there. ``stop`` traces a point when its iteration is due and applies
    ``stop_below_rel``, ``objective_tol`` (against the last traced
    objective) and ``max_seconds``, keeping the rule that fired as
    ``stop_reason``; ``report`` makes the exact objective of the returned
    iterate the last point. An objective, checked or traced, that is
    non-finite or above ``_DIVERGENCE_FACTOR`` times the start's f_ref
    (see ``_start``) raises DivergenceError.
    """

    def __init__(self, cfg: SolverConfig, f_star: float | None, f0: float,
                 f_ref: float, dense: bool = False):
        if cfg.stop_below_rel is not None and f_star is None:
            raise ValueError("stop_below_rel needs f_star")
        self.cfg = cfg
        self.f_star = f_star
        # Full-gradient loops get each objective for free and trace every
        # iteration by default; SGD points cost O(d^2), ~512 are traced.
        self.every = cfg.record_every or (1 if dense else max(1, cfg.iterations // 512))
        self.stop_reason = "iterations"
        self.anchor("zero" if cfg.x0 is None else "x0", f0, f_ref)
        self.clock = time.perf_counter()

    def anchor(self, start: str, f0: float, f_ref: float) -> None:
        """Trace the start, a ``SolveReport.start``, as point 0 with its
        objective f0, and guard against divergence from f_ref (see
        ``_start``). A start chosen during the set-up re-anchors."""
        self.start = start
        self.limit = _DIVERGENCE_FACTOR * f_ref
        self.trace = [self._point(0, 0.0, f0)]

    def begin(self) -> None:
        """End the set-up lap and start the trace clock."""
        now = time.perf_counter()
        self.pre_seconds, self.clock = now - self.clock, now

    def at_target(self) -> bool:
        """Whether the start already meets ``stop_below_rel``, which then
        becomes the stop reason; no other rule can fire before a step."""
        rel, target = self.trace[0].relative_error, self.cfg.stop_below_rel
        if target is not None and rel <= target:
            self.stop_reason = "target"
        return self.stop_reason == "target"

    def _point(self, t: int, elapsed: float, f: float) -> TracePoint:
        if not np.isfinite(f):
            raise DivergenceError(f"objective is {f} at iteration {t}")
        if f > self.limit:
            raise DivergenceError(f"objective {f:.6e} exceeds {_DIVERGENCE_FACTOR:g} times "
                                  f"the start's objective {self.limit / _DIVERGENCE_FACTOR:.6e}"
                                  f" at iteration {t}")
        return TracePoint(t, elapsed, f, relative_error(f, self.f_star))

    def _rule(self, point: TracePoint) -> str | None:
        cfg, f = self.cfg, point.objective
        if cfg.stop_below_rel is not None and point.relative_error <= cfg.stop_below_rel:
            return "target"
        # A stall, not a rise: |f - f_last| is small either way round.
        if (cfg.objective_tol is not None
                and abs(f - self.trace[-1].objective) <= cfg.objective_tol * max(f, 1.0)):
            return "objective_tol"
        if cfg.max_seconds is not None and point.elapsed_seconds > cfg.max_seconds:
            return "time"
        return None

    def due(self, t: int) -> bool:
        return t % self.every == 0 or t == self.cfg.iterations

    def stop(self, t: int, f: float) -> bool:
        """Whether a stop rule fires at iteration t; traces t when due."""
        point = self._point(t, time.perf_counter() - self.clock, f)
        rule = self._rule(point)
        if self.due(t):
            self.trace.append(point)
        if rule is not None:
            self.stop_reason = rule
        return rule is not None

    def report(self, solver: str, ran: int, x: np.ndarray, x_avg: np.ndarray,
               final_objective: float) -> SolveReport:
        """The run's report, whose point at iteration ``ran`` carries
        ``final_objective``, the exact objective of the returned iterate."""
        elapsed = time.perf_counter() - self.clock
        if self.trace[-1].iteration == ran:
            elapsed = self.trace.pop().elapsed_seconds
        self.trace.append(self._point(ran, elapsed, final_objective))
        return SolveReport(solver=solver, trace=self.trace, final_x=x, final_x_avg=x_avg,
                           iterations_run=ran, preconditioning_seconds=self.pre_seconds,
                           stop_reason=self.stop_reason, start=self.start)


def _sgd_solve(a: np.ndarray, b: np.ndarray, w: FeasibleSet, cfg: SolverConfig,
               f_star: float | None, solver: str,
               loop: Callable[..., tuple], precondition: bool) -> SolveReport:
    """The pipeline of the three SGD solvers, which differ only in ``loop``:
    the recorder, preconditioning (skipped for plain SGD; a bad sketch
    size raises even at ``iterations=0``, which reports x0 and runs no
    estimator), the y-problem, then the trace objective and batch stream
    that ``loop`` steps with, after which the recorder's trace clock
    starts. ``loop`` -> (iterations run, last y, reported y);
    the ys map back to x, and the exact objective of the reported x is
    the last trace point."""
    a, b, x0, _, f0, f_ref = _start(a, b, w, cfg)
    rec = _Recorder(cfg, f_star, f0, f_ref)
    if precondition:
        pre = build_preconditioner(a, b, cfg.sketch_kind,
                                   resolve_sketch_size(cfg, *a.shape, False), cfg.seed)
    if cfg.iterations == 0:
        rec.begin()
        return rec.report(solver, 0, x0, x0.copy(), f0)
    if precondition:
        prox = RMetricProx(pre.r_factor, w)
        u, rhs, r_factor = pre.hda, pre.hdb, pre.r_factor
        y0, project, to_x = r_factor @ x0, prox.project, prox.to_x
    else:
        u, rhs, r_factor = a, b, None
        y0, project, to_x = x0, partial(project_euclidean, w), lambda y: y
    consts = _smoothness_bounds(u, r_factor)  # writes U over the rows of u
    prob = _YProblem(u, rhs, consts, y0, max(f0, _EPS * float(b @ b)), project, to_x,
                     r_factor, u.T @ rhs)
    objective = _trace_objective(a, b, prob)
    # The trace clock starts here: the loop's estimates count, the set-up not.
    rec.begin()
    ran, y, y_out = loop(w, cfg, prob, rec, objective,
                         _batches(u, rhs, cfg.seed, cfg.batch_size))
    x_out = to_x(y_out)
    return rec.report(solver, ran, to_x(y), x_out, objective_value(a, b, x_out))


def _batch_sgd(w: FeasibleSet, cfg: SolverConfig, prob: _YProblem, rec: _Recorder,
               objective: Callable[[np.ndarray], float], batches: Iterator) -> tuple:
    """Loop of hdpwbatch and sgd: T updates
    y <- P(y - eta * scale * U_B^T (U_B y - rhs_B)) on i.i.d. uniform
    batches B of ``batch_size`` rows (the scaled batch gradient is
    unbiased). The trace follows, and it reports, the averaged iterate."""
    # One float: eta * scale * g evaluates eta * scale first anyway.
    step = _sgd_eta(cfg, w, prob) * (2.0 * prob.u.shape[0] / cfg.batch_size)
    y = prob.y0
    y_sum = np.zeros_like(y)
    for t, (rows, rhs) in zip(range(1, cfg.iterations + 1), batches):
        # U_B^T resid as resid.dot(U_B): ndarray.dot runs the same BLAS
        # gemv as @, with less dispatch and no transposed view.
        y = prob.project(y - step * (rows.dot(y) - rhs).dot(rows))
        y_sum += y
        if rec.due(t) and rec.stop(t, objective(y_sum / t)):
            break
    # _sgd_solve runs at least one iteration, so t is the last one run.
    return t, y, y_sum / t


def _epochs(cfg: SolverConfig, prob: _YProblem) -> Iterator[tuple[int, float]]:
    """(N_s, eta_s) of hdpwacc's epochs s = 1, ..., ``epochs``: the
    ``acc_epoch_schedule`` of V_0 = ``prob.v0`` and a batch's sampled sigma^2,
    eta_s under ``_stability_cap`` (from an exact start, 1/(4L) alone diverged).
    An epoch of over ``_EPOCH_ITER_CAP`` steps raises EpochBudgetError when reached."""
    sigma2_r = (_sampled_gradient_variance(prob.u, prob.rhs, prob.y0, cfg.seed, prob.u_rhs)
                / cfg.batch_size)
    cap = _stability_cap(cfg, prob)
    for s in range(1, cfg.epochs + 1):
        n_s, eta_s = acc_epoch_schedule(prob.consts.L, prob.consts.mu, sigma2_r, prob.v0, s)
        if n_s > _EPOCH_ITER_CAP:
            raise EpochBudgetError(f"epoch {s} wants {n_s} iterations")
        yield n_s, min(eta_s, cap)


def _acc_sgd(w: FeasibleSet, cfg: SolverConfig, prob: _YProblem, rec: _Recorder,
             objective: Callable[[np.ndarray], float], batches: Iterator) -> tuple:
    """Loop of hdpwacc over the ``_epochs`` schedule. It traces and reports
    y_hat. The rows of z are (y, y_hat, g): y_tilde = [alpha, 1 - alpha]
    z[:2], and the new y is P(c z), c the coefficients of
    (y + eta_t mu y_tilde - eta_t scale g) / (1 + eta_t mu)."""
    mu, scale = prob.consts.mu, 2.0 * prob.u.shape[0] / cfg.batch_size
    z = np.tile(prob.y0, (3, 1))  # y_hat = y0; y and g are set before they are read
    y_pair = z[:2]
    total = 0
    for n_s, eta_s in _epochs(cfg, prob):
        z[0] = z[1]
        for t, (rows, rhs) in zip(range(1, min(n_s, cfg.iterations - total) + 1), batches):
            alpha = 2.0 / (t + 1.0)
            avg = np.array((alpha, 1.0 - alpha))
            (rows.dot(avg.dot(y_pair)) - rhs).dot(rows, out=z[2])
            e = eta_s * t * mu
            c = ((1.0 + e * alpha) / (1.0 + e), e * (1.0 - alpha) / (1.0 + e),
                 -eta_s * t * scale / (1.0 + e))
            z[0] = prob.project(np.array(c).dot(z))
            z[1] = avg.dot(y_pair)  # alpha (new y) + (1 - alpha) y_hat
            total += 1
            if rec.due(total) and rec.stop(total, objective(z[1])):
                break
        # Checked after the epoch, so the next epoch's length is only
        # asked for when that epoch runs.
        if total >= cfg.iterations or rec.stop_reason != "iterations":
            break
    return total, z[1], z[1]


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
    bound V_0 2^-s (V_0 = f(x0), at least eps ||b||^2), warm starting
    from the previous epoch's output; the inner recursion averages with
    weights 2/(t+1).
    ``iterations`` caps the total number of inner steps; a single epoch
    demanding more than ``_EPOCH_ITER_CAP`` steps raises EpochBudgetError.
    """
    return _sgd_solve(a, b, w, cfg, f_star, "hdpwacc", _acc_sgd, precondition=True)


def _full_gradient_descent(a, b, w, cfg, f_star, *, solver: str,
                           fresh_sketch: bool) -> SolveReport:
    """Shared loop of pw_gradient and IHS: R-metric prox steps on the half
    gradient A^T (Ax - b), the unit of an explicit step. The auto step
    reads the rows of the sketch that made R, after any retry: heavy ball
    (``_heavy_ball_step``) on a fixed sketch, ``_ratio_step`` on each
    fresh IHS sketch, which sets its own. Without ``cfg.x0`` the t = 1
    sketch also carries b, and the run starts at ``_sketch_start``; the
    stop rules judge the start, so a start that meets the target takes
    no step."""
    a, b, x, resid, f, f_ref = _start(a, b, w, cfg)
    rec = _Recorder(cfg, f_star, f, f_ref, dense=True)
    n, d = a.shape
    s = resolve_sketch_size(cfg, n, d, True)

    def sketched_prox(t: int, warm_from: RMetricProx | None = None,
                      rhs: np.ndarray | None = None
                      ) -> tuple[np.ndarray, RMetricProx, float, float]:
        seed = seeds(cfg.seed, "ihs", t).generate_state(1)[0] if fresh_sketch else cfg.seed
        r_factor, rows = sketched_r(a, cfg.sketch_kind, s, seed, rhs=rhs)
        if cfg.step_size != "auto":
            eta, beta = float(cfg.step_size), 0.0
        elif fresh_sketch:
            eta, beta = _ratio_step(d, rows), 0.0
        else:
            eta, beta = _heavy_ball_step(d, rows)
        return r_factor, RMetricProx(r_factor[:d, :d], w, warm_from), eta, beta

    # IHS draws its t = 1 sketch here too, so a bad size fails before any step.
    r_factor, prox, eta, beta = sketched_prox(1, rhs=b if cfg.x0 is None else None)
    if cfg.x0 is None:
        start = _sketch_start(a, b, prox, r_factor, f)
        if start is not None:
            x, resid, f = start
            rec.anchor("sketch", f, max(f, _EPS * float(b @ b)))
    rec.begin()
    ran = 0
    x_prev = x
    # A start that already meets the target takes no step.
    for t in range(1, 0 if rec.at_target() else cfg.iterations + 1):
        if fresh_sketch and t > 1:
            # The new R's l1 solve starts from the last step's face; its
            # KKT test still decides.
            _, prox, eta, beta = sketched_prox(t, prox)
        # Heavy ball steps from x_t + beta (x_t - x_{t-1}); beta = 0 is
        # the plain step from x_t.
        x_from = x + beta * (x - x_prev) if beta else x
        x, x_prev = prox.solve(x_from, a.T @ resid, eta), x
        resid = a @ x - b
        f = float(resid @ resid)
        ran = t
        if rec.stop(t, f):
            break
    return rec.report(solver, ran, x, x.copy(), f)


def _sketch_start(a: np.ndarray, b: np.ndarray, prox: RMetricProx, r_factor: np.ndarray,
                  f_zero: float) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(x0, A x0 - b, f(x0)) of the full-gradient solvers' default start,
    or None when f(x0) is not below f_zero = f(0) = ||b||^2 and the run
    starts at 0. r_factor is R of [S A | S b], so R[:d, d] = Q^T S b and
    x_ss = R[:d, :d]^-1 Q^T S b minimises ||S (A x - b)||, the
    sketch-and-solve point (Sarlos, FOCS 2006); x0 is its R-metric
    projection onto W by ``prox``, as ``bench.ground_truth`` projects
    x_ls with A's own R, so x0 is feasible."""
    d = a.shape[1]
    x_ss = tri_solve(r_factor[:d, :d], r_factor[:d, d])
    x0 = prox.solve(x_ss, np.zeros(d), 0.0)
    r0 = a @ x0 - b
    f0 = float(r0 @ r0)
    return (x0, r0, f0) if f0 < f_zero else None


def pw_gradient(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Preconditioned projected gradient descent: one sketch, one R, a
    step on A^T (Ax - b) each iteration. With an explicit ``step_size``
    (in units of A^T (Ax - b)) it is IHS with a fixed sketch: the inner
    argmin depends on M = SA only through R^T R. The auto step is heavy
    ball (``_heavy_ball_step``), which a fixed sketch makes possible."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="pwgrad", fresh_sketch=False)


def ihs(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
        cfg: SolverConfig, f_star: float | None = None) -> SolveReport:
    """Iterative Hessian sketch: a new seeded sketch every iteration.
    ``step_size`` is in units of A^T (Ax - b); the auto step is each
    sketch's ``_ratio_step``."""
    return _full_gradient_descent(a, b, w, cfg, f_star, solver="ihs", fresh_sketch=True)


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
    # IHS with one sketch is pwgrad; the name stays for existing callers.
    "ihs-fixed": pw_gradient,
    "sgd": plain_sgd_baseline,
}
