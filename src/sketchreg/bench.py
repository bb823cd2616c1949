"""Benchmark harness: synthetic data with a prescribed condition number,
CSV ingestion, the exact ground-truth solve, and multi-seed experiment
orchestration. The relative-error metric is ``solvers.relative_error``,
re-exported here."""

import csv
import warnings
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from .errors import CsvParseError, RaggedRowsError
from .feasible import FeasibleSet, RMetricProx
from .linalg import qr_thin, tri_solve
from .sketches import check_integer, stream
from .solvers import SOLVERS, SolveReport, SolverConfig, objective_value, relative_error
# Unused here; perfbench/tracer.py wraps pw_gradient at this name.
from .solvers import pw_gradient  # noqa: F401

__all__ = [
    "DatasetSpec",
    "ExperimentResult",
    "gen_synthetic",
    "make_feasible_set",
    "ground_truth",
    "relative_error",
    "iterations_to_target",
    "run_experiment",
    "load_csv",
    "save_dataset_csv",
    "write_trace_csv",
]

TRACE_HEADER = ["solver", "seed", "iteration", "elapsed_seconds",
                "objective", "relative_error"]

# Rows that save_dataset_csv formats at a time.
_CSV_BLOCK = 4096


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic regression instance: n x d matrix with singular values
    log-uniform in [1, target_kappa], planted Gaussian solution, and
    Gaussian noise on the response."""

    n: int
    d: int
    target_kappa: float = 1.0
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_integer("d", self.d, 1)
        check_integer("n", self.n, self.d + 1)
        check_integer("seed", self.seed, 0)
        if not (1.0 <= self.target_kappa < np.inf and abs(self.noise_std) < np.inf):
            raise ValueError(f"need finite target_kappa >= 1 and noise_std, got "
                             f"{self.target_kappa!r} and {self.noise_std!r}")


def gen_synthetic(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (A, b, planted_x) with b = A @ planted_x + noise.

    The spectrum pins sigma_max = target_kappa and sigma_min = 1 and
    fills the rest log-uniformly, so the measured condition number
    matches the target up to orthogonal-factor rounding.
    """
    rng = stream(spec.seed, "data")
    n, d = spec.n, spec.d
    left = np.linalg.qr(rng.standard_normal((n, d)), mode="reduced")[0]
    right = np.linalg.qr(rng.standard_normal((d, d)))[0]
    sv = np.ones(d)
    if d >= 2:
        sv[0] = spec.target_kappa
        if d > 2:
            sv[1:-1] = np.exp(rng.uniform(0.0, np.log(spec.target_kappa), size=d - 2))
    left *= sv
    a = left @ right.T
    planted = rng.standard_normal(d)
    b = a @ planted + spec.noise_std * rng.standard_normal(n)
    return a, b, planted


def _least_squares(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, x_ls): A's R factor and the least-squares solution, both from
    the R-only Householder QR of [A | b], whose last column is Q^T b
    over the residual norm. Neither Q nor a copy of all of A is formed."""
    d = a.shape[1]
    r = qr_thin(a, rhs=b)
    return r[:d, :d], tri_solve(r[:d, :d], r[:d, d])


def make_feasible_set(a: np.ndarray, b: np.ndarray, constraint: str,
                      radius_scale: float = 1.0) -> FeasibleSet:
    """Constraint set for a dataset: ball radii come from the
    unconstrained optimum's norm (times ``radius_scale``)."""
    d = a.shape[1]
    if constraint == "none":
        return FeasibleSet.unconstrained(d)
    x_unc = _least_squares(a, b)[1]
    if constraint == "l2":
        return FeasibleSet.l2_ball(radius_scale * float(np.linalg.norm(x_unc)), d)
    if constraint == "l1":
        return FeasibleSet.l1_ball(radius_scale * float(np.sum(np.abs(x_unc))), d)
    raise ValueError(f"unknown constraint {constraint!r}")


def ground_truth(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                 seed: int = 0) -> tuple[np.ndarray, float]:
    """(x*, f*) for the given constraint set, with no sketch, no
    iteration and no random draw.

    R and x_ls come from one R-only Householder QR of [A | b]. Since
    f(x) = f(x_ls) + ||R (x - x_ls)||^2, x* is the argmin over W of
    ||R (x - x_ls)||: x_ls itself when it lies in W, else one exact ball
    solve of ``RMetricProx``, which checks its KKT conditions and raises
    InnerSolverStallError on a failed check. It shares only that class
    with the solvers. f* = ||A x* - b||^2 is computed from that point.
    ``seed`` is unused; callers that pass their dataset seed still run.
    """
    r, x_ls = _least_squares(a, b)
    x_star = RMetricProx(r, w).solve(x_ls, np.zeros_like(x_ls), 0.0)
    return x_star, objective_value(a, b, x_star)


def iterations_to_target(report: SolveReport, target: float) -> int | None:
    """First traced iteration with relative error <= target, or None."""
    for point in report.trace:
        if point.relative_error <= target:
            return point.iteration
    return None


@dataclass
class ExperimentResult:
    """Multi-seed, multi-solver comparison against one ground truth."""

    f_star: float
    runs: dict[str, list[tuple[int, SolveReport]]] = field(default_factory=dict)

    def best(self, solver: str) -> SolveReport:
        return min((rep for _, rep in self.runs[solver]),
                   key=lambda rep: rep.final_relative_error)

    def median_final_error(self, solver: str) -> float:
        return median(rep.final_relative_error for _, rep in self.runs[solver])


def run_experiment(a: np.ndarray, b: np.ndarray, w: FeasibleSet,
                   solver_configs: dict[str, SolverConfig],
                   seeds=tuple(range(10)),
                   f_star: float | None = None) -> ExperimentResult:
    """Run each configured solver once per seed against a shared ground
    truth; keeps every run so callers can take best-of or medians."""
    if not solver_configs:
        raise ValueError("no solvers configured")
    seeds = tuple(seeds)  # each solver runs every seed, so a generator is read once
    if not seeds:
        raise ValueError("no seeds given")
    if f_star is None:
        _, f_star = ground_truth(a, b, w)
    result = ExperimentResult(f_star=f_star)
    for name, cfg in solver_configs.items():
        solver_key = name.split("@")[0]  # allow e.g. "hdpwbatch@r=2" aliases
        solve = SOLVERS[solver_key]
        runs = []
        for seed in seeds:
            report = solve(a, b, w, replace(cfg, seed=seed), f_star=f_star)
            runs.append((seed, report))
        result.runs[name] = runs
    return result


def load_csv(path, normalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset of d+1 comma-separated floats per line; the last
    column is the response b.

    Raises CsvParseError (with the offending line number) on malformed
    values and RaggedRowsError on inconsistent widths. ``normalize``
    rescales each feature column to zero mean and unit variance, in place.

    ``a`` and ``b`` are C-contiguous float64 copies and the parsed
    (n, d+1) block is dropped, so a solve holds A once: the solvers take
    them as they are.

    numpy's C parser reads a well-formed file; it rounds each value
    correctly, as float() does. Whatever it rejects, or reads as empty or
    one column wide, goes through a line-by-line reader, which accepts
    what float() accepts, skips blank lines and names the line of the
    first error.
    """
    with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            data = None
    if data is None or data.size == 0 or data.shape[1] < 2:
        data = _read_csv_lines(path)
    if not np.isfinite(data).all():
        raise CsvParseError("dataset contains non-finite values")
    a, b = np.array(data[:, :-1]), np.array(data[:, -1])
    del data
    if normalize:
        mean = a.mean(axis=0)
        std = a.std(axis=0)
        std[std == 0.0] = 1.0
        a -= mean
        a /= std
    return a, b


def _read_csv_lines(path) -> np.ndarray:
    """``load_csv``'s line-by-line reader: the rows as one float array."""
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise CsvParseError(f"line {lineno}: need at least 2 columns")
            elif len(parts) != width:
                raise RaggedRowsError(
                    f"line {lineno}: expected {width} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise CsvParseError(f"line {lineno}: {exc}") from None
    if not rows:
        raise CsvParseError("empty dataset file")
    return np.asarray(rows, dtype=np.float64)


def save_dataset_csv(path, a: np.ndarray, b: np.ndarray) -> None:
    """Write rows of d+1 floats at full float64 precision (round-trips
    bit-exactly through load_csv). Rows go out ``_CSV_BLOCK`` at a time,
    so no (n, d+1) copy of [A | b] is formed."""
    with open(path, "wb") as handle:
        for lo in range(0, len(b), _CSV_BLOCK):
            rows = slice(lo, lo + _CSV_BLOCK)
            np.savetxt(handle, np.column_stack([a[rows], b[rows]]), delimiter=",", fmt="%.17g")


def write_trace_csv(path, reports: list[tuple[str, int, SolveReport]]) -> None:
    """Dump traces as solver,seed,iteration,elapsed_seconds,objective,
    relative_error rows with 12+ significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for solver, seed, report in reports:
            for pt in report.trace:
                writer.writerow([
                    solver, seed, pt.iteration,
                    f"{pt.elapsed_seconds:.12e}",
                    f"{pt.objective:.12e}",
                    f"{pt.relative_error:.12e}",
                ])
