"""Workload definitions of the sketchreg benchmark.

Each workload is a closed loop with one caller: one library call (or one
CLI process) at a time. Problem sizes are fixed here; only the seed
varies between runs. This module imports nothing heavy, so the parent
process can read workload names without loading numpy.
"""

from dataclasses import dataclass, field

# One caller, one BLAS thread. On a 2-core box two BLAS threads made the
# same run's figures spread about twice as wide: the solvers here work on
# d <= 50 columns, where thread hand-offs cost more than they save.
BLAS_THREADS_MAX = 1

# Dataset seeds, the same in every run. Time to target varies up to 2x
# between random datasets of one workload, more than a run can average
# out, so the run seed draws only the solver seeds (sketch, Hadamard
# signs, batch indices, estimators). Each dataset is set up once per run;
# setup_s is the median of their set-up times, and the timed rounds cycle
# through them.
DATASET_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class Job:
    """One library call: ``SOLVERS[solver](A, b, W[feasible], cfg, f_star)``.

    ``target`` is both the call's ``stop_below_rel`` and the correctness
    gate's bound on the returned iterate's relative error.
    """

    solver: str
    feasible: str
    target: float
    config: dict


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    n: int
    d: int
    kappa: float
    noise_std: float
    # feasible-set key -> (constraint, radius_scale) for make_feasible_set
    sets: dict
    jobs: tuple
    # Also attempt ground_truth for an l1 ball on a copy with this kappa.
    stall_probe_kappa: float | None = None
    # Spans the traced run must see, else the run fails.
    required_spans: tuple = ()


@dataclass(frozen=True)
class CliJob:
    """One fresh ``python -m sketchreg.cli`` process.

    ``metric`` groups invocations into ``cli_s.<metric>``; ``targets``
    maps each solver named in the output to its relative-error bound.
    """

    name: str
    metric: str
    argv: tuple
    targets: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliWorkload:
    name: str
    n: int
    d: int
    kappa: float
    noise_std: float
    jobs: tuple
    required_spans: tuple = ()
    # diag passes when kappa(A R^-1) stays below this.
    max_conditioned_kappa: float = 10.0


def _tall_lowprec(tiny: bool) -> LibraryWorkload:
    # The paper's low-precision regime at tall n: preconditioning (FWHT,
    # estimators, trace evaluation) dominates each solve.
    return LibraryWorkload(
        name="tall-lowprec",
        n=2**11 if tiny else 2**17, d=8 if tiny else 50,
        kappa=1e4, noise_std=100.0,
        sets={"rd": ("none", 1.0)},
        jobs=(
            Job("hdpwbatch", "rd", 1e-3,
                dict(batch_size=8, iterations=50_000, record_every=500)),
            Job("hdpwacc", "rd", 1e-3,
                dict(batch_size=8, epochs=16, iterations=200_000, record_every=500)),
        ),
        required_spans=("linalg.fwht", "precond.build_preconditioner",
                        "precond.build_hd", "sketches.apply.srht",
                        "solvers.estimate", "solvers.trace_eval"),
    )


def _illcond_highprec(tiny: bool) -> LibraryWorkload:
    # High-precision regime at kappa 1e8; each job isolates one sketch kind.
    cap = dict(iterations=200, record_every=1)
    return LibraryWorkload(
        name="illcond-highprec",
        n=2**11 if tiny else 2**15, d=8 if tiny else 50,
        kappa=1e8, noise_std=1.0,
        sets={"rd": ("none", 1.0)},
        jobs=(
            Job("pwgrad", "rd", 1e-10, dict(cap, sketch_kind="srht")),
            Job("ihs-fixed", "rd", 1e-10, dict(cap, sketch_kind="gaussian")),
            Job("ihs", "rd", 1e-10, dict(cap, sketch_kind="countsketch")),
        ),
        required_spans=("linalg.fwht", "linalg.qr_thin", "sketches.apply.srht",
                        "sketches.apply.gaussian", "sketches.apply.countsketch"),
    )


def _ball_constrained(tiny: bool) -> LibraryWorkload:
    # The feasible layer and the per-iteration loop do the work. kappa 30
    # because the l1 prox stalls at kappa >= 100; the stall probe keeps
    # that failure visible. sgd misses 1e-3 within its cap on smaller n
    # (f* shrinks with n), so the tiny variant keeps the full size.
    return LibraryWorkload(
        name="ball-constrained",
        n=2**15, d=20,
        kappa=30.0, noise_std=1.0,
        sets={"l1": ("l1", 0.5), "l2": ("l2", 0.7)},
        jobs=(
            Job("pwgrad", "l1", 1e-10, dict(iterations=500, record_every=1)),
            Job("hdpwacc", "l2", 1e-3,
                dict(batch_size=16, epochs=16, iterations=200_000, record_every=500)),
            # The auto step shrinks as the cap grows; at a 200k cap some
            # seeds needed 164k iterations, at 300k at most 196k were seen.
            Job("sgd", "l2", 1e-3,
                dict(batch_size=16, iterations=300_000, record_every=500)),
        ),
        stall_probe_kappa=1e3,
        required_spans=("feasible.prox.l1", "feasible.prox.l2",
                        "solvers.pwgrad", "solvers.hdpwacc", "solvers.sgd"),
    )


def _cli(tiny: bool) -> CliWorkload:
    # The command-line front end as its user sees it: fresh processes,
    # CSV parsing, ground truth and printing on top of each solve.
    # The l2-constrained hdpwbatch solve only about halves its starting
    # relative error (about 0.03-0.07 at x = 0) in 20k iterations, so its
    # gate catches broken output, not slow convergence. It misses even that
    # on smaller problems, so the tiny variant keeps the full size.
    return CliWorkload(
        name="cli",
        n=2**15, d=20, kappa=30.0, noise_std=1.0,
        jobs=(
            CliJob("solve-pwgrad", "solve",
                   ("solve", "--solver", "pwgrad", "--iters", "60"),
                   {"pwgrad": 1e-10}),
            CliJob("solve-hdpwbatch", "solve",
                   ("solve", "--solver", "hdpwbatch", "--batch", "8",
                    "--iters", "20000", "--constraint", "l2"),
                   {"hdpwbatch": 1e-1}),
            CliJob("diag", "diag", ("diag",)),
            CliJob("bench", "bench",
                   ("bench", "--solvers", "pwgrad,hdpwbatch", "--seeds", "3",
                    "--iters", "500", "--batch", "8"),
                   {"pwgrad": 1e-10, "hdpwbatch": 5e-2}),
        ),
        required_spans=("cli.solve", "cli.diag", "cli.bench", "bench.load_csv",
                        "bench.save_dataset_csv", "bench.gen_synthetic",
                        "bench.ground_truth"),
    )


_FACTORIES = {
    "tall-lowprec": _tall_lowprec,
    "illcond-highprec": _illcond_highprec,
    "ball-constrained": _ball_constrained,
    "cli": _cli,
}

NAMES = tuple(_FACTORIES)


def get(name: str, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks it for self-tests."""
    return _FACTORIES[name](tiny)
