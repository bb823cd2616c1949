"""Sketch-preconditioned solvers for large-scale constrained least squares."""

from .bench import (
    DatasetSpec,
    ExperimentResult,
    gen_synthetic,
    ground_truth,
    iterations_to_target,
    load_csv,
    make_feasible_set,
    relative_error,
    run_experiment,
)
from .errors import (
    CsvParseError,
    DegenerateOptimumError,
    DimensionMismatchError,
    DivergenceError,
    EpochBudgetError,
    InnerSolverStallError,
    NotPowerOfTwoError,
    OracleDisagreementError,
    RaggedRowsError,
    RankDeficientError,
    SingularFactorError,
    SketchRegError,
    SketchSizeError,
    UnboundedSetError,
)
from .feasible import FeasibleSet, diameter_param, project_euclidean
from .linalg import QRFactors, condition_number, fwht_inplace, qr_thin, tri_solve
from .precond import Preconditioner, build_hd, build_preconditioner, build_r, row_norm_spread
from .sketches import SketchOperator, apply, embedding_distortion, make_sketch
from .solvers import (
    SOLVERS,
    SolveReport,
    SolverConfig,
    TracePoint,
    hd_pw_acc_batch_sgd,
    hd_pw_batch_sgd,
    ihs,
    ihs_fixed,
    plain_sgd_baseline,
    pw_gradient,
    sgd_step_size,
)

__version__ = "0.1.0"
