"""Exception types shared across the package."""


class SketchRegError(Exception):
    """Base class for all sketchreg errors."""


class RankDeficientError(SketchRegError):
    """A matrix that must have full column rank does not (or a sketch lost rank)."""


class SingularFactorError(SketchRegError):
    """A triangular solve hit a zero pivot."""


class NotPowerOfTwoError(SketchRegError):
    """The fast Hadamard transform needs a power-of-two length."""


class SketchSizeError(SketchRegError):
    """Requested sketch dimensions are invalid (needs 0 < s < n)."""


class DimensionMismatchError(SketchRegError):
    """Operand shapes do not agree."""


class InnerSolverStallError(SketchRegError):
    """A ball prox step failed: a non-finite input, an exhausted step
    budget, or a result that fails its KKT self-check."""


class UnboundedSetError(SketchRegError):
    """A diameter was requested for an unbounded set without a user bound."""


class EpochBudgetError(SketchRegError):
    """An accelerated-epoch schedule asked for more iterations than the cap."""


class CsvParseError(SketchRegError):
    """A dataset file could not be parsed; message carries the line number."""


class RaggedRowsError(CsvParseError):
    """Rows of a dataset file have inconsistent column counts."""


class DivergenceError(SketchRegError):
    """A solver's objective became non-finite (inf or NaN): the step is too large."""


class DegenerateOptimumError(SketchRegError):
    """Relative error is undefined because the optimal objective is ~0."""


class OracleDisagreementError(SketchRegError):
    """Two independent ground-truth runs disagree beyond tolerance."""
