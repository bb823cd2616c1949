"""Exception types shared across the package."""


class SketchRegError(Exception):
    """Base class for all sketchreg errors."""


class NumericalError(SketchRegError):
    """A numerical failure rather than bad input; the CLI exits 3 on it."""


class RankDeficientError(NumericalError):
    """A matrix that must have full column rank does not (or a sketch lost rank)."""


class SingularFactorError(NumericalError):
    """A triangular solve hit a zero pivot."""


class NotPowerOfTwoError(SketchRegError):
    """The fast Hadamard transform needs a power-of-two length."""


class SketchSizeError(SketchRegError):
    """Requested sketch dimensions are invalid (needs 0 < s < n)."""


class DimensionMismatchError(SketchRegError):
    """Operand shapes do not agree."""


class InnerSolverStallError(NumericalError):
    """A ball prox step failed: a non-finite input, an exhausted step
    budget, or a result that fails its KKT self-check."""


class UnboundedSetError(SketchRegError):
    """A diameter was requested for an unbounded set without a user bound."""


class EpochBudgetError(NumericalError):
    """An accelerated-epoch schedule asked for more iterations than the cap."""


class CsvParseError(SketchRegError):
    """A dataset file could not be parsed; message carries the line number."""


class RaggedRowsError(CsvParseError):
    """Rows of a dataset file have inconsistent column counts."""


class DivergenceError(NumericalError):
    """A solver's objective became non-finite (inf or NaN) or rose past a
    fixed multiple of its starting value: the step is too large."""


class DegenerateOptimumError(NumericalError):
    """Relative error is undefined because the optimal objective is ~0."""
