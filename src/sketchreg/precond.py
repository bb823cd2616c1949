"""Two-step preconditioning for least squares.

Step one sketches A and takes the R factor of a thin QR, so that A R^-1
is close to orthonormal. Step two applies a randomized Hadamard
transform (sign flips + scaled Walsh-Hadamard) to A and b, which evens
out row norms so uniform row sampling has low variance. Both steps
preserve the objective ||Ax - b||^2 up to zero padding.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficientError, SketchSizeError
from .linalg import fwht_inplace, next_pow2, qr_thin
from .sketches import SketchOperator, apply, make_sketch

__all__ = ["Preconditioner", "build_r", "build_hd", "build_preconditioner",
           "hadamard_flatten", "row_norm_spread"]


@dataclass(frozen=True)
class Preconditioner:
    """Outputs of the two preconditioning steps.

    ``r_factor`` is the d x d upper-triangular factor with A R^-1 well
    conditioned; ``hda``/``hdb`` the Hadamard-transformed (zero padded
    to ``n_pad`` rows) matrix and right-hand side.
    """

    r_factor: np.ndarray = field(repr=False)
    n_pad: int = 0
    hda: np.ndarray | None = field(default=None, repr=False)
    hdb: np.ndarray | None = field(default=None, repr=False)


def build_r(a: np.ndarray, sk: SketchOperator) -> np.ndarray:
    """R factor of the sketched matrix S A.

    Raises RankDeficientError when the sketch failed to preserve rank;
    callers should retry with a larger s or a new seed (see
    :func:`build_preconditioner` for the automatic policy).
    """
    return qr_thin(apply(sk, a), with_q=False).r


def hadamard_flatten(m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Apply H . diag(signs) columnwise, zero padding m to len(signs) rows."""
    n = m.shape[0]
    out = np.zeros((signs.shape[0],) + m.shape[1:])
    np.multiply(m, signs[:n, None] if m.ndim == 2 else signs[:n], out=out[:n])
    return fwht_inplace(out)


def build_hd(a: np.ndarray, b: np.ndarray, seed: int):
    """Randomized Hadamard transform of A and b.

    Rows are zero padded up to the next power of two (padding rows add
    nothing to the objective, so the minimizer is unchanged).

    Returns (signs, hda, hdb, n_pad).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_pad = next_pow2(a.shape[0])
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17]))
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_pad)
    return signs, hadamard_flatten(a, signs), hadamard_flatten(b, signs), n_pad


def build_preconditioner(a: np.ndarray, b: np.ndarray, sketch_kind: str,
                         sketch_size: int, seed: int) -> Preconditioner:
    """Run both preconditioning steps with the automatic retry policy.

    On RankDeficientError the sketch is rebuilt once with doubled s
    (capped below n); a second failure propagates.
    """
    n = a.shape[0]
    sk = make_sketch(sketch_kind, sketch_size, n, seed)
    try:
        r = build_r(a, sk)
    except RankDeficientError:
        retry_s = min(2 * sketch_size, n - 1)
        if retry_s <= sketch_size:
            raise
        try:
            sk = make_sketch(sketch_kind, retry_s, n, seed)
        except SketchSizeError:
            raise RankDeficientError("sketch lost rank and cannot grow further")
        r = build_r(a, sk)
    _, hda, hdb, n_pad = build_hd(a, b, seed)
    return Preconditioner(r_factor=r, n_pad=n_pad, hda=hda, hdb=hdb)


def row_norm_spread(row_norms: np.ndarray, c: float = 10.0) -> tuple[float, float]:
    """Observed max row norm of a Hadamard-transformed basis vs the
    theoretical spreading bound (1 + sqrt(8 log(c n))) * alpha / sqrt(n).

    ``row_norms`` are the n row norms of HDU; alpha = ||U||_F is
    recovered from them since HD is orthogonal. The bound fails with
    probability at most 1/c over the sign draw.
    """
    row_norms = np.asarray(row_norms, dtype=np.float64)
    n = row_norms.shape[0]
    alpha = float(np.sqrt(np.sum(row_norms**2)))
    bound = (1.0 + np.sqrt(8.0 * np.log(c * n))) * alpha / np.sqrt(n)
    return float(np.max(row_norms)), float(bound)
