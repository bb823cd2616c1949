"""Preconditioning for least squares: one randomized Hadamard pass.

An SRHT S = sqrt(n_pad/s) P H D samples s rows of the randomized
Hadamard transform H D (sign flips, then the orthonormal Walsh-Hadamard
transform, with rows zero padded to a power of two). ``build_hd`` runs
that transform once over A and b. It preserves ||Ax - b||^2 and evens
out row norms, so uniform row sampling of H D A has low variance. For an
SRHT sketch, S A is a rescaled row sample of the same H D A, so the R
factor of its thin QR, which makes A R^-1 close to orthonormal, costs
no second pass over A (Avron, Maymounkov and Toledo, "Blendenpik",
2010). Gaussian and CountSketch sketches apply S to A itself.

``sketched_r`` is the one rank-loss policy for every solver's R: a
sketch that loses rank is redrawn once at twice the size, and the size
that made R is returned with it (the full-gradient step reads it).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficientError
# fwht_inplace runs inside ``apply``; perfbench/tracer.py wraps it under
# this module's name too, so it stays importable from here.
from .linalg import fwht_inplace, qr_thin  # noqa: F401
from .sketches import SketchOperator, apply, hadamard_operator, make_sketch, subsample

__all__ = ["Preconditioner", "build_r", "build_hd", "sketched_r",
           "build_preconditioner", "row_norm_spread"]

# row_norm_spread's bound fails with probability at most 1/_SPREAD_C.
_SPREAD_C = 10.0


@dataclass(frozen=True)
class Preconditioner:
    """What the SGD solvers precondition with.

    ``r_factor`` is the d x d upper-triangular factor with A R^-1 well
    conditioned; ``hda``/``hdb`` the Hadamard-transformed matrix and
    right-hand side, zero padded to ``hda.shape[0]``, a power of two.
    """

    r_factor: np.ndarray = field(repr=False)
    hda: np.ndarray = field(repr=False)
    hdb: np.ndarray = field(repr=False)


def build_r(a: np.ndarray, sk: SketchOperator, hda: np.ndarray | None = None,
            rhs: np.ndarray | None = None) -> np.ndarray:
    """R factor of the sketched matrix S A, or, given a length-n ``rhs``,
    the (d + 1) x (d + 1) R of [S A | S rhs] from one ``apply`` and one
    ``qr_thin``: its last column holds Q^T S rhs over the sketched
    residual norm, so R[:d, :d]^-1 R[:d, d] solves the sketched problem.

    For an SRHT ``sk`` and no ``rhs``, ``hda`` = H D A under the sketch's
    signs (from :func:`build_hd` with its seed) gives S A as a row
    sample, bitwise the same as transforming A again. Raises
    RankDeficientError when the sketch failed to preserve the rank of A
    (see :func:`sketched_r` for the retry policy).
    """
    if rhs is None:
        sa = subsample(sk, hda) if hda is not None and sk.kind == "srht" else apply(sk, a)
        return qr_thin(sa)
    sab = apply(sk, a, rhs)
    return qr_thin(sab[:, :-1], rhs=sab[:, -1])


def build_hd(a: np.ndarray, b: np.ndarray, seed: int):
    """Randomized Hadamard transform of A and b, with the signs of every
    SRHT ``make_sketch("srht", s, n, seed)``.

    Rows are zero padded up to the next power of two (padding rows add
    nothing to the objective, so the minimizer is unchanged).

    Returns (hda, hdb).
    """
    hd = hadamard_operator(np.shape(a)[0], seed)
    return apply(hd, a), apply(hd, b)


def sketched_r(a: np.ndarray, sketch_kind: str, sketch_size: int, seed: int,
               hda: np.ndarray | None = None,
               rhs: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """(R, s): R of the seeded sketch S A (of [S A | S rhs] given ``rhs``,
    see :func:`build_r`) and the row count s of the sketch that made it,
    under the automatic retry policy: on RankDeficientError the sketch is
    redrawn once with doubled s (capped below n); a second failure
    propagates. An SRHT given ``hda`` and no ``rhs`` samples it on both
    tries and transforms nothing.
    """
    n = a.shape[0]
    try:
        return (build_r(a, make_sketch(sketch_kind, sketch_size, n, seed), hda, rhs=rhs),
                sketch_size)
    except RankDeficientError:
        retry_s = min(2 * sketch_size, n - 1)
        if retry_s <= sketch_size:
            raise
        return build_r(a, make_sketch(sketch_kind, retry_s, n, seed), hda, rhs=rhs), retry_s


def build_preconditioner(a: np.ndarray, b: np.ndarray, sketch_kind: str,
                         sketch_size: int, seed: int) -> Preconditioner:
    """One Hadamard pass over A and b, and the R of ``sketched_r``,
    which an SRHT samples from that pass."""
    hda, hdb = build_hd(a, b, seed)
    r_factor, _ = sketched_r(a, sketch_kind, sketch_size, seed, hda)
    return Preconditioner(r_factor=r_factor, hda=hda, hdb=hdb)


def row_norm_spread(row_norms: np.ndarray) -> tuple[float, float]:
    """Observed max row norm of a Hadamard-transformed basis vs the
    theoretical spreading bound (1 + sqrt(8 log(c n))) * alpha / sqrt(n),
    c = ``_SPREAD_C``.

    ``row_norms`` are the n row norms of HDU; alpha = ||U||_F is
    recovered from them since HD is orthogonal. The bound fails with
    probability at most 1/c over the sign draw.
    """
    row_norms = np.asarray(row_norms, dtype=np.float64)
    n = row_norms.shape[0]
    alpha = float(np.sqrt(np.sum(row_norms**2)))
    bound = (1.0 + np.sqrt(8.0 * np.log(_SPREAD_C * n))) * alpha / np.sqrt(n)
    return float(np.max(row_norms)), float(bound)
