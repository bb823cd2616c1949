"""Dense kernels: thin QR, triangular solves, the fast Walsh-Hadamard
transform, and singular-value diagnostics.

Matrices are plain row-major ``numpy.ndarray`` of float64 throughout the
package; there is no wrapper type.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NotPowerOfTwoError,
    RankDeficientError,
    SingularFactorError,
)

__all__ = [
    "QRFactors",
    "qr_thin",
    "tri_solve",
    "fwht_inplace",
    "condition_number",
    "next_pow2",
]


class QRFactors(NamedTuple):
    """Thin QR factors: ``q`` has orthonormal columns, ``r`` is upper
    triangular with nonnegative diagonal."""

    q: np.ndarray
    r: np.ndarray


def qr_thin(m: np.ndarray) -> QRFactors:
    """Thin QR factorization with a nonnegative-diagonal sign convention.

    Parameters
    ----------
    m : (n, d) array with n >= d and full column rank.

    Returns
    -------
    QRFactors with q (n, d), r (d, d) such that q @ r == m.

    Raises
    ------
    RankDeficientError
        If any |r_ii| < 1e-12 * ||m||_F, i.e. the input (typically a
        sketched matrix) effectively lost column rank.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise DimensionMismatchError(
            f"qr_thin needs a tall matrix, got shape {m.shape}"
        )
    q, r = np.linalg.qr(m, mode="reduced")
    # ||m||_F = ||r||_F; BLAS nrm2 scales its sum, so neither huge nor
    # tiny entries overflow or underflow the tolerance.
    tol = 1e-12 * scipy.linalg.norm(r.ravel(), check_finite=False)
    diag = np.diag(r)
    if np.any(np.abs(diag) < tol):
        raise RankDeficientError(
            f"smallest |R_ii| = {np.min(np.abs(diag)):.3e} below {tol:.3e}"
        )
    # Flip signs so diag(R) >= 0; makes the factorization unique.
    flip = np.where(diag < 0.0, -1.0, 1.0)
    r = flip[:, None] * r
    q = q * flip[None, :]
    return QRFactors(q=q, r=r)


def tri_solve(r: np.ndarray, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve R z = rhs (or R^T z = rhs) for upper-triangular R.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(np.diag(r) == 0.0):
        raise SingularFactorError("zero pivot in triangular factor")
    if r.shape[0] != np.shape(rhs)[0]:
        raise DimensionMismatchError(
            f"factor is {r.shape}, rhs has leading dim {np.shape(rhs)[0]}"
        )
    return scipy.linalg.solve_triangular(
        r, rhs, trans="T" if transposed else "N", lower=False, check_finite=False
    )


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(n - 1, 0).bit_length()


# H_64 in Sylvester order; its top-left m x m block is H_m for every
# power of two m <= 64, so it serves every level of fwht_inplace.
_HADAMARD_BLOCK_BITS = 6
_HADAMARD_BLOCK = scipy.linalg.hadamard(1 << _HADAMARD_BLOCK_BITS, dtype=np.float64)
_HADAMARD_BLOCK.flags.writeable = False


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place orthonormal Walsh-Hadamard transform along axis 0.

    Applies H = H_n / sqrt(n) (H_n the +-1 Hadamard matrix in Sylvester
    order) in O(n log n) work; no n x n matrix is formed. Sylvester order
    factors H_n = H_{m_1} (x) ... (x) H_{m_L} into Kronecker factors of
    at most 64 rows, and each factor is applied as one batched matrix
    product against ``v.reshape(outer, m, rest)``, alternating between
    ``v`` and a single scratch buffer. The transform is an isometry and
    an involution. 2-D inputs are transformed column by column.

    Raises NotPowerOfTwoError unless len(v) is a power of two.
    """
    n = v.shape[0]
    if n == 0 or n & (n - 1):
        raise NotPowerOfTwoError(f"length {n} is not a power of two")
    if v.dtype != np.float64 or not v.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a C-contiguous float64 array")
    bits = n.bit_length() - 1
    levels = -(-bits // _HADAMARD_BLOCK_BITS)
    src, dst = v, np.empty_like(v)
    outer = 1
    for level in range(levels):
        # Near-equal factor sizes minimise the total work n * sum(m_i).
        m = 1 << (bits // levels + (level < bits % levels))
        rest = v.size // (outer * m)
        np.matmul(_HADAMARD_BLOCK[:m, :m], src.reshape(outer, m, rest),
                  out=dst.reshape(outer, m, rest))
        src, dst = dst, src
        outer *= m
    np.multiply(src, 1.0 / np.sqrt(n), out=v)
    return v


def condition_number(m: np.ndarray) -> float:
    """sigma_max / sigma_min via full SVD.

    Diagnostic only; never called inside solver iterations. Raises
    RankDeficientError when sigma_min < 1e-14 * sigma_max.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise DimensionMismatchError(
            f"condition_number needs a tall matrix, got shape {m.shape}"
        )
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] < 1e-14 * sv[0]:
        raise RankDeficientError(
            f"sigma_min = {sv[-1]:.3e} vs sigma_max = {sv[0]:.3e}"
        )
    return float(sv[0] / sv[-1])
