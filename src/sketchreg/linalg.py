"""Dense kernels: thin QR (R-only by row blocks), triangular solves, the
fast Walsh-Hadamard transform (in place, through one cache-sized
scratch tile per worker), singular-value diagnostics, and the one rule
for spreading a pass over threads.

Every Householder QR in the package, R-only or with Q, is one call of
``_householder``, which runs LAPACK's ``dgeqrf`` (and ``dorgqr`` for Q)
in place on a Fortran-ordered array its caller built for it.

Matrices are plain row-major ``numpy.ndarray`` of float64 throughout the
package; there is no wrapper type.

``parallel`` runs the package's big passes (the Gaussian sketch's
panels, the Walsh-Hadamard transform's tiles, the SRHT's sign pass, the
SGD solvers' U pass and the row blocks of an R-only QR). Each pass
states its size; from its size line up it runs on one thread per CPU
this process may use, and ``parallel`` lends each worker its scratch.
Each task writes its own part of the output, with the same arithmetic
inline or on any number of threads, so every result is bitwise
independent of the worker count. Workers call only numpy, which
releases the GIL in BLAS, LAPACK and its ufunc loops; a pool lives for
one call and its threads are joined before the call returns.
"""

import contextlib
import math
import os
import queue
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    DimensionMismatchError,
    NotPowerOfTwoError,
    RankDeficientError,
    SingularFactorError,
)

__all__ = [
    "qr_thin",
    "tri_solve",
    "fwht_inplace",
    "condition_number",
    "next_pow2",
    "parallel",
    "split",
]

# Passes over fewer float64 elements than this run inline, except the
# FWHT, whose line is ``_FWHT_PARALLEL_MIN_SIZE``. Measured on a 2-core
# Xeon VM with one BLAS thread (inline -> 2 threads, median of three
# trials, each the median of 21 calls): the SGD solvers' U pass lost at
# every size below 2^22, 3.4 -> 3.9 ms at 2^15 x 20, 11.2 -> 12.3 ms at
# 2^15 x 50 and 24.9 -> 26.0 ms at 2^16 x 50, so this line stays at
# 2^22. It is a property of the input, not a setting. The Gaussian
# sketch's panels, sized by the s x n entries of S, follow it too: on the
# same VM their Box-Muller draws won on 2 threads at 500 x 2^15 (112 ->
# 62 ms) but lost at 400 x 4096 (8.9 -> 10.1 ms) and 400 x 1024 (2.2 ->
# 3.0 ms); 400 x 2^14 (38 -> 23 ms), above 2^22, still won.
_PARALLEL_MIN_SIZE = 1 << 22
# The FWHT's own line, lower: on the same VM its tiles took 7.8 -> 5.6 ms
# at 2^15 x 50 (1.6M elements), 15.1 -> 10.8 ms at 2^16 x 50,
# 23.7 -> 15.3 ms at 2^17 x 32 (2^22) and 38.7 -> 23.4 ms at 2^17 x 50,
# but 3.0 -> 3.6 ms at 2^15 x 20 (655k); in a fourth trial, the second
# core busy, threads lost at every shape.
_FWHT_PARALLEL_MIN_SIZE = 1 << 20
# A threaded pass is cut into this many pieces per worker, which take
# them as they finish: a worker slowed by another process's load then
# holds up one small piece, not a fixed share of the pass. On the same VM
# the 2^17 x 50 FWHT (then out of place, with 64-row factors) took a
# median of 21 calls over 53-92 ms in eight trials with one piece per
# worker and 51-65 ms with four; beside a process busy half the time, 92
# against 82-85 ms.
_PIECES_PER_WORKER = 4


# ``qr_thin``'s R-only factor is taken in blocks of this many rows: each
# block's R by Householder QR, then the stacked block Rs' R (TSQR). A
# block of 4096 x 51 floats (1.7 MB) stays in cache where the whole
# matrix does not. On a 2-core Xeon VM with one BLAS thread (medians of
# 9, every QR through ``_householder``) the R of [A | b] took 44-52 ms
# at 2^17 x 50 against 172-178 ms in one piece, and 3.6-4.3 ms at
# 2^15 x 20 against 8.4-9.1 ms. Blocks of 2048 rows took 42 and
# 3.6-4.2 ms, but then a sketch of 2500 rows (50d at d = 50) would no
# longer be one block, which is factored as it is, bitwise as numpy's QR
# factors it. The edges are set by the row count alone, so R is the same
# bits on any number of workers.
_QR_BLOCK = 4096


def qr_thin(m: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """R factor of a thin Householder QR, nonnegative on its diagonal; Q
    is never formed. R is taken block by block (``_r_factor``); for
    n <= ``_QR_BLOCK`` it is bitwise the R that numpy's QR gives,
    though it is computed by ``_householder``, not by numpy.

    Parameters
    ----------
    m : (n, d) array with n >= d and full column rank, in any memory
        order; it is read, never written.
    rhs : (n,) vector; given, the R returned is that of [m | rhs], up to
        (d + 1) x (d + 1), and m is not copied whole. Its last column
        holds Q^T rhs over the residual norm min_x ||m x - rhs||, so
        x = R[:d, :d]^-1 R[:d, d] is the least-squares solution (Golub
        and Van Loan, section 5.3).

    Returns
    -------
    r (d, d) with R^T R = m^T m, or R of [m | rhs] when rhs is given.

    Raises
    ------
    ValueError
        If R is not finite, as it is when m or rhs holds a NaN or an inf.
    RankDeficientError
        If any |r_ii| < 1e-12 * ||m||_F, i.e. the input (typically a
        sketched matrix) effectively lost column rank. Only m's columns
        are tested: ``rhs`` may lie in m's range.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise DimensionMismatchError(
            f"qr_thin needs a tall matrix, got shape {m.shape}"
        )
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != m.shape[:1]:
            raise DimensionMismatchError(
                f"qr_thin takes an rhs of shape {m.shape[:1]}, got {rhs.shape}"
            )
    r = _r_factor(m, rhs)
    if not np.isfinite(r).all():
        raise ValueError("R is not finite: the input holds a NaN or an inf")
    d = m.shape[1]
    # ||m||_F = ||r[:d, :d]||_F; BLAS nrm2 scales its sum, so neither huge
    # nor tiny entries overflow or underflow the tolerance.
    tol = 1e-12 * scipy.linalg.norm(r[:d, :d].ravel(), check_finite=False)
    diag = np.diag(r)
    if np.any(np.abs(diag[:d]) < tol):
        raise RankDeficientError(
            f"smallest |R_ii| = {np.min(np.abs(diag[:d])):.3e} below {tol:.3e}"
        )
    # Flip signs so diag(R) >= 0; makes the factorization unique.
    return np.where(diag < 0.0, -1.0, 1.0)[:, None] * r


def _r_factor(m: np.ndarray, rhs: np.ndarray | None) -> np.ndarray:
    """Householder R of [m | rhs] (of m when ``rhs`` is None), Q never
    formed, as TSQR (Demmel, Grigori, Hoemmen and Langou, SISC 2012):
    each block of ``_QR_BLOCK`` rows is copied into a Fortran-ordered
    [m | rhs] block and factored there by ``_householder`` on
    ``parallel``'s workers, then the block Rs, stacked in row order into
    one Fortran-ordered array, once more. A single block is factored the
    same way, so m is never copied whole. R has min(n, columns) rows."""
    n, d = m.shape
    cols = d if rhs is None else d + 1

    def block_r(rows: slice) -> np.ndarray:
        block = m[rows]
        part = np.empty((block.shape[0], cols), order="F")
        part[:, :d] = block
        if rhs is not None:
            part[:, d] = rhs[rows]
        return _householder(part)

    blocks = [slice(lo, lo + _QR_BLOCK) for lo in range(0, n, _QR_BLOCK)]
    if len(blocks) == 1:
        return block_r(blocks[0])
    with parallel(len(blocks), m.size) as (_, run):
        block_rs = run(block_r, blocks)
    return _householder(np.asfortranarray(np.vstack(block_rs)))


def _householder(a: np.ndarray, q: bool = False):
    """Householder QR of the m x n matrix ``a`` by LAPACK's ``dgeqrf``,
    which overwrites ``a``: a must be a Fortran-ordered float64 array the
    caller gives up. Returns R, the upper triangle of the first
    min(m, n) rows, and with ``q`` (R, Q), Q the m x min(m, n) factor that
    ``dorgqr`` forms over a's first columns, in place and Fortran-ordered.
    Each routine runs with the workspace its query asks for, as in
    numpy's QR, whose R and Q these are bitwise (the tests check
    it); numpy's copies of the input are what this saves.

    Raises ValueError if a is not Fortran-ordered float64, and
    ``np.linalg.LinAlgError`` if LAPACK reports a nonzero ``info``."""
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("_householder needs a Fortran-ordered float64 array")
    k = min(a.shape)
    # A query with overwrite_a false would copy all of a first.
    lwork = lapack.dgeqrf(a, lwork=-1, overwrite_a=True)[2][0]
    qr, tau, _, info = lapack.dgeqrf(a, lwork=max(1, a.shape[1], int(lwork)),
                                     overwrite_a=True)
    _check_info("dgeqrf", info)
    r = np.triu(qr[:k])
    if not q:
        return r
    lwork = lapack.dorgqr(qr[:, :k], tau, lwork=-1, overwrite_a=True)[1][0]
    q_factor, _, info = lapack.dorgqr(qr[:, :k], tau, lwork=max(1, k, int(lwork)),
                                      overwrite_a=True)
    _check_info("dorgqr", info)
    return r, q_factor


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info = {info}")


def tri_solve(r: np.ndarray, rhs: np.ndarray, transposed: bool = False,
              overwrite: bool = False) -> np.ndarray:
    """Solve R z = rhs (or R^T z = rhs) for upper-triangular R.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides. With
    ``overwrite``, a Fortran-ordered float64 ``rhs`` is overwritten by z,
    which is then returned as a view of it.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(np.diag(r) == 0.0):
        raise SingularFactorError("zero pivot in triangular factor")
    if r.shape[0] != np.shape(rhs)[0]:
        raise DimensionMismatchError(
            f"factor is {r.shape}, rhs has leading dim {np.shape(rhs)[0]}"
        )
    return scipy.linalg.solve_triangular(
        r, rhs, trans="T" if transposed else "N", lower=False,
        overwrite_b=overwrite, check_finite=False
    )


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: one per CPU this process
    may run on, and no more than there are tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


@contextlib.contextmanager
def parallel(tasks: int, size: int, min_size: int | None = None,
             scratch: Callable[[], object] | None = None):
    """Yield (workers, run) for a pass of ``tasks`` independent tasks over
    ``size`` float64 elements: ``workers`` threads (``_worker_count``, or
    1 below ``min_size``, by default ``_PARALLEL_MIN_SIZE``) and
    run(fn, items), which calls fn on every item, on one pool of that
    many threads when there are several. Given a ``scratch`` factory, one
    buffer per worker is made here, so freed memory stays out of worker
    arenas, and run calls fn(item, buf) with a buffer lent for that item.
    The pool's threads are joined when the block exits."""
    line = _PARALLEL_MIN_SIZE if min_size is None else min_size
    workers = _worker_count(tasks) if size >= line else 1
    bufs = queue.SimpleQueue()
    for _ in range(workers if scratch else 0):
        bufs.put(scratch())

    def lend(fn):
        def lent(item):
            buf = bufs.get()
            try:
                return fn(item, buf)
            finally:  # or the items queued behind a failed one would wait forever
                bufs.put(buf)
        return fn if scratch is None else lent

    if workers == 1:
        yield 1, lambda fn, items: list(map(lend(fn), items))
        return
    with ThreadPoolExecutor(workers) as pool:
        yield workers, lambda fn, items: list(pool.map(lend(fn), items))


def split(total: int, workers: int) -> list[slice]:
    """range(total) cut for ``workers`` threads: one slice inline, else up
    to ``_PIECES_PER_WORKER`` per worker, of near-equal length."""
    parts = max(1, min(_PIECES_PER_WORKER * workers if workers > 1 else 1, total))
    edges = [total * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(n - 1, 0).bit_length()


# H_32 in Sylvester order; its top-left m x m block is H_m for every
# power of two m <= 32, and H_m / sqrt(m) is a level's factor of
# fwht_inplace. Scaled so, each factor is orthonormal and no 1/sqrt(n)
# pass follows the levels. At n = 2^17 factors of 32, 16, 16 and 16 rows
# cost 80 multiply-adds per element, where 64, 64 and 32 would cost 160.
_HADAMARD_BLOCK_BITS = 5
_HADAMARD_BLOCK = scipy.linalg.hadamard(1 << _HADAMARD_BLOCK_BITS, dtype=np.float64)
_HADAMARD_BLOCK.flags.writeable = False

# A Hadamard level is applied tile by tile, each tile of at most this many
# float64 elements (512 KB, about a core's L2 cache): multiplied into a
# worker's scratch of this size, then copied back over itself.
_FWHT_TILE = 1 << 16


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place orthonormal Walsh-Hadamard transform along axis 0.

    Applies H = H_n / sqrt(n) (H_n the +-1 Hadamard matrix in Sylvester
    order) in O(n log n) work; no n x n matrix is formed. Sylvester order
    factors H as a Kronecker product of factors H_m / sqrt(m) of at most
    32 rows (``_HADAMARD_BLOCK``), one per level. A level multiplies
    its factor into ``v.reshape(outer, m, rest)`` one tile at a time
    (``_fwht_tiles``): into a scratch of ``_FWHT_TILE`` elements per
    worker, then back over the tile, so no array the size of ``v`` is
    allocated. The transform is an isometry and an involution. 2-D
    inputs are transformed column by column.

    Above ``_FWHT_PARALLEL_MIN_SIZE`` elements each level's tiles are shared
    among the workers of :func:`parallel`. Tile edges depend only on the
    shape and each tile is one product with the same operands on any
    worker, so the output is bitwise the same for every worker count
    (the tests check it).

    Raises NotPowerOfTwoError unless len(v) is a power of two.
    """
    n = v.shape[0]
    if n == 0 or n & (n - 1):
        raise NotPowerOfTwoError(f"length {n} is not a power of two")
    if v.dtype != np.float64 or not v.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a C-contiguous float64 array")
    bits = n.bit_length() - 1
    levels = -(-bits // _HADAMARD_BLOCK_BITS)
    with parallel(-(-v.size // _FWHT_TILE), v.size, _FWHT_PARALLEL_MIN_SIZE,
                  lambda: np.empty(min(v.size, _FWHT_TILE))) as (workers, run):
        outer = 1
        for level in range(levels):
            # Near-equal factor sizes minimise the total work n * sum(m_i).
            m = 1 << (bits // levels + (level < bits % levels))
            h = _HADAMARD_BLOCK[:m, :m] / math.sqrt(m)
            x = v.reshape(outer, m, v.size // (outer * m))
            tiles = _fwht_tiles(*x.shape)

            def piece(part: slice, buf: np.ndarray) -> None:
                for tile in tiles[part]:
                    src = x[tile]
                    src[...] = np.matmul(h, src, out=buf[:src.size].reshape(src.shape))

            run(piece, split(len(tiles), workers))
            outer *= m
    return v


def _fwht_tiles(outer: int, m: int, rest: int) -> list[tuple]:
    """Indices into an (outer, m, rest) level, each a tile of at most
    ``_FWHT_TILE`` elements that the level's factor maps onto itself:
    column strips x[o, :, c0:c1] of one outer index while m * rest exceeds
    a tile (the last strip ragged), else runs x[o0:o1] of whole outer
    indices (the last run ragged)."""
    if m * rest > _FWHT_TILE:
        width = _FWHT_TILE // m
        return [(o, slice(None), slice(c, c + width))
                for o in range(outer) for c in range(0, rest, width)]
    run = _FWHT_TILE // max(m * rest, 1)
    return [(slice(o, o + run),) for o in range(0, outer, run)]


def condition_number(m: np.ndarray) -> float:
    """sigma_max / sigma_min via full SVD.

    Diagnostic only, on d x d R factors in ``diag`` and ``gen``
    (kappa(A) = kappa(R_A)).
    Raises RankDeficientError when sigma_min < 1e-14 * sigma_max.
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
