"""Seeded oblivious subspace embeddings: Gaussian, CountSketch, SRHT.

Each operator S maps R^n -> R^s (s < n) and approximately preserves
||Ax||_2 for all x at once. Operators are immutable and fully determined
by (kind, s, n, seed); applying the same operator twice is bitwise
reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SketchSizeError
from .linalg import fwht_inplace, next_pow2

__all__ = ["SketchOperator", "make_sketch", "hadamard_operator", "apply",
           "subsample", "embedding_distortion", "default_sketch_size", "KINDS"]

KINDS = ("gaussian", "countsketch", "srht", "identity")

# Gaussian rows are generated lazily in fixed-size row blocks so the
# dense s x n matrix never has to be materialized; the block size is part
# of the determinism contract.
_GAUSS_BLOCK = 8192


@dataclass(frozen=True)
class SketchOperator:
    """A random row-compression map S in R^{s x n}.

    ``signs`` holds the +-1 row flips (length n for countsketch, n_pad
    for srht); ``buckets`` the CountSketch target row per input row;
    ``rows`` the SRHT sampled rows in the padded space, or None for the
    unsampled transform H D of :func:`hadamard_operator`. Gaussian
    entries are regenerated from the seed on each apply.
    """

    kind: str
    s: int
    n: int
    seed: int
    signs: np.ndarray | None = field(default=None, repr=False)
    buckets: np.ndarray | None = field(default=None, repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)
    n_pad: int = 0


def default_sketch_size(kind: str, d: int) -> int:
    """Default sketch row count for a d-column problem.

    Gaussian and SRHT use O(d) rows, CountSketch needs O(d^2) for the
    subspace-embedding property.
    """
    if kind == "gaussian":
        return 8 * d
    if kind == "srht":
        return max(8 * d, int(np.ceil(d * np.log2(max(d, 2)))))
    if kind == "countsketch":
        return d * d + d
    raise ValueError(f"no default size for sketch kind {kind!r}")


def make_sketch(kind: str, s: int, n: int, seed: int) -> SketchOperator:
    """Construct a seeded sketch operator.

    Raises SketchSizeError unless 0 < s < n (the ``identity`` kind,
    meant for tests and diagnostics, instead allows 0 < s <= n and
    selects the first s rows).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown sketch kind {kind!r}; pick one of {KINDS}")
    if kind == "identity":
        if not 0 < s <= n:
            raise SketchSizeError(f"identity restriction needs 0 < s <= n, got s={s}, n={n}")
        return SketchOperator(kind=kind, s=s, n=n, seed=seed)
    if not 0 < s < n:
        raise SketchSizeError(f"sketch needs 0 < s < n, got s={s}, n={n}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _kind_tag(kind)]))
    if kind == "countsketch":
        buckets = rng.integers(0, s, size=n)
        signs = rng.choice(np.array([-1.0, 1.0]), size=n)
        return SketchOperator(kind=kind, s=s, n=n, seed=seed, signs=signs, buckets=buckets)
    if kind == "srht":
        n_pad = next_pow2(n)
        signs = rng.choice(np.array([-1.0, 1.0]), size=n_pad)
        rows = rng.choice(n_pad, size=s, replace=False)
        return SketchOperator(kind=kind, s=s, n=n, seed=seed, signs=signs,
                              rows=rows, n_pad=n_pad)
    return SketchOperator(kind=kind, s=s, n=n, seed=seed)  # gaussian


def hadamard_operator(n: int, seed: int) -> SketchOperator:
    """The randomized Hadamard transform H D on R^n, zero padded to n_pad
    rows: the SRHT ``make_sketch("srht", s, n, seed)`` for any s, with
    the same signs (the first draw of its stream) but no row sampling
    and no rescale. :func:`subsample` turns its output into that SRHT's.
    """
    n_pad = next_pow2(n)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _kind_tag("srht")]))
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_pad)
    return SketchOperator(kind="srht", s=n_pad, n=n, seed=seed, signs=signs, n_pad=n_pad)


def subsample(sk: SketchOperator, hdm: np.ndarray) -> np.ndarray:
    """S m for an SRHT ``sk``, given hdm = H D m under its signs (what
    ``apply(hadamard_operator(n, seed), m)`` returns): the rescaled
    sampled rows, bitwise ``apply(sk, m)`` with no second transform."""
    return np.sqrt(sk.n_pad / sk.s) * hdm[sk.rows]


def _kind_tag(kind: str) -> int:
    return {"gaussian": 1, "countsketch": 2, "srht": 3, "identity": 4}[kind]


def apply(sk: SketchOperator, m: np.ndarray) -> np.ndarray:
    """Compute S @ m for an n x d matrix (or length-n vector) m."""
    m = np.asarray(m, dtype=np.float64)
    vector_in = m.ndim == 1
    if vector_in:
        m = m[:, None]
    if m.shape[0] != sk.n:
        raise DimensionMismatchError(
            f"operator expects {sk.n} rows, matrix has {m.shape[0]}"
        )
    if sk.kind == "identity":
        out = m[: sk.s].copy()
    elif sk.kind == "countsketch":
        # Imported here so that processes which never apply a
        # CountSketch do not pay scipy.sparse's start-up time and memory.
        # Column i holds signs[i] in row buckets[i]; the product adds
        # rows into their buckets in row order, exactly as np.add.at.
        import scipy.sparse

        s_mat = scipy.sparse.csc_matrix(
            (sk.signs, sk.buckets, np.arange(sk.n + 1)), shape=(sk.s, sk.n))
        out = s_mat @ m
    elif sk.kind == "srht":
        padded = np.zeros((sk.n_pad, m.shape[1]))
        np.multiply(m, sk.signs[: sk.n, None], out=padded[: sk.n])
        fwht_inplace(padded)
        out = padded if sk.rows is None else subsample(sk, padded)
    else:  # gaussian, N(0, 1/s) entries streamed in row blocks
        rng = np.random.default_rng(np.random.SeedSequence([int(sk.seed), _kind_tag("gaussian")]))
        out = np.zeros((sk.s, m.shape[1]))
        scale = 1.0 / np.sqrt(sk.s)
        for start in range(0, sk.n, _GAUSS_BLOCK):
            stop = min(start + _GAUSS_BLOCK, sk.n)
            block = rng.standard_normal((sk.s, stop - start))
            out += scale * (block @ m[start:stop])
    return out[:, 0] if vector_in else out


def embedding_distortion(sk: SketchOperator, m: np.ndarray, trials: int = 100) -> float:
    """Empirical embedding constant: max over random unit x of
    | ||SAx|| / ||Ax|| - 1 |.

    A diagnostic for how well the sketch preserves the range of m; the
    trial directions are derived deterministically from the operator's
    seed.
    """
    m = np.asarray(m, dtype=np.float64)
    sm = apply(sk, m)
    rng = np.random.default_rng(np.random.SeedSequence([int(sk.seed), 99]))
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(m.shape[1])
        x /= np.linalg.norm(x)
        denom = np.linalg.norm(m @ x)
        ratio = np.linalg.norm(sm @ x) / denom
        worst = max(worst, abs(ratio - 1.0))
    return worst
