"""Seeded oblivious subspace embeddings: Gaussian, CountSketch, SRHT.

Each operator S maps R^n -> R^s (s < n) and approximately preserves
||Ax||_2 for all x at once. Operators are immutable and fully determined
by (kind, s, n, seed); applying the same operator twice is bitwise
reproducible, and independent of how many threads apply it: the
Gaussian panels and the SRHT's sign pass above
``linalg._PARALLEL_MIN_SIZE`` elements (of S for the panels, of the
padded m for the signs) and its transform above
``linalg._FWHT_PARALLEL_MIN_SIZE``, run on ``linalg.parallel``.

A Gaussian S is drawn by Box-Muller on float32 uniforms
(``_box_muller``): its entries are normal to float32 resolution and
capped at |z| <= sqrt(48 ln 2) ~ 5.77 before the 1/sqrt(s) scale, while
the product S m, its scale and everything computed from it stay
float64. On a 2-core Xeon VM with one BLAS thread a draw costs about
4.7 ns, against 12 ns for numpy's float64 ziggurat, and a 500 x 2^15 S
applied to 2^15 x 50 took 61-70 ms against 126-151 ms with the
ziggurat (medians of 9 calls, three alternations).
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SketchSizeError
from .linalg import _r_factor, fwht_inplace, next_pow2, parallel, split

__all__ = ["SketchOperator", "make_sketch", "hadamard_operator", "apply", "KINDS",
           "subsample", "range_distortion", "check_integer", "seeds", "stream"]

KINDS = ("gaussian", "countsketch", "srht")

# The tag of every seeded stream in the package, one per name; see
# ``seeds``. A sketch kind's stream is named after the kind. Changing a
# tag changes every draw of its stream.
_TAGS = {"gaussian": 1, "countsketch": 2, "srht": 3, "distortion": 99,
         "sample": 1002, "estimate": 1003, "ihs": 1005, "data": 7001}

# A Gaussian S is streamed in row panels: panel p is rows
# [p k, (p + 1) k) of S, k = _PANEL_ROWS. It draws its entries tile by
# tile, _PANEL_COLS columns at a time in column order, from its own
# stream(seed, "gaussian", spawn_key=(p,)): a k x cols tile is the
# ``_box_muller`` draw of its k cols entries in row-major order. It
# accumulates tile @ m[cols] into its own rows of S m, scaled by
# 1/sqrt(s) once at the end. So S is a fixed linear map set by
# (s, n, seed), each row of S m is written by one panel, and S m is
# bitwise the same whatever the number of workers or the order they run
# in. Both constants are part of that contract. A worker reuses one
# float64 tile (1 MiB) and its float32 uniforms (0.5 MiB) for all its
# panels. At 4096 columns the two take 3 MiB, and the range distortion
# of a 160-row S on 2^15 x 20 peaked at 6.4 MB, above the 5.2 MB of its
# input (3.3 MB at 2048).
_PANEL_ROWS = 64
_PANEL_COLS = 2048


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


def check_integer(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) >= low:
    a count, or a seed (see :func:`seeds`)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def seeds(seed, name: str, *key: int, spawn_key: tuple = ()) -> np.random.SeedSequence:
    """The one rule for a seeded random stream:
    SeedSequence([seed, _TAGS[name], *key], spawn_key=spawn_key), so
    streams of different names never share draws. Raises ValueError
    unless ``seed`` is an integer >= 0, before anything is drawn."""
    check_integer("seed", seed, 0)
    return np.random.SeedSequence([int(seed), _TAGS[name], *key], spawn_key=spawn_key)


def stream(seed, name: str, *key: int, spawn_key: tuple = ()) -> np.random.Generator:
    """The generator of ``seeds(seed, name, *key, spawn_key=spawn_key)``."""
    return np.random.default_rng(seeds(seed, name, *key, spawn_key=spawn_key))


def make_sketch(kind: str, s: int, n: int, seed: int) -> SketchOperator:
    """Construct a seeded sketch operator.

    Raises SketchSizeError unless 0 < s < n, and ValueError for an
    unknown kind or a seed that is not an integer >= 0.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown sketch kind {kind!r}; pick one of {KINDS}")
    rng = stream(seed, kind)
    if not 0 < s < n:
        raise SketchSizeError(f"sketch needs 0 < s < n, got s={s}, n={n}")
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
    Raises ValueError for a seed that is not an integer >= 0.
    """
    rng = stream(seed, "srht")
    n_pad = next_pow2(n)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_pad)
    return SketchOperator(kind="srht", s=n_pad, n=n, seed=seed, signs=signs, n_pad=n_pad)


def subsample(sk: SketchOperator, hdm: np.ndarray) -> np.ndarray:
    """S m for an SRHT ``sk``, given hdm = H D m under its signs (what
    ``apply(hadamard_operator(n, seed), m)`` returns): the rescaled
    sampled rows, bitwise ``apply(sk, m)`` with no second transform."""
    return np.sqrt(sk.n_pad / sk.s) * hdm[sk.rows]


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
    if sk.kind == "countsketch":
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
        with parallel(sk.n, padded.size) as (workers, run):
            run(lambda rows: np.multiply(m[rows], sk.signs[rows, None], out=padded[rows]),
                split(sk.n, workers))
        fwht_inplace(padded)
        out = padded if sk.rows is None else subsample(sk, padded)
    else:
        out = _gaussian_apply(sk, m)
    return out[:, 0] if vector_in else out


def _gaussian_apply(sk: SketchOperator, m: np.ndarray) -> np.ndarray:
    """S m for a Gaussian ``sk`` (N(0, 1/s) entries), streamed in row
    panels (see ``_PANEL_ROWS``), each tile drawn by ``_box_muller``
    into the float64 tile and float32 uniforms ``parallel`` lends its
    worker. Workers call only numpy, whose RNG fill, ufunc loops and
    matmul release the GIL."""
    out = np.zeros((sk.s, m.shape[1]))
    panels = -(-sk.s // _PANEL_ROWS)
    size = min(_PANEL_ROWS, sk.s) * min(_PANEL_COLS, sk.n)

    def fill(p: int, scratch: tuple) -> None:
        rows = out[p * _PANEL_ROWS:(p + 1) * _PANEL_ROWS]
        k = rows.shape[0]
        rng = stream(sk.seed, "gaussian", spawn_key=(p,))
        buf, uniforms = scratch
        for start in range(0, sk.n, _PANEL_COLS):
            stop = min(start + _PANEL_COLS, sk.n)
            tile = buf[: k * (stop - start)]
            _box_muller(rng, tile, uniforms)
            rows += tile.reshape(k, stop - start) @ m[start:stop]
        rows *= 1.0 / np.sqrt(sk.s)

    with parallel(panels, sk.s * sk.n, scratch=lambda: (
            np.empty(size), np.empty(size + size % 2, dtype=np.float32))) as (_, run):
        run(fill, range(panels))
    return out


def _box_muller(rng: np.random.Generator, out: np.ndarray, uniforms: np.ndarray) -> None:
    """Fill the float64 vector ``out``, N entries, with standard normals
    by Box-Muller (Box and Muller, 1958) in float32: draw 2 ceil(N/2)
    float32 uniforms u from ``rng`` into ``uniforms``; take radii
    r = sqrt(-2 ln(1 - u)) from the first half and angles t = 2 pi u
    from the second; write cos(t) r into the first ceil(N/2) entries and
    sin(t) r into the rest, each the exact float64 product of its two
    float32 factors. u is a multiple of 2^-24 below 1, so 1 - u >= 2^-24
    and every entry is finite, with |z| <= sqrt(48 ln 2) ~ 5.77 (the
    N(0, 1) mass beyond is 8e-9)."""
    n = out.size
    half = -(-n // 2)
    u = uniforms[: 2 * half]
    rng.random(out=u, dtype=np.float32)
    r, t = u[:half], u[half:]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    np.cos(t, out=out[:half])
    out[:half] *= r
    np.sin(t[: n - half], out=out[half:])
    out[half:] *= r[: n - half]


def range_distortion(sm: np.ndarray, m: np.ndarray, seed: int, trials: int) -> float:
    """max | ||sm x|| / ||m x|| - 1 | over ``trials`` directions x, the rows
    of one draw from ``stream(seed, "distortion")`` (the ratio ignores |x|).
    Equal norms give equal values, as (S A, A) and their R factors (R, R_A):
    a tall matrix is replaced by its R, so no product exceeds d x trials."""
    x = stream(seed, "distortion").standard_normal((trials, m.shape[1])).T
    sm_x, m_x = ((_r_factor(v, None) if v.shape[0] > v.shape[1] else v) @ x for v in (sm, m))
    ratios = np.linalg.norm(sm_x, axis=0) / np.linalg.norm(m_x, axis=0)
    return float(np.max(np.abs(ratios - 1.0), initial=0.0))
