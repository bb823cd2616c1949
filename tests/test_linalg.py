import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sketchreg.linalg as linalg_mod
from sketchreg.errors import (
    DimensionMismatchError,
    NotPowerOfTwoError,
    RankDeficientError,
    SingularFactorError,
)
from sketchreg.linalg import condition_number, fwht_inplace, qr_thin, tri_solve
from helpers import force_workers, fwht, signed_r


class TestQrThin:
    def test_identity(self):
        np.testing.assert_allclose(qr_thin(np.eye(3)), np.eye(3), atol=1e-14)

    def test_hand_gram_schmidt(self):
        # First column has norm 5 and is orthogonal to the second.
        m = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        r = qr_thin(m)
        np.testing.assert_allclose(r, np.array([[5.0, 0.0], [0.0, 1.0]]), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((50, 5))
        r = qr_thin(m)
        assert np.linalg.norm(orthonormal_factor(m, r) @ r - m) / np.linalg.norm(m) <= 1e-10

    @pytest.mark.parametrize("n,d", [(8, 3), (64, 10), (512, 20)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_orthonormal_and_reconstructs(self, n, d, seed):
        m = np.random.default_rng(seed).standard_normal((n, d))
        r = qr_thin(m)
        q = orthonormal_factor(m, r)
        np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-10)
        assert np.linalg.norm(q @ r - m) <= 1e-8 * np.linalg.norm(m)
        assert np.allclose(r, np.triu(r))
        assert np.all(np.diag(r) >= 0.0)

    def test_rank_deficient_raises(self):
        col = np.arange(6.0)[:, None]
        with pytest.raises(RankDeficientError):
            qr_thin(np.hstack([col, 2.0 * col]))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale(self, scale):
        # The rank tolerance scales with the input; it must neither
        # overflow (1e200) nor underflow (1e-200).
        m = np.random.default_rng(4).standard_normal((40, 5))
        expected = qr_thin(m)
        r = qr_thin(scale * m)
        np.testing.assert_allclose(r / scale, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))
        col = np.arange(6.0)[:, None]
        with pytest.raises(RankDeficientError):
            qr_thin(scale * np.hstack([col, 2.0 * col]))

    @pytest.mark.parametrize("shape", [(2500, 50), (400, 50), (40, 5)])
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_r_only_is_bitwise_the_full_r(self, shape, scale):
        # The R that comes with numpy's Q, signed as qr_thin signs it.
        m = scale * np.random.default_rng(6).standard_normal(shape)
        _, r = np.linalg.qr(m, mode="reduced")
        assert qr_thin(m).tobytes() == (np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None]
                                        * r).tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "every other row", "row range"])
    def test_any_layout_is_bitwise_the_full_r(self, layout):
        big = np.random.default_rng(11).standard_normal((5000, 50))
        m = {"fortran": np.asfortranarray(big[:2500]), "every other row": big[::2],
             "row range": big[1000:3500]}[layout]
        assert qr_thin(m).tobytes() == signed_r(m).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["one block", "blocks", "rhs"])
    def test_non_finite_input_raises(self, monkeypatch, bad, where):
        # A NaN or an inf must not come back as a NaN R.
        monkeypatch.setattr(linalg_mod, "_QR_BLOCK", 64)
        n = 40 if where == "one block" else 200
        rng = np.random.default_rng(9)
        m, b = rng.standard_normal((n, 5)), rng.standard_normal(n)
        if where == "rhs":
            b[n // 2] = bad
        else:
            m[n // 2, 3] = bad
        with pytest.raises(ValueError, match="not finite"):
            qr_thin(m, rhs=b if where == "rhs" else None)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_blocks_with_rhs_stay_finite(self, monkeypatch, scale):
        monkeypatch.setattr(linalg_mod, "_QR_BLOCK", 64)
        rng = np.random.default_rng(10)
        m, b = rng.standard_normal((200, 5)), rng.standard_normal(200)
        expected = qr_thin(m, rhs=b)
        r = qr_thin(scale * m, rhs=scale * b)
        np.testing.assert_allclose(r / scale, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))


def orthonormal_factor(m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q = m R^-1, orthonormal exactly when R^T R = m^T m."""
    return tri_solve(r, m.T, transposed=True).T


class TestBlockedR:
    """The R-only factor, taken block by block (TSQR) and of [m | rhs]."""

    @staticmethod
    def data(n, d, seed=8):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)), rng.standard_normal(n)

    @pytest.mark.parametrize("n", [2500, linalg_mod._QR_BLOCK])
    def test_one_block_is_bitwise_the_unblocked_r(self, n):
        # Every benchmark sketch (at most 2500 rows) is one block, so its
        # R, and every solve built on it, is the same bits as before.
        m, _ = self.data(n, 50)
        assert qr_thin(m).tobytes() == signed_r(m).tobytes()

    # With blocks of 64 rows and d = 5: below one block; a whole number
    # of blocks; a tail of 8 rows; a tail of 3 rows, fewer than d + 2.
    @pytest.mark.parametrize("n", [40, 192, 200, 195])
    @pytest.mark.parametrize("with_rhs", [False, True])
    def test_matches_unblocked_r_to_rounding(self, monkeypatch, n, with_rhs):
        monkeypatch.setattr(linalg_mod, "_QR_BLOCK", 64)
        m, b = self.data(n, 5)
        full = np.column_stack((m, b)) if with_rhs else m
        r = qr_thin(m, rhs=b if with_rhs else None)
        assert r.shape == (full.shape[1], full.shape[1])
        assert np.all(np.diag(r) >= 0.0) and np.array_equal(r, np.triu(r))
        np.testing.assert_allclose(r, signed_r(full), rtol=0,
                                   atol=1e-13 * np.linalg.norm(full))

    def test_bitwise_the_same_in_any_layout(self):
        m, b = self.data(2 * linalg_mod._QR_BLOCK + 3, 8)
        ref = qr_thin(m, rhs=b)
        assert qr_thin(np.asfortranarray(m), rhs=b).tobytes() == ref.tobytes()
        big = np.zeros((2 * len(b), 9))
        big[::2, :8], big[::2, 8] = m, b
        assert qr_thin(big[::2, :8], rhs=big[::2, 8]).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bitwise_the_same_on_any_worker_count(self, monkeypatch, workers):
        m, b = self.data(2 * linalg_mod._QR_BLOCK + 3, 8)
        inline = qr_thin(m, rhs=b)
        force_workers(monkeypatch, workers)
        assert qr_thin(m, rhs=b).tobytes() == inline.tobytes()

    def test_last_column_solves_least_squares(self):
        m, b = self.data(3 * linalg_mod._QR_BLOCK + 17, 6)
        r = qr_thin(m, rhs=b)
        x = tri_solve(r[:6, :6], r[:6, 6])
        x_ref = np.linalg.lstsq(m, b, rcond=None)[0]
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)
        assert r[6, 6] == pytest.approx(np.linalg.norm(m @ x_ref - b), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_zero_residual_is_not_rank_loss(self, monkeypatch, n):
        # b in the range of m makes R's last diagonal entry zero up to
        # rounding; the rank test covers m's columns only.
        monkeypatch.setattr(linalg_mod, "_QR_BLOCK", 64)
        m, _ = self.data(n, 3)
        for b in (m @ np.array([1.0, -2.0, 0.5]), m[:, 1].copy(), np.zeros(n)):
            r = qr_thin(m, rhs=b)
            if n == 3:
                assert r.shape == (3, 4)  # a square m leaves no residual row
            else:
                assert abs(r[3, 3]) <= 1e-14 * np.linalg.norm(b)
            np.testing.assert_allclose(tri_solve(r[:3, :3], r[:3, 3]),
                                       np.linalg.lstsq(m, b, rcond=None)[0], atol=1e-12)

    def test_rank_loss_in_m_still_raises_with_rhs(self, monkeypatch):
        monkeypatch.setattr(linalg_mod, "_QR_BLOCK", 64)
        col = np.arange(200.0)[:, None]
        with pytest.raises(RankDeficientError):
            qr_thin(np.hstack([col, 2.0 * col]), rhs=np.ones(200))

    @pytest.mark.parametrize("rhs_len", [9, 11])
    def test_rhs_needs_one_entry_per_row(self, rhs_len):
        with pytest.raises(DimensionMismatchError):
            qr_thin(np.ones((10, 2)) + np.eye(10, 2), rhs=np.ones(rhs_len))


class TestHouseholder:
    """The one Householder kernel: LAPACK's dgeqrf and dorgqr, in place."""

    @pytest.mark.parametrize("shape", [(2500, 50), (4096, 51), (40, 5), (50, 50),
                                       (7, 7), (100, 1)])
    def test_r_and_q_are_bitwise_numpys(self, shape):
        m = np.random.default_rng(12).standard_normal(shape)
        q_np, r_np = np.linalg.qr(m)
        r, q = linalg_mod._householder(np.array(m, order="F"), q=True)
        assert r.tobytes() == r_np.tobytes() and q.tobytes() == q_np.tobytes()
        r_only = linalg_mod._householder(np.array(m, order="F"))
        assert r_only.tobytes() == np.linalg.qr(m, mode="r").tobytes()

    def test_q_is_formed_over_its_input(self):
        a = np.array(np.random.default_rng(13).standard_normal((300, 8)), order="F")
        _, q = linalg_mod._householder(a, q=True)
        assert q.shape == (300, 8) and q.flags.f_contiguous and np.shares_memory(q, a)

    def test_no_copy_of_its_input(self):
        # Only tau, LAPACK's workspace and R are allocated; each workspace
        # query would copy all of a without overwrite_a.
        a = np.array(np.random.default_rng(14).standard_normal((2**14, 20)), order="F")
        tracemalloc.start()
        try:
            linalg_mod._householder(a, q=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * a.nbytes

    def test_c_ordered_input_rejected(self):
        with pytest.raises(ValueError, match="Fortran"):
            linalg_mod._householder(np.ones((4, 2)))

    def test_nonzero_info_raises(self, monkeypatch):
        def dgeqrf(a, lwork, overwrite_a=False):
            return a, np.zeros(2), np.ones(1), -4
        monkeypatch.setattr(linalg_mod, "lapack", types.SimpleNamespace(dgeqrf=dgeqrf))
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrf"):
            linalg_mod._householder(np.array(np.ones((4, 2)), order="F"))


class TestTriSolve:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(tri_solve(np.eye(3), v), v)

    def test_back_substitution_by_hand(self):
        r = np.array([[2.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(tri_solve(r, np.array([3.0, 1.0])), [1.0, 1.0])

    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_explicit_inverse(self, transposed):
        rng = np.random.default_rng(7)
        r = np.triu(rng.standard_normal((6, 6))) + 4.0 * np.eye(6)
        rhs = rng.standard_normal(6)
        # Oracle: multiply by the dense inverse.
        inv = np.linalg.inv(r.T if transposed else r)
        got = tri_solve(r, rhs, transposed=transposed)
        np.testing.assert_allclose(got, inv @ rhs, atol=1e-10)
        residual = (r.T if transposed else r) @ got - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_raises(self):
        r = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SingularFactorError):
            tri_solve(r, np.ones(2))


def butterfly_fwht(v: np.ndarray) -> np.ndarray:
    """Reference radix-2 butterfly (in place, orthonormal, along axis 0)."""
    n = v.shape[0]
    cols = v.shape[1:]
    h = 1
    while h < n:
        blocks = v.reshape(n // (2 * h), 2, h, *cols)
        top = blocks[:, 0] + blocks[:, 1]
        bottom = blocks[:, 0] - blocks[:, 1]
        blocks[:, 0] = top
        blocks[:, 1] = bottom
        h *= 2
    v *= 1.0 / np.sqrt(n)
    return v


class TestFwht:
    def test_pair(self):
        np.testing.assert_allclose(fwht([1.0, 1.0]), [np.sqrt(2.0), 0.0], atol=1e-15)

    def test_impulse_n4(self):
        np.testing.assert_allclose(fwht([1.0, 0.0, 0.0, 0.0]), [0.5] * 4, atol=1e-15)

    # Factors have at most 32 rows: n <= 32 is one Kronecker level, 64 and
    # 128 two, 4096 and 8192 three.
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 128, 4096, 8192])
    def test_matches_dense_hadamard(self, n):
        rng = np.random.default_rng(n)
        dense = scipy.linalg.hadamard(n) / np.sqrt(n)
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            np.testing.assert_allclose(fwht(v), dense @ v, atol=1e-12)

    # One to four Kronecker levels; 2^12 x 50 also has ragged tiles.
    @pytest.mark.parametrize("shape", [(2**3, 3), (2**8, 3), (2**12, 50), (2**17, 3)])
    def test_matches_butterfly(self, shape):
        v = np.random.default_rng(17).standard_normal(shape)
        expected = butterfly_fwht(v.copy())
        got = fwht_inplace(v.copy())
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(v))

    def test_matrix_columns(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 5))
        dense = scipy.linalg.hadamard(16) / 4.0
        np.testing.assert_allclose(fwht(m), dense @ m, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_isometry_and_involution(self, v):
        out = fwht(v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12 * max(
            np.linalg.norm(v), 1.0
        )
        np.testing.assert_allclose(fwht(out), v, atol=1e-9 * max(np.max(np.abs(v)), 1.0))

    def test_isometry_large(self):
        v = np.random.default_rng(9).standard_normal(2**16)
        norm = np.linalg.norm(v)
        assert abs(np.linalg.norm(fwht(v)) - norm) <= 1e-12 * norm

    # Tiles of 2^16 elements. 2^12 x 50: level 0 (16 x 12800) is cut into
    # column strips of 4096, the last one 512 wide, and level 1 (16 x 800)
    # into runs of 5 outer indices, the last one 1; 2^17 x 1 has whole
    # strips, then runs; n <= 32 is one level and n = 1 none.
    @pytest.mark.parametrize("shape", [(1,), (1, 4), (2,), (32, 3), (2**7, 5), (2**10, 5),
                                       (2**12, 3), (2**12, 50), (2**13,), (2**13, 1),
                                       (2**17, 1)])
    def test_bitwise_independent_of_worker_count(self, monkeypatch, shape):
        v = np.random.default_rng(len(shape)).standard_normal(shape)
        outs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            outs.append(fwht(v))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    def test_peak_memory_is_worker_scratch(self, monkeypatch):
        # One tile of scratch per worker, 2 x 512 KB here; a scratch the
        # size of v would be 8 MB.
        force_workers(monkeypatch, 2)
        v = np.random.default_rng(4).standard_normal((2**16, 16))
        tracemalloc.start()
        try:
            fwht_inplace(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * v.nbytes

    def test_no_thread_outlives_a_call(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        fwht(np.ones((2**12, 2)))
        assert threading.active_count() == before

    def test_threads_from_its_own_line(self, monkeypatch):
        # The FWHT shares its tiles from 2^20 elements; every other pass
        # (the SGD solvers' U pass, the SRHT's sign pass, the Gaussian
        # panels) from 2^22.
        monkeypatch.setattr(linalg_mod, "_worker_count", lambda tasks: 2)
        fwht_line = linalg_mod._FWHT_PARALLEL_MIN_SIZE
        assert fwht_line == 1 << 20 and linalg_mod._PARALLEL_MIN_SIZE == 1 << 22
        for size, min_size, want in ((fwht_line, fwht_line, 2), (fwht_line - 1, fwht_line, 1),
                                     (fwht_line, None, 1), (1 << 22, None, 2)):
            with linalg_mod.parallel(8, size, min_size) as (workers, _):
                assert workers == want

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwoError):
            fwht(np.ones(6))

    def test_inplace_mutates(self):
        v = np.array([1.0, 1.0])
        out = fwht_inplace(v)
        assert out is v

    @pytest.mark.parametrize("v", [np.ones((4, 2))[:, 0], np.ones(4, dtype=np.float32)])
    def test_inplace_rejects_strided_or_non_float64(self, v):
        with pytest.raises(ValueError):
            fwht_inplace(v)


class TestParallel:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lent_scratch_comes_back_when_fn_raises(self, monkeypatch, workers):
        # A failed item returns its buffer, so the items queued behind it
        # do not wait for it forever: the error reaches the caller, and
        # every buffer made is back in the pool.
        monkeypatch.setattr(linalg_mod, "_worker_count", lambda tasks: workers)
        pools, made, errors = [], [], []

        class Pool(linalg_mod.queue.SimpleQueue):
            def __init__(self):
                pools.append(self)

        monkeypatch.setattr(linalg_mod, "queue", types.SimpleNamespace(SimpleQueue=Pool))

        def make():
            made.append(np.empty(4))
            return made[-1]

        def failing(item, buf):
            raise FloatingPointError(f"item {item} failed")

        def call():
            try:
                with linalg_mod.parallel(8, 0, 0, make) as (_, run):
                    run(failing, range(8))
            except FloatingPointError as exc:
                errors.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(errors) == 1
        (pool,) = pools
        back = [pool.get_nowait() for _ in range(pool.qsize())]
        assert len(made) == workers and sorted(map(id, back)) == sorted(map(id, made))

    def test_no_buffer_is_lent_to_two_items_at_once(self, monkeypatch):
        # More workers than cores, switching threads often: each item
        # fills its buffer and reads back only its own value.
        monkeypatch.setattr(linalg_mod, "_worker_count", lambda tasks: 4)

        def fill(item, buf):
            buf[...] = item
            return bool(np.all(buf == item))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with linalg_mod.parallel(400, 0, 0, lambda: np.empty(10000)) as (workers, run):
                own = run(fill, range(400))
        finally:
            sys.setswitchinterval(interval)
        assert workers == 4 and all(own) and len(own) == 400


class TestConditionNumber:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((30, 4)))
        assert abs(condition_number(q) - 1.0) <= 1e-10

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_generated_kappa_matches_target(self):
        from sketchreg.bench import DatasetSpec, gen_synthetic

        a, _, _ = gen_synthetic(DatasetSpec(n=512, d=8, target_kappa=1e8, seed=4))
        kappa = condition_number(a)
        assert 0.5e8 <= kappa <= 2e8

    def test_rank_deficient_raises(self):
        col = np.arange(1.0, 7.0)[:, None]
        with pytest.raises(RankDeficientError):
            condition_number(np.hstack([col, col]))
