import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchreg.errors import (
    NotPowerOfTwoError,
    RankDeficientError,
    SingularFactorError,
)
from sketchreg.linalg import condition_number, fwht_inplace, qr_thin, tri_solve
from helpers import fwht


class TestQrThin:
    def test_identity(self):
        q, r = qr_thin(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_hand_gram_schmidt(self):
        # First column has norm 5 and is orthogonal to the second.
        m = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        _, r = qr_thin(m)
        np.testing.assert_allclose(r, np.array([[5.0, 0.0], [0.0, 1.0]]), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((50, 5))
        q, r = qr_thin(m)
        assert np.linalg.norm(q @ r - m) / np.linalg.norm(m) <= 1e-10

    @pytest.mark.parametrize("n,d", [(8, 3), (64, 10), (512, 20)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_orthonormal_and_reconstructs(self, n, d, seed):
        m = np.random.default_rng(seed).standard_normal((n, d))
        q, r = qr_thin(m)
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
        expected = qr_thin(m).r
        _, r = qr_thin(scale * m)
        np.testing.assert_allclose(r / scale, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))
        col = np.arange(6.0)[:, None]
        with pytest.raises(RankDeficientError):
            qr_thin(scale * np.hstack([col, 2.0 * col]))


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

    # n > 64 takes two (128, 4096) or three (8192) Kronecker levels.
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 128, 4096, 8192])
    def test_matches_dense_hadamard(self, n):
        rng = np.random.default_rng(n)
        dense = scipy.linalg.hadamard(n) / np.sqrt(n)
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            np.testing.assert_allclose(fwht(v), dense @ v, atol=1e-12)

    def test_matches_butterfly_large(self):
        v = np.random.default_rng(17).standard_normal((2**17, 3))
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


class TestConditionNumber:
    def test_orthonormal_columns(self):
        q, _ = qr_thin(np.random.default_rng(1).standard_normal((30, 4)))
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
