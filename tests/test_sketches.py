import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sketchreg.errors import DimensionMismatchError, SketchSizeError
from sketchreg.sketches import (
    SketchOperator,
    apply,
    default_sketch_size,
    embedding_distortion,
    make_sketch,
)


class TestMakeSketch:
    def test_countsketch_deterministic(self):
        first = make_sketch("countsketch", 2, 4, seed=7)
        second = make_sketch("countsketch", 2, 4, seed=7)
        np.testing.assert_array_equal(first.buckets, second.buckets)
        np.testing.assert_array_equal(first.signs, second.signs)

    @pytest.mark.parametrize("kind", ["gaussian", "countsketch", "srht"])
    def test_apply_bitwise_reproducible(self, kind):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((100, 6))
        out1 = apply(make_sketch(kind, 40, 100, seed=5), m)
        out2 = apply(make_sketch(kind, 40, 100, seed=5), m)
        np.testing.assert_array_equal(out1, out2)

    def test_gaussian_entry_distribution(self):
        # 1e5 sampled entries should look like N(0, 1/s).
        sk = make_sketch("gaussian", 100, 1000, seed=11)
        entries = sk.dense().ravel()
        assert entries.size == 100_000
        assert abs(entries.mean()) <= 0.01
        assert abs(entries.var() * sk.s - 1.0) <= 0.10

    def test_srht_legal_at_bench_scale(self):
        sk = make_sketch("srht", 1000, 100_000, seed=1)
        assert sk.s == 1000 and sk.n_pad == 2**17

    @pytest.mark.parametrize("s,n", [(0, 4), (4, 4), (5, 4)])
    def test_invalid_sizes(self, s, n):
        with pytest.raises(SketchSizeError):
            make_sketch("gaussian", s, n, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_sketch("fft", 2, 4, seed=0)


class TestApply:
    def test_countsketch_bucket_sums_by_hand(self):
        sk = SketchOperator(
            kind="countsketch", s=2, n=4, seed=0,
            signs=np.array([1.0, -1.0, 1.0, 1.0]),
            buckets=np.array([0, 1, 0, 1]),
        )
        np.testing.assert_allclose(apply(sk, np.array([1.0, 2.0, 3.0, 4.0])), [4.0, 2.0])

    def test_gaussian_zero_matrix(self):
        sk = make_sketch("gaussian", 10, 50, seed=3)
        np.testing.assert_array_equal(apply(sk, np.zeros((50, 3))), np.zeros((10, 3)))

    def test_srht_matches_dense_oracle(self):
        # Oracle: explicit sqrt(n/s) * P H D matrix product.
        sk = make_sketch("srht", 4, 8, seed=21)
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 2))
        h = scipy.linalg.hadamard(8) / np.sqrt(8.0)
        dense = np.sqrt(8.0 / 4.0) * (h @ np.diag(sk.signs))[sk.rows]
        np.testing.assert_allclose(apply(sk, m), dense @ m, atol=1e-12)

    @pytest.mark.parametrize("shape", [(), (7,)])
    @pytest.mark.parametrize("s", [3, 50, 400])
    def test_countsketch_matches_add_at(self, shape, s):
        # Reference: scatter-add each signed row into its bucket in row
        # order. 500 rows into 400 buckets leave about a quarter empty.
        sk = make_sketch("countsketch", s, 500, seed=s)
        if s == 400:
            assert np.unique(sk.buckets).size < s
        m = np.random.default_rng(s).standard_normal((500, *shape))
        expected = np.zeros((s, *shape))
        signs = sk.signs[:, None] if shape else sk.signs
        np.add.at(expected, sk.buckets, signs * m)
        assert np.array_equal(apply(sk, m), expected)

    def test_countsketch_maps_basis_vectors(self):
        sk = make_sketch("countsketch", 5, 20, seed=9)
        for i in range(20):
            e = np.zeros(20)
            e[i] = 1.0
            out = apply(sk, e)
            expected = np.zeros(5)
            expected[sk.buckets[i]] = sk.signs[i]
            np.testing.assert_array_equal(out, expected)

    def test_srht_hd_stage_is_isometry(self):
        from sketchreg.precond import hadamard_flatten

        sk = make_sketch("srht", 6, 33, seed=4)
        v = np.random.default_rng(5).standard_normal(33)
        flattened = hadamard_flatten(v[:, None], sk.signs)
        assert abs(np.linalg.norm(flattened) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)

    def test_dimension_mismatch(self):
        sk = make_sketch("gaussian", 4, 10, seed=0)
        with pytest.raises(DimensionMismatchError):
            apply(sk, np.ones((11, 2)))


class TestEmbeddingDistortion:
    def test_identity_restriction_is_exact(self):
        m = np.random.default_rng(1).standard_normal((32, 4))
        sk = make_sketch("identity", 32, 32, seed=0)
        assert embedding_distortion(sk, m, trials=50) == 0.0

    def test_gaussian_embedding_quality(self):
        a = np.random.default_rng(2).standard_normal((2048, 10))
        sk = make_sketch("gaussian", 200, 2048, seed=3)
        assert embedding_distortion(sk, a, trials=100) <= 0.5

    def test_countsketch_embedding_quality(self):
        a = np.random.default_rng(2).standard_normal((2048, 10))
        sk = make_sketch("countsketch", 100, 2048, seed=3)
        assert embedding_distortion(sk, a, trials=100) <= 0.5


def test_default_sizes_scale_with_d():
    assert default_sketch_size("gaussian", 20) == 160
    assert default_sketch_size("srht", 20) >= 160
    assert default_sketch_size("countsketch", 20) == 420


def test_cli_import_does_not_load_scipy_sparse():
    # scipy.sparse is imported only when a CountSketch is applied.
    import sketchreg

    src = str(Path(sketchreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, sketchreg.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
