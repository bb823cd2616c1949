import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import sketchreg.linalg as linalg_mod
import sketchreg.precond as precond_mod
import sketchreg.sketches as sketches_mod
from sketchreg.bench import DatasetSpec, gen_synthetic
from sketchreg.errors import RankDeficientError
from sketchreg.feasible import FeasibleSet
from sketchreg.linalg import condition_number, qr_thin, tri_solve
from sketchreg.precond import (
    build_hd,
    build_preconditioner,
    build_r,
    row_norm_spread,
)
from sketchreg.sketches import apply, hadamard_operator, make_sketch, subsample
from sketchreg.solvers import SOLVERS, SolverConfig, pw_gradient, resolve_sketch_size
from helpers import dense_sketch, signed_r


def conditioned_basis(a, r):
    """U = A R^-1 (tests only; solvers never materialize it)."""
    return tri_solve(r, a.T, transposed=True).T


class TestBuildR:
    def test_single_column(self):
        a = np.random.default_rng(1).standard_normal((30, 1))
        sk = make_sketch("gaussian", 8, 30, seed=2)
        r = build_r(a, sk)
        sa = np.asarray([float(np.linalg.norm(dense_sketch(sk) @ a))])
        np.testing.assert_allclose(r, sa[None, :], rtol=1e-10)

    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    def test_r_is_bitwise_the_full_factorization_r(self, kind):
        # build_r forms no Q; its R is numpy's Householder R of S A, signed.
        a, _, _ = gen_synthetic(DatasetSpec(n=1024, d=10, target_kappa=1e4, seed=4))
        s = resolve_sketch_size(SolverConfig(sketch_kind=kind), 1024, 10, False)
        sk = make_sketch(kind, s, 1024, seed=5)
        assert build_r(a, sk).tobytes() == signed_r(apply(sk, a)).tobytes()

    def test_conditioning_on_ill_conditioned_data(self):
        # kappa(A) = 1e8 comes down to O(1) in most seeds.
        a, _, _ = gen_synthetic(DatasetSpec(n=4096, d=20, target_kappa=1e8, seed=3))
        s = resolve_sketch_size(SolverConfig(sketch_kind="srht"), 4096, 20, False)
        good = 0
        for seed in range(10):
            r = build_r(a, make_sketch("srht", s, 4096, seed=seed))
            if condition_number(conditioned_basis(a, r)) <= 3.0:
                good += 1
        assert good >= 9


class TestBuildHd:
    def test_forced_positive_signs_equal_plain_hadamard(self):
        a = np.random.default_rng(2).standard_normal((16, 3))
        hda = apply(dataclasses.replace(hadamard_operator(16, seed=0), signs=np.ones(16)), a)
        dense = scipy.linalg.hadamard(16) / 4.0
        np.testing.assert_allclose(hda, dense @ a, atol=1e-12)

    def test_norm_preserved(self):
        b = np.random.default_rng(3).standard_normal(100)
        _, hdb = build_hd(np.zeros((100, 1)), b, seed=5)
        assert abs(np.linalg.norm(hdb) - np.linalg.norm(b)) <= 1e-12 * np.linalg.norm(b)

    def test_padding_preserves_objective(self):
        # n=6 pads to 8; compare against the dense H_8 oracle.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal(6)
        hda, hdb = build_hd(a, b, seed=6)
        assert hda.shape == (8, 2)
        signs = hadamard_operator(6, seed=6).signs
        h = scipy.linalg.hadamard(8) / np.sqrt(8.0)
        a_pad = np.vstack([a, np.zeros((2, 2))])
        b_pad = np.concatenate([b, np.zeros(2)])
        np.testing.assert_allclose(hda, h @ (signs[:, None] * a_pad), atol=1e-12)
        for trial in range(5):
            x = rng.standard_normal(2)
            lhs = np.linalg.norm(hda @ x - hdb)
            rhs = np.linalg.norm(a_pad @ x - b_pad)
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)

    def test_objective_preservation_relative(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 4))
        b = rng.standard_normal(50)
        hda, hdb = build_hd(a, b, seed=8)
        for _ in range(5):
            x = rng.standard_normal(4)
            new = np.linalg.norm(hda @ x - hdb) ** 2
            old = np.linalg.norm(a @ x - b) ** 2
            assert abs(new - old) <= 1e-8 * old


class TestRowNormSpread:
    def test_basis_column_bound_value(self):
        # U = e_1 in R^8: alpha = 1, bound = (1+sqrt(8 ln 80))/sqrt(8).
        u = np.zeros((8, 1))
        u[0, 0] = 1.0
        hdu, _ = build_hd(u, np.zeros(8), seed=9)
        observed, bound = row_norm_spread(np.linalg.norm(hdu, axis=1))
        assert bound == pytest.approx(2.4469, abs=1e-3)
        assert observed <= bound

    def test_bound_holds_on_most_seeds(self):
        u = np.random.default_rng(10).standard_normal((256, 5))
        holds = 0
        for seed in range(100):
            hdu, _ = build_hd(u, np.zeros(256), seed=seed)
            observed, bound = row_norm_spread(np.linalg.norm(hdu, axis=1))
            holds += observed <= bound
        assert holds >= 90

    def test_constant_rows_already_spread(self):
        u = np.ones((32, 2))
        norms = np.linalg.norm(u, axis=1)
        observed, bound = row_norm_spread(norms)
        alpha = np.sqrt(np.sum(norms**2))
        assert observed == pytest.approx(alpha / np.sqrt(32.0))
        assert observed <= bound


class TestBuildPreconditioner:
    def test_retry_once_with_doubled_sketch(self, monkeypatch):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 4))
        b = rng.standard_normal(64)
        real_build_r = build_r
        calls = []

        def flaky(a_, sk, hda=None, rhs=None):
            calls.append(sk.s)
            if len(calls) == 1:
                raise RankDeficientError("forced")
            return real_build_r(a_, sk, hda, rhs=rhs)

        monkeypatch.setattr(precond_mod, "build_r", flaky)
        pre = precond_mod.build_preconditioner(a, b, "gaussian", 8, seed=12)
        assert calls == [8, 16]
        assert pre.r_factor.shape == (4, 4)

    def test_two_failures_propagate(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((64, 4))

        def always_fails(a_, sk, hda=None, rhs=None):
            raise RankDeficientError("forced")

        monkeypatch.setattr(precond_mod, "build_r", always_fails)
        with pytest.raises(RankDeficientError):
            precond_mod.build_preconditioner(a, rng.standard_normal(64), "gaussian", 8, seed=14)

    def test_peak_memory_is_one_transformed_copy(self):
        # H D A and H D b, one tile of FWHT scratch and the sketch; a
        # scratch the size of A would add a second A.nbytes.
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((2**15, 16)), rng.standard_normal(2**15)
        tracemalloc.start()
        try:
            precond_mod.build_preconditioner(a, b, "srht", 256, seed=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * a.nbytes

    def test_median_conditioning_at_defaults(self):
        # Both sketch families keep kappa(A R^-1) small on nasty data.
        a, _, _ = gen_synthetic(DatasetSpec(n=2048, d=16, target_kappa=1e8, seed=15))
        for kind in ("srht", "gaussian"):
            s = resolve_sketch_size(SolverConfig(sketch_kind=kind), 2048, 16, False)
            kappas = []
            for seed in range(10):
                r = build_r(a, make_sketch(kind, s, 2048, seed=seed))
                kappas.append(condition_number(conditioned_basis(a, r)))
            assert np.median(kappas) <= 3.0

    def test_strong_convexity_surrogate(self):
        # beta = 1/sigma_min(U) stays moderate at default sketch sizes.
        a, _, _ = gen_synthetic(DatasetSpec(n=2048, d=16, target_kappa=1e3, seed=16))
        s = resolve_sketch_size(SolverConfig(sketch_kind="srht"), 2048, 16, False)
        betas = []
        for seed in range(10):
            r = build_r(a, make_sketch("srht", s, 2048, seed=seed))
            sv = np.linalg.svd(conditioned_basis(a, r), compute_uv=False)
            betas.append(1.0 / sv[-1])
        assert np.median(betas) <= 1.5


def count_fwht_shapes(monkeypatch) -> list:
    """Shapes of every FWHT the package runs from now on, wherever it is
    called from."""
    shapes = []
    for module in (linalg_mod, sketches_mod, precond_mod):
        original = module.fwht_inplace
        monkeypatch.setattr(module, "fwht_inplace",
                            lambda v, _f=original: shapes.append(v.shape) or _f(v))
    return shapes


class TestSeedCheckedBeforeAnyTransform:
    @pytest.fixture
    def no_transform(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("transformed before the seed was checked")

        for module in (sketches_mod, precond_mod):
            monkeypatch.setattr(module, "apply", fail)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_hadamard_operator(self, no_transform, seed):
        with pytest.raises(ValueError, match="seed must be"):
            hadamard_operator(64, seed)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_build_hd(self, no_transform, seed):
        a = np.ones((64, 3))
        with pytest.raises(ValueError, match="seed must be"):
            build_hd(a, a[:, 0], seed)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_build_preconditioner(self, no_transform, seed):
        a = np.random.default_rng(0).standard_normal((64, 3))
        with pytest.raises(ValueError, match="seed must be"):
            build_preconditioner(a, a[:, 0], "srht", 16, seed)


class TestOneHadamardPass:
    @pytest.mark.parametrize("n,d,s,seed", [(1000, 5, 40, 3), (1024, 8, 64, 0),
                                            (3000, 12, 96, 21)])
    def test_srht_r_is_bitwise_build_r(self, n, d, s, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((n, d)), rng.standard_normal(n)
        pre = build_preconditioner(a, b, "srht", s, seed)
        assert pre.r_factor.tobytes() == build_r(a, make_sketch("srht", s, n, seed)).tobytes()

    @pytest.mark.parametrize("s", [1, 17, 256, 999])
    def test_build_hd_signs_are_the_srht_signs(self, s):
        a = np.random.default_rng(s).standard_normal((1000, 2))
        hda, _ = build_hd(a, np.ones(1000), seed=7)
        assert hda.shape == (1024, 2)
        sk = make_sketch("srht", s, 1000, seed=7)
        np.testing.assert_array_equal(hadamard_operator(1000, seed=7).signs, sk.signs)
        assert subsample(sk, hda).tobytes() == apply(sk, a).tobytes()

    def test_rank_loss_resamples_hda_without_a_second_transform(self, monkeypatch):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((1000, 5)), rng.standard_normal(1000)
        expected = build_r(a, make_sketch("srht", 80, 1000, seed=9))
        real_qr = qr_thin
        sizes = []

        def flaky(m, rhs=None):
            sizes.append(m.shape[0])
            if len(sizes) == 1:
                raise RankDeficientError("forced")
            return real_qr(m, rhs)

        monkeypatch.setattr(precond_mod, "qr_thin", flaky)
        shapes = count_fwht_shapes(monkeypatch)
        pre = build_preconditioner(a, b, "srht", 40, seed=9)
        assert sizes == [40, 80]
        assert shapes == [(1024, 5), (1024, 1)]  # H D A and H D b, once each
        assert pre.r_factor.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc"])
    def test_sgd_solve_transforms_a_once(self, name, monkeypatch):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((1000, 5)), rng.standard_normal(1000)
        shapes = count_fwht_shapes(monkeypatch)
        SOLVERS[name](a, b, FeasibleSet.unconstrained(5),
                      SolverConfig(iterations=20, batch_size=4, seed=1, sketch_kind="srht"))
        assert shapes.count((1024, 5)) == 1

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    def test_full_gradient_solver_retries_like_the_sgd_path(self, kind, monkeypatch):
        # pwgrad's first sketch loses rank: it redraws at 2s, with the R
        # that build_preconditioner takes under the same failure. From an
        # explicit x0 it sketches A alone, as the SGD path does; its
        # default start sketches [A | b] under the same policy.
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((512, 4)), rng.standard_normal(512)
        w = FeasibleSet.unconstrained(4)
        cfg = SolverConfig(iterations=3, seed=12, sketch_kind=kind, sketch_size=20)
        real_build_r = build_r
        sizes, factors = [], []

        def flaky(a_, sk, hda=None, rhs=None):
            sizes.append(sk.s)
            if len(sizes) % 2:
                raise RankDeficientError("forced")
            factors.append(real_build_r(a_, sk, hda, rhs=rhs))
            return factors[-1]

        monkeypatch.setattr(precond_mod, "build_r", flaky)
        starts = (np.zeros(4), None)
        retried = [pw_gradient(a, b, w, dataclasses.replace(cfg, x0=x0)) for x0 in starts]
        pre = build_preconditioner(a, b, kind, 20, seed=12)
        assert sizes == [20, 40] * 3
        assert factors[0].tobytes() == factors[2].tobytes() == pre.r_factor.tobytes()
        sketch_ab = build_r(a, make_sketch(kind, 40, 512, 12), rhs=b)
        assert factors[1].shape == (5, 5) and factors[1].tobytes() == sketch_ab.tobytes()
        monkeypatch.undo()
        for x0, run in zip(starts, retried):
            grown = pw_gradient(a, b, w, dataclasses.replace(cfg, sketch_size=40, x0=x0))
            np.testing.assert_array_equal(run.final_x, grown.final_x)
