import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import sketchreg.bench as bench_mod
from sketchreg.bench import (
    DatasetSpec,
    gen_synthetic,
    ground_truth,
    iterations_to_target,
    load_csv,
    make_feasible_set,
    relative_error,
    run_experiment,
    save_dataset_csv,
    write_trace_csv,
    TRACE_HEADER,
)
from sketchreg.errors import (
    CsvParseError,
    DegenerateOptimumError,
    RaggedRowsError,
)
from sketchreg.feasible import FeasibleSet, project_euclidean
from sketchreg.linalg import _QR_BLOCK, condition_number, qr_thin
from helpers import l1_kkt_residual, l2_kkt_residual
from sketchreg.solvers import SolverConfig, ihs, objective_value, pw_gradient


class TestGenSynthetic:
    def test_shapes_and_determinism(self):
        spec = DatasetSpec(n=128, d=6, target_kappa=100.0, seed=1)
        a1, b1, x1 = gen_synthetic(spec)
        a2, b2, x2 = gen_synthetic(spec)
        assert a1.shape == (128, 6) and b1.shape == (128,) and x1.shape == (6,)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("seed", range(10))
    def test_kappa_within_factor_two(self, seed):
        spec = DatasetSpec(n=256, d=8, target_kappa=1e3, seed=seed)
        a, _, _ = gen_synthetic(spec)
        assert 500.0 <= condition_number(a) <= 2e3

    def test_isotropic_case(self):
        a, _, _ = gen_synthetic(DatasetSpec(n=256, d=8, target_kappa=1.0, seed=3))
        assert condition_number(a) <= 1.01

    def test_benchmark_scale_specs_construct(self):
        hard = DatasetSpec(n=100_000, d=20, target_kappa=1e8, seed=0)
        mild = DatasetSpec(n=100_000, d=20, target_kappa=1e3, seed=0)
        assert hard.n == mild.n == 100_000

    def test_invalid_specs_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in (dict(n=10, d=20), dict(target_kappa=0.5), dict(target_kappa=nan),
                    dict(target_kappa=inf), dict(noise_std=nan), dict(noise_std=inf),
                    dict(noise_std=-inf), dict(n=30.5), dict(d=2.5), dict(n=30.0),
                    dict(seed=1.5), dict(seed=-1)):
            with pytest.raises(ValueError):
                DatasetSpec(**{"n": 30, "d": 2, **bad})

    def test_numpy_integer_spec_is_the_same_data(self):
        ref = gen_synthetic(DatasetSpec(n=40, d=3, seed=2))
        got = gen_synthetic(DatasetSpec(n=np.int64(40), d=np.int32(3), seed=np.int64(2)))
        for x, y in zip(ref, got):
            assert x.tobytes() == y.tobytes()

    # A and b of two specs, pinned so that a change which moves the data
    # (and so every digest and benchmark dataset) fails here. The hashes
    # hold for the numpy and LAPACK builds the package is tested with.
    @pytest.mark.parametrize("spec,a_sha,b_sha", [
        (DatasetSpec(n=1024, d=8, target_kappa=1e6, seed=5),
         "921b347017e55ad8eb7ba815fbe7c8e9cf51142cd5585ea26f5e690555e74172",
         "49b0d3fba98f1bcd4cd8b2b3d98972a70155b9e83d76abb1c1c49cf5da9843ac"),
        (DatasetSpec(n=2**15, d=20, target_kappa=30.0, seed=1),
         "ce332ac5f0f37b558538cd25baad16af082e0546423ac0b2b15075223f71e362",
         "bd53609645dcbb7cb383b7dc0f8106f2502c30f8740976e7ab35bf6deae0ebb8"),
    ])
    def test_data_is_pinned(self, spec, a_sha, b_sha):
        a, b, _ = gen_synthetic(spec)
        assert a.flags.c_contiguous
        assert hashlib.sha256(a.tobytes()).hexdigest() == a_sha
        assert hashlib.sha256(b.tobytes()).hexdigest() == b_sha

    def test_peak_memory_is_two_copies_of_a(self):
        # Q is formed over the draw's Fortran-ordered copy, so the peak is
        # that Q and A, plus b and its noise draw (A.nbytes / d each).
        spec = DatasetSpec(n=2**15, d=20, target_kappa=30.0, seed=1)
        tracemalloc.start()
        try:
            a, _, _ = gen_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * a.nbytes


class TestGroundTruth:
    def test_identity_instance(self):
        v = np.array([1.0, -2.0, 0.5])
        x_star, f_star = ground_truth(np.eye(3), v, FeasibleSet.unconstrained(3))
        np.testing.assert_allclose(x_star, v, atol=1e-12)
        assert f_star <= 1e-20

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((300, 7))
        b = rng.standard_normal(300)
        x_star, f_star = ground_truth(a, b, FeasibleSet.unconstrained(7))
        x_ne = np.linalg.solve(a.T @ a, a.T @ b)  # independent oracle
        f_ne = objective_value(a, b, x_ne)
        assert abs(f_star - f_ne) <= 1e-8 * f_ne

    def test_l2_radius_at_unconstrained_norm_changes_nothing(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=512, d=8, target_kappa=50.0,
                                            noise_std=1.0, seed=5))
        w_unc = FeasibleSet.unconstrained(8)
        _, f_unc = ground_truth(a, b, w_unc)
        w_ball = make_feasible_set(a, b, "l2", radius_scale=1.0)
        _, f_ball = ground_truth(a, b, w_ball)
        assert abs(f_ball - f_unc) <= 1e-9 * f_unc

    @pytest.mark.parametrize("constraint", ["l1", "l2"])
    def test_ball_answer_is_feasible_and_optimal(self, constraint):
        # x* minimises ||R (x - x_ls)|| over W, with R and x_ls from the
        # oracle's own QR, so the ball step's KKT conditions hold there.
        a, b, _ = gen_synthetic(DatasetSpec(n=512, d=8, target_kappa=30.0,
                                            noise_std=1.0, seed=6))
        w = make_feasible_set(a, b, constraint, radius_scale=0.5)
        x_star, f_star = ground_truth(a, b, w)
        r, x_ls = bench_mod._least_squares(a, b)
        kkt = l1_kkt_residual if constraint == "l1" else l2_kkt_residual
        assert kkt(r, w.radius, x_ls, x_star) <= 1e-10
        assert w.contains(x_star, tol=1e-9)
        assert f_star == objective_value(a, b, x_star)
        assert f_star < objective_value(a, b, project_euclidean(w, x_ls))


class TestOracleAtHighKappa:
    """Cells where the two-start pwgrad oracle raised InnerSolverStallError
    (gen_synthetic, noise 1, l1 radius 0.5 ||x_ls||_1, oracle seed 0)."""

    @pytest.mark.parametrize("n,d,seed", [(4096, 8, 2), (4096, 8, 3), (2**14, 20, 2)])
    def test_l1_stall_cells_return_the_optimum(self, n, d, seed):
        a, b, _ = gen_synthetic(DatasetSpec(n=n, d=d, target_kappa=1e8,
                                            noise_std=1.0, seed=seed))
        w = make_feasible_set(a, b, "l1", radius_scale=0.5)
        x_star, f_star = ground_truth(a, b, w)
        r, x_ls = bench_mod._least_squares(a, b)
        assert w.contains(x_star, tol=1e-9)
        assert l1_kkt_residual(r, w.radius, x_ls, x_star) <= 1e-10
        assert f_star == objective_value(a, b, x_star)

    def test_kappa_1e6_cell_matches_the_two_start_answer(self):
        # There the two pwgrad starts agreed on f* = 3926.739807604616 at
        # make_feasible_set's radius, then 3.787233667455384. At kappa 1e6
        # x_ls, and so the radius, scatters by about 1e-11 between
        # backward-stable solves, so the radius is pinned.
        a, b, _ = gen_synthetic(DatasetSpec(n=4096, d=8, target_kappa=1e6,
                                            noise_std=1.0, seed=2))
        radius = 3.787233667455384
        assert make_feasible_set(a, b, "l1", radius_scale=0.5).radius == pytest.approx(
            radius, rel=1e-10)
        _, f_star = ground_truth(a, b, FeasibleSet.l1_ball(radius, 8))
        assert f_star == pytest.approx(3926.739807604616, rel=1e-13)


class TestOneQrPath:
    def test_no_call_reaches_numpys_qr(self, monkeypatch):
        # Every Householder QR goes through linalg._householder.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.qr was called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        a, b, _ = gen_synthetic(DatasetSpec(n=2 * _QR_BLOCK + 5, d=6, target_kappa=30.0,
                                            noise_std=1.0, seed=3))
        for r in (qr_thin(a[:100]), qr_thin(a), qr_thin(a, rhs=b)):
            assert np.isfinite(r).all()
        for constraint in ("l1", "l2"):
            w = make_feasible_set(a, b, constraint, radius_scale=0.5)
            x_star, _ = ground_truth(a, b, w)
            assert w.contains(x_star, tol=1e-9)
        w = FeasibleSet.unconstrained(6)
        for solve in (pw_gradient, ihs):
            assert np.isfinite(solve(a, b, w, SolverConfig(iterations=3, seed=1)).final_x).all()


class TestRelativeError:
    def test_exact_optimum(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_double_optimum(self):
        assert relative_error(10.0, 5.0) == 1.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateOptimumError):
            relative_error(1.0, 0.0)

    def test_negative_clipped_and_counted(self):
        assert relative_error(4.999999999, 5.0) == 0.0

    def test_unknown_optimum_is_nan(self):
        assert np.isnan(relative_error(5.0, None))


class TestCsvIO:
    def test_two_line_example(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2,3\n4,5,6\n")
        a, b = load_csv(path)
        np.testing.assert_array_equal(a, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(b, [3.0, 6.0])

    def test_normalized_columns(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((50, 4)) * 3.0 + 1.0
        path = tmp_path / "n.csv"
        save_dataset_csv(path, data[:, :3], data[:, 3])
        a, _ = load_csv(path, normalize=True)
        np.testing.assert_allclose(a.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(a.std(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("parser", ["numpy", "lines"])
    def test_arrays_are_contiguous_copies(self, tmp_path, monkeypatch, parser, normalize):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((300, 6)) * 3.0 + 1.0
        path = tmp_path / "c.csv"
        save_dataset_csv(path, data[:, :-1], data[:, -1])
        if parser == "lines":
            # float() syntax that numpy's parser rejects.
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("1_0,2,3,4,5,6\n")
            data = np.vstack([data, [10.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        read = []
        real = bench_mod._read_csv_lines
        monkeypatch.setattr(bench_mod, "_read_csv_lines", lambda p: read.append(p) or real(p))
        a, b = load_csv(path, normalize=normalize)
        assert len(read) == (parser == "lines")
        # The reference: views of the parsed block, normalized out of place.
        want = data[:, :-1]
        if normalize:
            want = (want - want.mean(axis=0)) / want.std(axis=0)
        for got in (a, b):
            assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(a, want)
        np.testing.assert_array_equal(b, data[:, -1])

    def test_blocked_writer_matches_one_savetxt(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 3 * bench_mod._CSV_BLOCK + 17
        a = rng.standard_normal((n, 2)) * np.exp(rng.uniform(-30, 30, (n, 2)))
        b = rng.standard_normal(n)
        path, ref = tmp_path / "blocks.csv", tmp_path / "ref.csv"
        save_dataset_csv(path, a, b)
        np.savetxt(ref, np.column_stack([a, b]), delimiter=",", fmt="%.17g")
        assert path.read_bytes() == ref.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        # numpy's "no data" warning must not reach the caller.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvParseError):
                load_csv(path)

    def test_matches_line_reader_bitwise(self, tmp_path):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((2**12, 21)) * np.exp(rng.uniform(-30, 30, (2**12, 21)))
        path = tmp_path / "big.csv"
        save_dataset_csv(path, data[:, :-1], data[:, -1])
        a, b = load_csv(path)
        lines = bench_mod._read_csv_lines(path)
        np.testing.assert_array_equal(a, lines[:, :-1])
        np.testing.assert_array_equal(b, lines[:, -1])
        np.testing.assert_array_equal(b, data[:, -1])

    @pytest.mark.parametrize("text,rows", [
        ("1,2,3\r\n4,5,6\r\n", [[1, 2, 3], [4, 5, 6]]),
        ("1,2,3\n", [[1, 2, 3]]),
        ("1.5,-2e3,7", [[1.5, -2e3, 7]]),
        # Blank and whitespace-only lines are skipped.
        ("\n1,2,3\n\n  \t\n4,5,6\n \n", [[1, 2, 3], [4, 5, 6]]),
        # float() syntax that numpy's parser rejects goes through the line reader.
        ("1_000,2,3\n", [[1000, 2, 3]]),
    ])
    def test_line_endings_single_rows_and_blank_lines(self, tmp_path, text, rows):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        a, b = load_csv(path)
        want = np.array(rows, dtype=np.float64)
        np.testing.assert_array_equal(a, want[:, :-1])
        np.testing.assert_array_equal(b, want[:, -1])

    def test_one_column_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n2\n")
        with pytest.raises(CsvParseError, match="line 1: need at least 2 columns"):
            load_csv(path)

    def test_comment_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text("1,2,3\n# a,b,c\n4,5,6\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,2,3\n4,{value},6\n")
        with pytest.raises(CsvParseError, match="non-finite"):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(RaggedRowsError, match="line 2"):
            load_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((20, 3)) * np.pi
        b = rng.standard_normal(20) / 7.0
        path = tmp_path / "rt.csv"
        save_dataset_csv(path, a, b)
        a2, b2 = load_csv(path)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)

    def test_trace_csv_format(self, tmp_path):
        a, b, _ = gen_synthetic(DatasetSpec(n=128, d=4, target_kappa=10.0, seed=9))
        w = FeasibleSet.unconstrained(4)
        _, f_star = ground_truth(a, b, w)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=5, seed=0), f_star=f_star)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [("pwgrad", 0, rep)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert len(lines) == 1 + len(rep.trace)
        cells = lines[1].split(",")
        assert cells[0] == "pwgrad" and cells[1] == "0"
        float(cells[4])  # parses


class TestRunExperiment:
    def test_single_solver_single_seed(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=256, d=6, target_kappa=10.0,
                                            noise_std=1.0, seed=10))
        w = FeasibleSet.unconstrained(6)
        result = run_experiment(
            a, b, w, {"pwgrad": SolverConfig(iterations=20)}, seeds=(3,)
        )
        assert set(result.runs) == {"pwgrad"}
        assert len(result.runs["pwgrad"]) == 1
        assert result.best("pwgrad").final_relative_error <= 1e-8

    def test_empty_solver_list_rejected(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=128, d=4, target_kappa=5.0, seed=11))
        with pytest.raises(ValueError):
            run_experiment(a, b, FeasibleSet.unconstrained(4), {})

    @pytest.mark.parametrize("seeds", [(), iter(())], ids=["tuple", "generator"])
    def test_empty_seed_list_rejected(self, monkeypatch, seeds):
        a, b, _ = gen_synthetic(DatasetSpec(n=128, d=4, target_kappa=5.0, seed=11))
        monkeypatch.setattr(bench_mod, "ground_truth", lambda *args: pytest.fail("solved f*"))
        with pytest.raises(ValueError, match="no seeds"):
            run_experiment(a, b, FeasibleSet.unconstrained(4),
                           {"pwgrad": SolverConfig(iterations=5)}, seeds=seeds)

    def test_seed_generator_serves_every_solver(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=128, d=4, target_kappa=5.0, seed=11))
        cfgs = {"pwgrad": SolverConfig(iterations=5), "ihs": SolverConfig(iterations=5)}
        result = run_experiment(a, b, FeasibleSet.unconstrained(4), cfgs,
                                seeds=(seed for seed in (3, 4)))
        assert {name: [seed for seed, _ in runs] for name, runs in result.runs.items()} == {
            "pwgrad": [3, 4], "ihs": [3, 4]}

    def test_reproducible_given_seed_list(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=256, d=6, target_kappa=100.0,
                                            noise_std=1.0, seed=12))
        w = FeasibleSet.unconstrained(6)
        cfgs = {"hdpwbatch": SolverConfig(iterations=100, batch_size=2)}
        r1 = run_experiment(a, b, w, cfgs, seeds=(0, 1))
        r2 = run_experiment(a, b, w, cfgs, seeds=(0, 1))
        t1 = [p.objective for _, rep in r1.runs["hdpwbatch"] for p in rep.trace]
        t2 = [p.objective for _, rep in r2.runs["hdpwbatch"] for p in rep.trace]
        assert t1 == t2

    def test_iterations_to_target(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=512, d=6, target_kappa=1e3,
                                            noise_std=1.0, seed=13))
        w = FeasibleSet.unconstrained(6)
        _, f_star = ground_truth(a, b, w)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=40, seed=1,
                                                record_every=1), f_star=f_star)
        hit = iterations_to_target(rep, 1e-6)
        assert hit is not None and 0 < hit <= 40
        exact = [p.iteration for p in rep.trace if p.relative_error <= 0.0]
        assert iterations_to_target(rep, 0.0) == (exact[0] if exact else None)

    def test_pwgrad_beats_fresh_ihs_at_equal_wall_budget(self):
        # Fresh IHS pays a sketch + QR every iteration; pwGradient reuses
        # one factor, so a shared wall budget buys it many more steps.
        wins = 0
        for seed in range(5):
            a, b, _ = gen_synthetic(DatasetSpec(n=4096, d=16, target_kappa=1e4,
                                                noise_std=1.0, seed=seed))
            w = FeasibleSet.unconstrained(16)
            _, f_star = ground_truth(a, b, w)
            probe = ihs(a, b, w, SolverConfig(iterations=6, seed=seed), f_star=f_star)
            budget = max(probe.trace[-1].elapsed_seconds, 0.02)
            pw = pw_gradient(a, b, w, SolverConfig(iterations=10_000, seed=seed,
                                                   max_seconds=budget), f_star=f_star)
            wins += pw.final_relative_error < probe.final_relative_error
        assert wins >= 4
