import tracemalloc

import numpy as np
import pytest

import sketchreg.cli as cli_mod
import sketchreg.precond as precond_mod
import sketchreg.sketches as sketches_mod
from sketchreg import errors
from sketchreg.bench import DatasetSpec, gen_synthetic, load_csv, save_dataset_csv
from sketchreg.cli import main
from sketchreg.linalg import tri_solve
from sketchreg.precond import build_hd
from sketchreg.sketches import KINDS, apply, make_sketch
from sketchreg.solvers import SOLVERS, pw_gradient
from helpers import distortion_per_direction


def write_dataset(tmp_path, n=2048, d=10, kappa=1e3, noise=1.0, seed=2):
    a, b, _ = gen_synthetic(DatasetSpec(n=n, d=d, target_kappa=kappa,
                                        noise_std=noise, seed=seed))
    path = tmp_path / "data.csv"
    save_dataset_csv(path, a, b)
    return path


def read_trace(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    return np.array([[float(r[2]), float(r[4]), float(r[5])] for r in rows])


class TestGen:
    def test_writes_csv_with_expected_shape(self, tmp_path, capsys):
        out = tmp_path / "syn.csv"
        code = main(["gen", "--n", "512", "--d", "6", "--kappa", "1e3",
                     "--out", str(out)])
        assert code == 0
        a, b = load_csv(out)
        assert a.shape == (512, 6) and b.shape == (512,)
        printed = capsys.readouterr().out
        assert "kappa(A)" in printed

    def test_kappa_report_matches_request(self, tmp_path, capsys):
        out = tmp_path / "hard.csv"
        assert main(["gen", "--n", "2048", "--d", "8", "--kappa", "1e8",
                     "--out", str(out)]) == 0
        kappa = float(capsys.readouterr().out.split("=")[-1])
        assert 0.5e8 <= kappa <= 2e8

    def test_n_not_larger_than_d_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--n", "10", "--d", "20",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("kappa", [1e3, 1e8])
    def test_kappa_from_r_factor_matches_svd_of_a(self, tmp_path, monkeypatch, capsys, kappa):
        kappas = []
        recording(monkeypatch, cli_mod, "condition_number", kappas)
        out = tmp_path / "k.csv"
        assert main(["gen", "--n", "5000", "--d", "8", "--kappa", str(kappa),
                     "--out", str(out)]) == 0
        ((m,), got), = kappas
        assert m.shape == (8, 8)
        a, _ = load_csv(out)
        sv = np.linalg.svd(a, compute_uv=False)
        assert got == pytest.approx(sv[0] / sv[-1], rel=1e-10)
        assert f"measured kappa(A) = {got:.6g}" in capsys.readouterr().out

    def test_scientific_notation_accepted(self, tmp_path):
        out = tmp_path / "sci.csv"
        assert main(["gen", "--n", "1e2", "--d", "4", "--out", str(out)]) == 0
        a, _ = load_csv(out)
        assert a.shape == (100, 4)

    def test_1e3_rows_is_1000(self, tmp_path, capsys):
        out = tmp_path / "sci.csv"
        assert main(["gen", "--n", "1e3", "--d", "4", "--out", str(out)]) == 0
        assert load_csv(out)[0].shape == (1000, 4)
        assert "wrote 1000 rows x 5 cols" in capsys.readouterr().out


class TestSolve:
    def test_pwgrad_high_precision(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        trace = tmp_path / "trace.csv"
        code = main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--iters", "60", "--seed", "1", "--trace-out", str(trace)])
        assert code == 0
        printed = capsys.readouterr().out
        rel = float([ln for ln in printed.splitlines()
                     if "final relative error" in ln][0].split("=")[1])
        assert rel <= 1e-10
        assert trace.exists()
        assert ("solver=pwgrad iterations=60 stop=iterations start=sketch"
                in printed.splitlines())

    @pytest.mark.parametrize("eta", ["1", "auto"])
    def test_fixed_sketch_ihs_matches_pwgrad_trace(self, tmp_path, eta):
        data = write_dataset(tmp_path)
        t1, t2 = tmp_path / "ihs.csv", tmp_path / "pw.csv"
        assert main(["solve", "--data", str(data), "--solver", "ihs-fixed",
                     "--eta", eta, "--iters", "10", "--seed", "1",
                     "--trace-out", str(t1)]) == 0
        assert main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--eta", eta, "--iters", "10", "--seed", "1",
                     "--trace-out", str(t2)]) == 0
        obj1, obj2 = read_trace(t1)[:, 1], read_trace(t2)[:, 1]
        np.testing.assert_array_equal(obj1, obj2)

    def test_ihs_fixed_is_another_name_of_pwgrad(self, tmp_path, capsys):
        assert SOLVERS["ihs-fixed"] is pw_gradient
        data = write_dataset(tmp_path, n=512, d=6)
        assert main(["solve", "--data", str(data), "--solver", "ihs-fixed",
                     "--iters", "5", "--seed", "1"]) == 0
        assert "solver=pwgrad iterations=5 stop=iterations" in capsys.readouterr().out

    def test_missing_data_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--solver", "pwgrad"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", "x.csv", "--solver", "pwgrad", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["solve", "--data", str(tmp_path / "nope.csv"),
                     "--solver", "pwgrad"]) == 2

    def test_zero_epochs_is_input_error(self, tmp_path, capsys):
        # Rejected when the config is built, before any solve runs.
        data = write_dataset(tmp_path, n=256, d=4)
        assert main(["solve", "--data", str(data), "--solver", "hdpwacc",
                     "--epochs", "0"]) == 2
        assert "epochs must be >= 1" in capsys.readouterr().err

    def test_ill_conditioned_l1_solve_exits_0(self, tmp_path, capsys):
        # kappa(A) = 1e7 on an l1 ball: the exact l1 prox passes its KKT
        # check here (exit-3 coverage is test_divergence_exits_3).
        data = write_dataset(tmp_path, n=256, d=6, kappa=1e7, noise=0.5, seed=4)
        code = main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--constraint", "l1", "--radius-scale", "0.3",
                     "--iters", "20", "--seed", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        rel = float([ln for ln in printed.splitlines()
                     if "final relative error" in ln][0].split("=")[1])
        assert rel <= 1e-10

    def test_noiseless_data_exits_3(self, tmp_path):
        # f* ~ 0 leaves the relative error undefined.
        data = write_dataset(tmp_path, n=256, d=4, noise=0.0)
        assert main(["solve", "--data", str(data), "--solver", "hdpwbatch",
                     "--iters", "10"]) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        data = write_dataset(tmp_path, n=256, d=4, kappa=100.0)
        assert main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--eta", "10", "--iters", "300", "--seed", "1"]) == 3
        assert "iteration" in capsys.readouterr().err

    def test_small_sketch_divergence_exits_3(self, tmp_path, capsys):
        # The unit step needs a sketch of about 12d rows; at 4d f grows
        # past 10 f(x0) and the solve stops with DivergenceError. The auto
        # step converges at that size.
        data = write_dataset(tmp_path, n=8192, d=50, kappa=1e4, seed=1)
        assert main(["solve", "--data", str(data), "--solver", "pwgrad", "--eta", "1",
                     "--sketch-size", "200", "--iters", "30", "--seed", "3"]) == 3
        assert "exceeds 10 times the start's objective" in capsys.readouterr().err

    def test_sgd_solver_runs(self, tmp_path, capsys):
        data = write_dataset(tmp_path, n=512, d=6)
        assert main(["solve", "--data", str(data), "--solver", "hdpwbatch",
                     "--batch", "4", "--iters", "500", "--seed", "3"]) == 0
        assert "final relative error" in capsys.readouterr().out


@pytest.mark.parametrize("error,code", [
    (errors.RankDeficientError, 3), (errors.SingularFactorError, 3),
    (errors.InnerSolverStallError, 3), (errors.EpochBudgetError, 3),
    (errors.DegenerateOptimumError, 3), (errors.DivergenceError, 3),
    (errors.SketchSizeError, 2), (errors.CsvParseError, 2),
    (ValueError, 2)], ids=lambda value: getattr(value, "__name__", str(value)))
def test_numerical_errors_exit_3_and_input_errors_2(tmp_path, monkeypatch, capsys,
                                                    error, code):
    def fail(args):
        raise error("forced")

    monkeypatch.setattr(cli_mod, "cmd_gen", fail)
    assert main(["gen", "--n", "8", "--d", "2", "--out", str(tmp_path / "x.csv")]) == code
    assert issubclass(error, errors.NumericalError) == (code == 3)
    prefix = "numerical failure" if code == 3 else "error"
    assert capsys.readouterr().err == f"{prefix}: forced\n"


class TestBench:
    def test_batch_sweep_writes_traces_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["bench", "--n", "1024", "--d", "8", "--kappa", "100",
                     "--noise-std", "1.0", "--solvers", "pwgrad",
                     "--batch-sweep", "1,2", "--iters", "400",
                     "--seeds", "2", "--out-dir", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert (out_dir / "pwgrad.csv").exists()
        assert (out_dir / "hdpwbatch_r1.csv").exists()
        assert (out_dir / "hdpwbatch_r2.csv").exists()
        assert "speedup" in printed

    @pytest.mark.parametrize("crossings,printed", [
        ([10, 20, 30, 40, 50, 60] + [None] * 4, "60"),
        ([10, 20, 30, 40, 50] + [None] * 5, "--"),
    ])
    def test_median_iterations_count_every_seed(self, tmp_path, capsys, monkeypatch,
                                                crossings, printed):
        # Ten seeds ranked with a miss as never: the entry at index 10 // 2,
        # the one the all-reached case takes.
        calls = iter(crossings)
        monkeypatch.setattr(cli_mod.bench, "iterations_to_target", lambda rep, t: next(calls))
        assert main(["bench", "--n", "128", "--d", "4", "--solvers", "pwgrad",
                     "--iters", "5", "--seeds", "10", "--out-dir", str(tmp_path / "res")]) == 0
        (row,) = [ln.split() for ln in capsys.readouterr().out.splitlines()
                  if ln.split()[:1] == ["pwgrad"]]
        assert row[-1] == printed

    def test_empty_solver_list_is_usage_error(self, tmp_path):
        assert main(["bench", "--solvers", "", "--out-dir",
                     str(tmp_path / "o")]) == 2

    def test_unwritable_out_dir_is_input_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        assert main(["bench", "--n", "128", "--d", "4", "--solvers", "pwgrad",
                     "--out-dir", str(blocker / "sub")]) == 2

    def test_yaml_config_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("n: 256\nd: 4\nsolvers: [pwgrad]\nseeds: 1\niters: 50\n")
        out_dir = tmp_path / "res"
        assert main(["bench", "--config", str(cfgfile),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "pwgrad.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("frobnicate: 1\n")
        assert main(["bench", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "res")]) == 2


class TestDiag:
    def test_default_srht_conditions_hard_instance(self, tmp_path, capsys):
        data = write_dataset(tmp_path, n=2048, d=16, kappa=1e8, noise=1.0, seed=7)
        assert main(["diag", "--data", str(data), "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        kappa_u = float([ln for ln in printed.splitlines()
                         if "kappa(A R^-1)" in ln][0].split("=")[1])
        assert kappa_u <= 3.0
        assert "bound" in printed

    def test_row_norm_bound_usually_holds(self, tmp_path, capsys):
        data = write_dataset(tmp_path, n=512, d=6, kappa=100.0, seed=8)
        holds = 0
        for seed in range(10):
            assert main(["diag", "--data", str(data), "--seed", str(seed)]) == 0
            holds += "holds: True" in capsys.readouterr().out
        assert holds >= 9


def recording(monkeypatch, module, name: str, calls: list) -> None:
    """Wrap ``module.name`` so that each call appends (args, result) to ``calls``."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result
    monkeypatch.setattr(module, name, wrapper)


class TestDiagFromFactors:
    """diag runs the solvers' pass (one transform of A, the sketch's R)
    and reads every number from R and the R_A of A."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_sketch_and_at_most_one_transform_of_a(self, tmp_path, monkeypatch, capsys,
                                                       kind):
        data = write_dataset(tmp_path, n=2048, d=10, kappa=1e3, seed=5)
        sketched, transformed = [], []
        # The user's sketch has s < n rows; the Hadamard operator has n_pad.
        for module, name in ((sketches_mod, "apply"), (precond_mod, "apply"),
                             (precond_mod, "subsample")):
            recording(monkeypatch, module, name, sketched)
        recording(monkeypatch, sketches_mod, "fwht_inplace", transformed)
        assert main(["diag", "--data", str(data), "--sketch", kind]) == 0
        assert sum(args[0].s < args[0].n for args, _ in sketched) <= 1
        assert sum(args[0].shape[1:] == (10,) for args, _ in transformed) <= 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_memory_beyond_loaded_data(self, monkeypatch, capsys, kind):
        a, b, _ = gen_synthetic(DatasetSpec(n=2**15, d=20, target_kappa=30.0,
                                            noise_std=1.0, seed=1))
        monkeypatch.setattr(cli_mod.bench, "load_csv", lambda path, normalize=False: (a, b))
        # H D A, whose rows (H D A) R^-1 overwrites, and a sketch's buffers.
        tracemalloc.start()
        try:
            assert main(["diag", "--data", "loaded.csv", "--sketch", kind]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * a.nbytes

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kappa,d", [(30.0, 10), (1e8, 16)])
    def test_printed_numbers_match_their_definitions(self, tmp_path, monkeypatch, capsys,
                                                     kind, kappa, d):
        data = write_dataset(tmp_path, n=2048, d=d, kappa=kappa, seed=7)
        a, _ = load_csv(data)
        seed, trials = 3, 40
        kappas, r_factors, distortions, spreads = [], [], [], []
        for name, calls in (("condition_number", kappas), ("build_r", r_factors),
                            ("range_distortion", distortions),
                            ("row_norm_spread", spreads)):
            recording(monkeypatch, cli_mod, name, calls)
        assert main(["diag", "--data", str(data), "--sketch", kind, "--seed", str(seed),
                     "--trials", str(trials)]) == 0
        printed = capsys.readouterr().out
        (_, kappa_a), (_, kappa_u) = kappas
        r = r_factors[0][1]
        distortion = distortions[0][1]
        (row_norms,), (observed, bound) = spreads[0]
        assert f"kappa(A)        = {kappa_a:.6g}" in printed
        assert f"kappa(A R^-1)   = {kappa_u:.6g}" in printed
        assert f"= {distortion:.4f}" in printed
        assert f"= {observed:.6g} (bound {bound:.6g}" in printed

        # kappa(A) is bitwise the SVD's: LAPACK's SVD of a tall matrix starts
        # from its QR. R_A and H D A carry a rounding of eps ||A|| in every
        # direction, which R^-1 scales by up to kappa(A): against A R^-1
        # formed from A itself, kappa(A R^-1) moved by up to 1.3e-9 and a
        # row norm by 4.2e-9 at kappa 1e8, and by 1e-15 at kappa 30.
        tol = max(1e-12, np.finfo(float).eps * kappa)
        u = tri_solve(r, a.T, transposed=True).T
        for got, m, rel in ((kappa_a, a, 1e-10), (kappa_u, u, tol)):
            sv = np.linalg.svd(m, compute_uv=False)
            assert got == pytest.approx(sv[0] / sv[-1], rel=rel)
        s = int(printed.splitlines()[0].split(", s = ")[1])
        sa = apply(make_sketch(kind, s, a.shape[0], seed), a)
        assert distortion == pytest.approx(distortion_per_direction(sa, a, seed, trials),
                                           abs=1e-12)
        hdu, _ = build_hd(u, np.zeros(a.shape[0]), seed)
        np.testing.assert_allclose(row_norms, np.linalg.norm(hdu, axis=1), rtol=tol)

    def test_rank_deficient_data_is_a_numerical_failure(self, tmp_path, capsys):
        a, b, _ = gen_synthetic(DatasetSpec(n=512, d=4, target_kappa=10.0,
                                            noise_std=1.0, seed=2))
        a[:, 3] = a[:, 0] + a[:, 1]
        path = tmp_path / "flat.csv"
        save_dataset_csv(path, a, b)
        assert main(["diag", "--data", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset_2_15(tmp_path_factory):
    """A written 2^15 x 20 CSV and the bytes of its A."""
    return write_dataset(tmp_path_factory.mktemp("mem"), n=2**15, d=20, kappa=30.0,
                         seed=1), 2**15 * 20 * 8


class TestPeakMemory:
    """A CLI command holds A once: ``load_csv`` drops the parsed (n, d+1)
    block, and the solver adds only its one transformed copy."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "pwgrad"],
        ["solve", "--solver", "hdpwbatch", "--constraint", "l2", "--iters", "200"],
        ["bench", "--seeds", "1", "--iters", "200"],
    ], ids=["solve-pwgrad", "solve-hdpwbatch-l2", "bench"])
    def test_peak_with_load(self, tmp_path, capsys, dataset_2_15, argv):
        data, a_nbytes = dataset_2_15
        if argv[0] == "bench":
            argv = [*argv, "--out-dir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main([*argv, "--data", str(data)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * a_nbytes


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value this way
        return exc.code


@pytest.fixture
def no_data(monkeypatch):
    """Fail the test if the command reads or makes data or solves for f*."""
    def fail(*args, **kwargs):
        raise AssertionError("ran before the settings were checked")
    monkeypatch.setattr(cli_mod.bench, "gen_synthetic", fail)
    monkeypatch.setattr(cli_mod.bench, "ground_truth", fail)
    monkeypatch.setattr(cli_mod.bench, "load_csv", fail)


@pytest.fixture
def bench_args(monkeypatch):
    """The parsed arguments ``cmd_bench`` receives, in place of running it."""
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_bench", lambda args: seen.append(args) or 0)
    return seen


class TestBenchSettings:
    @pytest.mark.parametrize("yaml_text", ["solvers: pwgrad\n", "batch_sweep: 2\n",
                                           "constraint: l5\n", "seeds: 0\n"],
                             ids=["solvers-scalar", "batch_sweep-scalar", "constraint-l5",
                                  "seeds-0"])
    def test_bad_config_value_exits_2_before_any_data(self, tmp_path, capsys, no_data,
                                                      yaml_text):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(yaml_text)
        assert exit_code(["bench", "--config", str(cfgfile),
                          "--out-dir", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if "error" in ln]) == 1

    @pytest.mark.parametrize("flags", [["--solvers", "foo"], ["--batch-sweep", "2,x"],
                                       ["--batch-sweep", "2,0"]],
                             ids=["solvers-foo", "batch-sweep-2,x", "batch-sweep-2,0"])
    def test_bad_list_flag_exits_2_before_any_data(self, tmp_path, capsys, no_data, flags):
        assert exit_code(["bench", *flags, "--out-dir", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if "error" in ln]) == 1

    def test_config_value_overrides_flag(self, tmp_path, bench_args):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("iters: 50\nsolvers: [pwgrad, ihs]\neta: 0.25\n")
        assert main(["bench", "--config", str(cfgfile), "--iters", "7", "--solvers", "sgd",
                     "--seeds", "3", "--out-dir", str(tmp_path / "res")]) == 0
        (args,) = bench_args
        assert (args.iters, args.solvers, args.eta) == (50, ["pwgrad", "ihs"], 0.25)
        assert args.seeds == 3  # not in the file: the command line's value

    def test_null_is_the_flag_default(self, tmp_path, bench_args):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("sketch_size: null\nbatch_sweep: null\niters: null\n")
        assert main(["bench", "--config", str(cfgfile), "--iters", "7",
                     "--out-dir", str(tmp_path / "res")]) == 0
        (args,) = bench_args
        assert (args.sketch_size, args.batch_sweep, args.iters) == (None, [], 2000)

    def test_config_sketch_size_in_scientific_notation(self, tmp_path, bench_args):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("sketch_size: 1e3\n")  # YAML reads 1e3 as a string
        out = ["--out-dir", str(tmp_path / "res")]
        assert main(["bench", "--config", str(cfgfile), *out]) == 0
        assert main(["bench", "--sketch-size", "1e3", *out]) == 0
        assert [args.sketch_size for args in bench_args] == [1000, 1000]


class TestBadSettings:
    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "pwgrad", "--eta", "nan"],
        ["solve", "--solver", "hdpwbatch", "--eta", "inf"],
        ["solve", "--solver", "pwgrad", "--seed", "-1"],
        ["gen", "--n", "100", "--d", "3", "--kappa", "nan"],
        ["gen", "--n", "100", "--d", "3", "--noise-std", "inf"],
        ["gen", "--n", "100", "--d", "3", "--seed", "-2"],
        ["bench", "--kappa", "inf"],
    ], ids=" ".join)
    def test_exits_2_before_any_data(self, tmp_path, capsys, no_data, argv):
        required = {"gen": ["--out", str(tmp_path / "x.csv")],
                    "bench": ["--out-dir", str(tmp_path / "res")],
                    "solve": ["--data", str(tmp_path / "x.csv")]}
        assert main([*argv, *required[argv[0]]]) == 2
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if "error" in ln]) == 1

    @pytest.mark.parametrize("constraint", ["l1", "l2"])
    def test_nan_radius_exits_2_before_ground_truth(self, tmp_path, monkeypatch, constraint):
        data = write_dataset(tmp_path, n=128, d=4)

        def fail(*args, **kwargs):
            raise AssertionError("solved for f* with a NaN radius")
        monkeypatch.setattr(cli_mod.bench, "ground_truth", fail)
        assert main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--constraint", constraint, "--radius-scale", "nan"]) == 2

    @pytest.mark.parametrize("argv", [["solve", "--solver", "pwgrad", "--data", "x.csv"],
                                      ["bench", "--out-dir", "res"], ["diag", "--data", "x.csv"]],
                             ids=lambda argv: argv[0])
    def test_identity_sketch_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:  # from the parser, not a handler
            main([*argv, "--sketch", "identity"])
        assert exc.value.code == 2
        assert "invalid choice: 'identity'" in capsys.readouterr().err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "inf", "--d", "3"], ["gen", "--n", "nan", "--d", "3"],
        ["gen", "--n", "1000.7", "--d", "3"], ["gen", "--n", "0", "--d", "3"],
        ["gen", "--n", "-5", "--d", "3"], ["gen", "--n", "100", "--d", "inf"],
        ["gen", "--n", "100", "--d", "2.5"],
        ["bench", "--seeds", "0"], ["bench", "--seeds", "-1"], ["bench", "--seeds", "2.5"],
        ["bench", "--n", "inf"], ["bench", "--d", "0"],
        ["diag", "--trials", "0"], ["diag", "--trials", "-3"],
        ["solve", "--solver", "pwgrad", "--sketch-size", "100.9"],
        ["solve", "--solver", "pwgrad", "--sketch-size", "0"],
    ], ids=" ".join)
    def test_bad_count_exits_2_before_any_data(self, tmp_path, capsys, no_data, argv):
        required = {"gen": ["--out", str(tmp_path / "x.csv")],
                    "bench": ["--out-dir", str(tmp_path / "res")],
                    "diag": ["--data", str(tmp_path / "x.csv")],
                    "solve": ["--data", str(tmp_path / "x.csv")]}
        with pytest.raises(SystemExit) as exc:  # from the parser, not a handler
            main([*argv, *required[argv[0]]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if "error" in ln]) == 1
