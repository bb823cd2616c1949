import numpy as np
import pytest

from sketchreg.bench import DatasetSpec, gen_synthetic, load_csv, save_dataset_csv
from sketchreg.cli import main
from sketchreg.linalg import qr_thin


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

    def test_scientific_notation_accepted(self, tmp_path):
        out = tmp_path / "sci.csv"
        assert main(["gen", "--n", "1e2", "--d", "4", "--out", str(out)]) == 0
        a, _ = load_csv(out)
        assert a.shape == (100, 4)


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
        assert "solver=pwgrad iterations=60 stop=iterations" in printed.splitlines()

    def test_fixed_sketch_ihs_matches_pwgrad_trace(self, tmp_path):
        data = write_dataset(tmp_path)
        t1, t2 = tmp_path / "ihs.csv", tmp_path / "pw.csv"
        assert main(["solve", "--data", str(data), "--solver", "ihs-fixed",
                     "--iters", "10", "--seed", "1",
                     "--trace-out", str(t1)]) == 0
        assert main(["solve", "--data", str(data), "--solver", "pwgrad",
                     "--eta", "0.5", "--iters", "10", "--seed", "1",
                     "--trace-out", str(t2)]) == 0
        obj1, obj2 = read_trace(t1)[:, 1], read_trace(t2)[:, 1]
        np.testing.assert_allclose(obj1, obj2, rtol=1e-9)

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
                     "--eta", "5", "--iters", "300", "--seed", "1"]) == 3
        assert "iteration" in capsys.readouterr().err

    def test_sgd_solver_runs(self, tmp_path, capsys):
        data = write_dataset(tmp_path, n=512, d=6)
        assert main(["solve", "--data", str(data), "--solver", "hdpwbatch",
                     "--batch", "4", "--iters", "500", "--seed", "3"]) == 0
        assert "final relative error" in capsys.readouterr().out


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
    def test_orthonormal_with_identity_restriction(self, tmp_path, capsys):
        q, _ = qr_thin(np.random.default_rng(0).standard_normal((64, 5)))
        path = tmp_path / "ortho.csv"
        save_dataset_csv(path, q, np.zeros(64))
        assert main(["diag", "--data", str(path), "--sketch", "identity"]) == 0
        printed = capsys.readouterr().out
        kappa_u = float([ln for ln in printed.splitlines()
                         if "kappa(A R^-1)" in ln][0].split("=")[1])
        assert abs(kappa_u - 1.0) <= 1e-8

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
