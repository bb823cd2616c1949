import ast
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sketchreg.solvers as solvers_mod
from sketchreg.bench import DatasetSpec, gen_synthetic, ground_truth, make_feasible_set
from sketchreg.errors import (DegenerateOptimumError, DimensionMismatchError,
                              DivergenceError, EpochBudgetError, SketchSizeError)
from sketchreg.feasible import _KKT_TOL, FeasibleSet, RMetricProx, project_euclidean
from sketchreg.linalg import tri_solve
from sketchreg.precond import build_preconditioner, sketched_r
from sketchreg.sketches import stream
from sketchreg.solvers import (
    _GRAM_BLOCK,
    SOLVERS,
    SolverConfig,
    _sampled_gradient_variance,
    _smoothness_bounds,
    _start,
    _stochastic_smoothness,
    acc_epoch_schedule,
    hd_pw_acc_batch_sgd,
    hd_pw_batch_sgd,
    ihs,
    objective_value,
    plain_sgd_baseline,
    pw_gradient,
    resolve_sketch_size,
    sgd_step_size,
)
from helpers import (acc_sgd_per_step, acc_sgd_unstacked_per_step, batch_index_stream,
                     batch_sgd_per_step, force_workers, sketch_ihs)


def make_problem(n=2048, d=10, kappa=1e3, noise=1.0, seed=2, constraint="none",
                 radius_scale=1.0):
    a, b, _ = gen_synthetic(DatasetSpec(n=n, d=d, target_kappa=kappa,
                                        noise_std=noise, seed=seed))
    w = make_feasible_set(a, b, constraint, radius_scale=radius_scale)
    _, f_star = ground_truth(a, b, w, seed=seed)
    return a, b, w, f_star


# Iterates of every solver on one seeded problem, unconstrained and on an
# active l2 ball: (final_x, final_x_avg, iterations_run, trace iterations).
# Any change to an update rule, the sample stream or the trace schedule
# shows up here.
PINNED = {
    # hdpwbatch and hdpwacc, none and l2, re-captured when H D A took the
    # SRHT sketch's signs, so that R comes from rows of the same transform.
    ('hdpwbatch', 'none'): (
        [0.27659275571011704, -0.8748251495149418, 2.068626722591171, 0.3078740848170481],
        [0.11437773570577564, -0.022843821277804904, 2.0518759564130065, -0.7162159412634133],
        60, [0, 20, 40, 60]),
    ('hdpwacc', 'none'): (
        [-0.4995469563466345, 0.6116544048708208, 2.057567228235236, -0.6662627023797942],
        [-0.4995469563466345, 0.6116544048708208, 2.057567228235236, -0.6662627023797942],
        60, [0, 20, 40, 60]),
    ('pwgrad', 'none'): (
        [0.0764502576431439, 0.0699306609646202, 2.1197185310534583, -0.8488582811922875],
        [0.0764502576431439, 0.0699306609646202, 2.1197185310534583, -0.8488582811922875],
        60, [0, 20, 40, 60]),
    ('ihs', 'none'): (
        [0.07645025764314364, 0.06993066096462057, 2.1197185310534588, -0.8488582811922879],
        [0.07645025764314364, 0.06993066096462057, 2.1197185310534588, -0.8488582811922879],
        60, [0, 20, 40, 60]),
    ('sgd', 'none'): (
        [0.08500862488398592, -0.22546479364998123, 1.7799435925763671, -0.24934786250980162],
        [0.46979222169690116, -0.40848632030284615, 1.7023513233861103, -0.3048987640155063],
        60, [0, 20, 40, 60]),
    # Re-captured when D_W in the auto step moved to y = R x coordinates.
    ('hdpwbatch', 'l2'): (
        [0.4431111661923654, -0.5634071766698742, 1.13251942451332, -0.2905947531807731],
        [0.28302428797323353, -0.16921458071504517, 1.1787845904882757, -0.21551410528010012],
        60, [0, 20, 40, 60]),
    ('hdpwacc', 'l2'): (
        [0.15266019667964453, -0.06756574262433789, 1.1939840485275526, -0.12979206437855248],
        [0.15266019667964453, -0.06756574262433789, 1.1939840485275526, -0.12979206437855248],
        60, [0, 20, 40, 60]),
    ('pwgrad', 'l2'): (
        [0.5402170411311495, -0.4230290849993614, 1.1401450214456361, -0.33181618645341926],
        [0.5402170411311495, -0.4230290849993614, 1.1401450214456361, -0.33181618645341926],
        60, [0, 20, 40, 60]),
    ('ihs', 'l2'): (
        [0.5402170411311493, -0.4230290849993613, 1.1401450214456363, -0.33181618645341915],
        [0.5402170411311493, -0.4230290849993613, 1.1401450214456363, -0.33181618645341915],
        60, [0, 20, 40, 60]),
    ('sgd', 'l2'): (
        [0.5742573387989636, -0.40953429148260057, 1.1135028574335708, -0.3368053712127747],
        [0.5465538026894561, -0.4000941909727071, 0.9427715787380926, -0.3235769858324013],
        60, [0, 20, 40, 60]),
}


class TestSolverConfig:
    @pytest.mark.parametrize("bad", [
        dict(iterations=-1), dict(batch_size=0), dict(step_size=0.0),
        dict(step_size="fast"), dict(step_size=float("nan")), dict(step_size=float("inf")),
        dict(seed=1.5), dict(seed=-1), dict(seed="3"), dict(sketch_kind="identity"),
        dict(record_every=0), dict(record_every=-2), dict(sketch_kind="fourier"),
        dict(epochs=0), dict(epochs=float("nan")),
        dict(sketch_size=0), dict(sketch_size=float("nan")),
        dict(iterations=50.0), dict(batch_size=2.0), dict(sketch_size=100.5),
        dict(epochs=2.5), dict(record_every=2.5),
        dict(max_seconds=-1.0), dict(max_seconds=float("nan")),
        dict(objective_tol=-1e-12), dict(objective_tol=float("nan")),
        dict(stop_below_rel=-0.5), dict(stop_below_rel=float("nan")),
        dict(diameter_bound=0.0), dict(diameter_bound=-1.0),
        dict(diameter_bound=float("nan")),
        dict(x0=[float("nan"), 0.0, 0.0, 0.0]), dict(x0=[0.0, float("-inf")]),
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    def test_numpy_integer_counts_are_legal(self):
        cfg = SolverConfig(iterations=np.int64(5), batch_size=np.int32(2), epochs=np.int64(1),
                           sketch_size=np.int64(40), record_every=np.int64(2),
                           seed=np.uint32(7))
        assert cfg.iterations == 5

    def test_zero_budgets_and_tolerances_are_legal(self):
        # max_seconds=0 stops after the first step (TestStopReason.test_time).
        cfg = SolverConfig(max_seconds=0.0, objective_tol=0.0, stop_below_rel=0.0,
                           epochs=1, sketch_size=1, diameter_bound=1e-300)
        assert cfg.max_seconds == 0.0


class TestAllSolvers:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_zero_iterations_returns_start(self, name):
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=0, step_size=0.1, seed=0))
        assert rep.iterations_run == 0
        assert [p.iteration for p in rep.trace] == [0]
        np.testing.assert_array_equal(rep.final_x, np.zeros(4))
        np.testing.assert_array_equal(rep.final_x_avg, np.zeros(4))

    @pytest.mark.parametrize("name", sorted(set(SOLVERS) - {"sgd"}))
    def test_bad_sketch_size_raises_at_set_up(self, name):
        # Every solver but sgd draws a sketch; none takes a step first.
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9)
        with pytest.raises(SketchSizeError):
            SOLVERS[name](a, b, w, SolverConfig(iterations=0, sketch_size=256, seed=0))

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_no_rows_raises(self, name):
        w = FeasibleSet.unconstrained(3)
        with pytest.raises(DimensionMismatchError, match="n >= 1"):
            SOLVERS[name](np.zeros((0, 3)), np.zeros(0), w, SolverConfig(iterations=5))

    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, where, value):
        # The last row sits in the ragged block after two full _GRAM_BLOCKs.
        a, b, _ = gen_synthetic(DatasetSpec(n=2 * _GRAM_BLOCK + 5, d=3, seed=4))
        (a[-1] if where == "a" else b)[-1] = value
        with pytest.raises(ValueError, match="non-finite"):
            _start(a, b, FeasibleSet.unconstrained(3), SolverConfig())

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_maximum_pass(self):
        big = np.finfo(np.float64).max
        a = np.full((2 * _GRAM_BLOCK + 5, 3), 0.5 * big)
        a[::2] = -big
        b = np.ones(a.shape[0])
        got = _start(a, b, FeasibleSet.unconstrained(3), SolverConfig())[0]
        assert got is a

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_stop_below_rel_needs_f_star(self, name, monkeypatch):
        # A NaN relative error never meets the target, so the rule is
        # refused when the recorder is built, before any sketch or pass.
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9)
        for attr in ("build_preconditioner", "sketched_r", "_smoothness_bounds"):
            monkeypatch.setattr(solvers_mod, attr, lambda *args, _n=attr: pytest.fail(_n))
        with pytest.raises(ValueError, match="stop_below_rel needs f_star"):
            SOLVERS[name](a, b, w, SolverConfig(iterations=5, seed=0, stop_below_rel=1e-3))

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_deterministic_given_seed(self, name):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=100.0, seed=10)
        cfg = SolverConfig(iterations=300, batch_size=2, epochs=6, seed=3)
        rep1, rep2 = (SOLVERS[name](a, b, w, cfg, f_star=f_star) for _ in range(2))
        np.testing.assert_array_equal(rep1.final_x, rep2.final_x)
        np.testing.assert_array_equal(rep1.final_x_avg, rep2.final_x_avg)
        assert [p.objective for p in rep1.trace] == [p.objective for p in rep2.trace]

    @pytest.mark.parametrize("name", ["pwgrad", "ihs"])
    def test_fixed_point_at_optimum(self, name):
        a, b, w, _ = make_problem(n=512, d=6, kappa=5.0, seed=13)
        x_star, _ = ground_truth(a, b, w)
        cfg = SolverConfig(iterations=5, seed=2, record_every=1, x0=x_star)
        rep = SOLVERS[name](a, b, w, cfg)
        assert np.max(np.abs(rep.final_x - x_star)) <= 1e-12 * max(np.max(np.abs(x_star)), 1.0)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_zero_optimum_raises(self, name):
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9)
        with pytest.raises(DegenerateOptimumError):
            SOLVERS[name](a, b, w, SolverConfig(iterations=5, seed=0), f_star=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["hdpwbatch", "sgd"])
    def test_zero_iterations_auto_step_on_ball(self, name):
        # The auto step's variance term divides by T; T = 0 must not.
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9, constraint="l2",
                                  radius_scale=0.6)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=0, seed=0))
        assert rep.iterations_run == 0
        np.testing.assert_array_equal(rep.final_x, np.zeros(4))

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
    def test_zero_iterations_runs_no_estimator(self, name, monkeypatch):
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9, constraint="l2",
                                  radius_scale=0.6)
        calls = []
        for attr in ("_smoothness_bounds", "_sampled_gradient_variance",
                     "_stochastic_smoothness"):
            original = getattr(solvers_mod, attr)
            monkeypatch.setattr(solvers_mod, attr, lambda *args, _f=original, _n=attr, **kw:
                                calls.append(_n) or _f(*args, **kw))
        x0 = np.array([0.1, -0.2, 0.0, 0.3])
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=0, seed=0, x0=x0))
        assert calls == []
        np.testing.assert_array_equal(rep.final_x, x0)
        np.testing.assert_array_equal(rep.final_x_avg, x0)
        # The same wrappers see the estimators of a solve that steps.
        SOLVERS[name](a, b, w, SolverConfig(iterations=1, seed=0))
        assert "_smoothness_bounds" in calls

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name,step", [("hdpwbatch", 10.0), ("pwgrad", 10.0)])
    def test_divergence_raises(self, name, step):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=100.0, seed=10)
        cfg = SolverConfig(iterations=300, step_size=step, seed=1)
        with pytest.raises(DivergenceError, match="at iteration"):
            SOLVERS[name](a, b, w, cfg, f_star=f_star)

    @pytest.mark.parametrize("name,constraint", sorted(PINNED))
    def test_pinned_iterates(self, name, constraint):
        # hdpwacc's pins also fix its 2/(t+1) averaging weights.
        a, b, _ = gen_synthetic(DatasetSpec(n=256, d=4, target_kappa=10.0,
                                            noise_std=1.0, seed=31))
        w = make_feasible_set(a, b, constraint, radius_scale=0.6)
        cfg = SolverConfig(iterations=60, batch_size=16, seed=3, record_every=20)
        rep = SOLVERS[name](a, b, w, cfg)
        final_x, final_x_avg, iterations_run, trace_iterations = PINNED[name, constraint]
        np.testing.assert_allclose(rep.final_x, final_x, rtol=1e-12)
        np.testing.assert_allclose(rep.final_x_avg, final_x_avg, rtol=1e-12)
        assert rep.iterations_run == iterations_run
        assert [p.iteration for p in rep.trace] == trace_iterations


class TestDivergenceGuard:
    """A traced objective above _DIVERGENCE_FACTOR times the start's
    objective f_ref raises; f_ref is f(x0) for a feasible, inexact x0. A
    full-gradient step eta on A^T (Ax - b) diverges once eta exceeds
    2 / lambda_max, lambda_max = sigma_max(A R^-1)^2. On this 8192 x 50
    problem the unit step does at every sketch of 2d-8d rows (lambda_max
    2.19-10.5 for the seed-3 sketches), and such runs grew f
    geometrically with stop_reason "iterations" before the guard. The
    auto step, read from the sketch ratio, converges at each of them."""

    @pytest.fixture(scope="class")
    def problem(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=8192, d=50, target_kappa=1e4,
                                            noise_std=1.0, seed=1))
        return a, b, FeasibleSet.unconstrained(50)

    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("name,mult", [("pwgrad", 2), ("pwgrad", 4), ("pwgrad", 8),
                                           ("ihs", 2)])
    def test_small_sketch_raises(self, problem, name, mult, kind):
        a = problem[0]
        cfg = SolverConfig(iterations=40, seed=3, sketch_kind=kind, sketch_size=mult * 50,
                           step_size=1.0)
        if name != "ihs":
            r_factor, _ = sketched_r(a, kind, mult * 50, 3)
            lam_max = np.linalg.norm(tri_solve(r_factor, a.T, transposed=True), 2) ** 2
            assert 1.0 > 2.0 / lam_max
        with pytest.raises(DivergenceError, match="exceeds 10 times the start's objective"):
            SOLVERS[name](*problem, cfg)

    @pytest.mark.parametrize("constraint", ["none", "l2"])
    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("mult", [2, 4, 8])
    @pytest.mark.parametrize("name", ["pwgrad", "ihs"])
    def test_auto_step_at_small_sketches(self, problem, name, mult, kind, constraint):
        # The auto step reads the sketch ratio, so no size here makes it
        # diverge. From 4d it ends within 1e-4 of the oracle; at 2d, where
        # the unit step ended at rel-err 76 to 2.4e4 on the l2 ball with no
        # error, the rate is slow but f falls.
        a, b, _ = problem
        w = make_feasible_set(a, b, constraint, radius_scale=0.7)
        _, f_star = ground_truth(a, b, w)
        cfg = SolverConfig(iterations=40, seed=3, sketch_kind=kind, sketch_size=mult * 50)
        rep = SOLVERS[name](a, b, w, cfg, f_star=f_star)
        assert rep.stop_reason == "iterations"
        assert rep.trace[-1].objective < rep.trace[0].objective
        if mult >= 4:
            assert rep.final_relative_error <= 1e-4

    @pytest.mark.parametrize("constraint", ["none", "l2"])
    def test_a_rise_is_not_objective_tol(self, problem, constraint):
        # A 2d sketch's unit step makes f rise from iteration 1 on. Only a
        # change |f - f_last| <= tol max(f, 1) is convergence, not a rise.
        a, b, _ = problem
        w = make_feasible_set(a, b, constraint, radius_scale=0.7)
        cfg = SolverConfig(iterations=40, seed=3, sketch_size=100, objective_tol=1e-8,
                           step_size=1.0)
        if constraint == "none":
            with pytest.raises(DivergenceError, match="exceeds 10 times"):
                pw_gradient(a, b, w, cfg)
        else:
            # f stays bounded on the ball, so the guard does not fire.
            rep = pw_gradient(a, b, w, cfg)
            assert (rep.stop_reason, rep.iterations_run) == ("iterations", 40)

    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("mult", [4, 8])
    def test_ihs_converges_at_4d_and_8d(self, problem, mult, kind):
        # Measured peak: 1.19 f0 (gaussian, 4d), far below the guard.
        cfg = SolverConfig(iterations=15, seed=3, sketch_kind=kind, sketch_size=mult * 50)
        rep = ihs(*problem, cfg)
        f = np.array([p.objective for p in rep.trace])
        assert rep.stop_reason == "iterations"
        assert f.max() <= 1.2 * f[0] and f[-1] <= 1e-2 * f[0]

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
    def test_sgd_started_at_the_optimum_stays_below(self, name):
        # The hardest start for the guard: f0 = f*. Traced points rose at
        # most 7 % above it at kappa 30 and 1e4, batch 1 and 8.
        a, b, _ = gen_synthetic(DatasetSpec(n=8192, d=20, target_kappa=1e4,
                                            noise_std=1.0, seed=1))
        w = make_feasible_set(a, b, "l2", radius_scale=0.7)
        x_star, f_star = ground_truth(a, b, w, seed=1)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=2000, seed=3, record_every=1,
                                                  x0=x_star), f_star=f_star)
        assert max(p.objective for p in rep.trace) <= 1.1 * rep.trace[0].objective

    @pytest.mark.parametrize("constraint", ["l1", "l2"])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_infeasible_warm_start_converges(self, name, constraint):
        # x0 = x_ls lies outside the ball and below every feasible
        # objective: at low noise f rises thousands of times over f(x0)
        # on the way to f*, so the guard measures from f at x0's projection.
        a, b, _ = gen_synthetic(DatasetSpec(n=2048, d=10, target_kappa=1e4,
                                            noise_std=0.01, seed=1))
        w = make_feasible_set(a, b, constraint, radius_scale=0.7)
        x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
        _, f_star = ground_truth(a, b, w, seed=1)
        full = name in ("pwgrad", "ihs", "ihs-fixed")
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=40 if full else 2000, seed=3,
                                                  x0=x_ls), f_star=f_star)
        f = [p.objective for p in rep.trace]
        assert max(f) > 10 * objective_value(a, b, x_ls)
        f_projected = objective_value(a, b, project_euclidean(w, x_ls))
        if full:
            assert rep.final_relative_error < 1e-6
        else:
            assert f[-1] < 0.1 * f_projected

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_exact_start_on_noiseless_data(self, name):
        # f(x0) = 0 exactly, so the guard's floor eps ||b||^2 keeps
        # rounding-level objectives (below 1e-25 ||b||^2 here) from raising;
        # hdpwacc's schedule starts from that floor instead of dividing by 0.
        a, b, x_planted = gen_synthetic(DatasetSpec(n=2048, d=10, target_kappa=1e6,
                                                    noise_std=0.0, seed=1))
        assert objective_value(a, b, x_planted) == 0.0
        w = FeasibleSet.unconstrained(10)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=200, seed=3, record_every=1,
                                                  x0=x_planted))
        assert max(p.objective for p in rep.trace) <= 1e-20 * float(b @ b)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_acc_exact_start_over_many_epochs_stays_at_rounding(self, seed):
        # At an exact start sigma^2 is about 0, so eta_s is 1/(4L) unless
        # capped: uncapped, rounding grew from f = 0 until the guard fired
        # at iteration 330 (seed 4) and 331 (seed 3). With the stochastic
        # stability cap both runs ended below 3e-27.
        a, b, x_planted = gen_synthetic(DatasetSpec(n=2048, d=10, target_kappa=100.0,
                                                    noise_std=0.0, seed=7))
        rep = hd_pw_acc_batch_sgd(a, b, FeasibleSet.unconstrained(10),
                                  SolverConfig(batch_size=1, epochs=40, seed=seed,
                                               x0=x_planted))
        assert rep.stop_reason == "iterations"
        assert rep.trace[-1].objective <= 1e-25

    def test_acc_epochs_step_at_the_stability_cap_from_an_exact_start(self):
        # sigma^2 is about 0 there, so every epoch's schedule step is 1/(4L).
        a, b, x_planted = gen_synthetic(DatasetSpec(n=512, d=6, target_kappa=100.0,
                                                    noise_std=0.0, seed=23))
        probs = []

        def loop(w, cfg, prob, *rest):
            probs.append(prob)
            return 0, prob.y0, prob.y0

        cfg = SolverConfig(iterations=10, epochs=12, seed=1, x0=x_planted)
        solvers_mod._sgd_solve(a, b, FeasibleSet.unconstrained(6), cfg, None, "hdpwacc",
                               loop, precondition=True)
        cap = solvers_mod._stability_cap(cfg, probs[0])
        assert cap < 1.0 / (4.0 * probs[0].consts.L)
        assert [eta for _, eta in solvers_mod._epochs(cfg, probs[0])] == [cap] * 12

    def test_divergence_from_a_warm_start_raises(self):
        # A feasible warm start keeps f_ref = f(x0): the 4d pwgrad run at the
        # unit step that diverges from zero also raises when started at x*.
        a, b, _ = gen_synthetic(DatasetSpec(n=8192, d=50, target_kappa=1e4,
                                            noise_std=1.0, seed=1))
        x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
        w = FeasibleSet.unconstrained(50)
        with pytest.raises(DivergenceError, match="exceeds 10 times the start's objective"):
            pw_gradient(a, b, w, SolverConfig(iterations=40, seed=3, sketch_size=200, x0=x_ls,
                                              step_size=1.0))


class TestStopReason:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_iterations(self, name):
        a, b, w, f_star = make_problem(n=256, d=4, kappa=5.0, seed=9)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=5, batch_size=4, seed=0),
                            f_star=f_star)
        assert (rep.stop_reason, rep.iterations_run) == ("iterations", 5)

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "pwgrad"])
    def test_target(self, name):
        a, b, w, f_star = make_problem(n=1024, d=6, kappa=10.0, seed=25)
        cfg = SolverConfig(iterations=5000, batch_size=8, seed=2, record_every=10,
                           stop_below_rel=0.5)
        rep = SOLVERS[name](a, b, w, cfg, f_star=f_star)
        assert rep.stop_reason == "target"
        assert rep.iterations_run < 5000
        # The point that ends the run is evaluated exactly.
        x = rep.final_x if name == "pwgrad" else rep.final_x_avg
        assert rep.trace[-1].iteration == rep.iterations_run
        assert rep.trace[-1].objective == objective_value(a, b, x)
        assert rep.final_relative_error <= 0.5

    @pytest.mark.parametrize("name", ["hdpwacc", "sgd", "ihs"])
    def test_time(self, name):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=10.0, seed=26)
        cfg = SolverConfig(iterations=1000, seed=3, record_every=1, max_seconds=0.0)
        rep = SOLVERS[name](a, b, w, cfg, f_star=f_star)
        assert (rep.stop_reason, rep.iterations_run) == ("time", 1)

    def test_objective_tol(self):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=10.0, seed=27)
        cfg = SolverConfig(iterations=500, seed=4, objective_tol=1e-6)
        rep = pw_gradient(a, b, w, cfg, f_star=f_star)
        assert rep.stop_reason == "objective_tol"
        assert rep.iterations_run < 500

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
    def test_objective_tol_at_traced_points(self, name):
        # The SGD solvers compare each traced objective with the last one
        # (measured: 250, 250 and 300 steps of 5000).
        a, b, w, f_star = make_problem(n=1024, d=6, kappa=10.0, seed=27)
        cfg = SolverConfig(iterations=5000, batch_size=8, seed=2, record_every=50,
                           objective_tol=1e-3)
        rep = SOLVERS[name](a, b, w, cfg, f_star=f_star)
        assert rep.stop_reason == "objective_tol"
        assert rep.iterations_run < 5000 and rep.iterations_run % 50 == 0
        f = [p.objective for p in rep.trace]
        assert abs(f[-1] - f[-2]) <= 1e-3 * max(f[-1], 1.0)


# Plain sgd at kappa(A) >= 1e10 has kappa(G) = kappa(A)^2 far above
# _CENTRED_MAX_COND, so its trace points take the exact-evaluation branch.
TRACE_CASES = [(name, constraint, kappa)
               for name in ("hdpwbatch", "hdpwacc", "sgd")
               for constraint in ("none", "l2")
               for kappa in (1e2, 1e4, 1e8) + ((1e10, 1e12) if name == "sgd" else ())]


class TestAnchoredTrace:
    @pytest.mark.parametrize("name,constraint,kappa", TRACE_CASES)
    def test_traced_objective_is_exact_at_traced_iterate(self, name, constraint, kappa):
        n = 1024
        a, b, _ = gen_synthetic(DatasetSpec(n=n, d=6, target_kappa=kappa,
                                            noise_std=1.0, seed=41))
        w = make_feasible_set(a, b, constraint, radius_scale=0.6)
        # An explicit step keeps the iterates independent of the cap T
        # (hdpwacc's epoch schedule does not depend on it).
        step = 0.02
        if name == "sgd":
            raw = _smoothness_bounds(a, None)
            step = 0.5 / (_stochastic_smoothness(raw, n) / 4 + raw.L)
        cfg = SolverConfig(iterations=200, batch_size=4, step_size=step, seed=5,
                           record_every=40)
        rep = SOLVERS[name](a, b, w, cfg)
        assert [p.iteration for p in rep.trace] == list(range(0, 201, 40))
        for point in rep.trace:
            rerun = SOLVERS[name](a, b, w, replace(cfg, iterations=point.iteration))
            exact = objective_value(a, b, rerun.final_x_avg)
            rtol = 1e-5 if kappa == 1e8 and point.iteration not in (0, 200) else 1e-10
            if kappa == 1e8 and point.iteration == 200:
                rtol = 1e-12
            assert point.objective == pytest.approx(exact, rel=rtol), point.iteration

    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
    @pytest.mark.parametrize("x0", [None, "given"])
    def test_few_exact_evaluations(self, name, x0, monkeypatch):
        a, b, w, f_star = make_problem(n=2048, d=10, kappa=1e3, seed=28)
        calls = []
        original = solvers_mod.objective_value
        monkeypatch.setattr(solvers_mod, "objective_value",
                            lambda *args: calls.append(1) or original(*args))
        start = None if x0 is None else np.full(10, 1e-3)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=2000, batch_size=4,
                                                  record_every=10, seed=6, x0=start),
                            f_star=f_star)
        ran = rep.iterations_run
        assert [p.iteration for p in rep.trace] == sorted({*range(0, ran + 1, 10), ran})
        # The centre f_c of the trace quadratic and the returned iterate;
        # f(x0) is r0 @ r0 from the start's residual, not an evaluation.
        assert len(calls) == 2


class TestStepSize:
    def test_variance_branch(self):
        assert sgd_step_size(2.0, 1.0, 100, 8.0) == pytest.approx(0.025)

    def test_smoothness_branch_when_noise_vanishes(self):
        assert sgd_step_size(2.0, 1.0, 100, 0.0) == pytest.approx(0.25)

    def test_singleton_set(self):
        assert sgd_step_size(2.0, 0.0, 100, 8.0) == 0.0

    def test_no_steps_gives_smoothness_cap(self):
        assert sgd_step_size(2.0, 1.0, 0, 8.0) == 0.25


class TestSmoothnessConstants:
    # One full block plus a ragged tail, so the blocking itself is tested.
    N = _GRAM_BLOCK + 905

    @pytest.mark.parametrize("kappa", [1e2, 1e8])
    def test_match_singular_values_of_preconditioned_matrix(self, kappa):
        a, b, _ = gen_synthetic(DatasetSpec(n=self.N, d=12, target_kappa=kappa,
                                            noise_std=1.0, seed=6))
        pre = build_preconditioner(a, b, "srht", 240, seed=6)
        sv = np.linalg.svd(tri_solve(pre.r_factor, a.T, transposed=True).T,
                           compute_uv=False)
        consts = _smoothness_bounds(a.copy(), pre.r_factor)
        L, mu = consts.L, consts.mu
        np.testing.assert_allclose([L, mu], [2.0 * sv[0] ** 2, 2.0 * sv[-1] ** 2],
                                   rtol=1e-8)
        # H D is orthogonal on the zero-padded rows: same Gram matrix.
        padded = _smoothness_bounds(pre.hda, pre.r_factor)
        np.testing.assert_allclose([padded.L, padded.mu], [L, mu], rtol=1e-8)

    def test_raw_problem_uses_a_itself(self):
        a, _, _ = gen_synthetic(DatasetSpec(n=self.N, d=12, target_kappa=1e3,
                                            noise_std=1.0, seed=7))
        L = _smoothness_bounds(a, None).L
        assert L == pytest.approx(2.0 * np.linalg.norm(a, 2) ** 2, rel=1e-12)

    def test_pass_writes_u_and_matches_one_shot(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=self.N, d=12, target_kappa=1e4,
                                            noise_std=1.0, seed=9))
        pre = build_preconditioner(a, b, "srht", 240, seed=9)
        u = tri_solve(pre.r_factor, pre.hda.T, transposed=True).T
        gram = u.T @ u
        consts = _smoothness_bounds(pre.hda, pre.r_factor)
        np.testing.assert_allclose(pre.hda, u, rtol=1e-12, atol=1e-12 * np.abs(u).max())
        vecs = consts.eigvecs
        np.testing.assert_allclose((vecs * consts.eigvals) @ vecs.T, gram, rtol=1e-12,
                                   atol=1e-12 * np.abs(gram).max())
        assert consts.worst_row_sq == pytest.approx(np.max(np.sum(u**2, axis=1)), rel=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        np.testing.assert_allclose([consts.L, consts.mu], 2.0 * eigs[[-1, 0]], rtol=1e-12)

    def test_blocked_row_norms_match_one_shot(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=self.N, d=12, target_kappa=1e3,
                                            noise_std=1.0, seed=8))
        pre = build_preconditioner(a, b, "srht", 240, seed=8)
        for rows in (a, pre.hda):
            u = tri_solve(pre.r_factor, rows.T, transposed=True).T
            one_shot = 2.0 * rows.shape[0] * np.max(np.sum(u**2, axis=1))
            consts = _smoothness_bounds(rows.copy(), pre.r_factor)
            assert _stochastic_smoothness(consts, rows.shape[0]) == pytest.approx(
                one_shot, rel=1e-12)
        assert _stochastic_smoothness(_smoothness_bounds(a, None), self.N) == pytest.approx(
            2.0 * self.N * np.max(np.sum(a**2, axis=1)), rel=1e-12)


    @pytest.mark.parametrize("preconditioned", [True, False])
    def test_bitwise_independent_of_worker_count(self, monkeypatch, preconditioned):
        # Eight blocks, the last ragged; eight workers outnumber the cores,
        # and a short switch interval interleaves them.
        a, b, _ = gen_synthetic(DatasetSpec(n=7 * _GRAM_BLOCK + 905, d=40,
                                            target_kappa=1e3, noise_std=1.0, seed=5))
        r_factor = build_preconditioner(a, b, "srht", 320, seed=5).r_factor
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                force_workers(monkeypatch, workers)
                rows = a.copy()
                before = threading.active_count()
                consts = _smoothness_bounds(rows, r_factor if preconditioned else None)
                assert threading.active_count() == before
                outs.append((rows, consts))
        finally:
            sys.setswitchinterval(interval)
        for rows, consts in outs[1:]:
            assert np.array_equal(rows, outs[0][0])
            assert (consts.L, consts.mu, consts.worst_row_sq) == outs[0][1][:3]
            assert np.array_equal(consts.eigvecs, outs[0][1].eigvecs)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_variance_at_zero_start_skips_the_product_bitwise(self, seed):
        # At y0 = 0 the residual is taken as -rhs and the mean gradient
        # as -2 U^T rhs, without forming U y0 or U^T (-rhs); sigma^2 must
        # equal the general formula bit for bit.
        rng = np.random.default_rng(seed)
        u, rhs, y0 = rng.standard_normal((300, 5)), rng.standard_normal(300), np.zeros(5)
        rhs[::7] = 0.0  # 0 - 0 is +0 but -0 is -0: the sign must not matter
        resid = u @ y0 - rhs
        mean_grad = 2.0 * (u.T @ resid)
        idx = stream(seed, "estimate", 1).integers(0, 300, size=200)
        grads = 2.0 * 300 * u[idx] * resid[idx][:, None]
        expected = 2.0 * float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))
        assert _sampled_gradient_variance(u, rhs, y0, seed, u.T @ rhs) == expected


class TestAccSchedule:
    def test_first_epoch_count_by_hand(self):
        # max(4 sqrt 2, 64 * 2 / 3) = 42.67 rounds up to 43.
        n_1, _ = acc_epoch_schedule(L=1.0, mu=1.0, sigma2=1.0, v0=1.0, s=1)
        assert n_1 == 43

    def test_zero_variance_uses_smoothness_step(self):
        n_s, eta_s = acc_epoch_schedule(L=2.0, mu=1.0, sigma2=0.0, v0=1.0, s=1)
        assert n_s == 8  # ceil(4 sqrt(2 L / mu)) = ceil(8)
        assert eta_s == pytest.approx(1.0 / 8.0)


class TestHdPwBatchSgd:
    def test_orthonormal_instance_recovers_planted_solution(self):
        # Noiseless b = Q x_true with orthonormal Q: every row's gradient
        # vanishes at x_true, so the last iterate converges to it; the
        # average still carries the early iterates.
        d = 8
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((512, d)))[0]
        x_true = np.arange(1.0, d + 1.0) / 3.0
        cfg = SolverConfig(iterations=4000, batch_size=1, seed=0)
        rep = hd_pw_batch_sgd(q, q @ x_true, FeasibleSet.unconstrained(d), cfg)
        assert np.linalg.norm(rep.final_x - x_true) <= 1e-10 * np.linalg.norm(x_true)
        assert np.linalg.norm(rep.final_x_avg - x_true) <= 5e-2 * np.linalg.norm(x_true)

    def test_full_batch_tracks_pw_gradient(self):
        # Step chosen so both runs are still bias-dominated at t=50;
        # the with-replacement full batch then shadows the exact run.
        a, b, w, f_star = make_problem(n=512, d=6, kappa=10.0, seed=4)
        cfg = SolverConfig(iterations=50, step_size=0.02, seed=1, record_every=1,
                           sketch_kind="gaussian", sketch_size=120)
        pw = pw_gradient(a, b, w, cfg, f_star=f_star)
        full = hd_pw_batch_sgd(
            a, b, w,
            SolverConfig(iterations=50, batch_size=512, step_size=0.02, seed=1,
                         record_every=1, sketch_kind="gaussian", sketch_size=120),
            f_star=f_star,
        )
        # Same step size, full batches: stays within 10x of the exact
        # gradient run (final_x, not the average, for a fair comparison).
        rel_full = (objective_value(a, b, full.final_x) - f_star) / f_star
        rel_pw = pw.final_relative_error
        assert rel_full <= 10.0 * max(rel_pw, 1e-12)

    def test_x_y_space_equivalence(self):
        # Replaying the update on y = Rx with the same sample stream and
        # mapping back through R must reproduce the solver's iterates.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((60, 5))
        b = rng.standard_normal(60)
        w = FeasibleSet.unconstrained(5)
        eta, r, t_max, seed = 0.002, 2, 20, 42
        cfg = SolverConfig(iterations=t_max, batch_size=r, step_size=eta,
                           seed=seed, sketch_kind="gaussian", sketch_size=25,
                           record_every=1)
        rep = hd_pw_batch_sgd(a, b, w, cfg)

        pre = build_preconditioner(a, b, "gaussian", 25, seed=seed)
        u = tri_solve(pre.r_factor, pre.hda.T, transposed=True).T  # HDU
        y = pre.r_factor @ np.zeros(5)
        y_sum = np.zeros(5)
        stream = batch_index_stream(seed, pre.hda.shape[0], r)
        for _ in range(t_max):
            idx = next(stream)
            rows = u[idx]
            resid = rows @ y - pre.hdb[idx]
            y = y - eta * (2.0 * pre.hda.shape[0] / r) * (rows.T @ resid)
            y_sum += y
        x_from_y = tri_solve(pre.r_factor, y)
        np.testing.assert_allclose(rep.final_x, x_from_y, atol=1e-9)
        np.testing.assert_allclose(
            rep.final_x_avg, tri_solve(pre.r_factor, y_sum / t_max), atol=1e-9
        )

    def test_variance_scales_inversely_with_batch(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=1024, d=8, target_kappa=10.0,
                                            noise_std=1.0, seed=5))
        pre = build_preconditioner(a, b, "srht", 64, seed=5)
        n_pad = pre.hda.shape[0]
        x = np.random.default_rng(6).standard_normal(8)
        resid = pre.hda @ x - pre.hdb
        singles = 2.0 * n_pad * pre.hda * resid[:, None]  # all c_i
        mean_grad = singles.mean(axis=0)
        sigma2_exact = float(np.mean(np.sum((singles - mean_grad) ** 2, axis=1)))
        rng = np.random.default_rng(7)
        for r in (1, 2, 4, 8):
            idx = rng.integers(0, n_pad, size=(10_000, r))
            batch_means = singles[idx].mean(axis=1)
            sigma2_r = float(np.mean(np.sum((batch_means - mean_grad) ** 2, axis=1)))
            assert abs(sigma2_r * r / sigma2_exact - 1.0) <= 0.15

    @pytest.mark.parametrize("constraint", ["l2", "l1"])
    def test_auto_step_is_invariant_to_scaling_a(self, constraint):
        # A -> cA with radius -> radius / c leaves the y = R x problem
        # (U, HDb and R W) unchanged, so the auto step, which measures D_W
        # in y, and the y iterates are unchanged too: x(cA) = x(A) / c.
        a, b, _ = gen_synthetic(DatasetSpec(n=512, d=6, target_kappa=100.0,
                                            noise_std=1.0, seed=11))
        w = make_feasible_set(a, b, constraint, radius_scale=0.6)
        c = 1e3
        w_c = FeasibleSet(kind=w.kind, dim=w.dim, radius=w.radius / c)
        cfg = SolverConfig(iterations=400, batch_size=4, seed=2)
        rep = hd_pw_batch_sgd(a, b, w, cfg)
        rep_c = hd_pw_batch_sgd(c * a, b, w_c, cfg)
        np.testing.assert_allclose(c * rep_c.final_x_avg, rep.final_x_avg, rtol=1e-8)

    def test_variance_pass_only_with_a_diameter(self, monkeypatch):
        # Without D_W the auto step is the stability cap, which has no use
        # for sigma^2; on a ball the step needs it.
        calls = []
        for attr in ("_smoothness_bounds", "_sampled_gradient_variance",
                     "_stochastic_smoothness"):
            original = getattr(solvers_mod, attr)
            monkeypatch.setattr(solvers_mod, attr, lambda *args, _f=original, _n=attr, **kw:
                                calls.append(_n) or _f(*args, **kw))
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9)
        hd_pw_batch_sgd(a, b, w, SolverConfig(iterations=5, seed=0))
        assert "_stochastic_smoothness" in calls
        assert "_sampled_gradient_variance" not in calls
        a, b, w, _ = make_problem(n=256, d=4, kappa=5.0, seed=9, constraint="l2",
                                  radius_scale=0.6)
        hd_pw_batch_sgd(a, b, w, SolverConfig(iterations=5, seed=0))
        assert "_sampled_gradient_variance" in calls


class TestAccelerated:
    def test_near_exact_gradients_reach_high_accuracy(self, monkeypatch):
        # Consistent system, huge batches, sampled sigma2 pinned to 0: the
        # schedule degenerates to deterministic accelerated descent.
        monkeypatch.setattr(solvers_mod, "_sampled_gradient_variance", lambda *a, **k: 0.0)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 10))
        x_true = rng.standard_normal(10)
        b = a @ x_true
        w = FeasibleSet.unconstrained(10)
        f0 = objective_value(a, b, np.zeros(10))
        cfg = SolverConfig(iterations=200, batch_size=1024, epochs=12, seed=1,
                           sketch_kind="gaussian", sketch_size=60, record_every=1)
        rep = hd_pw_acc_batch_sgd(a, b, w, cfg)
        assert rep.iterations_run <= 200
        assert rep.final_objective <= 1e-6 * f0

    def test_epoch_over_cap_raises(self, monkeypatch):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=100.0, seed=12)
        monkeypatch.setattr(solvers_mod, "_EPOCH_ITER_CAP", 5)
        with pytest.raises(EpochBudgetError, match="epoch 1 wants"):
            hd_pw_acc_batch_sgd(a, b, w, SolverConfig(iterations=400, batch_size=4, seed=5),
                                f_star=f_star)

    def test_epoch_over_cap_raises_only_when_reached(self, monkeypatch):
        # Noisy data from zero: epoch 2 wants about twice epoch 1's steps.
        # With the cap between the two, a run that ends in epoch 1 never
        # asks for epoch 2's length.
        a, b, w, f_star = make_problem(n=512, d=6, kappa=100.0, seed=12)
        lengths = []

        def schedule(*args):
            n_s, eta_s = acc_epoch_schedule(*args)
            lengths.append(n_s)
            return n_s, eta_s

        monkeypatch.setattr(solvers_mod, "acc_epoch_schedule", schedule)
        cfg = SolverConfig(iterations=400, batch_size=16, seed=5)
        hd_pw_acc_batch_sgd(a, b, w, cfg, f_star=f_star)
        n_1, n_2 = lengths[:2]
        assert n_1 < n_2
        monkeypatch.setattr(solvers_mod, "_EPOCH_ITER_CAP", n_1)
        rep = hd_pw_acc_batch_sgd(a, b, w, replace(cfg, iterations=n_1), f_star=f_star)
        assert (rep.iterations_run, rep.stop_reason) == (n_1, "iterations")
        with pytest.raises(EpochBudgetError, match="epoch 2 wants"):
            hd_pw_acc_batch_sgd(a, b, w, replace(cfg, iterations=n_1 + 1), f_star=f_star)


class TestPwGradient:
    def test_monotone_decrease_unconstrained(self):
        a, b, w, f_star = make_problem(n=1024, d=8, kappa=1e4, seed=14)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=40, seed=3, record_every=1),
                          f_star=f_star)
        objectives = [p.objective for p in rep.trace]
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev + 1e-12 * max(prev, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_high_precision_on_ill_conditioned(self, seed):
        a, b, w, f_star = make_problem(n=2048, d=10, kappa=1e8, noise=500.0, seed=seed)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=60, seed=seed), f_star=f_star)
        assert rep.final_relative_error <= 1e-10

    def test_ratio_step_stays_below_the_top_of_the_interval(self):
        # 2 / (lo + hi) on [(1 + sqrt(rho))^-2, (1 - sqrt(rho))^-2].
        for s in (51, 100, 200, 400, 2500):
            rho = 50 / s
            lo, hi = (1.0 + np.sqrt(rho)) ** -2, (1.0 - np.sqrt(rho)) ** -2
            eta = solvers_mod._ratio_step(50, s)
            assert eta == pytest.approx(2.0 / (lo + hi), rel=1e-12)
            assert eta * hi < 2.0
        assert solvers_mod._ratio_step(50, 2500) == pytest.approx(0.9416, abs=1e-4)

    @pytest.mark.parametrize("solver", [pw_gradient, ihs])
    def test_auto_step_needs_more_rows_than_columns(self, solver):
        # A square sketch gives rho = 1 and no interval to step on.
        a, b, w, _ = make_problem(n=512, d=6, kappa=10.0, seed=19)
        with pytest.raises(SketchSizeError, match="more sketch rows than d = 6"):
            solver(a, b, w, SolverConfig(iterations=3, seed=4, sketch_kind="gaussian",
                                         sketch_size=6))

    # Seeds whose 12d Gaussian sketch made the auto step diverge, the
    # first three at d = 1 and 2 and the only one at d = 5: of seeds
    # 0-299, 11, 6 and 1 diverged (1, 4 and 4 more missed 1e-10 within
    # 60 iterations). Both auto steps diverge above the same top
    # eigenvalue, so these seeds do not hang on the step rule. At the
    # default rows all 900 reached 1e-10.
    @pytest.mark.parametrize("d,seed", [(1, 70), (1, 88), (1, 90), (2, 11), (2, 52),
                                        (2, 104), (5, 142)])
    def test_default_gaussian_rows_hold_at_small_d(self, d, seed):
        a, b, _ = gen_synthetic(DatasetSpec(n=2048, d=d, target_kappa=1e4,
                                            noise_std=1.0, seed=1))
        w = FeasibleSet.unconstrained(d)
        _, f_star = ground_truth(a, b, w)
        cfg = SolverConfig(iterations=60, seed=seed, sketch_kind="gaussian",
                           stop_below_rel=1e-10)
        assert resolve_sketch_size(cfg, 2048, d, True) == 400
        for name in ("pwgrad", "ihs"):
            assert SOLVERS[name](a, b, w, cfg, f_star=f_star).stop_reason == "target"
        with pytest.raises(DivergenceError):
            pw_gradient(a, b, w, replace(cfg, sketch_size=12 * d), f_star=f_star)

    def test_default_gaussian_rows(self):
        # max(10d, 400): 10d only above d = 40; the SGD default is 8d.
        cfg = SolverConfig(sketch_kind="gaussian")
        assert resolve_sketch_size(cfg, 2**15, 50, True) == 500
        assert [resolve_sketch_size(cfg, 2**15, d, True) for d in (1, 8, 20, 40)] == [400] * 4
        assert resolve_sketch_size(cfg, 2**15, 50, False) == 400

    def test_default_gaussian_tail_seed(self):
        # The 10d default with heavy ball on illcond-highprec's data
        # (dataset 2, kappa 1e8) reaches 1e-10 within 60 iterations; it
        # took 23. The seed was picked as an 8d tail sketch of the old
        # float64 ziggurat draw; its Box-Muller sketch is not one (at 8d
        # 50 ratio steps, 25 heavy-ball steps).
        a, b, w, f_star = make_problem(n=2**15, d=50, kappa=1e8, seed=2)
        cfg = SolverConfig(iterations=60, seed=219008, sketch_kind="gaussian",
                           stop_below_rel=1e-10)
        assert pw_gradient(a, b, w, cfg, f_star=f_star).stop_reason == "target"

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("data_seed", [1, 2])
    def test_heavy_ball_beats_the_ratio_step(self, kind, data_seed):
        # Same sketch, same R: the auto step (heavy ball) against an
        # explicit ratio step. Measured 13-18 against 15-29 iterations.
        a, b, w, f_star = make_problem(n=4096, d=20, kappa=1e8, seed=data_seed)
        cfg = SolverConfig(iterations=200, seed=3, sketch_kind=kind, stop_below_rel=1e-10)
        ratio = solvers_mod._ratio_step(20, resolve_sketch_size(cfg, 4096, 20, True))
        auto = pw_gradient(a, b, w, cfg, f_star=f_star)
        plain = pw_gradient(a, b, w, replace(cfg, step_size=ratio), f_star=f_star)
        assert auto.stop_reason == plain.stop_reason == "target"
        assert auto.iterations_run < plain.iterations_run

    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("constraint", ["l1", "l2"])
    def test_heavy_ball_on_a_ball(self, constraint, kind):
        # The extrapolated point goes through the same exact R-metric prox.
        a, b, w, f_star = make_problem(n=4096, d=20, kappa=1e4, seed=1, constraint=constraint,
                                       radius_scale=0.5)
        cfg = SolverConfig(iterations=60, seed=1, sketch_kind=kind, stop_below_rel=1e-10)
        assert pw_gradient(a, b, w, cfg, f_star=f_star).stop_reason == "target"

    def test_heavy_ball_step(self):
        # ((1 - rho)^2, rho): it diverges above the same top eigenvalue,
        # 2 (1 + beta) / eta, as the ratio step's 2 / eta.
        for s in (51, 100, 400, 500, 2500):
            eta, beta = solvers_mod._heavy_ball_step(50, s)
            assert (eta, beta) == ((1.0 - 50 / s) ** 2, 50 / s)
            assert 2.0 * (1.0 + beta) / eta == pytest.approx(
                2.0 / solvers_mod._ratio_step(50, s), rel=1e-12)
        with pytest.raises(SketchSizeError, match="more sketch rows than d = 50"):
            solvers_mod._heavy_ball_step(50, 50)

    def test_l2_ball_active_constraint_kkt(self):
        a, b, w, f_star = make_problem(n=1024, d=8, kappa=30.0, seed=15,
                                       constraint="l2", radius_scale=0.6)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=200, seed=4), f_star=f_star)
        x = rep.final_x
        rho = w.radius
        assert abs(np.linalg.norm(x) - rho) <= 1e-8 * rho
        # KKT: -grad must be (anti)parallel to the outward normal x.
        grad = 2.0 * a.T @ (a @ x - b)
        cos = float(grad @ x / (np.linalg.norm(grad) * rho))
        assert cos <= -1.0 + 1e-8


class TestIhs:
    @pytest.mark.parametrize("eta", ["auto", 0.6, 0.37])
    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("constraint", ["none", "l1", "l2"])
    @pytest.mark.parametrize("x0", [None, "given"])
    def test_pw_gradient_is_fixed_sketch_ihs(self, eta, kind, constraint, x0):
        # One step unit: an explicit step and the auto step both scale
        # A^T (Ax - b), bit for bit as in IHS's definition with one sketch
        # (plus heavy ball's momentum term at the auto step).
        a, b, w, _ = make_problem(n=512, d=6, kappa=100.0, seed=21, constraint=constraint,
                                  radius_scale=0.7)
        start = None if x0 is None else np.linspace(-0.1, 0.1, 6)
        cfg = SolverConfig(iterations=8, seed=3, sketch_kind=kind, x0=start, step_size=eta)
        pw = pw_gradient(a, b, w, cfg)
        x, objectives = sketch_ihs(a, b, w, cfg)
        np.testing.assert_array_equal(pw.final_x, x)
        assert [p.objective for p in pw.trace] == objectives

    @pytest.mark.parametrize("eta", ["auto", 0.6, 0.37])
    @pytest.mark.parametrize("kind", ["srht", "gaussian", "countsketch"])
    @pytest.mark.parametrize("constraint", ["none", "l2"])
    def test_fresh_sketch_is_ihs_by_definition(self, eta, kind, constraint):
        # The same step unit as pwgrad, on a new seeded sketch each iteration.
        a, b, w, _ = make_problem(n=512, d=6, kappa=100.0, seed=21, constraint=constraint,
                                  radius_scale=0.7)
        cfg = SolverConfig(iterations=8, seed=3, sketch_kind=kind, step_size=eta)
        rep = ihs(a, b, w, cfg)
        x, objectives = sketch_ihs(a, b, w, cfg, fresh_sketch=True)
        np.testing.assert_array_equal(rep.final_x, x)
        assert [p.objective for p in rep.trace] == objectives

    def test_fresh_sketch_converges(self):
        a, b, w, f_star = make_problem(n=2048, d=10, kappa=1e3, seed=17)
        cfg = SolverConfig(iterations=30, seed=8, sketch_size=80)  # 8d
        rep = ihs(a, b, w, cfg, f_star=f_star)
        assert rep.final_relative_error <= 1e-8

    @pytest.mark.parametrize("solver", [ihs, pw_gradient])
    def test_explicit_step_changes_iterates(self, solver):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=10.0, seed=19)
        auto = solver(a, b, w, SolverConfig(iterations=5, seed=4), f_star=f_star)
        small = solver(a, b, w, SolverConfig(iterations=5, seed=4, step_size=0.01),
                       f_star=f_star)
        assert not np.allclose(auto.final_x, small.final_x)
        # A hundredth of the unit step barely leaves x0 = 0 in five steps.
        assert small.final_relative_error > auto.final_relative_error

    def test_one_sketch_per_iteration_the_first_at_set_up(self, monkeypatch):
        a, b, w, _ = make_problem(n=512, d=6, kappa=5.0, seed=18)
        seeds = []
        sketched_r = solvers_mod.sketched_r
        monkeypatch.setattr(solvers_mod, "sketched_r",
                            lambda *args: seeds.append(args[3]) or sketched_r(*args))
        ihs(a, b, w, SolverConfig(iterations=0, seed=9))
        assert len(seeds) == 1
        rep = ihs(a, b, w, SolverConfig(iterations=3, seed=9))
        assert rep.iterations_run == 3
        assert seeds[1] == seeds[0] and len(set(seeds[1:])) == 3

    def test_l1_prox_warm_starts_across_fresh_sketches(self, monkeypatch):
        # The ball-constrained benchmark's l1 set (d = 20, radius
        # 0.5 ||x_ls||_1) at a smaller n. Each iteration's prox takes the
        # last face; a cold prox runs the path from lam_max every time.
        a, b, w, f_star = make_problem(n=4096, d=20, kappa=30.0, seed=1,
                                       constraint="l1", radius_scale=0.5)
        cfg = SolverConfig(iterations=30, seed=5, stop_below_rel=1e-10)
        pieces = []
        segment = RMetricProx._segment
        monkeypatch.setattr(RMetricProx, "_segment",
                            lambda self, *args: pieces.append(1) or segment(self, *args))
        warm = ihs(a, b, w, cfg, f_star=f_star)
        warm_pieces = len(pieces)
        init = RMetricProx.__init__
        monkeypatch.setattr(RMetricProx, "__init__",
                            lambda self, r, w_, warm_from=None: init(self, r, w_))
        pieces.clear()
        cold = ihs(a, b, w, cfg, f_star=f_star)
        assert warm.iterations_run == cold.iterations_run < 30
        assert warm_pieces < len(pieces) / 2
        np.testing.assert_allclose(warm.final_x, cold.final_x, rtol=0.0,
                                   atol=_KKT_TOL * np.max(np.abs(cold.final_x)))


class TestL1BallAtHighKappa:
    """At kappa 1e6 lam is a tiny fraction of the l1 prox's correlation
    scale ||R^T R z||_inf, and a warm face that broke |g_j| <= lam by
    4.4 % of lam passed a test scaled by that alone: the runs below then
    ended at rel-err 1.09e-6 with no error. The warm piece is now also
    held to lam. Gaussian IHS draws a 400-row Gaussian sketch per
    iteration, so it runs 20 iterations, not 100; with the old warm test
    its seed-3 run had stalled at 1.09e-6 by then."""

    @pytest.fixture(scope="class")
    def cell(self):
        a, b, _ = gen_synthetic(DatasetSpec(n=2**15, d=20, target_kappa=1e6,
                                            noise_std=1.0, seed=2))
        w = make_feasible_set(a, b, "l1", radius_scale=0.5)
        return a, b, w, ground_truth(a, b, w)[1]

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("name,kind", [("pwgrad", "srht"), ("pwgrad", "gaussian"),
                                           ("pwgrad", "countsketch"), ("ihs", "srht"),
                                           ("ihs", "gaussian"), ("ihs", "countsketch")])
    def test_ends_at_the_oracle(self, cell, name, kind, seed):
        a, b, w, f_star = cell
        iterations = 20 if (name, kind) == ("ihs", "gaussian") else 100
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=iterations, seed=seed,
                                                  sketch_kind=kind))
        assert abs(rep.final_objective - f_star) <= 1e-12 * f_star


class TestPlainSgd:
    def test_comparable_on_well_conditioned_data(self):
        a, b, w, f_star = make_problem(n=1024, d=8, kappa=1.0, noise=1.0, seed=20)
        cfg = SolverConfig(iterations=4000, batch_size=1, seed=2)
        plain = plain_sgd_baseline(a, b, w, cfg, f_star=f_star)
        pre = hd_pw_batch_sgd(a, b, w, cfg, f_star=f_star)
        # kappa = 1: preconditioning buys nothing, both land in the same
        # ballpark (within 10x of each other).
        assert plain.final_relative_error <= 10.0 * pre.final_relative_error + 1e-6

    def test_ill_conditioning_cripples_plain_sgd(self):
        # Last iterates: averaging from x0=0 would bury both runs under
        # the enormous initial gap of a kappa=1e8 instance.
        a, b, w, f_star = make_problem(n=1024, d=8, kappa=1e8, noise=3.0, seed=21)
        cfg = SolverConfig(iterations=4000, batch_size=8, seed=3)
        plain = plain_sgd_baseline(a, b, w, cfg, f_star=f_star)
        pre = hd_pw_batch_sgd(a, b, w, cfg, f_star=f_star)
        rel_plain = (objective_value(a, b, plain.final_x) - f_star) / f_star
        rel_pre = (objective_value(a, b, pre.final_x) - f_star) / f_star
        assert rel_plain >= 10.0 * rel_pre


class TestGatheredBatches:
    """The SGD loops gather their batches many steps at a time and step
    with ndarray.dot; the per-step loops in helpers are the reference."""

    # Past the first 8192-step index block, across many gather chunks.
    STEPS = 8500

    # "exact" starts at the planted x of noiseless data, f(x0) = 0: hdpwacc's
    # epochs then start from the floored V_0 and are short at first, so
    # the run crosses dozens of them.
    @pytest.mark.parametrize("start", ["zero", "exact"])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("constraint", ["none", "l2", "l1"])
    @pytest.mark.parametrize("name,loop,reference,precondition", [
        ("hdpwbatch", solvers_mod._batch_sgd, batch_sgd_per_step, True),
        ("hdpwacc", solvers_mod._acc_sgd, acc_sgd_per_step, True),
        ("sgd", solvers_mod._batch_sgd, batch_sgd_per_step, False),
    ])
    def test_bitwise_equal_to_per_step_loop(self, name, loop, reference, precondition,
                                            constraint, batch, start):
        a, b, x_planted = gen_synthetic(DatasetSpec(n=64, d=3, target_kappa=10.0,
                                                    noise_std=float(start == "zero"), seed=31))
        # At radius_scale 1 a few hundred steps leave the ball, enough to
        # exercise the prox without its cost dominating the test.
        w = make_feasible_set(a, b, constraint)
        cfg = SolverConfig(iterations=self.STEPS, batch_size=batch, epochs=200, seed=3,
                           x0=x_planted if start == "exact" else None)
        got, want = (solvers_mod._sgd_solve(a, b, w, cfg, None, name, fn, precondition)
                     for fn in (loop, reference))
        assert got.iterations_run == want.iterations_run == self.STEPS
        np.testing.assert_array_equal(got.final_x, want.final_x)
        np.testing.assert_array_equal(got.final_x_avg, want.final_x_avg)
        assert ([(p.iteration, p.objective) for p in got.trace]
                == [(p.iteration, p.objective) for p in want.trace])

    # Steps leave each ball: 463 of 5000 the l2 ball of radius ||x_ls||,
    # 16 the l1 ball of radius 1.5 ||x_ls||_1 (at ||x_ls||_1, 936 do, and
    # their d = 50 ball solves take 8 s).
    @pytest.mark.parametrize("constraint,radius_scale", [("none", 1.0), ("l2", 1.0),
                                                         ("l1", 1.5)])
    def test_stacked_acc_step_tracks_the_unstacked_recursion(self, constraint,
                                                             radius_scale):
        # The stacked step rounds differently from the recursion it
        # replaced; over 5000 steps the two may drift apart only by
        # accumulated rounding.
        a, b, _ = gen_synthetic(DatasetSpec(n=4096, d=50, target_kappa=10.0,
                                            noise_std=1.0, seed=12))
        w = make_feasible_set(a, b, constraint, radius_scale=radius_scale)
        cfg = SolverConfig(iterations=5000, batch_size=8, epochs=40, seed=4)
        got, want = (solvers_mod._sgd_solve(a, b, w, cfg, None, "hdpwacc", fn, True)
                     for fn in (solvers_mod._acc_sgd, acc_sgd_unstacked_per_step))
        assert got.iterations_run == want.iterations_run == 5000
        np.testing.assert_allclose(got.final_x, want.final_x, rtol=1e-12)

    def test_batches_follow_the_index_stream(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((37, 3))
        rhs = rng.standard_normal(37)
        batches = solvers_mod._batches(u, rhs, 5, 4)
        rows, rhs_b = zip(*(next(batches) for _ in range(self.STEPS)))
        stream = batch_index_stream(5, 37, 4)
        idx = np.array([next(stream) for _ in range(self.STEPS)])
        np.testing.assert_array_equal(np.array(rows), u[idx])
        np.testing.assert_array_equal(np.array(rhs_b), rhs[idx])


class TestOneRunSetUp:
    @pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
    def test_set_up_is_timed_as_preconditioning(self, name, monkeypatch):
        # The U pass and Gram eigendecomposition belong to the set-up lap,
        # not to the trace clock, for plain sgd too.
        smoothness_bounds = solvers_mod._smoothness_bounds

        def slow(*args):
            time.sleep(0.05)
            return smoothness_bounds(*args)

        monkeypatch.setattr(solvers_mod, "_smoothness_bounds", slow)
        a, b, w, f_star = make_problem(n=256, d=4, kappa=5.0, seed=9)
        rep = SOLVERS[name](a, b, w, SolverConfig(iterations=10, seed=0), f_star=f_star)
        assert rep.preconditioning_seconds >= 0.05
        assert rep.trace[-1].elapsed_seconds < 0.05

    def test_one_recorder_per_pipeline_built_before_any_sketch(self):
        # The recorder keeps both clocks: no pipeline reads the time itself.
        tree = ast.parse(Path(solvers_mod.__file__).read_text())
        for fn in tree.body:
            if getattr(fn, "name", None) not in ("_sgd_solve", "_full_gradient_descent"):
                continue
            calls = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
                     for node in ast.walk(fn) if isinstance(node, ast.Call)]
            recorders = [line for line, name in calls if name == "_Recorder"]
            assert len(recorders) == 1, fn.name
            assert all(name != "perf_counter" for _, name in calls), fn.name
            work = [line for line, name in calls
                    if name in ("build_preconditioner", "sketched_r", "_smoothness_bounds")]
            assert work and recorders[0] < min(work), fn.name

    def test_only_the_pipelines_build_what_the_loops_share(self):
        # The SGD loops and the replays in helpers get the recorder, trace
        # objective and batch stream from the pipeline, and hdpwacc's
        # schedule only through _epochs.
        pipelines = {"_sgd_solve", "_full_gradient_descent"}
        allowed = {"_Recorder": pipelines, "_trace_objective": pipelines,
                   "_batches": pipelines, "acc_epoch_schedule": {"_epochs"}}
        found = []
        for path in (Path(solvers_mod.__file__), Path(__file__).parent / "helpers.py"):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if name in allowed:
                            found.append((path.name, name, getattr(top, "name", None)))
        assert {name for _, name, _ in found} == set(allowed)
        assert all(file == "solvers.py" and where in allowed[name]
                   for file, name, where in found), found


class TestReportShape:
    def test_trace_is_monotone_in_iteration_and_time(self):
        a, b, w, f_star = make_problem(n=512, d=6, kappa=100.0, seed=23)
        rep = hd_pw_batch_sgd(a, b, w, SolverConfig(iterations=500, seed=1),
                              f_star=f_star)
        iters = [p.iteration for p in rep.trace]
        times = [p.elapsed_seconds for p in rep.trace]
        assert iters == sorted(iters)
        assert times == sorted(times)
        assert all(p.objective >= 0.0 for p in rep.trace)

    def test_preconditioning_time_reported(self):
        a, b, w, f_star = make_problem(n=1024, d=8, kappa=10.0, seed=24)
        rep = hd_pw_batch_sgd(a, b, w, SolverConfig(iterations=10, seed=1),
                              f_star=f_star)
        assert rep.preconditioning_seconds > 0.0
