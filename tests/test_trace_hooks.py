"""The benchmark's traced mode wraps package functions by name; a rename
or deletion of one it needs must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sketchreg.bench import DatasetSpec, gen_synthetic
from sketchreg.feasible import FeasibleSet
from sketchreg.solvers import SOLVERS, SolverConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_problem():
    return gen_synthetic(DatasetSpec(n=256, d=4, target_kappa=10.0,
                                     noise_std=1.0, seed=3))[:2]


def traced_solve(tracer_mod, name, w, cfg):
    """(tracer, report) of one traced solve of a tiny problem."""
    tracer = tracer_mod.Tracer()
    try:
        # Raises WrapTargetMissing when a wrapped name is gone.
        tracer_mod.install(tracer)
        report = SOLVERS[name](*tiny_problem(), w, cfg)
    finally:
        tracer.uninstall()
    return tracer, report


def fired_spans(tracer_mod, name, w, cfg):
    """Span names fired by one traced solve of a tiny problem."""
    return traced_solve(tracer_mod, name, w, cfg)[0].fired()


@pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
def test_sgd_solve_fires_estimate_and_trace_eval(tracer_mod, name):
    fired = fired_spans(tracer_mod, name, FeasibleSet.unconstrained(4),
                        SolverConfig(iterations=50, batch_size=4, seed=0))
    assert {f"solvers.{name}", "solvers.estimate", "solvers.trace_eval"} <= fired


@pytest.mark.parametrize("name", ["pwgrad", "ihs"])
def test_full_gradient_solve_fires_qr_and_l1_prox(tracer_mod, name):
    # Both take R from a Q-less qr_thin; on an l1 ball each step is one
    # RMetricProx.solve.
    fired = fired_spans(tracer_mod, name, FeasibleSet.l1_ball(0.5, 4),
                        SolverConfig(iterations=5, seed=0))
    assert {f"solvers.{name}", "linalg.qr_thin", "feasible.prox.l1"} <= fired


@pytest.mark.parametrize("name", ["hdpwbatch", "hdpwacc", "sgd"])
def test_traced_sgd_solve_is_bitwise_untraced_and_counts_its_steps(tracer_mod, name):
    # The benchmark checks traced against untraced iterate hashes and
    # divides a solver span's self time by its iteration counter.
    w = FeasibleSet.l2_ball(0.5, 4)
    cfg = SolverConfig(iterations=600, batch_size=4, seed=1)
    tracer, traced = traced_solve(tracer_mod, name, w, cfg)
    plain = SOLVERS[name](*tiny_problem(), w, cfg)
    np.testing.assert_array_equal(traced.final_x, plain.final_x)
    np.testing.assert_array_equal(traced.final_x_avg, plain.final_x_avg)
    assert traced.iterations_run == plain.iterations_run == 600
    assert tracer.counters[f"solvers.{name}.iters"] == traced.iterations_run
    assert tracer_mod.layer_metrics(tracer)[f"solvers.{name}.iters"] == 600
