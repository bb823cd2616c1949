"""The benchmark's traced mode wraps package functions by name; a rename
or deletion of one it needs must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

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


def fired_spans(tracer_mod, name, w, cfg):
    """Span names fired by one traced solve of a tiny problem."""
    a, b, _ = gen_synthetic(DatasetSpec(n=256, d=4, target_kappa=10.0,
                                        noise_std=1.0, seed=3))
    tracer = tracer_mod.Tracer()
    try:
        # Raises WrapTargetMissing when a wrapped name is gone.
        tracer_mod.install(tracer)
        SOLVERS[name](a, b, w, cfg)
    finally:
        tracer.uninstall()
    return tracer.fired()


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
