"""The benchmark's traced mode wraps package functions by name; a rename
or deletion of one it needs must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sketchreg.bench as bench_mod
import sketchreg.precond as precond_mod
from sketchreg.bench import DatasetSpec, gen_synthetic, ground_truth, make_feasible_set
from sketchreg.feasible import FeasibleSet
from sketchreg.sketches import KINDS
from sketchreg.solvers import SOLVERS, SolverConfig
from helpers import force_workers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, without putting perfbench on the
    import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Imports nothing heavy, so it is safe to read at collection.
WORKLOADS = load_perfbench("workloads")
LIBRARY_WORKLOADS = [name for name in WORKLOADS.NAMES if isinstance(
    WORKLOADS.get(name, tiny=True), WORKLOADS.LibraryWorkload)]


@pytest.fixture(scope="module")
def tracer_mod():
    return load_perfbench("tracer")


def tiny_problem():
    return gen_synthetic(DatasetSpec(n=256, d=4, target_kappa=10.0,
                                     noise_std=1.0, seed=3))[:2]


def test_every_sketch_kind_is_traced(tracer_mod):
    # A kind the benchmark cannot trace would go unmeasured.
    assert set(KINDS) == set(tracer_mod.SKETCH_KINDS)


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


def test_ground_truth_traces_one_qr_and_no_solver(tracer_mod):
    # The set-up's oracle time shows as its QR (and ball prox) spans; it
    # runs no solver, so no solvers.* span fires under it.
    a, b = tiny_problem()
    sets = [make_feasible_set(a, b, c, radius_scale=0.5) for c in ("none", "l1", "l2")]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        for w in sets:
            bench_mod.ground_truth(a, b, w)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("bench.ground_truth") == names.count("linalg.qr_thin") == 3
    assert {"feasible.prox.l1", "feasible.prox.l2"} <= set(names)
    assert not [name for name in names if name.startswith("solvers.")]


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


@pytest.mark.parametrize("name", ["ihs-fixed", "ihs"])
def test_threaded_gaussian_sketch_is_traced_once_and_bitwise(tracer_mod, monkeypatch, name):
    # The benchmark's determinism check compares traced and untraced
    # iterates; Gaussian panels filled on two threads must not move them,
    # and the threads must not touch the tracer's span stack. Installing
    # the tracer raises WrapTargetMissing when a wrapped name is gone.
    force_workers(monkeypatch, 2)
    drawn = []

    def counting_make_sketch(kind, s, n, seed, _make=precond_mod.make_sketch):
        drawn.append(kind)
        return _make(kind, s, n, seed)

    monkeypatch.setattr(precond_mod, "make_sketch", counting_make_sketch)
    # 150 rows: three panels, so a pool fills them.
    cfg = SolverConfig(iterations=5, seed=2, sketch_kind="gaussian", sketch_size=150)
    w = FeasibleSet.unconstrained(4)
    tracer, traced = traced_solve(tracer_mod, name, w, cfg)
    sketches_traced = len(drawn)
    plain = SOLVERS[name](*tiny_problem(), w, cfg)
    np.testing.assert_array_equal(traced.final_x, plain.final_x)
    assert traced.iterations_run == plain.iterations_run
    assert set(drawn) == {"gaussian"}
    spans = [span for span in tracer.spans if span[0] == "sketches.apply.gaussian"]
    assert len(spans) == sketches_traced == (
        1 if name == "ihs-fixed" else traced.iterations_run)


def test_threaded_hadamard_and_u_pass_are_traced_once_and_bitwise(tracer_mod, monkeypatch):
    # The FWHT, sign pass and U pass on two threads must neither move
    # the iterates nor add spans: workers call no wrapped name, so
    # linalg.fwht fires once per transform (A, then b).
    force_workers(monkeypatch, 2)
    cfg = SolverConfig(iterations=200, batch_size=4, seed=2)
    w = FeasibleSet.l2_ball(0.5, 4)
    tracer, traced = traced_solve(tracer_mod, "hdpwbatch", w, cfg)
    plain = SOLVERS["hdpwbatch"](*tiny_problem(), w, cfg)
    np.testing.assert_array_equal(traced.final_x, plain.final_x)
    np.testing.assert_array_equal(traced.final_x_avg, plain.final_x_avg)
    assert [span[0] for span in tracer.spans].count("linalg.fwht") == 2
    assert tracer_mod.layer_metrics(tracer)["linalg.fwht.calls"] == 2


@pytest.mark.parametrize("name", LIBRARY_WORKLOADS)
def test_tiny_workload_fires_its_required_spans(tracer_mod, name):
    # A traced benchmark run fails when a required span never fires. Set
    # up as it does (the set-up is traced too), then run every job with
    # at most 20 iterations.
    wl = WORKLOADS.get(name, tiny=True)
    seed = WORKLOADS.DATASET_SEEDS[0]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        a, b, _ = gen_synthetic(DatasetSpec(n=wl.n, d=wl.d, target_kappa=wl.kappa,
                                            noise_std=wl.noise_std, seed=seed))
        sets, f_star = {}, {}
        for key, (constraint, scale) in wl.sets.items():
            sets[key] = make_feasible_set(a, b, constraint, radius_scale=scale)
            f_star[key] = ground_truth(a, b, sets[key], seed=seed)[1]
        for job in wl.jobs:
            config = dict(job.config, iterations=min(job.config.get("iterations", 20), 20))
            cfg = SolverConfig(seed=1, stop_below_rel=job.target, **config)
            SOLVERS[job.solver](a, b, sets[job.feasible], cfg, f_star=f_star[job.feasible])
    finally:
        tracer.uninstall()
    assert set(wl.required_spans) - tracer.fired() == set()
