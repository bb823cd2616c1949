"""Span tracing of the sketchreg layers from outside the package.

The package imports names by value, so each function is wrapped at the
attribute its caller looks up (``solvers.qr_thin``, ``precond.apply``,
...). Spans are kept in memory; self time is a span's duration minus the
time its direct children cover. ``project_l1_ball`` runs millions of
times, so it is counted and gets no span.
"""

import functools
import math
import time
from collections import Counter

SOLVER_NAMES = ("hdpwbatch", "hdpwacc", "pwgrad", "ihs", "ihs-fixed", "sgd")
SKETCH_KINDS = ("srht", "gaussian", "countsketch")
PROX_KINDS = {"unconstrained": "unconstrained", "l2_ball": "l2", "l1_ball": "l1"}
SGD_FAMILY = ("hdpwbatch", "hdpwacc", "sgd")


class WrapTargetMissing(RuntimeError):
    """A function the tracer wraps no longer exists where callers look it up."""


class Tracer:
    """Records spans ``[name, start, end, parent, job]`` and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name, on_result=None, on_error=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments.
        """
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fixed or name(args, kwargs), tracer.clock(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by
        ``make(original)``; raise WrapTargetMissing when it is gone."""
        is_dict = isinstance(owner, dict)
        if (attr not in owner) if is_dict else not hasattr(owner, attr):
            label = getattr(owner, "__name__", type(owner).__name__)
            raise WrapTargetMissing(f"{label}.{attr} no longer exists")
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = make(original)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, is_dict))

    def uninstall(self):
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}


def install(tracer: Tracer) -> None:
    """Wrap every public layer function of sketchreg at its call sites."""
    from sketchreg import bench, cli, errors, feasible, linalg, precond, sketches, solvers

    span = tracer.wrap

    def fwht_flops(args, kwargs, result):
        v = args[0]
        cols = math.prod(v.shape[1:])
        tracer.counters["linalg.fwht.flops"] += v.shape[0] * cols * math.log2(v.shape[0])

    for owner in (linalg, sketches, precond):
        tracer.patch(owner, "fwht_inplace",
                     lambda f: span(f, "linalg.fwht", on_result=fwht_flops))
    for owner in (linalg, solvers, precond, bench):
        tracer.patch(owner, "qr_thin", lambda f: span(f, "linalg.qr_thin"))
    for owner in (linalg, solvers, bench, cli):
        tracer.patch(owner, "tri_solve", lambda f: span(f, "linalg.tri_solve"))
    for owner in (sketches, solvers, precond):
        tracer.patch(owner, "apply", lambda f: span(
            f, lambda a, k: f"sketches.apply.{a[0].kind}"))
    for owner in (precond, solvers):
        tracer.patch(owner, "build_preconditioner",
                     lambda f: span(f, "precond.build_preconditioner"))
    for owner in (precond, cli):
        tracer.patch(owner, "build_hd", lambda f: span(f, "precond.build_hd"))
        tracer.patch(owner, "build_r", lambda f: span(f, "precond.build_r"))

    def count_stall(exc):
        if isinstance(exc, errors.InnerSolverStallError):
            tracer.counters["feasible.stalls"] += 1

    tracer.patch(feasible.RMetricProx, "solve", lambda f: span(
        f, lambda a, k: f"feasible.prox.{PROX_KINDS[a[0].w.kind]}",
        on_error=count_stall))
    tracer.patch(feasible, "project_l1_ball",
                 lambda f: tracer.count(f, "feasible.l1_projections"))

    for attr in ("_smoothness_bounds", "_sampled_gradient_variance",
                 "_stochastic_smoothness"):
        tracer.patch(solvers, attr, lambda f: span(f, "solvers.estimate"))
    tracer.patch(solvers, "objective_value", lambda f: span(f, "solvers.trace_eval"))

    def solver_span(key):
        def count_iters(args, kwargs, report):
            tracer.counters[f"solvers.{key}.iters"] += report.iterations_run
        return lambda f: span(f, f"solvers.{key}", on_result=count_iters)

    # bench, cli and solvers share this one dict object.
    for key in SOLVER_NAMES:
        tracer.patch(solvers.SOLVERS, key, solver_span(key))
    tracer.patch(bench, "pw_gradient", solver_span("pwgrad"))

    for attr in ("gen_synthetic", "ground_truth", "load_csv", "save_dataset_csv"):
        tracer.patch(bench, attr, lambda f, attr=attr: span(f, f"bench.{attr}"))
    for attr, label in (("cmd_solve", "solve"), ("cmd_diag", "diag"),
                        ("cmd_bench", "bench")):
        tracer.patch(cli, attr, lambda f, label=label: span(f, f"cli.{label}"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order.

    ``solvers.<solver>.loop_self_s`` is the self time of the solver's own
    span, i.e. its loop outside every wrapped layer; ``us_per_iter``
    divides it by the iterations run. ``us_per_call`` is a prox kind's
    self time per call, its l1 projections included.
    """
    names = [("linalg.fwht.calls", "count"), ("linalg.fwht.self_s", "s"),
             ("linalg.fwht.gflops", "GFLOP/s")]
    for layer in ("linalg.qr_thin", "linalg.tri_solve"):
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    for kind in SKETCH_KINDS:
        names += [(f"sketches.apply.{kind}.calls", "count"),
                  (f"sketches.apply.{kind}.self_s", "s")]
    names += [("precond.build_preconditioner.calls", "count"),
              ("precond.build_preconditioner.self_s", "s"),
              ("precond.build_hd.calls", "count"), ("precond.build_hd.self_s", "s"),
              ("precond.build_r.calls", "count"), ("precond.retries", "count")]
    for kind in PROX_KINDS.values():
        names += [(f"feasible.prox.{kind}.calls", "count"),
                  (f"feasible.prox.{kind}.self_s", "s"),
                  (f"feasible.prox.{kind}.us_per_call", "us")]
    names += [("feasible.l1_projections", "count"), ("feasible.stalls", "count")]
    for solver in SOLVER_NAMES:
        names += [(f"solvers.{solver}.iters", "count"),
                  (f"solvers.{solver}.loop_self_s", "s"),
                  (f"solvers.{solver}.us_per_iter", "us")]
    names += [("solvers.estimate.self_s", "s"), ("solvers.trace_eval.calls", "count"),
              ("solvers.trace_eval.self_s", "s")]
    names += [(f"bench.{attr}.self_s", "s") for attr in
              ("gen_synthetic", "ground_truth", "load_csv", "save_dataset_csv")]
    names += [("cli.import_s", "s")]
    names += [(f"cli.{cmd}.self_s", "s") for cmd in ("solve", "diag", "bench")]
    names += [("trace_overhead", "x")]
    return names


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans and counters into the per-layer metrics (without
    ``cli.import_s`` and ``trace_overhead``, which are measured apart)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_s[name] += own
    # A build_r beyond the first under one build_preconditioner is a retry.
    r_parents = [span[3] for span in tracer.spans if span[0] == "precond.build_r"
                 and span[3] >= 0
                 and tracer.spans[span[3]][0] == "precond.build_preconditioner"]

    def per(total, count, scale):
        return scale * total / count if count else 0.0

    out = {}
    fwht_s = self_s["linalg.fwht"]
    out["linalg.fwht.calls"] = calls["linalg.fwht"]
    out["linalg.fwht.self_s"] = fwht_s
    out["linalg.fwht.gflops"] = per(tracer.counters["linalg.fwht.flops"], fwht_s, 1e-9)
    for layer in ("linalg.qr_thin", "linalg.tri_solve"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for kind in SKETCH_KINDS:
        out[f"sketches.apply.{kind}.calls"] = calls[f"sketches.apply.{kind}"]
        out[f"sketches.apply.{kind}.self_s"] = self_s[f"sketches.apply.{kind}"]
    for layer in ("precond.build_preconditioner", "precond.build_hd"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["precond.build_r.calls"] = calls["precond.build_r"]
    out["precond.retries"] = len(r_parents) - len(set(r_parents))
    for kind in PROX_KINDS.values():
        name = f"feasible.prox.{kind}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_per_call"] = per(self_s[name], calls[name], 1e6)
    out["feasible.l1_projections"] = tracer.counters["feasible.l1_projections"]
    out["feasible.stalls"] = tracer.counters["feasible.stalls"]
    for solver in SOLVER_NAMES:
        iters = tracer.counters[f"solvers.{solver}.iters"]
        out[f"solvers.{solver}.iters"] = iters
        out[f"solvers.{solver}.loop_self_s"] = self_s[f"solvers.{solver}"]
        out[f"solvers.{solver}.us_per_iter"] = per(self_s[f"solvers.{solver}"], iters, 1e6)
    out["solvers.estimate.self_s"] = self_s["solvers.estimate"]
    out["solvers.trace_eval.calls"] = calls["solvers.trace_eval"]
    out["solvers.trace_eval.self_s"] = self_s["solvers.trace_eval"]
    for attr in ("gen_synthetic", "ground_truth", "load_csv", "save_dataset_csv"):
        out[f"bench.{attr}.self_s"] = self_s[f"bench.{attr}"]
    for cmd in ("solve", "diag", "bench"):
        out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
    return out


def shares(tracer: Tracer, job_prefix: str) -> dict[str, float]:
    """Self time per span name as a share of the root spans' total time,
    over spans whose job id starts with ``job_prefix``."""
    own: Counter = Counter()
    total = 0.0
    for span, t in zip(tracer.spans, tracer.self_times()):
        if span[4] is None or not span[4].startswith(job_prefix):
            continue
        own[span[0]] += t
        if span[3] < 0:
            total += span[2] - span[1]
    return {name: t / total for name, t in own.most_common()} if total else {}
