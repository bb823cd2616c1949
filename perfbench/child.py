"""Workload process of the sketchreg benchmark.

Run by ``run.py`` with the BLAS thread count already set in the
environment and ``src`` on ``PYTHONPATH``:

    python3 perfbench/child.py <setup|measure|trace> <spec.json>

It prints one JSON object on its last stdout line. ``setup`` times the
workload's set-up and saves the problem into the work directory;
``measure`` loads it, runs one warm-up call per job, reads the peak RSS
and runs the timed pass; ``trace`` sets up, then runs the same rounds
untraced and traced.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

import tracer as tracing
import workloads
from workloads import CliWorkload, LibraryWorkload

ROOT = Path(__file__).resolve().parent.parent

from sketchreg import bench, cli, solvers  # noqa: E402  (PYTHONPATH set by run.py)
from sketchreg.errors import SketchRegError  # noqa: E402

PREDICTIONS = {
    # workload -> (job, layer predicted to have the largest self time)
    "tall-lowprec": (("hdpwbatch", "linalg.fwht"), ("hdpwacc", "linalg.fwht")),
    "illcond-highprec": (("pwgrad", "linalg.fwht"),
                         ("ihs-fixed", "sketches.apply.gaussian"),
                         ("ihs", "sketches.apply.countsketch")),
    "ball-constrained": (("pwgrad", "feasible.prox.l1"),
                         ("hdpwacc", "feasible.prox.l2"),
                         ("sgd", "solvers.sgd")),
}


def solver_seed(run_seed: int, round_index: int) -> int:
    """Seed of round ``round_index`` (-1 is the warm-up round)."""
    return 1000 * run_seed + round_index + 1




# ---------------------------------------------------------------- library


class Problem(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    sets: dict  # feasible-set key -> FeasibleSet
    f_star: dict  # feasible-set key -> optimal objective


def setup_library(wl: LibraryWorkload, seed: int) -> Problem:
    """gen_synthetic, make_feasible_set and ground_truth for every set."""
    spec = bench.DatasetSpec(n=wl.n, d=wl.d, target_kappa=wl.kappa,
                             noise_std=wl.noise_std, seed=seed)
    a, b, _ = bench.gen_synthetic(spec)
    sets, f_star = {}, {}
    for key, (constraint, scale) in wl.sets.items():
        sets[key] = bench.make_feasible_set(a, b, constraint, radius_scale=scale)
        f_star[key] = bench.ground_truth(a, b, sets[key], seed=seed)[1]
    return Problem(a, b, sets, f_star)


def save_problem(problem: Problem, work: Path, index: int) -> None:
    np.save(work / f"a{index}.npy", problem.a)
    np.save(work / f"b{index}.npy", problem.b)
    meta = {key: [w.kind, w.dim, w.radius, problem.f_star[key]]
            for key, w in problem.sets.items()}
    (work / f"problem{index}.json").write_text(json.dumps(meta))


def load_problem(work: Path, index: int) -> Problem:
    from sketchreg.feasible import FeasibleSet
    meta = json.loads((work / f"problem{index}.json").read_text())
    sets = {key: FeasibleSet(kind=kind, dim=dim, radius=radius)
            for key, (kind, dim, radius, _) in meta.items()}
    f_star = {key: row[3] for key, row in meta.items()}
    return Problem(np.load(work / f"a{index}.npy"), np.load(work / f"b{index}.npy"),
                   sets, f_star)


def digest(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


def run_job(problem: Problem, job, seed: int, tracer=None) -> dict:
    """One timed solver call, then the correctness gate outside the timer."""
    w, f_star = problem.sets[job.feasible], problem.f_star[job.feasible]
    cfg = solvers.SolverConfig(seed=seed, stop_below_rel=job.target, **job.config)
    if tracer is not None:
        tracer.job = f"{job.solver}#{seed}"
    outcome = {"job": job.solver, "seed": seed}
    tic = time.perf_counter()
    try:
        report = solvers.SOLVERS[job.solver](problem.a, problem.b, w, cfg, f_star=f_star)
    except SketchRegError as exc:
        outcome.update(seconds=time.perf_counter() - tic, ok=False,
                       error=f"{type(exc).__name__}: {exc}")
        return outcome
    finally:
        if tracer is not None:
            tracer.job = None
    outcome["seconds"] = time.perf_counter() - tic
    x = report.final_x_avg if job.solver in tracing.SGD_FAMILY else report.final_x
    outcome.update(gate(problem.a, problem.b, w, f_star, x, job.target))
    outcome["iterations"] = report.iterations_run
    return outcome


def gate(a, b, w, f_star, x, target) -> dict:
    """Recompute the exact objective of ``x`` against the oracle f*."""
    if not np.isfinite(x).all():
        return {"ok": False, "error": "non-finite iterate", "digest": digest(x)}
    resid = a @ x - b
    rel = (float(resid @ resid) - f_star) / f_star
    ok = rel <= target and w.contains(x, tol=1e-9)
    result = {"ok": bool(ok), "rel_err": rel, "digest": digest(x)}
    if not ok:
        result["error"] = f"relative error {rel:.3e} vs target {target:.1e}" \
            if rel > target else "iterate outside the feasible set"
    return result


def stall_probe(wl: LibraryWorkload, seed: int) -> dict:
    """ground_truth for an l1 ball on a higher-kappa copy of the problem;
    today it raises InnerSolverStallError, which counts as a failure."""
    probe = replace(wl, kappa=wl.stall_probe_kappa, sets={"l1": ("l1", 0.5)})
    tic = time.perf_counter()
    try:
        setup_library(probe, seed)
    except SketchRegError as exc:
        return {"job": "l1-oracle-probe", "ok": False, "seconds": time.perf_counter() - tic,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"job": "l1-oracle-probe", "ok": True, "seconds": time.perf_counter() - tic}


def library_round(problem, wl, seed, tracer=None) -> list[dict]:
    return [run_job(problem, job, seed, tracer) for job in wl.jobs]


# -------------------------------------------------------------------- cli


CLI_PATTERNS = {
    "solve": re.compile(r"^solver=(\S+) .*\nfinal relative error = (\S+)$", re.M),
    "bench": re.compile(r"^\s*(\S+)\s+(\S+)\s+\S+\s+\S+$", re.M),
    "diag": re.compile(r"^kappa\(A R\^-1\)\s*=\s*(\S+)$", re.M),
}


def cli_argv(job, data: Path, work: Path, seed: int) -> list[str]:
    argv = [*job.argv, "--data", str(data), "--seed", str(seed)]
    if job.metric == "bench":
        argv += ["--out-dir", str(work / "bench-out")]
    return argv


def cli_gate(wl: CliWorkload, job, code: int, out: str) -> dict:
    """A CLI call fails when it exits non-zero or misses its target."""
    # Timing lines differ between runs; everything else must not.
    stable = "\n".join(line for line in out.splitlines() if "wall time" not in line)
    result = {"ok": False, "digest": hashlib.sha256(stable.encode()).hexdigest()[:16]}
    if code != 0:
        result["error"] = f"exit code {code}"
        return result
    errors = {}
    if job.metric == "diag":
        found = CLI_PATTERNS["diag"].findall(out)
        errors = {"kappa(A R^-1)": found[0] if found else "missing"}
        if found and float(found[0]) <= wl.max_conditioned_kappa:
            errors = {}
    else:
        if job.metric == "solve":
            found = dict(CLI_PATTERNS["solve"].findall(out))
        else:
            found = {name: rel for name, rel in CLI_PATTERNS["bench"].findall(out)
                     if name in job.targets}
        for name, target in job.targets.items():
            if name not in found or not float(found[name]) <= target:
                errors[name] = found.get(name, "missing")
    result["ok"] = not errors
    if errors:
        result["error"] = f"relative errors {errors} miss targets {job.targets}"
    return result


def run_cli_process(argv: list[str], tracer=None, job_id=None) -> tuple[int, str, float]:
    """Wall time of a fresh ``python -m sketchreg.cli`` process (untraced)."""
    tic = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sketchreg.cli", *argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=150)
    return proc.returncode, proc.stdout + proc.stderr, time.perf_counter() - tic


def run_cli_inprocess(argv: list[str], tracer=None, job_id=None) -> tuple[int, str, float]:
    buf = io.StringIO()
    if tracer is not None:
        tracer.job = job_id
    tic = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.job = None
    return code, buf.getvalue(), time.perf_counter() - tic


def cli_round(wl, data, work, seed, runner, tracer=None) -> list[dict]:
    outcomes = []
    for job in wl.jobs:
        code, out, seconds = runner(cli_argv(job, data, work, seed), tracer,
                                    f"{job.name}#{seed}")
        outcome = {"job": job.name, "metric": job.metric, "seed": seed, "seconds": seconds}
        outcome.update(cli_gate(wl, job, code, out))
        outcomes.append(outcome)
    return outcomes


def gen_argv(wl: CliWorkload, seed: int, out: Path) -> list[str]:
    return ["gen", "--n", str(wl.n), "--d", str(wl.d), "--kappa", str(wl.kappa),
            "--noise-std", str(wl.noise_std), "--seed", str(seed), "--out", str(out)]


# ----------------------------------------------------------------- passes


def timed_pass(round_fn, seconds: float) -> tuple[list[dict], int]:
    """Whole rounds ``round_fn(0), round_fn(1), ...`` for about ``seconds``."""
    outcomes, rounds, start, last = [], 0, time.perf_counter(), 0.0
    while rounds == 0 or time.perf_counter() - start + 0.5 * last < seconds:
        tic = time.perf_counter()
        outcomes += round_fn(rounds)
        last = time.perf_counter() - tic
        rounds += 1
    return outcomes, rounds


def env_stamp(spec: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": spec["seed"], "commit": spec["commit"]}


def peak_rss_bytes(children: bool = False) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024  # ru_maxrss is KiB on Linux


def mode_setup(wl, spec, work: Path) -> dict:
    """Set up every dataset once, after one untimed warm-up set-up."""
    def setup(index, seed):
        if isinstance(wl, CliWorkload):
            code, out, _ = run_cli_process(gen_argv(wl, seed, work / f"data{index}.csv"))
            if code != 0:
                raise RuntimeError(f"sketchreg gen failed: {out}")
            return None
        return setup_library(wl, seed)

    setup(0, workloads.DATASET_SEEDS[0])
    times = []
    for index, seed in enumerate(workloads.DATASET_SEEDS):
        tic = time.perf_counter()
        problem = setup(index, seed)
        times.append(time.perf_counter() - tic)
        if problem is not None:
            save_problem(problem, work, index)
    return {"setup_times": times}


def mode_measure(wl, spec, work: Path) -> dict:
    """Warm-up and peak RSS on the first dataset, then the timed pass.

    Round i runs every job on every dataset with solver seed i, so each
    run weighs the datasets equally."""
    seed, result = spec["seed"], {"env": env_stamp(spec)}
    warm_seed = solver_seed(seed, -1)
    if isinstance(wl, CliWorkload):
        data = [work / f"data{i}.csv" for i in range(len(workloads.DATASET_SEEDS))]
        warm = cli_round(wl, data[0], work, warm_seed, run_cli_process)
        result["peak_rss_ratio"] = peak_rss_bytes(children=True) / (wl.n * wl.d * 8)

        def round_fn(i):
            return [o for csv in data
                    for o in cli_round(wl, csv, work, solver_seed(seed, i), run_cli_process)]
    else:
        problems = [load_problem(work, 0)]
        warm = library_round(problems[0], wl, warm_seed)
        result["peak_rss_ratio"] = peak_rss_bytes() / problems[0].a.nbytes
        problems += [load_problem(work, i) for i in range(1, len(workloads.DATASET_SEEDS))]

        def round_fn(i):
            return [o for problem in problems
                    for o in library_round(problem, wl, solver_seed(seed, i))]
    result["warmup"] = warm
    result["outcomes"], result["rounds"] = timed_pass(round_fn, spec["seconds"])
    if getattr(wl, "stall_probe_kappa", None):
        result["probes"] = [stall_probe(wl, workloads.DATASET_SEEDS[0])]
    return result


def median_import_seconds(repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import sketchreg.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def mode_trace(wl, spec, work: Path) -> dict:
    """One dataset: traced set-up, warm-up, then the same rounds untraced
    and traced."""
    seed, data_seed = spec["seed"], workloads.DATASET_SEEDS[0]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.job = "setup"
        if isinstance(wl, CliWorkload):
            data = work / "data0.csv"
            code, out, _ = run_cli_inprocess(gen_argv(wl, data_seed, data), tracer, "setup")
            if code != 0:
                raise RuntimeError(f"sketchreg gen failed: {out}")

            def round_fn(i, t=None):
                return cli_round(wl, data, work, solver_seed(seed, i), run_cli_inprocess, t)
        else:
            problem = setup_library(wl, data_seed)

            def round_fn(i, t=None):
                return library_round(problem, wl, solver_seed(seed, i), t)
        probes = [stall_probe(wl, data_seed)] if getattr(wl, "stall_probe_kappa", None) else []
        tracer.job = None
        tracer.uninstall()
        warm = round_fn(-1)
        untraced, rounds = timed_pass(round_fn, spec["seconds"] / 2)
        tracing.install(tracer)
        traced = [o for i in range(rounds) for o in round_fn(i, tracer)]
    finally:
        tracer.uninstall()
    Path(spec["spans_out"]).write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}))
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = median_import_seconds() if isinstance(wl, CliWorkload) else 0.0
    metrics["trace_overhead"] = (sum(o["seconds"] for o in traced)
                                 / sum(o["seconds"] for o in untraced))
    fired = tracer.fired()
    missing = [name for name in wl.required_spans if name not in fired]
    mismatched = [f"{u['job']}#{u['seed']}" for u, t in zip(untraced, traced)
                  if u.get("digest") != t.get("digest")]
    predictions = []
    for job, layer in PREDICTIONS.get(wl.name, ()):
        top = tracing.shares(tracer, f"{job}#")
        leader = next(iter(top), None)
        predictions.append({"job": job, "layer": layer, "share": top.get(layer, 0.0),
                            "largest": leader, "holds": leader == layer})
    return {"env": env_stamp(spec), "metrics": metrics, "warmup": warm,
            "outcomes": untraced + traced, "probes": probes, "rounds": rounds,
            "missing_spans": missing, "digest_mismatches": mismatched,
            "predictions": predictions}


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work"])
    wl = workloads.get(spec["workload"], tiny=spec["tiny"])
    src = Path(bench.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise RuntimeError(f"sketchreg imported from {src}, not from this checkout")
    handler = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}[mode]
    print(json.dumps(handler(wl, spec, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
