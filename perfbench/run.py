"""Benchmark of sketchreg: time to target per solver, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. ``--trace 0`` times set-up, one warm-up
call per job and a closed-loop pass of whole rounds (one call of each job
per round, a fresh solver seed per round), checks every returned iterate
against the oracle, and reports the end-to-end metrics. ``--trace 1``
runs the same rounds untraced and then with every layer wrapped, and
reports the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give every metric by name with its unit and sample count. ``--workload
all`` runs each workload in turn and exits non-zero when any correctness
check fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; leave room for start-up and clean-up.
DEADLINE_S = 170.0

CONTRACT_E2E = (("tts_s", "s"), ("solves_per_s", "1/s"), ("setup_s", "s"),
                ("peak_rss_ratio", "x"))


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = os.environ.copy()
    threads = str(min(workloads.BLAS_THREADS_MAX, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, spec_path: Path, deadline: float) -> dict:
    """Run child.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), mode, str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} did not finish within the run's time limit")
    except BaseException:  # interrupted or terminated: take the children along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(wl, measure: dict) -> tuple[list, dict]:
    """Rows (name, value, unit, samples) and the contract metrics."""
    timed = measure["outcomes"]
    probes = measure.get("probes", [])
    is_cli = isinstance(wl, workloads.CliWorkload)
    job_names = [job.name if is_cli else job.solver for job in wl.jobs]
    per_job = {name: [o["seconds"] for o in timed if o["job"] == name and o["ok"]]
               for name in job_names}
    rows = []
    if is_cli:
        for metric in ("solve", "diag", "bench"):
            samples = [o["seconds"] for o in timed if o["metric"] == metric and o["ok"]]
            rows.append((f"cli_s.{metric}", median_or_zero(samples), "s", len(samples)))
    else:
        for name in job_names:
            rows.append((f"tts_s.{name}", median_or_zero(per_job[name]), "s",
                         len(per_job[name])))
    medians = [median_or_zero(v) for v in per_job.values()]
    tts = math.exp(statistics.fmean(math.log(m) for m in medians)) if all(medians) else 0.0
    ok_ops = sum(o["ok"] for o in timed)
    busy = sum(o["seconds"] for o in timed)
    attempted = len(timed) + len(probes)
    failed = sum(not o["ok"] for o in timed + probes)
    contract = {
        "tts_s": tts,
        "solves_per_s": ok_ops / busy,
        "setup_s": statistics.median(measure["setup_times"]),
        "peak_rss_ratio": measure["peak_rss_ratio"],
    }
    rows += [("tts_s", tts, "s", len(timed)),
             ("solves_per_s", contract["solves_per_s"], "1/s", len(timed)),
             ("setup_s", contract["setup_s"], "s", len(measure["setup_times"])),
             ("peak_rss_ratio", contract["peak_rss_ratio"], "x", 1),
             ("fail_share", failed / attempted, "fraction", attempted)]
    return rows, contract


def run_workload(name: str, args) -> bool:
    wl = workloads.get(name, tiny=args.tiny)
    deadline = time.monotonic() + DEADLINE_S
    work = BENCH_DIR / ".work" / f"{name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = results_dir / f"{name}-seed{args.seed}-trace{args.trace}"
    spec = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "tiny": args.tiny, "work": str(work), "commit": git_commit(),
            "spans_out": f"{stem}-spans.json"}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        if args.trace:
            result = run_child("trace", spec_path, deadline)
        else:
            setup_times = run_child("setup", spec_path, deadline)["setup_times"]
            result = run_child("measure", spec_path, deadline)
            result["setup_times"] = setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes = result["outcomes"]

    failures = [o for o in result["warmup"] + outcomes if not o["ok"]]
    correct = not failures
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  rounds {result['rounds']}")
    print(f"env {json.dumps(result['env'])}")
    for o in failures:
        print(f"FAILED {o['job']} seed {o['seed']}: {o.get('error')}")
    for o in result.get("probes", []):
        verdict = "ok" if o["ok"] else f"failed ({o['error'].splitlines()[0]})"
        print(f"probe {o['job']}: {verdict}")
    if args.trace:
        metrics = result["metrics"]
        units = dict(tracing.per_layer_names())
        for key in units:
            print(f"  {key:<40} {metrics[key]:>14.6g} {units[key]}")
        for p in result["predictions"]:
            verdict = "holds" if p["holds"] else f"does NOT hold (largest: {p['largest']})"
            print(f"prediction {p['job']}: {p['layer']} has the largest self time "
                  f"({p['share']:.1%}): {verdict}")
        for missing in result["missing_spans"]:
            print(f"FAILED wrapper guard: span {missing} never fired")
        for job in result["digest_mismatches"]:
            print(f"FAILED determinism: traced and untraced iterates differ for {job}")
        correct = correct and not result["missing_spans"] and not result["digest_mismatches"]
        reported = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    else:
        rows, contract = end_to_end(wl, result)
        for key, value, unit, samples in rows:
            print(f"  {key:<20} {value:>14.6g} {unit:<8} n={samples}")
        reported = {key: {"value": contract[key], "unit": unit} for key, unit in CONTRACT_E2E}
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": sum(not o["ok"] for o in outcomes), "metrics": reported}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "sketchreg" / "__init__.py").is_file():
        print(f"error: no sketchreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        correct = [run_workload(name, args) for name in names]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
