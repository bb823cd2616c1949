"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py

They cover the metric report of a tiny-size pass of every workload, the
self-time arithmetic of nested spans, the wrapper guard, and the
correctness gate of a solve that cannot reach its target.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_reports_every_metric_with_its_unit(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        return
    wl = workloads.get(name, tiny=True)
    named = {"tts_s": "s", "solves_per_s": "1/s", "setup_s": "s",
             "peak_rss_ratio": "x", "fail_share": "fraction"}
    if isinstance(wl, workloads.CliWorkload):
        named.update({f"cli_s.{m}": "s" for m in ("solve", "diag", "bench")})
    else:
        named.update({f"tts_s.{job.solver}": "s" for job in wl.jobs})
    rows = {line.split()[0]: line.split()[2:] for line in lines if line.startswith("  ")}
    for metric, unit in named.items():
        assert rows[metric][0] == unit and rows[metric][1].startswith("n=")


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 6.5, 6.8, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        pass

    grandchild = tracer.wrap(leaf, "grandchild")
    inner = tracer.wrap(leaf, "inner")
    middle = tracer.wrap(grandchild, "middle")

    def body():
        inner()
        middle()

    tracer.wrap(body, "outer")()
    own = dict(zip((s[0] for s in tracer.spans), tracer.self_times()))
    assert own == pytest.approx({"outer": 6.0, "inner": 3.0, "middle": 0.7,
                                 "grandchild": 0.3})


def test_wrapper_guard_names_a_missing_function():
    moved = types.ModuleType("sketchreg.moved")
    with pytest.raises(tracing.WrapTargetMissing, match="sketchreg.moved.fwht_inplace"):
        tracing.Tracer().patch(moved, "fwht_inplace", lambda f: f)


def test_job_capped_at_one_iteration_fails():
    import child

    wl = workloads.get("tall-lowprec", tiny=True)
    problem = child.setup_library(wl, seed=1)
    capped = workloads.Job("hdpwbatch", "rd", 1e-3,
                           dict(batch_size=8, iterations=1, record_every=1))
    outcome = child.run_job(problem, capped, seed=1)
    assert not outcome["ok"] and "relative error" in outcome["error"]
    assert child.run_job(problem, wl.jobs[0], seed=1)["ok"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
