"""Command-line front end: dataset generation, solving, benchmarking,
and preconditioning diagnostics.

Exit codes: 0 success, 2 input/usage errors, 3 numerical failures.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench
from .errors import (
    DegenerateOptimumError,
    DivergenceError,
    EpochBudgetError,
    InnerSolverStallError,
    OracleDisagreementError,
    RankDeficientError,
    SingularFactorError,
    SketchRegError,
)
from .linalg import condition_number, tri_solve
from .precond import build_hd, build_r, row_norm_spread
from .sketches import KINDS, embedding_distortion, make_sketch
from .solvers import SOLVERS, SolverConfig, resolve_sketch_size

DEFAULT_SEED = 1729

_INPUT_ERRORS = (OSError, ValueError)
_NUMERICAL_ERRORS = (RankDeficientError, SingularFactorError,
                     InnerSolverStallError, EpochBudgetError,
                     OracleDisagreementError, DegenerateOptimumError,
                     DivergenceError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchreg",
        description="Sketch-preconditioned solvers for constrained least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--n", type=float, required=True, help="rows")
    gen.add_argument("--d", type=float, required=True, help="columns")
    gen.add_argument("--kappa", type=float, default=1.0, help="target condition number")
    gen.add_argument("--noise-std", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True, help="output CSV path")

    solve = sub.add_parser("solve", help="run one solver on a dataset")
    solve.add_argument("--data", required=True, help="CSV with d+1 columns, last is b")
    solve.add_argument("--normalize", action="store_true",
                       help="zero-mean/unit-variance feature columns")
    solve.add_argument("--solver", required=True, choices=sorted(SOLVERS))
    solve.add_argument("--constraint", choices=["none", "l1", "l2"], default="none")
    solve.add_argument("--radius-scale", type=float, default=1.0)
    solve.add_argument("--sketch", default="srht", choices=KINDS)
    solve.add_argument("--sketch-size", type=float, default=None)
    solve.add_argument("--batch", type=int, default=1, help="mini-batch size r")
    solve.add_argument("--iters", type=int, default=1000)
    solve.add_argument("--eta", default="auto",
                       help="step size (float or 'auto'; pwgrad auto = 1/2, ihs auto = 1)")
    solve.add_argument("--epochs", type=int, default=8)
    solve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    solve.add_argument("--diameter-bound", type=float, default=None,
                       help="norm bound standing in for D_W on unconstrained runs")
    solve.add_argument("--record-every", type=int, default=None)
    solve.add_argument("--trace-out", default=None, help="trace CSV path")

    bch = sub.add_parser("bench", help="multi-solver / batch-sweep experiment")
    bch.add_argument("--config", default=None, help="YAML config (overrides flags)")
    bch.add_argument("--data", default=None, help="CSV dataset (else synthetic)")
    bch.add_argument("--n", type=float, default=8192)
    bch.add_argument("--d", type=float, default=20)
    bch.add_argument("--kappa", type=float, default=1e3)
    bch.add_argument("--noise-std", type=float, default=0.1)
    bch.add_argument("--constraint", choices=["none", "l1", "l2"], default="none")
    bch.add_argument("--radius-scale", type=float, default=1.0)
    bch.add_argument("--solvers", default="hdpwbatch,pwgrad",
                     help="comma-separated solver names")
    bch.add_argument("--batch-sweep", default=None,
                     help="comma-separated batch sizes to sweep for hdpwbatch")
    bch.add_argument("--iters", type=int, default=2000)
    bch.add_argument("--batch", type=int, default=1)
    bch.add_argument("--epochs", type=int, default=8)
    bch.add_argument("--eta", default="auto")
    bch.add_argument("--sketch", default="srht", choices=KINDS)
    bch.add_argument("--sketch-size", type=float, default=None)
    bch.add_argument("--seeds", type=int, default=10, help="number of seeds per solver")
    bch.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bch.add_argument("--target", type=float, default=1e-2,
                     help="relative error target for the iterations-to-target table")
    bch.add_argument("--out-dir", required=True)

    diag = sub.add_parser("diag", help="preconditioning diagnostics for a dataset")
    diag.add_argument("--data", required=True)
    diag.add_argument("--sketch", default="srht", choices=KINDS)
    diag.add_argument("--sketch-size", type=float, default=None)
    diag.add_argument("--seed", type=int, default=DEFAULT_SEED)
    diag.add_argument("--trials", type=int, default=100,
                      help="random directions for the distortion estimate")

    return parser


def _parse_eta(raw) -> float | str:
    if isinstance(raw, (int, float)):
        return float(raw)
    if raw == "auto":
        return "auto"
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--eta must be a number or 'auto', got {raw!r}") from None


def _resolve_size(raw, n: int, kind: str) -> int | None:
    if raw is None:
        return None
    s = int(raw)
    if kind == "identity":
        return min(s, n)
    return s


def cmd_gen(args) -> int:
    n, d = int(args.n), int(args.d)
    spec = bench.DatasetSpec(n=n, d=d, target_kappa=args.kappa,
                             noise_std=args.noise_std, seed=args.seed)
    a, b, _ = bench.gen_synthetic(spec)
    bench.save_dataset_csv(args.out, a, b)
    print(f"wrote {n} rows x {d + 1} cols to {args.out}")
    print(f"measured kappa(A) = {condition_number(a):.6g}")
    return 0


def _load_problem(args):
    a, b = bench.load_csv(args.data, normalize=getattr(args, "normalize", False))
    w = bench.make_feasible_set(a, b, args.constraint,
                                radius_scale=args.radius_scale)
    return a, b, w


def cmd_solve(args) -> int:
    a, b, w = _load_problem(args)
    cfg = SolverConfig(
        iterations=args.iters,
        batch_size=args.batch,
        step_size=_parse_eta(args.eta),
        epochs=args.epochs,
        seed=args.seed,
        record_every=args.record_every,
        sketch_kind=args.sketch,
        sketch_size=_resolve_size(args.sketch_size, a.shape[0], args.sketch),
        diameter_bound=args.diameter_bound,
    )
    _, f_star = bench.ground_truth(a, b, w, seed=args.seed)
    tic = time.perf_counter()
    report = SOLVERS[args.solver](a, b, w, cfg, f_star=f_star)
    wall = time.perf_counter() - tic
    if args.trace_out:
        bench.write_trace_csv(args.trace_out, [(report.solver, args.seed, report)])
        print(f"trace written to {args.trace_out}")
    print(f"solver={report.solver} iterations={report.iterations_run} "
          f"stop={report.stop_reason}")
    print(f"final relative error = {report.final_relative_error:.6e}")
    print(f"wall time = {wall:.3f}s "
          f"(preconditioning {report.preconditioning_seconds:.3f}s)")
    return 0


def _bench_settings(args) -> dict:
    settings = {
        "n": int(args.n), "d": int(args.d), "kappa": args.kappa,
        "noise_std": args.noise_std, "constraint": args.constraint,
        "radius_scale": args.radius_scale, "data": args.data,
        "solvers": [s for s in args.solvers.split(",") if s],
        "batch_sweep": [int(v) for v in args.batch_sweep.split(",")]
        if args.batch_sweep else None,
        "iters": args.iters, "batch": args.batch, "epochs": args.epochs,
        "eta": args.eta, "sketch": args.sketch,
        "sketch_size": args.sketch_size, "seeds": args.seeds,
        "seed": args.seed, "target": args.target,
    }
    if args.config:
        # Imported here so that CLI runs without --config skip its start-up cost.
        import yaml

        with open(args.config, "r", encoding="utf-8") as handle:
            overrides = yaml.safe_load(handle) or {}
        unknown = set(overrides) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(overrides)
    return settings


def cmd_bench(args) -> int:
    cfg = _bench_settings(args)
    if not cfg["solvers"] and not cfg["batch_sweep"]:
        raise ValueError("empty solver list")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-test"
    probe.write_text("")
    probe.unlink()

    if cfg["data"]:
        a, b = bench.load_csv(cfg["data"])
    else:
        a, b, _ = bench.gen_synthetic(bench.DatasetSpec(
            n=cfg["n"], d=cfg["d"], target_kappa=cfg["kappa"], noise_std=cfg["noise_std"],
            seed=cfg["seed"], constraint=cfg["constraint"]))
    w = bench.make_feasible_set(a, b, cfg["constraint"], cfg["radius_scale"])
    _, f_star = bench.ground_truth(a, b, w, seed=cfg["seed"])

    base = SolverConfig(
        iterations=cfg["iters"], batch_size=cfg["batch"],
        step_size=_parse_eta(cfg["eta"]), epochs=cfg["epochs"],
        sketch_kind=cfg["sketch"],
        sketch_size=_resolve_size(cfg["sketch_size"], a.shape[0], cfg["sketch"]),
    )
    configs: dict[str, SolverConfig] = {name: base for name in cfg["solvers"]}
    if cfg["batch_sweep"]:
        for r in cfg["batch_sweep"]:
            configs[f"hdpwbatch@r={r}"] = replace(
                base, batch_size=r, iterations=max(1, cfg["iters"] // r))

    seeds = [cfg["seed"] + i for i in range(cfg["seeds"])]
    result = bench.run_experiment(a, b, w, configs, seeds=seeds, f_star=f_star)

    target = cfg["target"]
    print(f"f* = {f_star:.12e}")
    print(f"{'solver':>16} {'median rel-err':>15} {'best rel-err':>14} "
          f"{'median iters@{:g}'.format(target):>18}")
    crossings: dict[str, float] = {}
    for name in configs:
        runs = [rep for _, rep in result.runs[name]]
        med = result.median_final_error(name)
        best = result.best(name).final_relative_error
        iters = [bench.iterations_to_target(rep, target) for rep in runs]
        reached = sorted(i for i in iters if i is not None)
        med_iters = reached[len(reached) // 2] if len(reached) > len(iters) // 2 else None
        crossings[name] = med_iters
        print(f"{name:>16} {med:>15.6e} {best:>14.6e} "
              f"{str(med_iters if med_iters is not None else '--'):>18}")
        path = out_dir / f"{name.replace('@', '_').replace('=', '')}.csv"
        bench.write_trace_csv(path, [(name, seed, rep) for seed, rep in result.runs[name]])
    if cfg["batch_sweep"]:
        sweep = cfg["batch_sweep"]
        print("batch-size speedup (iterations-to-target ratios):")
        for lo, hi in zip(sweep, sweep[1:]):
            a_i, b_i = crossings.get(f"hdpwbatch@r={lo}"), crossings.get(f"hdpwbatch@r={hi}")
            ratio = a_i / b_i if a_i and b_i else float("nan")
            print(f"  r={lo} -> r={hi}: {ratio:.2f}x")
    print(f"traces written to {out_dir}")
    return 0


def cmd_diag(args) -> int:
    a, b = bench.load_csv(args.data)
    n, d = a.shape
    kind = args.sketch
    s = resolve_sketch_size(SolverConfig(
        sketch_kind=kind, sketch_size=_resolve_size(args.sketch_size, n, kind)),
        n, d, high_precision=False)
    sk = make_sketch(kind, s, n, args.seed)
    r = build_r(a, sk)
    u = tri_solve(r, a.T, transposed=True).T
    kappa_a = condition_number(a)
    kappa_u = condition_number(u)
    distortion = embedding_distortion(sk, a, trials=args.trials)
    signs, hdu, _, n_pad = build_hd(u, np.zeros(n), args.seed)
    observed, bound = row_norm_spread(np.linalg.norm(hdu, axis=1))
    print(f"n = {n}, d = {d}, sketch = {kind}, s = {s}")
    print(f"kappa(A)        = {kappa_a:.6g}")
    print(f"kappa(A R^-1)   = {kappa_u:.6g}")
    print(f"embedding distortion (max over {args.trials} dirs) = {distortion:.4f}")
    print(f"max row norm of transformed basis = {observed:.6g} "
          f"(bound {bound:.6g}; holds: {observed <= bound})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "solve": cmd_solve,
                "bench": cmd_bench, "diag": cmd_diag}
    try:
        return handlers[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SketchRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
