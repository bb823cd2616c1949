"""Command-line front end: dataset generation, solving, benchmarking,
and preconditioning diagnostics.

Exit codes: 0 success, 2 input/usage errors, 3 numerical failures
(``errors.NumericalError``).
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, errors
from .linalg import condition_number, qr_thin, tri_solve
from .precond import build_hd, build_r, row_norm_spread
from .sketches import KINDS, make_sketch, range_distortion
from .solvers import SOLVERS, SolverConfig, resolve_sketch_size

DEFAULT_SEED = 1729

_INPUT_ERRORS = (errors.SketchRegError, OSError, ValueError)


# Flag types: argparse reports the ValueError of a bad value as a usage error.
def _eta(raw: str) -> float | str:
    return raw if raw == "auto" else float(raw)


def _count(raw: str) -> int:
    """A positive integer; 1e3 reads as 1000."""
    count = float(raw)
    if not (count.is_integer() and count >= 1):
        raise ValueError(raw)
    return int(count)


def _solver_names(raw: str) -> list[str]:
    names = [name for name in raw.split(",") if name]
    if not set(names) <= SOLVERS.keys():
        raise argparse.ArgumentTypeError(
            f"unknown solver in {raw!r}; choose from {sorted(SOLVERS)}")
    return names


def _batch_sizes(raw: str) -> list[int]:
    sizes = [int(size) for size in raw.split(",")] if raw else []
    if not all(size >= 1 for size in sizes):
        raise ValueError(raw)
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchreg",
        description="Sketch-preconditioned solvers for constrained least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sketch = argparse.ArgumentParser(add_help=False)  # solve, bench, diag
    sketch.add_argument("--sketch", default="srht", choices=KINDS)
    sketch.add_argument("--sketch-size", type=_count, default=None)
    sketch.add_argument("--seed", type=int, default=DEFAULT_SEED)

    solver = argparse.ArgumentParser(add_help=False)  # solve, bench
    solver.add_argument("--constraint", choices=["none", "l1", "l2"], default="none")
    solver.add_argument("--radius-scale", type=float, default=1.0)
    solver.add_argument("--batch", type=int, default=1, help="mini-batch size r")
    solver.add_argument("--eta", type=_eta, default="auto",
                        help="step size (float or 'auto'); pwgrad and ihs read it on "
                             "A^T(Ax - b). With rho = d/s, pwgrad's auto step is heavy ball, "
                             "step (1 - rho)^2 and momentum rho, and ihs's is "
                             "(1 - rho)^2 / (1 + rho); an explicit step takes no momentum. "
                             "ihs-fixed is another name of pwgrad")
    solver.add_argument("--epochs", type=int, default=8)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--n", type=_count, required=True, help="rows")
    gen.add_argument("--d", type=_count, required=True, help="columns")
    gen.add_argument("--kappa", type=float, default=1.0, help="target condition number")
    gen.add_argument("--noise-std", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True, help="output CSV path")

    solve = sub.add_parser("solve", parents=[sketch, solver],
                           help="run one solver on a dataset")
    solve.add_argument("--data", required=True, help="CSV with d+1 columns, last is b")
    solve.add_argument("--normalize", action="store_true",
                       help="zero-mean/unit-variance feature columns")
    solve.add_argument("--solver", required=True, choices=sorted(SOLVERS))
    solve.add_argument("--iters", type=int, default=1000)
    solve.add_argument("--diameter-bound", type=float, default=None,
                       help="norm bound standing in for D_W on unconstrained runs")
    solve.add_argument("--record-every", type=int, default=None)
    solve.add_argument("--trace-out", default=None, help="trace CSV path")

    bch = sub.add_parser("bench", parents=[sketch, solver],
                         help="multi-solver / batch-sweep experiment")
    bch.add_argument("--config", default=None,
                     help="YAML of bench flag names to values (overrides flags)")
    bch.add_argument("--data", default=None, help="CSV dataset (else synthetic)")
    bch.add_argument("--n", type=_count, default=8192)
    bch.add_argument("--d", type=_count, default=20)
    bch.add_argument("--kappa", type=float, default=1e3)
    bch.add_argument("--noise-std", type=float, default=0.1)
    bch.add_argument("--solvers", type=_solver_names, default=["hdpwbatch", "pwgrad"],
                     help="comma-separated solver names")
    bch.add_argument("--batch-sweep", type=_batch_sizes, default=[],
                     help="comma-separated batch sizes to sweep for hdpwbatch")
    bch.add_argument("--iters", type=int, default=2000)
    bch.add_argument("--seeds", type=_count, default=10, help="number of seeds per solver")
    bch.add_argument("--target", type=float, default=1e-2,
                     help="relative error target for the iterations-to-target table")
    bch.add_argument("--out-dir", required=True)

    diag = sub.add_parser("diag", parents=[sketch],
                          help="preconditioning diagnostics for a dataset")
    diag.add_argument("--data", required=True)
    diag.add_argument("--trials", type=_count, default=100,
                      help="random directions for the distortion estimate")

    return parser


def _with_config(parser: argparse.ArgumentParser, args) -> argparse.Namespace:
    """``bench`` arguments with the ``--config`` YAML on top. The file's
    ``key: value`` pairs are parsed alone as ``--key=value`` flags (a list
    joined with commas), so ``null`` is the flag's default; argv fills in the rest."""
    # Imported here so that CLI runs without --config skip its start-up cost.
    import yaml

    with open(args.config, "r", encoding="utf-8") as handle:
        try:
            settings = yaml.safe_load(handle) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"config is not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(settings, dict):
        raise ValueError("config must map bench flag names to values")
    keys = set(vars(args)) - {"command", "config", "out_dir"}
    unknown = set(settings) - keys
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(map(str, unknown))}")
    flags = []
    for key, value in settings.items():
        if value is None:
            continue
        listed = isinstance(getattr(args, key), list)
        if isinstance(value, list) != listed:
            raise ValueError(f"config key {key!r} takes {'a list' if listed else 'one value'}")
        text = ",".join(map(str, value)) if listed else str(value)
        flags.append(f"--{key.replace('_', '-')}={text}")
    merged = parser.parse_args([args.command, f"--out-dir={args.out_dir}", *flags])
    for key in keys - settings.keys():
        setattr(merged, key, getattr(args, key))
    return merged


def _load_problem(args):
    """(A, b, W): A and b read from ``--data``, else (bench) synthetic."""
    if args.data:
        a, b = bench.load_csv(args.data, normalize=getattr(args, "normalize", False))
    else:
        a, b, _ = bench.gen_synthetic(bench.DatasetSpec(
            n=args.n, d=args.d, target_kappa=args.kappa,
            noise_std=args.noise_std, seed=args.seed))
    return a, b, bench.make_feasible_set(a, b, args.constraint,
                                         radius_scale=args.radius_scale)


def _solver_config(args, **fields) -> SolverConfig:
    """The SolverConfig of the sketch flags, and of the solver flags where
    the command has them."""
    if "epochs" in args:
        fields.update(iterations=args.iters, batch_size=args.batch,
                      step_size=args.eta, epochs=args.epochs)
    return SolverConfig(seed=args.seed, sketch_kind=args.sketch,
                        sketch_size=args.sketch_size, **fields)


def cmd_gen(args) -> int:
    spec = bench.DatasetSpec(n=args.n, d=args.d, target_kappa=args.kappa,
                             noise_std=args.noise_std, seed=args.seed)
    a, b, _ = bench.gen_synthetic(spec)
    bench.save_dataset_csv(args.out, a, b)
    print(f"wrote {args.n} rows x {args.d + 1} cols to {args.out}")
    print(f"measured kappa(A) = {condition_number(qr_thin(a)):.6g}")
    return 0


def cmd_solve(args) -> int:
    cfg = _solver_config(args, record_every=args.record_every,
                         diameter_bound=args.diameter_bound)
    a, b, w = _load_problem(args)
    _, f_star = bench.ground_truth(a, b, w, seed=args.seed)
    tic = time.perf_counter()
    report = SOLVERS[args.solver](a, b, w, cfg, f_star=f_star)
    wall = time.perf_counter() - tic
    if args.trace_out:
        bench.write_trace_csv(args.trace_out, [(report.solver, args.seed, report)])
        print(f"trace written to {args.trace_out}")
    print(f"solver={report.solver} iterations={report.iterations_run} "
          f"stop={report.stop_reason} start={report.start}")
    print(f"final relative error = {report.final_relative_error:.6e}")
    print(f"wall time = {wall:.3f}s "
          f"(preconditioning {report.preconditioning_seconds:.3f}s)")
    return 0


def cmd_bench(args) -> int:
    if not args.solvers and not args.batch_sweep:
        raise ValueError("empty solver list")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-test"
    probe.write_text("")
    probe.unlink()

    base = _solver_config(args)
    configs: dict[str, SolverConfig] = {name: base for name in args.solvers}
    for r in args.batch_sweep:
        configs[f"hdpwbatch@r={r}"] = replace(
            base, batch_size=r, iterations=max(1, args.iters // r))
    a, b, w = _load_problem(args)
    _, f_star = bench.ground_truth(a, b, w, seed=args.seed)

    seeds = [args.seed + i for i in range(args.seeds)]
    result = bench.run_experiment(a, b, w, configs, seeds=seeds, f_star=f_star)

    target = args.target
    print(f"f* = {f_star:.12e}")
    print(f"{'solver':>16} {'median rel-err':>15} {'best rel-err':>14} "
          f"{'median iters@{:g}'.format(target):>18}")
    crossings: dict[str, float] = {}
    for name in configs:
        runs = [rep for _, rep in result.runs[name]]
        med = result.median_final_error(name)
        best = result.best(name).final_relative_error
        # Every seed is ranked, a miss (None) as never; a median that is a
        # miss prints as --.
        iters = sorted((bench.iterations_to_target(rep, target) for rep in runs),
                       key=lambda i: np.inf if i is None else i)
        med_iters = iters[len(iters) // 2]
        crossings[name] = med_iters
        print(f"{name:>16} {med:>15.6e} {best:>14.6e} "
              f"{str(med_iters if med_iters is not None else '--'):>18}")
        path = out_dir / f"{name.replace('@', '_').replace('=', '')}.csv"
        bench.write_trace_csv(path, [(name, seed, rep) for seed, rep in result.runs[name]])
    if args.batch_sweep:
        print("batch-size speedup (iterations-to-target ratios):")
        for lo, hi in zip(args.batch_sweep, args.batch_sweep[1:]):
            a_i, b_i = crossings.get(f"hdpwbatch@r={lo}"), crossings.get(f"hdpwbatch@r={hi}")
            ratio = a_i / b_i if a_i and b_i else float("nan")
            print(f"  r={lo} -> r={hi}: {ratio:.2f}x")
    print(f"traces written to {out_dir}")
    return 0


def cmd_diag(args) -> int:
    """Diagnostics of the solvers' own pass, H D A and the R of S A (an SRHT
    samples H D A), plus R_A of A. As ||S A x|| = ||R x|| and ||A x|| = ||R_A x||,
    kappa(A), kappa(A R^-1) = kappa(R_A R^-1) and the distortion come from the
    two d x d factors; the row norms are those of H D (A R^-1) = (H D A) R^-1,
    which overwrites H D A, so A and one transformed copy are all it holds."""
    a, b = bench.load_csv(args.data)
    n, d = a.shape
    s = resolve_sketch_size(_solver_config(args), n, d, high_precision=False)
    sk = make_sketch(args.sketch, s, n, args.seed)
    hda, _ = build_hd(a, b, args.seed)
    r = build_r(a, sk, hda)
    r_a = qr_thin(a)
    kappa_a = condition_number(r_a)
    kappa_u = condition_number(tri_solve(r, r_a.T, transposed=True).T)
    distortion = range_distortion(r, r_a, args.seed, args.trials)
    hdu = tri_solve(r, hda.T, transposed=True, overwrite=True).T
    observed, bound = row_norm_spread(np.sqrt(np.einsum("ij,ij->i", hdu, hdu)))
    print(f"n = {n}, d = {d}, sketch = {args.sketch}, s = {s}")
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
        if getattr(args, "config", None):
            args = _with_config(parser, args)
        return handlers[args.command](args)
    except errors.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
