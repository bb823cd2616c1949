"""Bitwise digests of a fixed matrix of solver and oracle runs.

Run it on two trees and compare the output: a change that should not move
any iterate must print the same digests. It is not a test module (no
``test_`` prefix), so pytest does not collect it::

    PYTHONPATH=src python tests/digests.py          # one line per run
    PYTHONPATH=src python tests/digests.py --combined-only

``--combined-only`` prints one combined digest per sketch kind (the
``sketch_kind`` of each solver run's config, whether or not the solver
sketches; oracle runs have none), then one per start (a solver run's
default start, or its explicit ``x0``), then one per solver name (each
key of ``SOLVERS``, so ``pwgrad`` and its alias ``ihs-fixed`` apart) and
one for the oracle results, above the overall one, so a change that
should move one sketch kind's, one start's or one solver's runs only can
be checked at a glance. Without it, one line per run comes before the
overall line.

Each solver run hashes ``final_x``, ``final_x_avg``, the trace's
iterations, objectives and relative errors, ``iterations_run`` and
``stop_reason``; each oracle run hashes x* and f*. A run that raises
hashes the error's type and message instead. Wall-clock fields are left
out. BLAS runs on one thread, because a multithreaded BLAS may round
differently; set the variables below before numpy is imported to change
that. The oracle, ``ground_truth``, draws no random number: the seeds
passed to it below are unused and kept as its callers pass them. Its
f* and ``make_feasible_set``'s radii come from one R-only QR of [A | b],
so a change to that QR moves every oracle digest and every run whose
relative errors or ball radius read them.

The runs:

* the short matrix: ``gen_synthetic`` 1024 x 8, noise 1, data seed 5, at
  kappa 1e3 and 1e6; ``ground_truth`` on none, l1 and l2 at
  radius 0.6; six solvers x three sketch kinds x x0 in {0, 0.01 * ones},
  40 iterations, batch 4, seed 3, every 5th point (216 runs, plus the 6
  oracle results they measure against, which must not raise);
* long SGD runs on 2048 x 10, kappa 100, data seed 7: hdpwbatch, sgd
  (3000 steps) and hdpwacc (4000 steps, 60 epochs), unconstrained and on
  the l2 ball of radius 1.5 ||x_ls||, from zero on noisy data (batch 1),
  from zero on noiseless data (batch 4) and from the planted x of
  noiseless data (batch 16), seed 4 (18 runs);
* oracle results on 2048 x 10, data seed 5, kappa 100 and 1e4, l1 and l2
  at radius 0.5 and 0.7 (8 runs);
* ``ground_truth`` on the ball-constrained benchmark's datasets 1-3
  (2^15 x 20, kappa 30, noise 1; l1 at radius 0.5, l2 at radius 0.7;
  6 runs).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from sketchreg.bench import DatasetSpec, gen_synthetic, ground_truth, make_feasible_set  # noqa: E402
from sketchreg.errors import SketchRegError  # noqa: E402
from sketchreg.solvers import SOLVERS, SolverConfig  # noqa: E402


def _floats(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def _hash(run) -> str:
    """SHA-256 of what ``run()`` returns, a SolveReport or an oracle's
    (x*, f*), or of the error it raises."""
    h = hashlib.sha256()
    try:
        out = run()
    except (SketchRegError, ValueError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    if isinstance(out, tuple):
        x_star, f_star = out
        h.update(_floats(x_star) + _floats([f_star]))
        return h.hexdigest()
    for field in (out.final_x, out.final_x_avg, [p.objective for p in out.trace],
                  [p.relative_error for p in out.trace]):
        h.update(_floats(field))
    h.update(np.asarray([p.iteration for p in out.trace], dtype=np.int64).tobytes())
    h.update(f"{out.iterations_run} {out.stop_reason}".encode())
    return h.hexdigest()


def _start_of(cfg) -> str:
    return "default start" if cfg.x0 is None else "explicit x0"


def _short_matrix():
    for kappa in (1e3, 1e6):
        a, b, _ = gen_synthetic(DatasetSpec(n=1024, d=8, target_kappa=kappa,
                                            noise_std=1.0, seed=5))
        for constraint in ("none", "l1", "l2"):
            w = make_feasible_set(a, b, constraint, radius_scale=0.6)
            where = f"short kappa={kappa:g} {constraint}"
            oracle = ground_truth(a, b, w, seed=2)
            yield "oracle", None, None, f"{where} oracle", lambda o=oracle: o
            f_star = oracle[1]
            for name in sorted(SOLVERS):
                for kind in ("srht", "gaussian", "countsketch"):
                    for x0 in (None, np.full(8, 0.01)):
                        cfg = SolverConfig(iterations=40, batch_size=4, seed=3, record_every=5,
                                           sketch_kind=kind, x0=x0)
                        label = f"{where} {name} {kind} x0={'0' if x0 is None else 'given'}"
                        yield (name, kind, _start_of(cfg), label,
                               lambda n=name, a=a, b=b, w=w, c=cfg, f=f_star: (
                                   SOLVERS[n](a, b, w, c, f_star=f)))


def _long_sgd():
    noisy, exact = (gen_synthetic(DatasetSpec(n=2048, d=10, target_kappa=100.0,
                                              noise_std=noise, seed=7)) for noise in (1.0, 0.0))
    starts = (("zero-noisy", *noisy[:2], None, 1),
              ("zero-noiseless", *exact[:2], None, 4),
              ("planted-noiseless", *exact, 16))
    for start, a, b, x0, batch in starts:
        for constraint in ("none", "l2"):
            w = make_feasible_set(a, b, constraint, radius_scale=1.5)
            for name in ("hdpwbatch", "hdpwacc", "sgd"):
                cfg = SolverConfig(iterations=4000 if name == "hdpwacc" else 3000,
                                   batch_size=batch, epochs=60, seed=4, x0=x0)
                yield (name, cfg.sketch_kind, _start_of(cfg),
                       f"long {start} {constraint} {name} batch={batch}",
                       lambda n=name, a=a, b=b, w=w, c=cfg: SOLVERS[n](a, b, w, c))


def _oracles():
    for kappa in (100.0, 1e4):
        a, b, _ = gen_synthetic(DatasetSpec(n=2048, d=10, target_kappa=kappa,
                                            noise_std=1.0, seed=5))
        for constraint in ("l1", "l2"):
            for scale in (0.5, 0.7):
                w = make_feasible_set(a, b, constraint, radius_scale=scale)
                yield ("oracle", None, None, f"oracle kappa={kappa:g} {constraint} radius={scale}",
                       lambda w=w, a=a, b=b: ground_truth(a, b, w))


def _ball_constrained_oracles():
    for seed in (1, 2, 3):
        a, b, _ = gen_synthetic(DatasetSpec(n=2**15, d=20, target_kappa=30.0,
                                            noise_std=1.0, seed=seed))
        for constraint, scale in (("l1", 0.5), ("l2", 0.7)):
            w = make_feasible_set(a, b, constraint, radius_scale=scale)
            yield ("oracle", None, None,
                   f"ball-constrained dataset={seed} {constraint} radius={scale}",
                   lambda w=w, a=a, b=b, s=seed: ground_truth(a, b, w, seed=s))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--combined-only", action="store_true",
                        help="print only the combined digests: per sketch kind, per start, "
                             "per solver, oracles, overall")
    args = parser.parse_args()
    combined = hashlib.sha256()
    per_kind: dict[str, tuple] = {}  # sketch kind -> (hash, runs)
    per_start: dict[str, tuple] = {}  # "default start" or "explicit x0" -> (hash, runs)
    per_key: dict[str, tuple] = {}  # solver name or "oracle" -> (hash, runs)
    count = 0
    for group in (_short_matrix, _long_sgd, _oracles, _ball_constrained_oracles):
        for key, kind, start, label, run in group():
            digest = _hash(run)
            combined.update(digest.encode())
            for table, name in ((per_kind, kind), (per_start, start), (per_key, key)):
                if name is not None:
                    h, runs = table.get(name, (hashlib.sha256(), 0))
                    h.update(digest.encode())
                    table[name] = (h, runs + 1)
            count += 1
            if not args.combined_only:
                print(f"{digest}  {label}", flush=True)
    if args.combined_only:
        for kind, (h, runs) in sorted(per_kind.items()):
            print(f"{h.hexdigest()}  {kind} sketch ({runs} runs)")
        for start, (h, runs) in sorted(per_start.items()):
            print(f"{h.hexdigest()}  {start} ({runs} runs)")
        for key, (h, runs) in sorted(per_key.items()):
            print(f"{h.hexdigest()}  {key} ({runs} runs)")
    print(f"{combined.hexdigest()}  combined ({count} runs)")


if __name__ == "__main__":
    main()
