"""Acceptance suite: one test per advertised guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Desk-scale instances (n up to 2^14, d up to 32); every criterion runs in
well under two minutes. Stochastic protocols fix their step sizes from
instance-level estimates (known-step convention).
"""

import numpy as np
import pytest
import scipy.linalg

from sketchreg.bench import (
    DatasetSpec,
    gen_synthetic,
    ground_truth,
    iterations_to_target,
    make_feasible_set,
)
from sketchreg.feasible import FeasibleSet
from sketchreg.linalg import condition_number, qr_thin, tri_solve
from sketchreg.precond import build_hd, build_preconditioner, build_r, row_norm_spread
from sketchreg.sketches import default_sketch_size, make_sketch
from sketchreg.solvers import (
    SolverConfig,
    _sampled_gradient_variance,
    _smoothness_bounds,
    batch_index_stream,
    hd_pw_acc_batch_sgd,
    hd_pw_batch_sgd,
    ihs_fixed,
    objective_value,
    plain_sgd_baseline,
    pw_gradient,
)
from helpers import fwht

SEEDS = tuple(range(10))


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def syn_instance(n, d, kappa, noise, seed=0):
    a, b, _ = gen_synthetic(DatasetSpec(n=n, d=d, target_kappa=kappa,
                                        noise_std=noise, seed=seed))
    return a, b


def tuned_step(a, b, f_star, target_rel, seed=0):
    """Floor-matched constant step for the preconditioned SGD runs:
    eta = theta * eps * mu / sigma^2(x*), with the x0-variance rescaled
    to the optimum by the residual ratio. Returns (eta_base, t_pred)."""
    d = a.shape[1]
    f0 = float(b @ b)
    pre = build_preconditioner(a, b, "srht", default_sketch_size("srht", d), seed)
    # The pass writes U = HDA R^-1 over pre.hda, as in the solvers.
    mu = _smoothness_bounds(pre.hda, pre.r_factor).mu
    sigma2_opt = (_sampled_gradient_variance(pre.hda, pre.hdb, np.zeros(d), seed)
                  * f_star / f0)
    eps = target_rel * f_star
    eta_base = 0.5 * eps * mu / sigma2_opt
    t_pred = float(np.log((f0 - f_star) / (0.5 * eps)) / (2.0 * eta_base * mu))
    return eta_base, t_pred


def test_criterion_01_batch_size_speedup():
    # Doubling the batch size halves the iterations needed for rel-err
    # 1e-2 on a mildly ill-conditioned instance (n=2^14, d=20, kappa=1e3).
    a, b = syn_instance(n=2**14, d=20, kappa=1e3, noise=10.0)
    w = FeasibleSet.unconstrained(20)
    _, f_star = ground_truth(a, b, w)
    target = 1e-2
    eta_base, t_pred = tuned_step(a, b, f_star, target)
    t1 = int(3.2 * t_pred)
    medians = {}
    for r in (1, 2, 4, 8):
        t_budget = max(1, t1 // r)
        hits = []
        for seed in SEEDS:
            cfg = SolverConfig(iterations=t_budget, batch_size=r,
                               step_size=eta_base * r, seed=seed,
                               record_every=max(1, t_budget // 400),
                               stop_below_rel=0.8 * target)
            rep = hd_pw_batch_sgd(a, b, w, cfg, f_star=f_star)
            hits.append(iterations_to_target(rep, target))
        assert all(h is not None for h in hits), f"r={r}: target missed"
        medians[r] = float(np.median(hits))
    ratios = [medians[r] / medians[2 * r] for r in (1, 2, 4)]
    ok = all(1.3 <= ratio <= 2.7 for ratio in ratios)
    criterion(1, ok, "median iters " + str({r: int(m) for r, m in medians.items()})
              + ", doubling ratios " + str([f"{x:.2f}" for x in ratios]))


def test_criterion_02_pw_gradient_ihs_equivalence():
    # Fixed-sketch IHS and pwGradient at eta=1/2 produce the same
    # iterates, unconstrained and on an active l2 ball.
    a, b = syn_instance(n=2048, d=10, kappa=1e3, noise=1.0, seed=3)
    worst = 0.0
    for w in (FeasibleSet.unconstrained(10),
              make_feasible_set(a, b, "l2", radius_scale=0.8)):
        cfg = SolverConfig(iterations=10, seed=5)
        pw = pw_gradient(a, b, w, cfg)
        fixed = ihs_fixed(a, b, w, cfg)
        worst = max(worst, float(np.max(np.abs(pw.final_x - fixed.final_x))))
    criterion(2, worst <= 1e-9, f"max coordinate difference {worst:.2e}")


def test_criterion_03_pw_gradient_linear_convergence():
    # kappa(A)=1e8, eta=1/2: rel-err <= 1e-10 within 60 iterations in
    # >= 9/10 seeds, with median per-iteration contraction <= 0.5.
    hit = 0
    contractions = []
    for seed in SEEDS:
        a, b = syn_instance(n=2048, d=16, kappa=1e8, noise=500.0, seed=seed)
        w = FeasibleSet.unconstrained(16)
        _, f_star = ground_truth(a, b, w)
        rep = pw_gradient(a, b, w, SolverConfig(iterations=60, seed=seed,
                                                record_every=1), f_star=f_star)
        if rep.final_relative_error <= 1e-10:
            hit += 1
        gaps = [p.objective - f_star for p in rep.trace]
        for prev, cur in zip(gaps, gaps[1:]):
            if prev > 1e-6 * f_star:  # stay above the float floor
                contractions.append(cur / prev)
    med = float(np.median(contractions))
    ok = hit >= 9 and med <= 0.5
    criterion(3, ok, f"{hit}/10 seeds below 1e-10, median contraction {med:.3f}")


def test_criterion_04_preconditioning_quality():
    # Median kappa(A R^-1) <= 3 at default sketch sizes on data with
    # kappa(A) in {1e8, 1e3}.
    results = {}
    for label, kappa in (("k1e8", 1e8), ("k1e3", 1e3)):
        a, _ = syn_instance(n=2**13, d=20, kappa=kappa, noise=1.0, seed=1)
        assert condition_number(a) >= 0.99e3  # raw problem genuinely hard
        for kind in ("srht", "gaussian"):
            s = default_sketch_size(kind, 20)
            kappas = []
            for seed in SEEDS:
                r = build_r(a, make_sketch(kind, s, a.shape[0], seed))
                u = tri_solve(r, a.T, transposed=True).T
                kappas.append(condition_number(u))
            results[f"{label}/{kind}"] = float(np.median(kappas))
    ok = all(v <= 3.0 for v in results.values())
    criterion(4, ok, "median kappa(AR^-1) " +
              str({k: f"{v:.2f}" for k, v in results.items()}))


def test_criterion_05_row_norm_spreading():
    # High-probability row-norm spreading bound with c=10 on a 256x5 conditioned
    # basis: holds in >= 90 of 100 sign draws.
    a, _ = syn_instance(n=256, d=5, kappa=100.0, noise=1.0, seed=2)
    r = build_r(a, make_sketch("srht", default_sketch_size("srht", 5), 256, 7))
    u = tri_solve(r, a.T, transposed=True).T
    holds = 0
    for seed in range(100):
        _, hdu, _, _ = build_hd(u, np.zeros(256), seed)
        observed, bound = row_norm_spread(np.linalg.norm(hdu, axis=1))
        holds += observed <= bound
    criterion(5, holds >= 90, f"bound held in {holds}/100 trials")


def test_criterion_06_minibatch_variance_reduction():
    # Empirical gradient-estimator variance scales as sigma^2 / r
    # within 15%, 1e4 resamples per batch size.
    a, b = syn_instance(n=2048, d=10, kappa=1e3, noise=1.0, seed=4)
    pre = build_preconditioner(a, b, "srht", 100, seed=4)
    x = np.random.default_rng(5).standard_normal(10)
    resid = pre.hda @ x - pre.hdb
    singles = 2.0 * pre.hda.shape[0] * pre.hda * resid[:, None]
    mean_grad = singles.mean(axis=0)
    sigma2 = float(np.mean(np.sum((singles - mean_grad) ** 2, axis=1)))
    rng = np.random.default_rng(6)
    deviations = {}
    for r in (1, 2, 4, 8):
        idx = rng.integers(0, pre.hda.shape[0], size=(10_000, r))
        batch = singles[idx].mean(axis=1)
        sigma2_r = float(np.mean(np.sum((batch - mean_grad) ** 2, axis=1)))
        deviations[r] = sigma2_r * r / sigma2 - 1.0
    ok = all(abs(v) <= 0.15 for v in deviations.values())
    criterion(6, ok, "r*var/var_1 - 1: " +
              str({r: f"{v:+.3f}" for r, v in deviations.items()}))


def test_criterion_07_oracle_equivalence():
    # (a) pwGradient matches the direct QR solve to 1e-8 relative
    # objective; (b) a long tuned HDpwBatchSGD run gets within 1e-2;
    # (c) constrained optima pass the 1e-10 two-start check.
    a, b = syn_instance(n=2**13, d=16, kappa=1e3, noise=10.0, seed=5)
    w = FeasibleSet.unconstrained(16)
    x_qr, f_star = ground_truth(a, b, w)  # direct thin-QR solve
    pw = pw_gradient(a, b, w, SolverConfig(iterations=80, seed=1), f_star=f_star)
    rel_pw = pw.final_relative_error

    target = 1e-2
    eta_base, t_pred = tuned_step(a, b, f_star, target, seed=5)
    cfg = SolverConfig(iterations=int(3.2 * t_pred) // 8, batch_size=8,
                       step_size=8 * eta_base, seed=2,
                       stop_below_rel=0.5 * target)
    sgd = hd_pw_batch_sgd(a, b, w, cfg, f_star=f_star)
    rel_sgd = sgd.final_relative_error

    # Constrained oracles: two pwgrad starts must agree on an l1 and an
    # l2 ball, whose R-metric proxes are both solved exactly.
    ac, bc = syn_instance(n=2**12, d=16, kappa=30.0, noise=1.0, seed=6)
    diffs = []
    for constraint, scale in (("l1", 0.5), ("l2", 0.7)):
        wc = make_feasible_set(ac, bc, constraint, radius_scale=scale)
        base = SolverConfig(iterations=500, step_size=0.5, seed=3,
                            record_every=1, objective_tol=1e-14)
        first = pw_gradient(ac, bc, wc, base)
        rng = np.random.default_rng(9)
        from sketchreg.feasible import project_euclidean
        alt = SolverConfig(iterations=500, step_size=0.5, seed=4, record_every=1,
                           objective_tol=1e-14,
                           x0=project_euclidean(wc, rng.standard_normal(16)))
        second = pw_gradient(ac, bc, wc, alt)
        diffs.append(abs(first.final_objective - second.final_objective)
                     / max(first.final_objective, 1e-30))
    ok = rel_pw <= 1e-8 and rel_sgd <= 1e-2 and all(dv <= 1e-10 for dv in diffs)
    criterion(7, ok, f"pwgrad rel {rel_pw:.1e}, sgd-avg rel {rel_sgd:.1e}, "
              f"two-start gaps {[f'{dv:.1e}' for dv in diffs]}")


def test_criterion_08_x_y_space_equivalence():
    # 20 paired iterations in x-space vs the preconditioned y-space.
    rng = np.random.default_rng(10)
    a = rng.standard_normal((60, 5))
    b = rng.standard_normal(60)
    w = FeasibleSet.unconstrained(5)
    eta, r, t_max, seed = 0.002, 2, 20, 12
    rep = hd_pw_batch_sgd(a, b, w, SolverConfig(
        iterations=t_max, batch_size=r, step_size=eta, seed=seed,
        sketch_kind="gaussian", sketch_size=25, record_every=1))
    pre = build_preconditioner(a, b, "gaussian", 25, seed=seed)
    u = tri_solve(pre.r_factor, pre.hda.T, transposed=True).T
    y = np.zeros(5)
    stream = batch_index_stream(seed, pre.hda.shape[0], r)
    for _ in range(t_max):
        idx = next(stream)
        rows = u[idx]
        y = y - eta * (2.0 * pre.hda.shape[0] / r) * (rows.T @ (rows @ y - pre.hdb[idx]))
    diff = float(np.max(np.abs(rep.final_x - tri_solve(pre.r_factor, y))))
    criterion(8, diff <= 1e-9, f"max |x_T - R^-1 y_T| = {diff:.2e}")


def test_criterion_09_fwht_correctness():
    worst_match = 0.0
    for n in (2, 4, 8, 64):
        v = np.random.default_rng(n).standard_normal(n)
        dense = scipy.linalg.hadamard(n) / np.sqrt(n)
        worst_match = max(worst_match, float(np.max(np.abs(fwht(v) - dense @ v))))
    worst_iso = 0.0
    for exp in (8, 12, 16):
        v = np.random.default_rng(exp).standard_normal(2**exp)
        norm = np.linalg.norm(v)
        worst_iso = max(worst_iso, abs(np.linalg.norm(fwht(v)) - norm) / norm)
    ok = worst_match <= 1e-12 and worst_iso <= 1e-12
    criterion(9, ok, f"dense mismatch {worst_match:.1e}, isometry drift {worst_iso:.1e}")


def test_criterion_10_accelerated_beats_plain_schedule():
    # At equal batch size on the ball-constrained kappa=1e3 instance
    # (radius = unconstrained optimum norm), the multi-epoch accelerated
    # schedule reaches rel-err 1e-3 in fewer inner iterations than
    # fixed-step batch SGD under its diameter-coupled step rule (medians
    # of about 2000 against 3800); the budget only censors a fixed-step
    # run that misses the target.
    a, b = syn_instance(n=2**14, d=20, kappa=1e3, noise=10.0, seed=6)
    w = make_feasible_set(a, b, "l2", radius_scale=1.0)
    _, f_star = ground_truth(a, b, w)
    target, r, budget = 1e-3, 16, 20_000
    acc_hits, plain_hits = [], []
    for seed in SEEDS:
        cfg = SolverConfig(iterations=150_000, batch_size=r, epochs=16,
                           seed=seed, record_every=50,
                           stop_below_rel=0.8 * target)
        rep = hd_pw_acc_batch_sgd(a, b, w, cfg, f_star=f_star)
        acc_hits.append(iterations_to_target(rep, target))
        fixed_cfg = SolverConfig(iterations=budget, batch_size=r, seed=seed,
                                 record_every=100, stop_below_rel=0.8 * target)
        fixed = hd_pw_batch_sgd(a, b, w, fixed_cfg, f_star=f_star)
        plain_hits.append(iterations_to_target(fixed, target) or budget + 1)
    assert all(h is not None for h in acc_hits), "accelerated runs missed 1e-3"
    acc_median = float(np.median(acc_hits))
    plain_median = float(np.median(plain_hits))
    ok = acc_median < plain_median
    criterion(10, ok, f"median inner iters to 1e-3: accelerated {int(acc_median)}, "
              f"fixed-step {int(plain_median)}"
              + (" (censored at budget)" if plain_median > budget else ""))


def test_criterion_11_preconditioning_beats_plain_sgd():
    # Equal budget on kappa=1e8: plain SGD ends >= 10x worse (last
    # iterates; averaging from x0=0 would bury both under the huge
    # initial gap).
    plain_rels, pre_rels = [], []
    a, b = syn_instance(n=4096, d=16, kappa=1e8, noise=3.0, seed=7)
    w = FeasibleSet.unconstrained(16)
    _, f_star = ground_truth(a, b, w)
    for seed in SEEDS:
        cfg = SolverConfig(iterations=4000, batch_size=8, seed=seed)
        plain = plain_sgd_baseline(a, b, w, cfg, f_star=f_star)
        pre = hd_pw_batch_sgd(a, b, w, cfg, f_star=f_star)
        plain_rels.append((objective_value(a, b, plain.final_x) - f_star) / f_star)
        pre_rels.append((objective_value(a, b, pre.final_x) - f_star) / f_star)
    plain_med = float(np.median(plain_rels))
    pre_med = float(np.median(pre_rels))
    ok = plain_med >= 10.0 * pre_med
    criterion(11, ok, f"median rel-err: plain {plain_med:.2e}, "
              f"preconditioned {pre_med:.2e}")
