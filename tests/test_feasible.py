import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sketchreg.feasible as feasible_mod
from sketchreg.errors import InnerSolverStallError, UnboundedSetError
from sketchreg.feasible import (
    FeasibleSet,
    RMetricProx,
    diameter_param,
    project_euclidean,
)
from helpers import (
    l1_ball_apg,
    l1_kkt_residual,
    l2_ball_bisection,
    l2_kkt_residual,
    prox_r_metric,
)


def l1_projection_oracle(x, radius):
    """Independent re-derivation: bisection on the soft-threshold level."""
    if np.sum(np.abs(x)) <= radius:
        return x.copy()
    lo, hi = 0.0, float(np.max(np.abs(x)))
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if np.sum(np.maximum(np.abs(x) - theta, 0.0)) > radius:
            lo = theta
        else:
            hi = theta
    theta = 0.5 * (lo + hi)
    return np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)


class TestFeasibleSet:
    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("ball", [FeasibleSet.l2_ball, FeasibleSet.l1_ball])
    def test_bad_radius_rejected(self, ball, radius):
        with pytest.raises(ValueError, match="radius"):
            ball(radius, 3)

    @pytest.mark.parametrize("ball", [FeasibleSet.l2_ball, FeasibleSet.l1_ball])
    def test_infinite_radius_is_legal(self, ball):
        w = ball(float("inf"), 3)
        x = np.array([1e150, -1e150, 5.0])
        assert w.contains(x, tol=0.0)
        np.testing.assert_array_equal(project_euclidean(w, x), x)


class TestProjectEuclidean:
    def test_unconstrained_identity(self):
        w = FeasibleSet.unconstrained(3)
        x = np.array([5.0, -2.0, 0.1])
        np.testing.assert_array_equal(project_euclidean(w, x), x)

    def test_l2_radial_scaling(self):
        w = FeasibleSet.l2_ball(1.0, 2)
        np.testing.assert_allclose(project_euclidean(w, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_l1_by_hand(self):
        # Brute force over the threshold level confirms theta = 1.
        x = np.array([2.0, 1.0])
        oracle = l1_projection_oracle(x, 1.0)
        np.testing.assert_allclose(oracle, [1.0, 0.0], atol=1e-10)
        w = FeasibleSet.l1_ball(1.0, 2)
        np.testing.assert_allclose(project_euclidean(w, x), [1.0, 0.0], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, 10, elements=st.floats(-100, 100, allow_nan=False)),
           st.floats(0.1, 50))
    def test_l1_matches_bisection_oracle(self, x, radius):
        w = FeasibleSet.l1_ball(radius, 10)
        got = project_euclidean(w, x)
        np.testing.assert_allclose(got, l1_projection_oracle(x, radius), atol=1e-10)
        assert np.sum(np.abs(got)) <= radius * (1 + 1e-12) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(-150, 150), st.integers(0, 2**32 - 1))
    def test_l2_norm_is_bitwise_np_linalg_norm(self, d, log_scale, seed):
        # A radius at the norm and one float either side of it decides
        # membership on the last bit of the norm.
        x = np.random.default_rng(seed).standard_normal(d) * 10.0**log_scale
        norm = float(np.linalg.norm(x))
        for radius in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, np.inf)):
            w = FeasibleSet.l2_ball(radius, d)
            inside = norm <= radius
            assert w.contains(x, tol=0.0) == inside
            want = x if inside else (w.radius / norm) * x
            np.testing.assert_array_equal(project_euclidean(w, x), want)

    @pytest.mark.parametrize("kind,radius", [("l2_ball", 2.0), ("l1_ball", 2.0)])
    def test_idempotent_and_nonexpansive(self, kind, radius):
        w = FeasibleSet(kind=kind, dim=6, radius=radius)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal((2, 6)) * 3.0
            px, py = project_euclidean(w, x), project_euclidean(w, y)
            np.testing.assert_allclose(project_euclidean(w, px), px, atol=1e-12)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


class TestProxRMetric:
    def test_unconstrained_plain_gradient_step(self):
        w = FeasibleSet.unconstrained(3)
        x_prev = np.array([1.0, 2.0, 3.0])
        c = np.array([0.5, -1.0, 0.25])
        np.testing.assert_allclose(
            prox_r_metric(w, np.eye(3), x_prev, c, 1.0), x_prev - c, atol=1e-14
        )

    def test_l2_feasible_point_unmoved(self):
        w = FeasibleSet.l2_ball(5.0, 2)
        x_prev = np.array([1.0, 1.0])
        r = np.array([[2.0, 0.3], [0.0, 1.0]])
        np.testing.assert_allclose(
            prox_r_metric(w, r, x_prev, np.zeros(2), 0.7), x_prev, atol=1e-14
        )

    def test_l2_identity_metric_reduces_to_projection(self):
        w = FeasibleSet.l2_ball(1.0, 2)
        x_prev = np.array([3.0, 4.0])
        got = prox_r_metric(w, np.eye(2), x_prev, np.zeros(2), 1.0)
        np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-12)

    def test_l1_anisotropic_by_grid_oracle(self):
        # min (x1-2)^2/2 + 2 x2^2 over ||x||_1 <= 1; grid says [1, 0].
        w = FeasibleSet.l1_ball(1.0, 2)
        r = np.diag([1.0, 2.0])
        grid = np.linspace(-1.0, 1.0, 2001)
        best = None
        for x1 in grid:
            x2_budget = 1.0 - abs(x1)
            for x2 in (-x2_budget, 0.0, x2_budget):
                val = 0.5 * ((x1 - 2.0) ** 2 + 4.0 * x2**2)
                if best is None or val < best[0]:
                    best = (val, x1, x2)
        np.testing.assert_allclose(best[1:], [1.0, 0.0], atol=1e-3)
        got = prox_r_metric(w, r, np.array([2.0, 0.0]), np.zeros(2), 0.3)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("kind,radius", [("l2_ball", 0.8), ("l1_ball", 0.8)])
    def test_identity_metric_matches_euclidean_composition(self, kind, radius):
        w = FeasibleSet(kind=kind, dim=5, radius=radius)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x_prev = rng.standard_normal(5)
            c = rng.standard_normal(5)
            eta = float(rng.uniform(0.1, 2.0))
            got = prox_r_metric(w, np.eye(5), x_prev, c, eta)
            want = project_euclidean(w, x_prev - eta * c)
            np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("kind", ["l2_ball", "l1_ball"])
    def test_kkt_conditions_on_random_instances(self, kind):
        # Optimality probe: gradient maps back to the same point and no
        # feasible perturbation improves the objective.
        rng = np.random.default_rng(2)
        w = FeasibleSet(kind=kind, dim=6, radius=1.0)
        for trial in range(10):
            r = np.triu(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
            x_prev = rng.standard_normal(6)
            c = rng.standard_normal(6) * 2.0
            x = prox_r_metric(w, r, x_prev, c, 0.5)
            assert w.contains(x, tol=1e-12)

            def val(z):
                return 0.5 * np.linalg.norm(r @ (x_prev - z)) ** 2 + 0.5 * float(c @ z)

            base = val(x)
            for _ in range(40):
                probe = project_euclidean(w, x + 1e-4 * rng.standard_normal(6))
                assert val(probe) >= base - 1e-9

    def test_l1_meets_kkt_on_hopeless_conditioning(self):
        # The accelerated projected gradient this replaced stalled here.
        from sketchreg.linalg import qr_thin

        w = FeasibleSet.l1_ball(1.0, 2)
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        r = qr_thin(rot @ np.diag([1.0, 1e5]))  # kappa(R^T R) = 1e10
        x_prev, c = np.array([0.7, 0.2]), np.array([3.0, -2.0])
        x = prox_r_metric(w, r, x_prev, c, 1.0)
        z = x_prev - scipy.linalg.solve_triangular(
            r, scipy.linalg.solve_triangular(r, c, trans="T"))
        assert l1_kkt_residual(r, 1.0, z, x) <= 1e-10

    def test_solver_object_reuse_matches_one_shot(self):
        rng = np.random.default_rng(3)
        w = FeasibleSet.l2_ball(1.0, 4)
        r = np.triu(rng.standard_normal((4, 4))) + 2.0 * np.eye(4)
        prox = RMetricProx(r, w)
        for _ in range(5):
            x_prev = rng.standard_normal(4)
            c = rng.standard_normal(4)
            np.testing.assert_array_equal(
                prox.solve(x_prev, c, 0.4), prox_r_metric(w, r, x_prev, c, 0.4)
            )

    @pytest.mark.parametrize("w", [FeasibleSet.unconstrained(4), FeasibleSet.l2_ball(1.0, 4),
                                   FeasibleSet.l1_ball(1.0, 4)], ids=lambda w: w.kind)
    def test_project_is_the_step_in_y_coordinates(self, w):
        # y = R x: P(R x_prev - eta R^-T c) = R prox(x_prev, c, eta).
        rng = np.random.default_rng(4)
        r = np.triu(rng.standard_normal((4, 4))) + 2.0 * np.eye(4)
        prox = RMetricProx(r, w)
        for scale in (0.1, 3.0):  # inside and outside the balls
            x_prev = project_euclidean(w, scale * rng.standard_normal(4))
            c = scale * rng.standard_normal(4)
            y = r @ x_prev - 0.4 * np.linalg.solve(r.T, c)
            np.testing.assert_allclose(prox.project(y), r @ prox.solve(x_prev, c, 0.4),
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(prox.to_x(prox.project(y)),
                                       prox.solve(x_prev, c, 0.4), rtol=1e-9, atol=1e-9)


def triangular_factor(d, kappa, seed):
    """Upper-triangular R with kappa(R) = kappa: the R factor of
    Q1 diag(sv) Q2^T with singular values log-spaced in [1, kappa]."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return np.linalg.qr((q1 * np.logspace(0.0, np.log10(kappa), d)) @ q2.T)[1]


def ball_instance(kind, d, kappa, seed, excess):
    """(R, radius, z): z ~ 3 N(0, I) lies ``excess`` times outside the ball."""
    r = triangular_factor(d, kappa, seed)
    z = 3.0 * np.random.default_rng([seed, 1]).standard_normal(d)
    size = np.linalg.norm(z) if kind == "l2_ball" else np.sum(np.abs(z))
    return r, float(size / excess), z


def ball_step(kind, r, radius, z):
    """argmin_{x in W} ||R(x - z)|| through the public solve (x_prev = z, c = 0)."""
    w = FeasibleSet(kind=kind, dim=z.shape[0], radius=radius)
    return RMetricProx(r, w).solve(z, np.zeros_like(z), 1.0), w


def brute_force_l1(r, z, radius):
    """Best point over every signed support of the l1-ball boundary: each
    face's minimizer solves one equality-constrained least squares, and
    the sign-consistent ones are feasible, so the best is optimal."""
    gram = r.T @ r
    best, best_x = np.inf, None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=z.shape[0]):
        s = np.array(pattern)
        on = np.flatnonzero(s)
        if on.size == 0:
            continue
        g_on = gram[np.ix_(on, on)]
        base = np.linalg.solve(g_on, gram[on] @ z)
        tilt = np.linalg.solve(g_on, s[on])
        x_on = base - (s[on] @ base - radius) / (s[on] @ tilt) * tilt
        if np.any(s[on] * x_on < -1e-12):
            continue
        x = np.zeros_like(z)
        x[on] = x_on
        value = 0.5 * float(np.sum((r @ (x - z)) ** 2))
        if value < best:
            best, best_x = value, x
    return best, best_x


KINDS = ["l2_ball", "l1_ball"]


class TestExactBallProx:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 50), st.floats(0.0, 4.0),
           st.integers(0, 2**31), st.floats(1.001, 100.0))
    def test_feasible_and_kkt(self, kind, d, log_kappa, seed, excess):
        r, radius, z = ball_instance(kind, d, 10.0**log_kappa, seed, excess)
        x, w = ball_step(kind, r, radius, z)
        assert w.contains(x, tol=1e-12)
        residual = l2_kkt_residual if kind == "l2_ball" else l1_kkt_residual
        assert residual(r, radius, z, x) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.floats(0.0, 8.0), st.integers(0, 2**31),
           st.floats(1.001, 100.0))
    @example(d=2, log_kappa=7.0, seed=0, excess=2.0)
    def test_l2_matches_bisection_reference(self, d, log_kappa, seed, excess):
        r, radius, z = ball_instance("l2_ball", d, 10.0**log_kappa, seed, excess)
        x, _ = ball_step("l2_ball", r, radius, z)
        want = l2_ball_bisection(r, radius, z)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert l2_kkt_residual(r, radius, z, x) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 50), st.floats(0.0, np.log10(30.0)), st.integers(0, 2**31),
           st.floats(1.001, 100.0))
    def test_l1_matches_apg_reference(self, d, log_kappa, seed, excess):
        r, radius, z = ball_instance("l1_ball", d, 10.0**log_kappa, seed, excess)
        x, _ = ball_step("l1_ball", r, radius, z)
        want = l1_ball_apg(r, radius, z)
        assert want is not None, "reference did not converge"
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("kappa", [1e6, 1e8])
    def test_l1_ill_conditioned_meets_kkt_or_raises(self, kappa):
        # The accelerated projected gradient this replaced accepted points
        # here whose objective was 1e2-1e5 times too high, without raising.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            r = triangular_factor(20, kappa, seed)
            z = 3.0 * rng.standard_normal(20)
            radius = 0.5 * float(np.sum(np.abs(z)))
            try:
                x, _ = ball_step("l1_ball", r, radius, z)
            except InnerSolverStallError:
                continue
            assert l1_kkt_residual(r, radius, z, x) <= 1e-10

    def test_l1_small_dense_instances_by_brute_force(self):
        # d = 6, kappa(R) = 1e2: the optimum over all signed supports.
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = triangular_factor(6, 1e2, int(rng.integers(2**31)))
            z = 3.0 * rng.standard_normal(6)
            radius = float(rng.uniform(0.05, 0.95) * np.sum(np.abs(z)))
            x, _ = ball_step("l1_ball", r, radius, z)
            best, best_x = brute_force_l1(r, z, radius)
            assert 0.5 * float(np.sum((r @ (x - z)) ** 2)) <= best * (1.0 + 1e-10)
            np.testing.assert_allclose(x, best_x, atol=1e-8 * np.max(np.abs(best_x)))

    def test_l1_ties_by_brute_force(self):
        # Small integer R and z make breakpoints coincide exactly: several
        # coordinates joining at once, one leaving as another joins, and a
        # coordinate crossing zero and coming back with the other sign.
        # Following only the one-at-a-time guess at such ties fails the
        # KKT check on about 1 % of these instances.
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            d = int(rng.integers(1, 6))
            r = np.triu(rng.integers(-2, 3, (d, d))).astype(float)
            np.fill_diagonal(r, rng.choice([1.0, 2.0, -1.0], d))
            z = rng.integers(-3, 4, d).astype(float)
            radius = float(rng.integers(1, max(2, int(np.sum(np.abs(z))))))
            if np.sum(np.abs(z)) <= radius:
                continue
            x, _ = ball_step("l1_ball", r, radius, z)
            best, _ = brute_force_l1(r, z, radius)
            assert 0.5 * float(np.sum((r @ (x - z)) ** 2)) <= best * (1.0 + 1e-10) + 1e-12
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("r,z,radius", [
        ([[1, 0, -1, 1], [0, 1, -1, -1], [0, 0, -1, -1], [0, 0, 0, -1]],
         [0, -1, 0, -2], 2.0),
        ([[-1, 1, -1, -1, 1], [0, -1, 1, 1, 1], [0, 0, -1, 0, -1], [0, 0, 0, -1, 0],
          [0, 0, 0, 0, -1]], [2, 1, 0, 2, 2], 5.0),
    ])
    def test_l1_coordinate_kept_at_a_tie_does_not_cycle(self, r, z, radius):
        # A coordinate kept at a breakpoint starts at zero; rounding can
        # give it a slope pointing back at zero. Read as a new breakpoint,
        # that drops and re-adds it at the same lam until the budget runs
        # out.
        r, z = np.array(r, dtype=float), np.array(z, dtype=float)
        x, _ = ball_step("l1_ball", r, radius, z)
        best, _ = brute_force_l1(r, z, radius)
        assert 0.5 * float(np.sum((r @ (x - z)) ** 2)) <= best * (1.0 + 1e-10) + 1e-12

    def test_l1_identity_metric_with_tied_coordinates(self):
        # R = I: the step is the Euclidean projection, three coordinates tie.
        z = np.array([3.0, -3.0, 3.0, 1.0, 0.5])
        x, _ = ball_step("l1_ball", np.eye(5), 3.0, z)
        np.testing.assert_allclose(x, [1.0, -1.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_l1_self_check_rejects_a_wrong_point(self):
        r = triangular_factor(6, 1e2, 3)
        z = 3.0 * np.random.default_rng(3).standard_normal(6)
        radius = 0.5 * float(np.sum(np.abs(z)))
        prox = RMetricProx(r, FeasibleSet.l1_ball(radius, 6))
        feasible_but_wrong = radius * np.eye(6)[0]
        with pytest.raises(InnerSolverStallError):
            prox._checked_l1(z, feasible_but_wrong, 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_input_raises(self, kind):
        r = triangular_factor(4, 10.0, 0)
        prox = RMetricProx(r, FeasibleSet(kind=kind, dim=4, radius=1.0))
        with pytest.raises(InnerSolverStallError):
            prox.solve(np.array([np.inf, 0.0, 0.0, 0.0]), np.zeros(4), 1.0)

    @pytest.mark.parametrize("kind,cap", [("l2_ball", "_NEWTON_CAP"),
                                          ("l1_ball", "_BREAKPOINT_CAP_PER_DIM")])
    def test_exhausted_step_budget_raises(self, kind, cap, monkeypatch):
        r, radius, z = ball_instance(kind, 6, 1e3, 0, 3.0)
        monkeypatch.setattr(feasible_mod, cap, 1 if kind == "l2_ball" else 0)
        with pytest.raises(InnerSolverStallError):
            ball_step(kind, r, radius, z)


def count_segments(monkeypatch):
    """A list that gains one entry per path piece any RMetricProx solves."""
    calls = []
    segment = RMetricProx._segment

    def counted(self, *args):
        calls.append(1)
        return segment(self, *args)

    monkeypatch.setattr(RMetricProx, "_segment", counted)
    return calls


def l1_step(prox, z):
    """The l1-ball step at z through the public solve (x_prev = z, c = 0)."""
    return prox.solve(z, np.zeros_like(z), 1.0)


def primed_prox(seed):
    """(R, W, a prox that has taken the l1 step at z, z, a point near z)."""
    r, radius, z = ball_instance("l1_ball", 20, 1e2, seed, 3.0)
    w = FeasibleSet.l1_ball(radius, 20)
    prox = RMetricProx(r, w)
    l1_step(prox, z)
    near = z + 1e-6 * np.random.default_rng(seed).standard_normal(20)
    return r, w, prox, z, near


class TestWarmL1Prox:
    """An instance starts each l1 solve from the signed support of its
    last answer; the result must be the path's."""

    # Warm faces that looser warm tests kept, 5e-3, 7e-4 and 8e-5 off the
    # path's answer: near kappa 1e7 the rounding of R^T R (z - x) is about
    # 5 % of lam. Random kappa stops at 1e6: from 1e7 on the path itself
    # fails now and then (see CHANGES.md).
    @example(d=38, log_kappa=7.0, seed=0, excess=1.03125, log_move=-1.0)
    @example(d=48, log_kappa=7.0, seed=46, excess=1.001, log_move=-1.125)
    @example(d=37, log_kappa=6.6875, seed=671, excess=1.001, log_move=-2.8359375)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 50), st.floats(0.0, 6.0), st.integers(0, 2**31),
           st.floats(1.001, 100.0), st.floats(-6.0, -1.0))
    def test_nearby_steps_match_a_fresh_instance(self, d, log_kappa, seed, excess,
                                                  log_move):
        r, radius, z = ball_instance("l1_ball", d, 10.0**log_kappa, seed, excess)
        w = FeasibleSet.l1_ball(radius, d)
        prox = RMetricProx(r, w)
        rng = np.random.default_rng([seed, 2])
        for _ in range(6):
            x = l1_step(prox, z)
            want = l1_step(RMetricProx(r, w), z)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            if np.sum(np.abs(z)) > radius:
                assert l1_kkt_residual(r, radius, z, x) <= 1e-10
            z = z + 10.0**log_move * rng.standard_normal(d)

    def test_support_change_returns_the_cold_answer(self, monkeypatch):
        r, w, prox, z, _ = primed_prox(7)
        calls = count_segments(monkeypatch)
        x = l1_step(prox, -z)  # every sign of the last answer is wrong
        assert len(calls) > 1
        np.testing.assert_array_equal(x, l1_step(RMetricProx(r, w), -z))

    def test_warm_hit_runs_one_segment(self, monkeypatch):
        r, w, prox, _, near = primed_prox(8)
        calls = count_segments(monkeypatch)
        x = l1_step(prox, near)
        assert len(calls) == 1
        want = l1_step(RMetricProx(r, w), near)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_failed_warm_piece_falls_back_to_the_path(self, monkeypatch):
        # Only the warm piece's check fails: the path's answer comes back.
        r, w, prox, _, near = primed_prox(9)
        checks = []
        check = RMetricProx._l1_kkt_failure

        def fail_first(self, *args):
            checks.append(1)
            return "forced" if len(checks) == 1 else check(self, *args)

        monkeypatch.setattr(RMetricProx, "_l1_kkt_failure", fail_first)
        calls = count_segments(monkeypatch)
        x = l1_step(prox, near)
        assert len(checks) == 2 and len(calls) > 1
        monkeypatch.undo()
        np.testing.assert_array_equal(x, l1_step(RMetricProx(r, w), near))

    def test_zero_tolerance_raises_as_the_path_does(self, monkeypatch):
        # With no tolerance the warm piece fails, and so does the path:
        # the call raises what a fresh instance (the path alone) raises.
        r, w, prox, _, near = primed_prox(10)
        monkeypatch.setattr(feasible_mod, "_KKT_TOL", 0.0)
        calls = count_segments(monkeypatch)
        with pytest.raises(InnerSolverStallError) as warm:
            l1_step(prox, near)
        assert len(calls) > 1
        with pytest.raises(InnerSolverStallError) as cold:
            l1_step(RMetricProx(r, w), near)
        assert str(warm.value) == str(cold.value)


class TestDiameterParam:
    def test_l2_formula(self):
        assert diameter_param(FeasibleSet.l2_ball(np.sqrt(2.0), 3)) == pytest.approx(1.0)

    def test_l1_vertex_enumeration(self):
        # max ||x||_2 over the l1 ball is attained at a vertex.
        radius = 2.0
        vertices = []
        for i in range(4):
            for sign in (-1.0, 1.0):
                v = np.zeros(4)
                v[i] = sign * radius
                vertices.append(np.linalg.norm(v))
        expected = np.sqrt(max(vertices) ** 2 / 2.0 - 0.0)
        assert expected == pytest.approx(np.sqrt(2.0))
        assert diameter_param(FeasibleSet.l1_ball(radius, 4)) == pytest.approx(np.sqrt(2.0))

    def test_r_metric_l2_is_sigma_max_on_the_sphere(self):
        # max ||R x|| over the sphere is sigma_max(R) rho, at the top
        # right singular vector.
        r = triangular_factor(5, 1e3, 1)
        top = np.linalg.svd(r)[2][0]
        want = np.linalg.norm(r @ (2.0 * top)) / np.sqrt(2.0)
        got = diameter_param(FeasibleSet.l2_ball(2.0, 5), r_factor=r)
        assert got == pytest.approx(want, rel=1e-12)
        bounded = diameter_param(FeasibleSet.unconstrained(5), 2.0, r)
        assert bounded == pytest.approx(want, rel=1e-12)

    def test_r_metric_l1_vertex_enumeration(self):
        r = triangular_factor(5, 1e3, 2)
        vertices = [np.linalg.norm(r @ (sign * 2.0 * e)) for e in np.eye(5) for sign in (-1, 1)]
        got = diameter_param(FeasibleSet.l1_ball(2.0, 5), r_factor=r)
        assert got == pytest.approx(max(vertices) / np.sqrt(2.0), rel=1e-12)

    def test_unconstrained_needs_bound(self):
        w = FeasibleSet.unconstrained(2)
        assert diameter_param(w, user_bound=3.0) == pytest.approx(3.0 / np.sqrt(2.0))
        with pytest.raises(UnboundedSetError):
            diameter_param(w)
