import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchreg.errors import InnerSolverStallError, UnboundedSetError
from sketchreg.feasible import (
    FeasibleSet,
    RMetricProx,
    diameter_param,
    project_euclidean,
)
from helpers import prox_r_metric


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

    def test_l1_stalls_on_hopeless_conditioning(self):
        from sketchreg.linalg import qr_thin

        w = FeasibleSet.l1_ball(1.0, 2)
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        r = qr_thin(rot @ np.diag([1.0, 1e5])).r  # kappa(R^T R) = 1e10
        with pytest.raises(InnerSolverStallError):
            prox_r_metric(w, r, np.array([0.7, 0.2]), np.array([3.0, -2.0]), 1.0)

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

    def test_unconstrained_needs_bound(self):
        w = FeasibleSet.unconstrained(2)
        assert diameter_param(w, user_bound=3.0) == pytest.approx(3.0 / np.sqrt(2.0))
        with pytest.raises(UnboundedSetError):
            diameter_param(w)
