import numpy as np
import pytest

from masc.graph import GraphConfig, build_knn_graph
from masc.labelprop import (
    LPConfig,
    lp_classify_majority,
    lp_cost,
    lp_iterate,
    lp_solve,
    propagation_labels,
    row_labels,
)
from masc.smoothing import one_hot_labels


def small_instance(seed, n=20, c=3, l=12, k=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    g = build_knn_graph(X, GraphConfig(k=k, sigma=1.0))
    labels = rng.integers(1, c + 1, size=l)
    Y = propagation_labels(labels, c, n - l)
    return g, Y, labels


class TestLPConfig:
    def test_coefficients(self):
        cfg = LPConfig(mu=3.0)
        assert cfg.alpha == pytest.approx(0.25)
        assert cfg.beta == pytest.approx(0.75)
        assert cfg.alpha + cfg.beta == 1.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            LPConfig(mu=0.0)


class TestLpSolve:
    def test_zero_similarity_plugin(self):
        Y = one_hot_labels([1, 2, 1], 2)
        mu = 2.0
        cfg = LPConfig(mu)
        M = lp_solve(np.zeros((3, 3)), Y, mu)
        np.testing.assert_allclose(M, cfg.beta * mu * Y, rtol=1e-14)

    def test_mu_one_zero_similarity_halves(self):
        Y = one_hot_labels([2, 1], 2)
        np.testing.assert_allclose(lp_solve(np.zeros((2, 2)), Y, 1.0), Y / 2.0, rtol=1e-14)

    def test_fixed_point_identity(self):
        for seed, mu in ((0, 0.5), (1, 1.0), (2, 4.0)):
            g, Y, _ = small_instance(seed)
            cfg = LPConfig(mu)
            M = lp_solve(g.S, Y, mu)
            rhs = cfg.alpha * (g.S @ M) + cfg.beta * mu * Y
            assert np.max(np.abs(M - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(M)))

    def test_iteration_converges_to_closed_form(self):
        for seed, mu in ((3, 0.3), (4, 1.0), (5, 2.5)):
            g, Y, _ = small_instance(seed, n=40, l=25)
            M_direct = lp_solve(g.S, Y, mu)
            M_iter, steps = lp_iterate(g.S, Y, mu, tol=1e-13, max_iter=10_000)
            assert steps <= 10_000
            assert np.max(np.abs(M_iter - M_direct)) <= 1e-8

    def test_nonnegativity(self):
        g, Y, _ = small_instance(6)
        M = lp_solve(g.S, Y, 1.0)
        assert M.min() >= -1e-12

    def test_large_mu_recovers_labels(self):
        g, Y, labels = small_instance(7)
        M = lp_solve(g.S, Y, 1e6)
        np.testing.assert_array_equal(row_labels(M[: len(labels)]), labels)

    def test_in_place_system_matches_the_plain_expression_bytewise(self):
        # A = I - alpha S is built in one buffer; every entry, signed zeros
        # included, must round as in np.eye(n) - alpha * S
        for seed, mu in ((9, 1.0), (10, 0.3), (11, 7.0)):
            g, Y, _ = small_instance(seed, n=60, l=40, k=4)
            cfg = LPConfig(mu)
            Sd = g.S.toarray()
            want = cfg.beta * cfg.mu * np.linalg.solve(np.eye(g.n) - cfg.alpha * Sd, Y)
            assert lp_solve(g.S, Y, mu).tobytes() == want.tobytes()
            before = Sd.copy()
            assert lp_solve(Sd, Y, mu).tobytes() == want.tobytes()
            assert Sd.tobytes() == before.tobytes()  # dense input left alone
            Sd[np.diag_indices(g.n)] = 0.1  # a stored diagonal rounds alike
            want = cfg.beta * cfg.mu * np.linalg.solve(np.eye(g.n) - cfg.alpha * Sd, Y)
            assert lp_solve(Sd, Y, mu).tobytes() == want.tobytes()

    def test_scaling_y(self):
        g, Y, _ = small_instance(8)
        M1 = lp_solve(g.S, Y, 1.5)
        M2 = lp_solve(g.S, 3.0 * Y, 1.5)
        np.testing.assert_allclose(M2, 3.0 * M1, rtol=1e-10)
        np.testing.assert_array_equal(row_labels(M1), row_labels(M2))


class TestLpCost:
    def test_fitness_vanishes_at_y(self):
        g, Y, _ = small_instance(9)
        mu = 2.0
        smooth_only = lp_cost(g.H, g.degrees, Y, Y, mu)
        # adding any fitness-free perturbation of Y changes only smoothness
        assert smooth_only == pytest.approx(
            lp_cost(g.H, g.degrees, Y, Y, 0.001), rel=1e-12
        )

    def test_zero_graph_cost(self):
        rng = np.random.default_rng(10)
        M = rng.random((6, 2))
        Y = rng.random((6, 2))
        D = np.ones(6)
        mu = 3.0
        expected = 0.5 * mu * np.sum((M - Y) ** 2)
        assert lp_cost(np.zeros((6, 6)), D, M, Y, mu) == pytest.approx(expected, rel=1e-12)

    def test_minimum_at_stationary_point(self):
        # the cost is quadratic; its exact minimizer solves
        # ((2 + mu) I - 2 S) M = mu Y, derived by setting the gradient to zero
        rng = np.random.default_rng(11)
        g, Y, _ = small_instance(12, n=15, l=9)
        mu = 1.7
        n = g.n
        S = g.S.toarray()
        M_hat = np.linalg.solve((2.0 + mu) * np.eye(n) - 2.0 * S, mu * Y)
        base = lp_cost(g.H, g.degrees, M_hat, Y, mu)
        for _ in range(100):
            eps = rng.normal(size=M_hat.shape) * 1e-3
            assert base <= lp_cost(g.H, g.degrees, M_hat + eps, Y, mu)


class TestMajorityVote:
    def test_unanimous(self):
        M = np.zeros((4, 4))
        M[:, 2] = 1.0
        assert lp_classify_majority(M, 4) == 3

    def test_plurality(self):
        M = np.zeros((5, 2))
        M[:3, 0] = 1.0
        M[3:, 1] = 1.0
        assert lp_classify_majority(M, 5) == 1

    def test_tie_breaks_to_smallest(self):
        M = np.zeros((4, 5))
        M[:2, 1] = 1.0  # two votes for class 2
        M[2:, 3] = 1.0  # two votes for class 4
        assert lp_classify_majority(M, 4) == 2

    def test_only_observation_rows_vote(self):
        M = np.zeros((5, 2))
        M[:3, 0] = 1.0  # labelled rows, must be ignored
        M[3:, 1] = 1.0
        assert lp_classify_majority(M, 2) == 2
