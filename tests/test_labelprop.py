import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from masc import evaluate, labelprop
from masc.fixtures import RotatedRasterConfig, RotatedRasterFixture
from masc.graph import GraphConfig, build_knn_graph, normalize_similarity
from masc.evaluate import make_classifier
from masc.labelprop import (
    LPConfig,
    lp_iterate,
    lp_solve,
    lp_votes,
    observation_votes,
    propagation_labels,
    row_labels,
)
from masc.smoothing import one_hot_labels
from oracles import lp_cost, random_graph_instance, reference_lp_votes


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
        assert observation_votes(M, 4).tolist() == [0, 0, 4, 0]

    def test_plurality(self):
        M = np.zeros((5, 2))
        M[:3, 0] = 1.0
        M[3:, 1] = 1.0
        assert observation_votes(M, 5).tolist() == [3, 2]

    def test_tie_breaks_to_smallest(self):
        M = np.zeros((4, 5))
        M[:2, 1] = 1.0  # two votes for class 2
        M[2:, 3] = 1.0  # two votes for class 4
        assert observation_votes(M, 4).tolist() == [0, 2, 0, 2, 0]
        M[0, 3] = 1.0  # a row tied between classes 2 and 4 votes for 2
        assert observation_votes(M, 4).tolist() == [0, 2, 0, 2, 0]
        # a tied vote decides for the smaller class, flagged as a tie
        train = [np.zeros((3, 2)), np.full((3, 2), 10.0)]
        train[0][:, 1] = train[1][:, 1] = [0.0, 0.1, 0.2]
        obs = np.array([[0.5, 0.1], [9.5, 0.1]])
        dec = make_classifier("lp", k=2)(train, obs)
        assert (dec.decision, dec.scores, dec.tie) == (1, (0.5, 0.5), True)

    def test_only_observation_rows_vote(self):
        M = np.zeros((5, 2))
        M[:3, 0] = 1.0  # labelled rows, must be ignored
        M[3:, 1] = 1.0
        assert observation_votes(M, 2).tolist() == [0, 2]


def similarity(n, edges):
    """Normalised S of the symmetric graph with weighted edges (i, j, w)."""
    i, j, w = zip(*edges)
    H = sparse.csr_matrix((w, (i, j)), shape=(n, n))
    H = (H + H.T).tocsr()
    return normalize_similarity(H, np.asarray(H.sum(axis=1)).ravel())


class TestCertifiedVotes:
    """The CG helper called directly, so small purpose-built graphs reach
    it; None means the dense solve decides."""

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_component_without_labels_votes_for_class_one(self, mu):
        # labelled 0, 1 (class 1) and 2, 3 (class 2); observation 4 hangs
        # off class 2, observations 5 and 6 form a component of their own
        S = similarity(7, [(0, 1, 1.0), (1, 2, 0.2), (2, 3, 1.0), (3, 4, 1.0), (5, 6, 1.0)])
        Y_l = one_hot_labels([1, 1, 2, 2], 2)
        M = lp_solve(S, np.vstack([Y_l, np.zeros((3, 2))]), mu)
        assert not M[5:].any()  # the dense solve leaves them exactly zero
        votes = labelprop._cg_votes(S, Y_l, 3, mu)
        assert votes.tolist() == reference_lp_votes(S, Y_l, 3, mu).tolist() == [2, 1]

    def test_exact_mirror_tie_falls_back(self):
        S = similarity(3, [(0, 2, 1.0), (1, 2, 1.0)])
        Y_l = one_hot_labels([1, 2], 2)
        assert labelprop._cg_votes(S, Y_l, 1) is None
        assert reference_lp_votes(S, Y_l, 1).tolist() == [1, 0]

    def test_near_tie_below_the_bound_falls_back(self):
        # class 2's edge is heavier by 1e-13: the dense rows differ by
        # about 2e-14, far below what the error bound can separate
        S = similarity(3, [(0, 2, 1.0), (1, 2, 1.0 + 1e-13)])
        Y_l = one_hot_labels([1, 2], 2)
        M = lp_solve(S, np.vstack([Y_l, np.zeros((1, 2))]))
        assert 0 < M[2, 1] - M[2, 0] < 1e-13
        assert labelprop._cg_votes(S, Y_l, 1) is None
        assert reference_lp_votes(S, Y_l, 1).tolist() == [0, 1]

    def test_clear_margin_is_certified(self):
        S = similarity(3, [(0, 2, 1.0), (1, 2, 1.001)])
        Y_l = one_hot_labels([1, 2], 2)
        assert labelprop._cg_votes(S, Y_l, 1).tolist() == [0, 1]

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_path_beyond_the_iteration_cap_falls_back(self, mu):
        # a chain of observations reaching further than any CG run: its far
        # rows are exactly zero in CG yet favour class 2 in the dense solve
        length = labelprop._CG_MAX_ITER + 20
        edges = [(0, 2, 1.0), (1, 2, 3.0)]
        edges += [(t, t + 1, 1.0) for t in range(2, 1 + length)]
        S = similarity(2 + length, edges)
        Y_l = one_hot_labels([1, 2], 2)
        assert labelprop._cg_votes(S, Y_l, length, mu) is None
        assert reference_lp_votes(S, Y_l, length, mu).tolist() == [0, length]

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_knn_graph_is_certified_at_each_mu(self, mu):
        # three well-separated clusters, the observations drawn near cluster 2
        rng = np.random.default_rng(20)
        centres = 6.0 * np.eye(3, 5)
        labelled = np.vstack([c + rng.normal(size=(100, 5)) for c in centres])
        obs = centres[1] + rng.normal(size=(40, 5))
        g = build_knn_graph(np.vstack([labelled, obs]), GraphConfig(k=5))
        Y_l = one_hot_labels(np.repeat([1, 2, 3], 100), 3)
        votes = labelprop._cg_votes(g.S, Y_l, 40, mu)
        assert votes.tolist() == reference_lp_votes(g.S, Y_l, 40, mu).tolist()

    def test_single_class(self):
        S = similarity(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert labelprop._cg_votes(S, one_hot_labels([1], 1), 2).tolist() == [2]


class TestVotesEqualTheDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mu=st.sampled_from([0.1, 1.0, 10.0]))
    def test_certified_votes_on_random_knn_graphs(self, seed, mu):
        S, Y_l, l, m, c = random_graph_instance(np.random.default_rng(seed), n_max=120)
        want = reference_lp_votes(S, Y_l, m, mu)
        votes = labelprop._cg_votes(S, Y_l, m, mu)
        assert votes is None or votes.tolist() == want.tolist()
        assert lp_votes(S, Y_l, m, mu).tolist() == want.tolist()

    def test_rejects_mismatched_shapes(self):
        S, Y_l, l, m, c = random_graph_instance(np.random.default_rng(0))
        for bad in (0, m + 1):
            with pytest.raises(ValueError):
                lp_votes(S, Y_l, bad)

    def test_lp_classifier_on_a_large_raster_gallery(self, monkeypatch):
        # l = 1000, so every query tries CG first; the decisions must be
        # bitwise those of the dense votes on the same graph, through both
        # the certified path and the dense fallback
        paths = {"cg": 0, "fallback": 0}
        for name, key in (("_cg_votes", "cg"), ("lp_solve", "fallback")):
            def counting(*args, _real=getattr(labelprop, name), _key=key, **kwargs):
                paths[_key] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(labelprop, name, counting)
        graphs = []

        def recording(S, Y_l, m, mu):
            graphs.append(S)
            return lp_votes(S, Y_l, m, mu)

        monkeypatch.setattr(evaluate, "lp_votes", recording)
        fixture = RotatedRasterFixture(RotatedRasterConfig(seed=0))
        gallery = fixture.gallery(100, np.random.default_rng([0, 1]))
        Y_l = one_hot_labels(np.repeat(np.arange(1, 11), [len(ts) for ts in gallery]), 10)
        classify = make_classifier("lp")
        decisions = []
        for q in range(30):
            m = (10, 50, 150)[q % 3]
            _, obs = fixture.make_instance(q % 10 + 1, m, np.random.default_rng([0, 4, q]))
            decisions.append((m, classify(gallery, obs)))
        assert paths["cg"] == len(decisions)
        assert 0 < paths["fallback"] < len(decisions)
        monkeypatch.undo()
        for (m, dec), S in zip(decisions, graphs, strict=True):
            want = reference_lp_votes(S, Y_l, m)
            assert dec.decision == int(np.argmax(want)) + 1
            assert dec.scores == tuple(float(v) / m for v in want)
            assert dec.tie == bool((want == want.max()).sum() > 1)
