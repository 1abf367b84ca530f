import numpy as np
import pytest

from masc.graph import GraphConfig, build_knn_graph
from masc.smoothing import (
    class_conditional_matrix,
    full_smoothness,
    interface_smoothness,
    labeled_constant,
    masc_classify,
    one_hot_labels,
)
from oracles import partitioned_smoothness, random_graph_instance, smoothness_by_loops


class TestClassConditionalMatrix:
    def test_structure(self):
        Y_l = np.array([[1.0, 0.0], [0.0, 1.0]])
        Z = class_conditional_matrix(Y_l, m=2, p=1)
        np.testing.assert_array_equal(Z[:2], Y_l)
        np.testing.assert_array_equal(Z[2:], [[1.0, 0.0], [1.0, 0.0]])

    def test_last_class(self):
        Y_l = one_hot_labels([1, 2, 3], 3)
        Z = class_conditional_matrix(Y_l, m=2, p=3)
        np.testing.assert_array_equal(Z[3:, 2], [1.0, 1.0])
        np.testing.assert_array_equal(Z[3:, :2], 0.0)

    def test_bottom_blocks_sum_to_ones(self):
        Y_l = one_hot_labels([2, 1], 4)
        m = 3
        total = sum(class_conditional_matrix(Y_l, m, p)[2:] for p in range(1, 5))
        np.testing.assert_array_equal(total, np.ones((m, 4)))

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            class_conditional_matrix(one_hot_labels([1], 2), 1, 3)


class TestFullSmoothness:
    def test_constant_rows_zero(self):
        S = np.random.default_rng(0).random((5, 5))
        M = np.tile([0.2, 0.8], (5, 1))
        assert full_smoothness(S, M) == 0.0

    def test_hand_evaluated(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert full_smoothness(S, M) == 2.0

    def test_linear_in_s(self):
        rng = np.random.default_rng(1)
        S = rng.random((6, 6))
        M = rng.random((6, 3))
        base = full_smoothness(S, M)
        assert full_smoothness(3.5 * S, M) == pytest.approx(3.5 * base, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        S = rng.random((7, 7))
        M = rng.random((7, 2))
        assert full_smoothness(S, M) == pytest.approx(smoothness_by_loops(S, M), rel=1e-12)


class TestInterfaceSmoothness:
    def test_no_interface_edges(self):
        S = np.zeros((4, 4))
        S[0, 1] = S[1, 0] = 1.0  # labelled-labelled only
        S[2, 3] = S[3, 2] = 1.0  # unlabelled-unlabelled only
        Y_l = one_hot_labels([1, 2], 2)
        for lam in np.eye(2):
            assert interface_smoothness(S, Y_l, lam) == 0.0

    def test_single_edge(self):
        s = 0.37
        S = np.array([[0.0, s], [s, 0.0]])
        Y_l = one_hot_labels([1], 2)
        assert interface_smoothness(S, Y_l, [1.0, 0.0]) == 0.0
        assert interface_smoothness(S, Y_l, [0.0, 1.0]) == pytest.approx(2 * s, rel=1e-12)

    def test_reduction_matches_full_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            S, Y_l, l, m, c = random_graph_instance(rng)
            C = labeled_constant(S, Y_l)
            for p in range(1, c + 1):
                M = class_conditional_matrix(Y_l, m, p)
                full = full_smoothness(S, M)
                reduced = C + interface_smoothness(S, Y_l, np.eye(c)[p - 1])
                assert full == pytest.approx(reduced, rel=1e-10)

    def test_partitioned_proof_cases(self):
        rng = np.random.default_rng(4)
        S, Y_l, l, m, c = random_graph_instance(rng, n_max=18)
        constants = []
        for p in range(1, c + 1):
            M = class_conditional_matrix(Y_l, m, p)
            q1, q2, q3, q4 = partitioned_smoothness(S, M, l)
            # labelled block does not depend on the candidate
            constants.append(q1)
            assert q1 == pytest.approx(labeled_constant(S, Y_l), rel=1e-12)
            # unlabelled rows are identical, so their block vanishes
            assert q2 == 0.0
            lam = np.eye(c)[p - 1]
            assert q3 + q4 == pytest.approx(interface_smoothness(S, Y_l, lam), rel=1e-10)
        assert max(constants) == pytest.approx(min(constants), rel=1e-12)


class TestMascClassify:
    def test_blob_instance_matches_brute_force(self):
        rng = np.random.default_rng(5)
        blob1 = rng.normal(size=(5, 2)) + [0.0, 0.0]
        blob2 = rng.normal(size=(5, 2)) + [8.0, 8.0]
        obs = rng.normal(size=(5, 2), scale=0.5) + [8.0, 8.0]
        X = np.vstack([blob1, blob2, obs])
        Y_l = one_hot_labels([1] * 5 + [2] * 5, 2)
        g = build_knn_graph(X, GraphConfig(k=3, sigma=1.0))
        res = masc_classify(g.S, Y_l, m=5)
        assert res.decision == 2
        brute = [
            full_smoothness(g.S, class_conditional_matrix(Y_l, 5, p)) for p in (1, 2)
        ]
        assert int(np.argmin(brute)) + 1 == 2

    def test_symmetric_geometry_ties(self):
        # mirror-image clusters with the observation at the midpoint
        X = np.array([[-2.0], [2.0], [0.0]])
        Y_l = one_hot_labels([1, 2], 2)
        g = build_knn_graph(X, GraphConfig(k=1, sigma=1.0))
        res = masc_classify(g.S, Y_l, m=1)
        assert res.scores[0] == res.scores[1]
        assert res.tie
        assert res.decision == 1

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            S, Y_l, l, m, c = random_graph_instance(rng)
            res = masc_classify(S, Y_l, m)
            brute = [
                full_smoothness(S, class_conditional_matrix(Y_l, m, p))
                for p in range(1, c + 1)
            ]
            assert res.decision == int(np.argmin(brute)) + 1

    def test_scores_are_twice_interface(self):
        rng = np.random.default_rng(7)
        S, Y_l, l, m, c = random_graph_instance(rng)
        res = masc_classify(S, Y_l, m)
        for p in range(1, c + 1):
            expected = 2.0 * interface_smoothness(S, Y_l, np.eye(c)[p - 1])
            assert res.scores[p - 1] == pytest.approx(expected, rel=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        S, Y_l, l, m, c = random_graph_instance(rng)
        base = masc_classify(S, Y_l, m)
        scaled = masc_classify(S * 7.25, Y_l, m)
        assert base.decision == scaled.decision

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        S, Y_l, l, m, c = random_graph_instance(rng)
        perm = rng.permutation(c)
        res = masc_classify(S, Y_l, m)
        res_perm = masc_classify(S, Y_l[:, perm], m)
        np.testing.assert_allclose(res_perm.scores, res.scores[perm], rtol=1e-12)

    def test_exactly_c_candidates(self):
        rng = np.random.default_rng(10)
        S, Y_l, l, m, c = random_graph_instance(rng)
        assert masc_classify(S, Y_l, m).scores.shape == (c,)
