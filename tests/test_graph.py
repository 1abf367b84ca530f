import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from masc import graph
from masc.data import DataError
from masc.graph import (
    GalleryIndex,
    GraphConfig,
    build_knn_graph,
    dump_edges,
    estimate_sigma,
    normalize_similarity,
)
from oracles import brute_force_neighbors, reference_knn_graph, reference_sigma


class TestEstimateSigma:
    def test_equal_distances(self):
        X = np.array([[0.0], [4.0]])
        assert estimate_sigma(X) == 2.0

    def test_enumerated_three_points(self):
        X = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances {1, 2, 3}, median 2
        assert estimate_sigma(X) == 1.0

    def test_deterministic_with_subsampling(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2000, 3))
        cfg = GraphConfig(sigma_sample_cap=500, sigma_seed=7)
        assert estimate_sigma(X, cfg) == estimate_sigma(X, cfg)

    def test_zero_median_errors(self):
        # the data's fault, not the configuration's: a DataError, which the
        # CLI reports with exit code 3
        X = np.zeros((5, 2))
        with pytest.raises(DataError, match="zero median"):
            estimate_sigma(X)


class TestBuildKnnGraph:
    def test_duplicate_points_weight_one(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = build_knn_graph(X, GraphConfig(k=1, sigma=1.0))
        assert g.H[0, 1] == 1.0
        assert g.H[0, 0] == 0.0

    def test_analytic_weight(self):
        sigma = 1.5
        dist = sigma * math.sqrt(2.0)
        X = np.array([[0.0], [dist]])
        g = build_knn_graph(X, GraphConfig(k=1, sigma=sigma))
        assert g.H[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_non_neighbors_zero(self):
        # 4 colinear points; with k=1 the two far ends never link
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        g = build_knn_graph(X, GraphConfig(k=1, sigma=1.0))
        assert g.H[0, 2] == 0.0 and g.H[0, 3] == 0.0
        assert g.H[0, 1] > 0.0 and g.H[2, 3] > 0.0

    def test_needs_k_plus_one(self):
        with pytest.raises(ValueError, match="k\\+1"):
            build_knn_graph(np.zeros((3, 2)), GraphConfig(k=3, sigma=1.0))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        g = build_knn_graph(X, GraphConfig(k=4, sigma=1.0))
        H = g.H.toarray()
        S = g.S.toarray()
        np.testing.assert_array_equal(H, H.T)
        np.testing.assert_array_equal(S, S.T)
        assert np.all(H.diagonal() == 0.0)

    def test_knn_containment(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        k = 3
        g = build_knn_graph(X, GraphConfig(k=k, sigma=1.0))
        H = g.H.toarray()
        for i, nbrs in enumerate(brute_force_neighbors(X, k)):
            for j in nbrs:
                assert H[i, j] > 0.0

    def test_eigenvalues_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for n, k in ((12, 2), (30, 5), (50, 4)):
            X = rng.normal(size=(n, 3))
            g = build_knn_graph(X, GraphConfig(k=k, sigma=1.0))
            vals = np.linalg.eigvalsh(g.S.toarray())
            assert vals.min() >= -1.0 - 1e-10
            assert vals.max() <= 1.0 + 1e-10

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        g1 = build_knn_graph(X, GraphConfig(k=3, sigma=0.7))
        g2 = build_knn_graph(X, GraphConfig(k=3, sigma=1.4))
        H1, H2 = g1.H.toarray(), g2.H.toarray()
        mask = H1 > 0
        assert np.all(H2[mask] >= H1[mask])

    def test_degrees_positive(self):
        rng = np.random.default_rng(5)
        g = build_knn_graph(rng.normal(size=(20, 2)), GraphConfig(k=1, sigma=1.0))
        assert np.all(g.degrees > 0)


class TestNormalizeSimilarity:
    def test_two_node_identity(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = normalize_similarity(H, H.sum(axis=1)).toarray()
        np.testing.assert_array_equal(S, H)

    def test_three_node_star(self):
        H = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        S = normalize_similarity(H, H.sum(axis=1)).toarray()
        assert S[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert S[0, 2] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_formula_oracle(self):
        rng = np.random.default_rng(6)
        H = rng.random((15, 15)) * (rng.random((15, 15)) < 0.3)
        H = np.triu(H, 1)
        H = H + H.T
        H[0, 1] = H[1, 0] = 0.5  # keep every node connected
        for i in range(15):
            if H[i].sum() == 0:
                H[i, (i + 1) % 15] = H[(i + 1) % 15, i] = 0.25
        D = H.sum(axis=1)
        S = normalize_similarity(H, D).toarray()
        recovered = S * np.sqrt(np.outer(D, D))
        assert np.max(np.abs(recovered - H)) <= 1e-12

    def test_zero_degree_names_node(self):
        H = np.zeros((3, 3))
        H[0, 1] = H[1, 0] = 1.0
        with pytest.raises(ValueError, match="node 3"):
            normalize_similarity(H, H.sum(axis=1))


def test_dump_edges_format():
    X = np.array([[0.0], [1.0], [2.0]])
    g = build_knn_graph(X, GraphConfig(k=1, sigma=1.0))
    text = dump_edges(g)
    lines = text.strip().splitlines()
    assert lines[0].startswith("1 2 ")
    for line in lines:
        i, j, w = line.split()
        assert int(i) < int(j)
        assert float(w) > 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 39, 40, 45])
@pytest.mark.parametrize("tile", [1, 7])
def test_gallery_neighbours_across_row_tiles_with_ties(monkeypatch, tile, k):
    # a 40-row integer grid with duplicate rows: nearly every row has ties at
    # its k-th distance, and row tiles of 1 or 7 (the last of them 5) split
    # the gallery, which at the default tile size happens only from l = 363
    monkeypatch.setattr(graph, "_BLOCK", tile * 40)
    rng = np.random.default_rng(11)
    X = rng.integers(0, 3, size=(40, 2)).astype(float)
    X[30:] = X[:10]
    idx, d2 = GalleryIndex(X).neighbours(k)
    assert idx.tolist() == brute_force_neighbors(X, min(k, 39))
    D = cdist(X, X, "sqeuclidean")
    assert d2.tobytes() == np.take_along_axis(D, idx, axis=1).tobytes()


# -- the distances the GEMM filter rests on -------------------------------------

def _spread_rows(rng, n, d):
    """Rows whose coordinates span six orders of magnitude, so that the
    summation order of a squared distance shows in its last bits."""
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))


@pytest.mark.parametrize("d", [1, 5, 256, 257])
def test_row_cdist_on_a_column_subset_equals_the_full_block_and_pdist(d):
    # the filter recomputes the pairs G cannot place one observation row at
    # a time, on a subset of the gallery rows; graphs stay bitwise only if
    # those values equal the full block's and pdist's
    rng = np.random.default_rng(d)
    X, obs = _spread_rows(rng, 40, d), _spread_rows(rng, 9, d)
    full = cdist(obs, X, "sqeuclidean")
    P = squareform(pdist(np.vstack([X, obs]), "sqeuclidean"))
    assert full.tobytes() == np.ascontiguousarray(P[40:, :40]).tobytes()
    for i in range(obs.shape[0]):
        for cols in (np.sort(rng.choice(40, size=7, replace=False)), rng.permutation(40)[:3],
                     np.arange(40), np.array([i])):
            got = cdist(obs[i:i + 1], X[cols], "sqeuclidean")[0]
            assert got.tobytes() == full[i, cols].tobytes(), (i, cols)


@pytest.mark.parametrize("shift,scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 2.0 ** -60),
                                         (0.0, 2.0 ** 60), (-3e3, 1e-3)])
@pytest.mark.parametrize("d", [1, 5, 257])
def test_estimate_stays_within_its_bound(monkeypatch, d, shift, scale):
    monkeypatch.setattr(graph, "_FILTER_MIN_L", 0)
    rng = np.random.default_rng([d, 7])
    X = (_spread_rows(rng, 60, d) + shift) * scale
    obs = np.vstack([(_spread_rows(rng, 12, d) + shift) * scale, X[:3], X[:3] + scale * 1e-9])
    cross = GalleryIndex(X).cross(obs)
    assert cross.e.all() and np.isfinite(cross.e).all()  # the estimate, not the block
    exact = cdist(obs, X, "sqeuclidean")
    assert (np.abs(cross.G - exact) <= cross.e[:, None]).all()
    rows, cols = np.nonzero(rng.random(exact.shape) < 0.3)
    assert cross.exact(rows, cols).tobytes() == exact[rows, cols].tobytes()


def test_estimate_gives_way_to_the_block_near_overflow(monkeypatch):
    monkeypatch.setattr(graph, "_FILTER_MIN_L", 0)
    X = np.random.default_rng(8).normal(size=(30, 3)) * 1e305
    cross = GalleryIndex(X).cross(X[:4] * 0.5)
    assert not cross.e.any()
    assert cross.G.tobytes() == cdist(X[:4] * 0.5, X, "sqeuclidean").tobytes()


def _same_error(library, reference):
    """Both calls raise; the reference raises the library's type and message."""
    with pytest.raises(ValueError) as want:
        library()
    with pytest.raises(ValueError) as got:
        reference()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    return want.value


@pytest.mark.parametrize("X", [
    [[0.0], [3e-162]],  # 2 sigma² subnormal
    [[0.0], [1e-170], [2e-170]],  # 2 sigma² underflows to 0
    [[1.0], [1.0], [1.0], [1.0], [2.0]],  # zero median
    [[-1e308], [1e308], [1e308]],  # the distances overflow
], ids=["subnormal", "underflow", "zero", "overflow"])
def test_the_reference_sigma_rejects_what_the_library_rejects(X):
    X, config = np.array(X), GraphConfig()
    err = _same_error(lambda: estimate_sigma(X, config), lambda: reference_sigma(X, config))
    assert isinstance(err, DataError)


@pytest.mark.parametrize("far", [0, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_reference_graph_rejects_a_k_th_distance_that_overflows(k, far):
    # one row lies an infinite squared distance from every other, so its
    # list would reach its own infinite diagonal; first in X, it would be
    # listed as its own neighbour at weight 1
    X = np.insert(np.array([[0.0], [0.0], [1.0], [2.0]]), far, 1e300, axis=0)
    config = GraphConfig(k=k, sigma=1.0)
    err = _same_error(lambda: build_knn_graph(X, config), lambda: reference_knn_graph(X, config))
    assert isinstance(err, DataError) and "overflows" in str(err)
