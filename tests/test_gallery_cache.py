"""The per-gallery cache gives the same bytes as building everything afresh.

Graphs are compared with the dense reference builder in ``oracles``;
decisions with a reference path that fits every set per call, and kld's
also with the dense Gaussian fit and KL in ``oracles``.
"""

import itertools
import re
import sys
import threading
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from masc import evaluate, graph, subspace
from masc.cli import main
from masc.data import DataError
from masc.evaluate import CLASSIFIERS, Decision, make_classifier
from masc.fixtures import (
    CurvedManifoldConfig,
    CurvedManifoldFixture,
    RotatedRasterConfig,
    RotatedRasterFixture,
)
from masc.graph import (
    _WINDOWS,
    GalleryIndex,
    GraphConfig,
    build_knn_graph,
    estimate_sigma,
    normalize_similarity,
)
from masc.labelprop import LPConfig, row_labels
from masc.smoothing import masc_classify, one_hot_labels
from masc.statdist import fit_gaussian, kl_gaussian
from masc.subspace import (
    KernelSubspace,
    gaussian_kernel,
    kmsm_similarity,
    kpca_gram,
    msm_similarity,
    pca_subspace,
)
from oracles import (
    reference_fit_gaussian,
    reference_kl_gaussian,
    reference_knn_graph,
    reference_kpca_gram,
    reference_sigma,
)


def filtered_sigma(index, obs, config):
    """The median sigma from the GEMM estimate of the cross distances, as
    ``build_knn_graph`` takes it."""
    obs = np.asarray(obs, dtype=float)
    return graph._median_sigma(index, index.cross(obs), pdist(obs, "sqeuclidean"), config)


def exact_sigma(index, obs, config):
    """The median sigma from the exact cross block, as kmsm takes it."""
    obs = np.asarray(obs, dtype=float)
    cross = graph._CrossBlock(index.X, cdist(index.X, obs, "sqeuclidean").T)
    return graph._median_sigma(index, cross, pdist(obs, "sqeuclidean"), config)


def both_sigmas(index, obs, config):
    return filtered_sigma(index, obs, config), exact_sigma(index, obs, config)


def assert_same_graph(got, want):
    for name in ("H", "S"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.indptr.tobytes() == b.indptr.tobytes(), name
        assert a.indices.tobytes() == b.indices.tobytes(), name
        assert a.data.tobytes() == b.data.tobytes(), name
    assert got.degrees.tobytes() == want.degrees.tobytes()
    assert got.sigma == want.sigma


def graph_instances(count, seed):
    """(X, l, config) with integer-grid ties and duplicates, k = 1..4,
    fixed or median sigma, and the sigma sample cap below or above n."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 5))
        l, m = int(rng.integers(1, 30)), int(rng.integers(0, 30))
        if l + m < k + 1:
            continue
        d = int(rng.integers(1, 4))
        if len(out) % 2:
            X = rng.integers(0, 3, size=(l + m, d)).astype(float)
        else:
            X = rng.normal(size=(l + m, d))
        cap = int(rng.choice([2, 7, l + m - 1, l + m, 1000]))
        sigma = None if len(out) % 3 else float(rng.uniform(0.3, 2.0))
        out.append((X, l, GraphConfig(k=k, sigma=sigma, sigma_sample_cap=max(cap, 2),
                                      sigma_seed=len(out))))
    return out


@pytest.mark.parametrize("X,l,config", graph_instances(150, 0))
def test_graph_matches_dense_reference_bitwise(X, l, config, monkeypatch):
    try:
        want = reference_knn_graph(X, config)
    except ValueError as exc:  # zero median distance on an all-duplicate set
        with pytest.raises(ValueError, match=str(exc)):
            build_knn_graph(X, config)
        return
    assert_same_graph(build_knn_graph(X, config), want)
    for min_l in (graph._FILTER_MIN_L, 0):  # the full block, then the filter
        monkeypatch.setattr(graph, "_FILTER_MIN_L", min_l)
        gallery = GalleryIndex(X[:l].copy())
        assert_same_graph(build_knn_graph(X, config, gallery), want)
        # the k-NN lists cached by the first query serve a second one unchanged
        assert_same_graph(build_knn_graph(X, config, gallery), want)


@pytest.mark.parametrize("X,l,config", graph_instances(60, 1))
def test_sigma_matches_reference_bitwise(X, l, config, monkeypatch):
    try:
        want = reference_sigma(X, config)
    except ValueError:
        return
    assert estimate_sigma(X, config) == want
    assert both_sigmas(GalleryIndex(X[:l]), X[l:], config) == (want, want)
    monkeypatch.setattr(graph, "_FILTER_MIN_L", 0)
    assert both_sigmas(GalleryIndex(X[:l]), X[l:], config) == (want, want)


# -- the GEMM filter ------------------------------------------------------------

@pytest.fixture
def full_blocks(monkeypatch):
    """The shapes of graph's cdist calls. For m > 1, an (m, l) one is a
    query's full block: a per-row recomputation has one row."""
    calls = []

    def counting(XA, XB, *args, **kwargs):
        out = cdist(XA, XB, *args, **kwargs)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(graph, "cdist", counting)
    return calls


def hard_instances():
    """(name, X, l) on which the estimate cannot settle every comparison:
    integer grids, duplicate rows, rows equidistant from an observation,
    rows far from the origin or near overflow, and the same rows scaled by
    powers of two."""
    rng = np.random.default_rng(21)
    out = [("grid", rng.integers(0, 3, size=(90, 4)).astype(float), 70),
           ("coarse-grid", rng.integers(0, 2, size=(75, 3)).astype(float), 60)]
    rows = rng.normal(size=(30, 5))
    gallery = np.repeat(rows, 3, axis=0)
    out.append(("duplicates", np.vstack([gallery, rows[:6], rows[:6], rows[3:9] + 1e-3]), 90))
    # each cube centre is at squared distance 1.5 from its 64 corners, and
    # each corner 1 from six corners and 2 from fifteen
    cubes = [np.array(list(itertools.product([0.0, 1.0], repeat=6))) + 3.0 * v
             for v in range(3)]
    centres = 0.5 + 3.0 * np.arange(3)[:, None] * np.ones(6)
    out.append(("equidistant", np.vstack(cubes + [centres, rng.normal(size=(9, 6)) + 1.5]), 192))
    normal = rng.normal(size=(80, 6))
    out.append(("offset", normal + 1e6, 64))
    for j in (-60, -3, 0, 5, 60):
        out.append((f"scaled-2^{j}", normal * 2.0 ** j, 64))
    # squared norms stay finite, but the bound's s² overflows: the cdist block
    big = np.sqrt(np.finfo(float).max)
    out.append(("near-overflow", normal / np.abs(normal).max() * big * 0.6, 64))
    return out


@pytest.mark.parametrize("name,X,l", [pytest.param(*case, id=case[0]) for case in hard_instances()])
@pytest.mark.parametrize("k", [1, 5, 7])
def test_filtered_graph_and_sigma_match_the_references(monkeypatch, name, X, l, k):
    monkeypatch.setattr(graph, "_FILTER_MIN_L", 0)
    for config in (GraphConfig(k=k), GraphConfig(k=k, sigma_sample_cap=40, sigma_seed=k)):
        want = reference_knn_graph(X, config)
        index = GalleryIndex(X[:l])
        for _ in range(2):  # cold, then warm
            assert_same_graph(build_knn_graph(X, config, index), want)
            assert both_sigmas(index, X[l:], config) == (want.sigma, want.sigma)
    if name.startswith("scaled-2^"):  # 2^j X has the weights of X, and 2^j its sigma
        j = int(name[len("scaled-2^"):])
        got = build_knn_graph(X, GraphConfig(k=k), GalleryIndex(X[:l]))
        base = reference_knn_graph(X * 2.0 ** -j, GraphConfig(k=k))
        for part in ("H", "S"):
            assert getattr(got, part).data.tobytes() == getattr(base, part).data.tobytes()
        assert got.sigma == base.sigma * 2.0 ** j


def test_filter_and_full_block_are_both_reached(full_blocks):
    rng = np.random.default_rng(22)
    config = GraphConfig(k=5)
    small = graph._FILTER_MIN_L - 10  # below the crossover
    cases = [  # (X, l, full blocks expected)
        (rng.normal(size=(340, 6)) + 1e6, 300, 0),  # centring keeps the bound tight
        (rng.normal(size=(250, 3)) * 2.0 ** 40, 210, 0),
        # a third of the pairs tie, and are recomputed row by row
        (rng.integers(0, 2, size=(340, 3)).astype(float), 300, 0),
        (rng.normal(size=(small + 40, 6)), small, 1),
    ]
    for X, l, blocks in cases:
        index = GalleryIndex(X[:l])
        index.neighbours(config.k)  # its row tiles are not a query's
        del full_blocks[:]
        assert_same_graph(build_knn_graph(X, config, index), reference_knn_graph(X, config))
        assert full_blocks.count((X.shape[0] - l, l)) == blocks
        del full_blocks[:]
        assert filtered_sigma(index, X[l:], config) == reference_sigma(X, config)
        assert full_blocks.count((X.shape[0] - l, l)) == blocks


def test_underflowed_weights_stay_in_H_and_leave_S(tmp_path):
    # the pairs 50 apart weigh exp(-1250) = 0.0 at sigma 1, but are still edges
    X = np.array([[0.0], [0.1], [50.0], [50.1]])
    config = GraphConfig(k=2, sigma=1.0)
    want = reference_knn_graph(X, config)
    for g in (build_knn_graph(X, config), build_knn_graph(X, config, GalleryIndex(X[:3]))):
        assert_same_graph(g, want)
        assert g.H.indptr.tolist() == [0, 2, 5, 8, 10]
        assert (g.H.data == 0.0).sum() == 6
        assert g.S.nnz == 4 and (g.S.data > 0.0).all()
        H = g.H
        before = [H.data.tobytes(), H.indices.tobytes(), H.indptr.tobytes()]
        S = normalize_similarity(H, g.degrees)
        assert [H.data.tobytes(), H.indices.tobytes(), H.indptr.tobytes()] == before
        assert S.data.tobytes() == g.S.data.tobytes()
    path = tmp_path / "far.csv"
    path.write_text("#d=1,c=2\n1,0\n1,0.1\n2,50\n0,50.1\n", encoding="utf-8")
    stdout = StringIO()
    with redirect_stdout(stdout):
        assert main(["graph", "--input", str(path), "--k", "2", "--sigma", "1.0"]) == 0
    assert "1 3 0.0" in stdout.getvalue().splitlines()


def test_neighbour_lists_hold_no_gallery_sized_block():
    # a 3000 x 3000 float block alone takes 72 MB; the lists come from row
    # tiles of about 1 MB
    X = np.random.default_rng(12).normal(size=(3000, 4))
    tracemalloc.start()
    try:
        heads, head_d2 = GalleryIndex(X).neighbours(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    D = squareform(pdist(X, "sqeuclidean"))
    np.fill_diagonal(D, np.inf)
    want = np.argsort(D, axis=1, kind="stable")[:, :5]  # (distance, index) order
    assert heads.tobytes() == want.astype(heads.dtype).tobytes()
    assert head_d2.tobytes() == np.take_along_axis(D, want, axis=1).tobytes()


# -- sigma windows ------------------------------------------------------------

def assert_sigma(index, X, config):
    """The index's sigma of ``X`` (its gallery rows, then observations)
    equals the reference bitwise, or both reject a zero median."""
    try:
        want = reference_sigma(X, config)
    except ValueError as exc:
        for sigma in (filtered_sigma, exact_sigma):
            with pytest.raises(ValueError, match=str(exc)):
                sigma(index, X[index.l:], config)
        return
    assert both_sigmas(index, X[index.l:], config) == (want, want)


def points(rng, n, d, grid):
    """n points in d dimensions, on the integer grid {0, 1, 2}^d (ties and
    duplicate rows) or normal."""
    if grid:
        return rng.integers(0, 3, size=(n, d)).astype(float)
    return rng.normal(size=(n, d))


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("cap", [120, 1000])
def test_sigma_over_a_stream_of_set_sizes(grid, cap):
    # cap 120 subsamples every query; cap 1000 keeps all 300 + m rows
    rng = np.random.default_rng(5)
    gallery = points(rng, 300, 4, grid)
    config = GraphConfig(sigma_sample_cap=cap)
    warm = GalleryIndex(gallery)
    for m in (10, 50, 150, 10, 1, 1, 50):
        X = np.vstack([gallery, points(rng, m, 4, grid)])
        assert_sigma(GalleryIndex(gallery), X, config)
        assert_sigma(warm, X, config)


def test_sigma_with_duplicate_rows_in_gallery_and_observations():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(40, 3))
    gallery = np.repeat(rows, 3, axis=0)
    warm = GalleryIndex(gallery)
    for cap, m in ((50, 12), (500, 12), (50, 30), (500, 30)):
        X = np.vstack([gallery, np.repeat(rows[:m // 3], 3, axis=0)])
        assert_sigma(warm, X, GraphConfig(sigma_sample_cap=cap))


@pytest.mark.parametrize("kept", [0, 1])
def test_subsample_keeping_few_observations(kept):
    rng = np.random.default_rng(7)
    gallery, l, m = rng.normal(size=(40, 2)), 40, 3
    index = GalleryIndex(gallery)
    seed = next(s for s in range(200)
                if index.window(m, GraphConfig(sigma_sample_cap=6, sigma_seed=s)).oi.size == kept)
    config = GraphConfig(sigma_sample_cap=6, sigma_seed=seed)
    for _ in range(3):
        X = np.vstack([gallery, rng.normal(size=(m, 2))])
        assert_sigma(GalleryIndex(gallery), X, config)
        assert_sigma(index, X, config)
    assert index.window(m, config).oi.size == kept


@pytest.mark.parametrize("l", [1, 2])
def test_gallery_too_small_to_hold_a_pair(l):
    rng = np.random.default_rng(8)
    gallery = rng.normal(size=(l, 2))
    index = GalleryIndex(gallery)
    empty = 0
    for m in (1, 2, 5, 1):
        for cap, seed in ((2, 0), (2, 1), (3, 0), (3, 4), (l + m, 0)):
            config = GraphConfig(sigma_sample_cap=cap, sigma_seed=seed)
            X = np.vstack([gallery, rng.normal(size=(m, 2))])
            assert_sigma(index, X, config)
            empty += index.window(m, config).values.size == 0
    assert empty  # some subsample kept no gallery pair


def test_two_configs_on_one_gallery():
    rng = np.random.default_rng(9)
    gallery = points(rng, 120, 3, True)
    configs = [GraphConfig(sigma_sample_cap=60, sigma_seed=0),
               GraphConfig(sigma_sample_cap=90, sigma_seed=3)]
    index = GalleryIndex(gallery)
    for step in range(6):
        m = (5, 40)[step % 2]
        X = np.vstack([gallery, points(rng, m, 3, True)])
        for config in configs:
            assert_sigma(index, X, config)
    assert len(index._windows) == 4


def test_windows_are_bounded_to_the_most_recently_used():
    rng = np.random.default_rng(10)
    index = GalleryIndex(rng.normal(size=(30, 2)))
    config = GraphConfig(sigma_sample_cap=20)
    for m in range(1, 13):
        exact_sigma(index, rng.normal(size=(m, 2)), config)
    exact_sigma(index, rng.normal(size=(5, 2)), config)  # a hit moves m = 5 to the end
    filtered_sigma(index, rng.normal(size=(13, 2)), config)  # and evicts m = 6, not 5
    kept = [n - 30 for n, _, _ in index._windows]
    assert kept == [7, 8, 9, 10, 11, 12, 5, 13][-_WINDOWS:]


def test_threads_sharing_windows_get_the_reference_sigma():
    rng = np.random.default_rng(11)
    gallery = points(rng, 200, 3, True)
    config = GraphConfig(sigma_sample_cap=150)
    queries = [points(rng, m, 3, True) for m in range(1, 13) for _ in range(2)]
    want = [reference_sigma(np.vstack([gallery, obs]), config) for obs in queries]
    index = GalleryIndex(gallery)
    wrong = []

    def worker(offset):
        for i in range(3 * len(queries)):
            q = (i * 5 + offset) % len(queries)
            sigma = (filtered_sigma, exact_sigma)[i % 2]
            if sigma(index, queries[q], config) != want[q]:
                wrong.append(q)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(index._windows) == _WINDOWS


@given(seed=st.integers(0, 2**32 - 1), l=st.integers(2, 60), d=st.integers(1, 5),
       k=st.integers(1, 5), grid=st.booleans(), sigma_seed=st.integers(0, 2**16),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_sigma_and_masc_match_the_references_on_random_galleries(seed, l, d, k, grid,
                                                                 sigma_seed, data):
    m = data.draw(st.integers(1, 40), label="m")
    cap = data.draw(st.integers(2, l + m + 3), label="cap")
    assume(l + m > k)
    with pytest.MonkeyPatch.context() as patch:
        # every gallery takes the GEMM filter, however small
        patch.setattr(graph, "_FILTER_MIN_L", 0)
        _check_random_gallery(seed, l, d, k, grid, sigma_seed, m, cap)


def _check_random_gallery(seed, l, d, k, grid, sigma_seed, m, cap):
    rng = np.random.default_rng(seed)
    X = points(rng, l + m, d, grid)
    config = GraphConfig(k=k, sigma_sample_cap=cap, sigma_seed=sigma_seed)
    index = GalleryIndex(X[:l])
    for _ in range(2):  # cold, then warm
        assert_sigma(index, X, config)

    c = min(3, l)
    sets = np.array_split(X[:l], c)
    classify = make_classifier("masc", k=k, sigma_sample_cap=cap, sigma_seed=sigma_seed)
    try:
        g = reference_knn_graph(X, config)
        Y_l = one_hot_labels(np.repeat(np.arange(1, c + 1), [len(ts) for ts in sets]), c)
        res = masc_classify(g.S, Y_l, m)
    except ValueError as exc:  # a zero median or a node of zero degree
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            classify(sets, X[l:])
        return
    want = Decision(res.decision, tuple(float(v) for v in res.scores), res.tie)
    try:
        classify([ts + 0.5 for ts in sets], X[l:])  # evicts sets: the next call is cold
    except ValueError:
        pass
    assert same_decision(classify(sets, X[l:]), want)
    assert same_decision(classify(sets, X[l:]), want)


def test_graph_rejects_rows_that_are_not_the_gallery():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    gallery = GalleryIndex(X[:8] + 1.0)
    with pytest.raises(ValueError, match="gallery"):
        build_knn_graph(X, GraphConfig(k=2), gallery)


def test_graph_rejects_non_finite_rows():
    X = np.zeros((6, 2))
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        build_knn_graph(X, GraphConfig(k=2, sigma=1.0))


@pytest.mark.parametrize("row", [2, 9], ids=["gallery-row", "observation-row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_index_and_graph_reject_non_finite_rows_once_each(row, bad):
    # the index checks its rows when it is built; the graph then checks only
    # the rows after them, yet a bad row on either side gives one message
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    index = GalleryIndex(X[:8])
    Y = X.copy()
    Y[row, 1] = bad
    with pytest.raises(ValueError, match="^X has a non-finite value$"):
        build_knn_graph(Y, GraphConfig(k=2), index)
    if row < 8:
        with pytest.raises(ValueError, match="^X has a non-finite value$"):
            GalleryIndex(Y[:8])
    with pytest.raises(ValueError, match="^X has a non-finite value$"):
        build_knn_graph(Y, GraphConfig(k=2))
    with pytest.raises(ValueError, match="^need at least k\\+1=13 samples, got 12$"):
        build_knn_graph(Y, GraphConfig(k=12))


# -- decisions ----------------------------------------------------------------

def _decision(scores, minimise, shown=None):
    """First best score wins; ``shown`` replaces the scores reported."""
    scores = [float(s) for s in scores]
    best = min(scores) if minimise else max(scores)
    return Decision(scores.index(best) + 1, tuple(scores if shown is None else shown),
                    scores.count(best) > 1)


def reference_decision(name, train_sets, obs, k=5, q=9, sigma_kernel=None, kpca_fit=kpca_gram):
    """The classifier's decision with nothing reused: the dense graph, the
    old closed-form LP expression, and fresh fits per call, with msm's rank
    and dimension caps (see ``make_classifier``) taken from numpy's
    ``matrix_rank``. kmsm fits each set's Gram with ``kpca_fit``."""
    sets = [np.asarray(ts, dtype=float) for ts in train_sets]
    obs = np.asarray(obs, dtype=float)
    c, m = len(sets), obs.shape[0]
    config = GraphConfig(k=k)
    if name in ("masc", "lp"):
        X = np.vstack(sets + [obs])
        g = reference_knn_graph(X, config)
        Y_l = one_hot_labels(np.repeat(np.arange(1, c + 1), [len(ts) for ts in sets]), c)
        if name == "masc":
            res = masc_classify(g.S, Y_l, m)
            return Decision(res.decision, tuple(float(v) for v in res.scores), res.tie)
        cfg = LPConfig(1.0)
        Y = np.vstack([Y_l, np.zeros((m, c))])
        M = cfg.beta * cfg.mu * np.linalg.solve(np.eye(g.n) - cfg.alpha * g.S.toarray(), Y)
        counts = np.bincount(row_labels(M[-m:]), minlength=c + 1)[1:]
        return _decision(counts, False, [float(v) / m for v in counts])
    if name == "kld":
        test = fit_gaussian(obs)
        scores = []
        for ts in sets:
            mdl = fit_gaussian(ts)
            scores.append(0.5 * (kl_gaussian(test, mdl) + kl_gaussian(mdl, test)))
        return _decision(scores, True)
    smallest = min(min(ts.shape[0] for ts in sets), m)
    q_eff = max(1, min(q, smallest - 1, obs.shape[1]))
    if name == "msm":
        def rank(xs):
            return np.linalg.matrix_rank(xs - xs.mean(axis=0))

        d = obs.shape[1]
        q_test = max(1, min(q_eff, rank(obs), d - 1))
        test = pca_subspace(obs, q_test)
        sims = [msm_similarity(pca_subspace(ts, min(q_eff, rank(ts), max(1, d - q_test))), test)
                for ts in sets]
    else:
        sigma = sigma_kernel
        if sigma is None:
            sigma = reference_sigma(np.vstack(sets + [obs]), config)
        kernel = gaussian_kernel(sigma)

        def subspace_of(X):
            return KernelSubspace(samples=X, kernel=kernel, **vars(kpca_fit(kernel(X, X), q_eff)))

        test = subspace_of(obs)
        sims = [kmsm_similarity(subspace_of(ts), test) for ts in sets]
    return _decision(sims, False)


def same_decision(a, b):
    return (a.decision == b.decision and a.tie == b.tie
            and np.asarray(a.scores, dtype=float).tobytes()
            == np.asarray(b.scores, dtype=float).tobytes())


def raster_queries():
    fixture = RotatedRasterFixture(RotatedRasterConfig(seed=0))
    out = []
    for m in (10, 50, 150):
        train, obs = fixture.make_instance(m % 10 + 1, m, np.random.default_rng(m))
        out.append((train, obs))
    return out


def manifold_queries():
    fixture = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    return [fixture.make_instance(cls, m, np.random.default_rng([cls, m]))
            for cls, m in ((1, 8), (2, 16), (3, 48))]


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_cold_and_warm_calls_match_the_reference_bitwise(name):
    classify = make_classifier(name)
    for train, obs in raster_queries() + manifold_queries():
        want = reference_decision(name, train, obs)
        classify([ts + 0.5 for ts in train], obs)  # evicts train: the next call is cold
        cold = classify(train, obs)
        warm = classify(train, obs)
        assert same_decision(cold, want), (name, len(obs))
        assert same_decision(warm, want), (name, len(obs))


def dense_kld_decision(train_sets, obs):
    """kld's decision from the dense eigh fits and Cholesky KL."""
    test = reference_fit_gaussian(obs)
    scores = []
    for ts in train_sets:
        mdl = reference_fit_gaussian(ts)
        scores.append(0.5 * (reference_kl_gaussian(test, mdl) + reference_kl_gaussian(mdl, test)))
    return _decision(scores, True)


def test_kld_decisions_match_the_dense_oracle_cold_and_warm():
    fixture = RotatedRasterFixture(RotatedRasterConfig(seed=0))
    big = fixture.gallery(100, np.random.default_rng(1))
    queries = raster_queries() + manifold_queries() + [
        (big, fixture.make_instance(cls, m, np.random.default_rng([cls, m]))[1])
        for cls, m in ((1, 10), (4, 150))]
    classify = make_classifier("kld")
    for train, obs in queries:
        want = dense_kld_decision(train, obs)
        classify([ts + 0.5 for ts in train], obs)  # evicts train: the next call is cold
        for got in (classify(train, obs), classify(train, obs)):
            assert (got.decision, got.tie) == (want.decision, want.tie)
            np.testing.assert_allclose(got.scores, want.scores, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_thousand_row_gallery_matches_the_reference_bitwise(name):
    # l = 1000 > the default sigma sample cap, so the median sigma subsamples
    fixture = RotatedRasterFixture(RotatedRasterConfig(seed=0))
    gallery = fixture.gallery(100, np.random.default_rng(1))
    classify = make_classifier(name)
    for cls, m in ((1, 10), (4, 150)):
        _, obs = fixture.make_instance(cls, m, np.random.default_rng([cls, m]))
        assert same_decision(classify(gallery, obs), reference_decision(name, gallery, obs))


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_gallery_changed_in_place_is_not_served_stale(name):
    fixture = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    train, obs = fixture.make_instance(2, 20, np.random.default_rng(4))
    train = [np.array(ts) for ts in train]
    classify = make_classifier(name)
    before = classify(train, obs)
    a, b = train[0].copy(), train[1].copy()
    train[0][:], train[1][:] = b, a  # same arrays and shapes, classes swapped
    want = reference_decision(name, train, obs)
    assert not same_decision(before, want)  # a stale answer would show
    assert same_decision(classify(train, obs), want)


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_a_warm_query_scans_no_gallery_row_for_finiteness(name, monkeypatch):
    # classes of 7, 9 and 11 rows in d = 5 and 13 observations: no other
    # array a query scans has the shape of a class set, of the stacked
    # gallery or of the gallery stacked on the observations
    sets, obs = uneven_query(3, (7, 9, 11), 13, d=5)
    gallery_shapes = {(7, 5), (9, 5), (11, 5), (27, 5), (40, 5)}
    seen = []
    real = np.isfinite

    def recording(x, *args, **kwargs):
        seen.append(np.shape(x))
        return real(x, *args, **kwargs)

    classify = make_classifier(name)
    classify([ts + 0.5 for ts in sets], obs)  # evicts sets: the next call is cold
    monkeypatch.setattr(np, "isfinite", recording)
    cold = classify(sets, obs)
    assert gallery_shapes & set(seen)
    for shift in (0.0, 0.25):
        del seen[:]
        warm = classify(sets, obs + shift)
        assert not gallery_shapes & set(seen), seen
        assert obs.shape in seen  # the observations are still checked
    assert same_decision(cold, reference_decision(name, sets, obs))
    assert same_decision(classify(sets, obs), cold)
    assert same_decision(warm, reference_decision(name, sets, obs + 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", CLASSIFIERS)
def test_a_non_finite_gallery_is_rejected_and_never_stored(name, bad):
    fixture = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    train, obs = fixture.make_instance(2, 20, np.random.default_rng(4))
    classify = make_classifier(name)
    want = classify(train, obs)
    stored = evaluate._latest
    assert stored is not None and stored.matches(train)
    spoiled = [ts.copy() for ts in train]
    spoiled[2][5, 7] = bad  # the same shapes as the stored sets
    for _ in range(2):
        with pytest.raises(DataError, match="^class 3 has a non-finite value$"):
            classify(spoiled, obs)
        assert evaluate._latest is stored
    assert same_decision(classify(train, obs), want)
    assert same_decision(want, reference_decision(name, train, obs))


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_alternating_galleries_match_a_fresh_classifier(name):
    fixture = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    rng = np.random.default_rng(9)
    galleries = [fixture.train_sets(rng), fixture.train_sets(rng)]
    queries = [fixture.make_instance(cls, 12, rng)[1] for cls in (1, 2, 3)]
    classify = make_classifier(name)
    for step in range(6):
        train, obs = galleries[step % 2], queries[step % 3]
        fresh = make_classifier(name)(train, obs)
        assert same_decision(classify(train, obs), fresh)
        assert same_decision(fresh, reference_decision(name, train, obs))


def test_threads_sharing_the_cache_get_their_own_gallerys_results():
    fixture = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    rng = np.random.default_rng(11)
    galleries = [fixture.train_sets(rng) for _ in range(3)]
    queries = [fixture.make_instance(cls, 10, rng)[1] for cls in (1, 2, 3)]
    jobs = [(name, g, q) for name in CLASSIFIERS for g in range(3) for q in range(3)]
    want = {job: reference_decision(job[0], galleries[job[1]], queries[job[2]]) for job in jobs}
    classifiers = {name: make_classifier(name) for name in CLASSIFIERS}
    wrong = []

    def worker(offset):
        for i in range(len(jobs)):
            name, g, q = job = jobs[(i * 7 + offset) % len(jobs)]
            if not same_decision(classifiers[name](galleries[g], queries[q]), want[job]):
                wrong.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- kmsm's one distance block ----------------------------------------------

def uneven_query(seed, sizes, m, d=6):
    """Class sets of the given sizes around their own centres, and m
    observations around the second class's centre."""
    rng = np.random.default_rng(seed)
    centres = 3.0 * rng.normal(size=(len(sizes), d))
    sets = [rng.normal(size=(n, d)) + centre for n, centre in zip(sizes, centres)]
    return sets, rng.normal(size=(m, d)) + centres[1]


# gallery sizes 80, 222 and 218: below and above the GEMM filter's crossover,
# which kmsm's sigma no longer takes but the graph methods still do
@pytest.mark.parametrize("sizes", [(2, 7, 40, 31), (9, 2, 150, 61), (5, 120, 3, 90)],
                         ids=["l=80", "l=222", "l=218"])
@pytest.mark.parametrize("sigma_kernel", [None, 1.7])
def test_kmsm_on_uneven_classes_matches_the_reference_bitwise(sizes, sigma_kernel):
    assert graph._FILTER_MIN_L == 200
    classify = make_classifier("kmsm", q=3, sigma_kernel=sigma_kernel)
    for m in (3, 12, 40):
        sets, obs = uneven_query(m, sizes, m)
        want = reference_decision("kmsm", sets, obs, q=3, sigma_kernel=sigma_kernel)
        classify([ts + 0.5 for ts in sets], obs)  # evicts sets: the next call is cold
        for got in (classify(sets, obs), classify(sets, obs)):
            assert same_decision(got, want), (sizes, m)


def random_set(rng, n, d, duplicates):
    """n rows in d dimensions, at least two of them distinct; with
    ``duplicates`` they repeat about half as many distinct rows."""
    if not duplicates:
        return rng.normal(size=(n, d))
    base = rng.normal(size=(max(2, (n + 1) // 2), d))
    return base[rng.permutation(np.r_[0, 1, rng.integers(0, len(base), size=n - 2)])]


@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(2, 12), min_size=2, max_size=4),
       m=st.integers(2, 15), d=st.integers(1, 6), q=st.integers(1, 4),
       duplicates=st.booleans(), sigma_kernel=st.sampled_from([None, 0.7, 3.0]))
@settings(max_examples=80, deadline=None)
def test_msm_and_kmsm_match_their_references_on_random_galleries(seed, sizes, m, d, q,
                                                                 duplicates, sigma_kernel):
    rng = np.random.default_rng(seed)
    sets = [random_set(rng, n, d, duplicates) for n in sizes]
    obs = random_set(rng, m, d, duplicates)
    for name in ("msm", "kmsm"):
        classify = make_classifier(name, q=q, sigma_kernel=sigma_kernel)
        try:
            want = reference_decision(name, sets, obs, q=q, sigma_kernel=sigma_kernel)
        except ValueError:  # a zero median or a kernel matrix too thin for q
            with pytest.raises(DataError):
                classify(sets, obs)
            continue
        try:
            classify([ts + 0.5 for ts in sets], obs)  # evicts sets: the next call is cold
        except DataError:
            pass
        for got in (classify(sets, obs), classify(sets, obs)):
            assert same_decision(got, want), name


def test_a_warm_kmsm_query_computes_each_distance_once(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out.shape))
            return out
        return wrapped

    for module in (graph, evaluate, subspace):
        for name in ("cdist", "pdist"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    sets, obs = uneven_query(0, (80, 90, 70), 12)  # l = 240, above the filter's crossover
    classify = make_classifier("kmsm")
    classify(sets, obs)  # cold: the sigma window and the class distances
    del calls[:]
    for shift in (0.0, 0.25):
        classify(sets, obs + shift)
        # one l x m block and the observations' own distances, nothing else
        assert calls == [("cdist", (240, 12)), ("pdist", (66,))]
        del calls[:]


# -- kmsm's kernel fits -------------------------------------------------------

# kmsm solves for its q leading kernel eigenpairs alone, the full-eigh
# oracle for all n, so their scores differ in the last digits: by 4e-12
# relative at most on these queries (m = 10 on the l = 1000 gallery), which
# this bound exceeds a hundredfold for other LAPACK builds
KMSM_ORACLE_RTOL = 1e-9


def kmsm_oracle_queries():
    """The fixtures' queries, an l = 1000 gallery of 100-row classes, small
    galleries with duplicate rows, and a gallery whose first two classes
    are the same rows."""
    fixture = RotatedRasterFixture(RotatedRasterConfig(seed=0))
    big = fixture.gallery(100, np.random.default_rng(1))
    out = raster_queries() + manifold_queries() + [
        (big, fixture.make_instance(cls, m, np.random.default_rng([cls, m]))[1])
        for cls, m in ((1, 10), (4, 150))]
    rng = np.random.default_rng(31)
    for sizes in ((12, 9, 15), (6, 20, 8, 11)):
        out.append(([random_set(rng, n, 5, True) for n in sizes], random_set(rng, 10, 5, True)))
    train, obs = manifold_queries()[1]
    out.append(([train[1], train[1].copy(), train[0]], obs))
    return out


@pytest.mark.parametrize("sigma_kernel", [None, 2.0])
@pytest.mark.parametrize("q", [3, 9])
def test_kmsm_decisions_match_the_full_eigh_oracle_cold_and_warm(q, sigma_kernel):
    classify = make_classifier("kmsm", q=q, sigma_kernel=sigma_kernel)
    ties = rejected = 0
    for train, obs in kmsm_oracle_queries():
        try:
            want = reference_decision("kmsm", train, obs, q=q, sigma_kernel=sigma_kernel,
                                      kpca_fit=reference_kpca_gram)
        except DataError as exc:  # a set too thin for q: both solves reject it
            with pytest.raises(DataError, match=re.escape(str(exc))):
                classify(train, obs)
            rejected += 1
            continue
        classify([ts + 0.5 for ts in train], obs)  # evicts train: the next call is cold
        for got in (classify(train, obs), classify(train, obs)):
            assert (got.decision, got.tie) == (want.decision, want.tie)
            np.testing.assert_allclose(got.scores, want.scores, rtol=KMSM_ORACLE_RTOL, atol=0)
        ties += got.tie
        if got.tie:  # identical classes score exactly alike on both paths
            assert got.scores[0] == got.scores[1] and want.scores[0] == want.scores[1]
    # the identical classes tie; at q = 3 one duplicate gallery is scored
    # and one holds a class of three distinct rows, rank 2 once centred
    assert (ties, rejected) == (1, 1 if q == 3 else 2)
