"""k-NN similarity graphs with Gaussian edge weights."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist, pdist, squareform


@dataclass(frozen=True)
class GraphConfig:
    """Graph construction knobs.

    ``sigma=None`` selects the median heuristic: subsample up to
    ``sigma_sample_cap`` points (seeded, without replacement) and set sigma
    to half the median pairwise distance among them.
    """

    k: int = 5
    sigma: float | None = None
    sigma_sample_cap: int = 1000
    sigma_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k >= 1 required")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("fixed sigma must be > 0")
        if self.sigma_sample_cap < 2:
            raise ValueError("sigma_sample_cap >= 2 required")


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric weighted k-NN graph over n samples.

    ``H`` holds Gaussian edge weights exp(-dist^2 / (2 sigma^2)) with a zero
    diagonal, ``degrees`` its row sums, and ``S`` the degree-normalized
    similarity H_ij / sqrt(D_ii D_jj). Both matrices are exactly symmetric.
    """

    n: int
    H: sparse.csr_matrix
    degrees: np.ndarray
    S: sparse.csr_matrix
    sigma: float
    k: int


_BLOCK = 1 << 17  # matrix entries per row block of the gallery's k-NN selection


class GalleryIndex:
    """Pairwise squared distances and k-NN lists of one labelled block.

    Everything here depends on the labelled rows alone, so one index serves
    every query against the same block. ``d2`` holds the l(l-1)/2 squared
    distances in condensed order; the k-NN lists are filled on first use of
    each k. ``X`` is used as given and must not change while the index lives.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        self.X = X
        self.d2 = pdist(X, "sqeuclidean")
        self._lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    @property
    def l(self) -> int:
        return self.X.shape[0]

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, squared distances) of each row's min(k, l-1) nearest
        other rows, ordered by (distance, index)."""
        with self._lock:
            lists = self._lists.get(k)
            if lists is None:
                D = squareform(self.d2)
                np.fill_diagonal(D, np.inf)
                # row blocks of about 1 MB keep the selection's temporaries
                # in cache instead of copying the whole l x l matrix
                step = max(1, _BLOCK // self.l)
                parts = [_nearest(D[a:a + step], min(k, self.l - 1))
                         for a in range(0, self.l, step)]
                lists = self._lists[k] = (np.concatenate([p[0] for p in parts]),
                                          np.concatenate([p[1] for p in parts]))
        return lists

    def sigma(self, obs, config: GraphConfig = GraphConfig()) -> float:
        """The median-heuristic sigma of the gallery rows stacked on ``obs``."""
        obs = np.asarray(obs, dtype=float)
        return _median_sigma(self, cdist(obs, self.X, "sqeuclidean"),
                             pdist(obs, "sqeuclidean"), config)


def _nearest(D, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's k smallest entries of ``D``,
    ordered by (value, column)."""
    if k == 0:
        return np.empty((D.shape[0], 0), dtype=np.intp), np.empty((D.shape[0], 0))
    # k-th smallest per row via partition; rows with ties at the boundary are
    # trimmed to the smaller columns so the selection is deterministic
    kth = np.partition(D, k - 1, axis=1)[:, k - 1:k]
    adj = D <= kth
    for i in np.flatnonzero(adj.sum(axis=1) != k):
        cand = np.flatnonzero(adj[i])
        keep = cand[np.lexsort((cand, D[i, cand]))][:k]
        adj[i] = False
        adj[i, keep] = True
    cols = (np.flatnonzero(adj) % D.shape[1]).reshape(-1, k)
    vals = np.take_along_axis(D, cols, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _half_median(d2) -> float:
    """Half the median of the distances whose squares are ``d2``, which is
    reordered in place."""
    lo, hi = (d2.size - 1) // 2, d2.size // 2
    d2.partition([lo, hi])
    # sqrt is monotone and sqrt(sqeuclidean) equals scipy's euclidean bit
    # for bit, so this is the median of the plain distances, averaged as
    # np.median averages its two middle values
    a, b = math.sqrt(d2[lo]), math.sqrt(d2[hi])
    median = a if lo == hi else (a + b) / 2.0
    if median == 0.0:
        raise ValueError("zero median distance")
    return median / 2.0


def _among(d2, n: int, idx, out) -> None:
    """Write the entries of the condensed n-point vector ``d2`` for every
    pair of the sorted indices ``idx`` into ``out``, row by row."""
    keep = np.zeros(n, dtype=bool)
    keep[idx] = True
    pos = 0
    for i in idx[:-1]:
        start = n * i - i * (i + 1) // 2  # position of pair (i, i + 1)
        row = d2[start:start + n - i - 1][keep[i + 1:]]
        out[pos:pos + row.size] = row
        pos += row.size


def _median_sigma(gallery: GalleryIndex, C, Pc, config: GraphConfig) -> float:
    """:func:`estimate_sigma` of the gallery rows stacked on m observations,
    from the cached gallery distances, the m x l cross block ``C`` and the
    condensed observation distances ``Pc``."""
    l, m = gallery.l, C.shape[0]
    n = l + m
    take = min(n, config.sigma_sample_cap)
    if take == n:
        return _half_median(np.concatenate([gallery.d2, C.ravel(), Pc]))
    rng = np.random.default_rng(config.sigma_seed)
    idx = np.sort(rng.choice(n, size=take, replace=False))
    li, oi = idx[idx < l], idx[idx >= l] - l
    inner = li.size * (li.size - 1) // 2
    cross = inner + li.size * oi.size
    d2 = np.empty(take * (take - 1) // 2)
    _among(gallery.d2, l, li, d2[:inner])
    d2[inner:cross] = C[np.ix_(oi, li)].ravel()
    _among(Pc, m, oi, d2[cross:])
    return _half_median(d2)


def estimate_sigma(X, config: GraphConfig = GraphConfig()) -> float:
    """Half the median pairwise distance of a seeded subsample."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to estimate sigma")
    rng = np.random.default_rng(config.sigma_seed)
    take = min(n, config.sigma_sample_cap)
    idx = rng.choice(n, size=take, replace=False)
    return _half_median(pdist(X[idx], "sqeuclidean"))


def build_knn_graph(X, config: GraphConfig = GraphConfig(),
                    gallery: GalleryIndex | None = None) -> SimilarityGraph:
    """Build the symmetrized k-NN graph with Gaussian weights.

    The directed k-NN relation uses Euclidean distance with self excluded and
    distance ties broken by smaller index; the edge set keeps (i, j) if either
    endpoint selects the other.

    ``gallery`` indexes the leading rows of ``X``; only the distances from
    the remaining m rows are computed, O(m (l + m) d). A labelled row's k
    nearest nodes are its cached labelled neighbours merged with the closer
    observations: the observations come after every labelled row, so a tie
    still goes to the smaller index and the graph equals a full rebuild
    exactly. Without ``gallery`` all of ``X`` is indexed first.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (n, d) array")
    n = X.shape[0]
    k = config.k
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} samples, got {n}")
    if not np.isfinite(X).all():
        raise ValueError("X has a non-finite value")
    if gallery is None:
        gallery = GalleryIndex(X)
    elif not np.array_equal(X[:gallery.l], gallery.X):
        raise ValueError("X must start with the gallery's rows")
    l, m = gallery.l, n - gallery.l
    obs = X[l:]
    C = cdist(obs, gallery.X, "sqeuclidean")
    Pc = pdist(obs, "sqeuclidean")
    P = squareform(Pc) if m else np.empty((0, 0))
    sigma = config.sigma if config.sigma is not None else _median_sigma(gallery, C, Pc, config)

    # gallery rows: cached lists merged with any strictly closer observation
    heads, head_d2 = gallery.neighbours(k)
    full = heads.shape[1] == k  # a gallery of l <= k rows lists only l - 1
    merge = np.flatnonzero((C.T < head_d2[:, -1:]).any(axis=1)) if full else np.arange(l)
    if merge.size:
        cand = np.hstack([heads[merge], np.broadcast_to(l + np.arange(m), (merge.size, m))])
        cand_d2 = np.hstack([head_d2[merge], C.T[merge]])
        # cached lists are in (distance, index) order and every observation
        # index is larger, so a stable sort keeps the index tie-break
        order = np.argsort(cand_d2, axis=1, kind="stable")[:, :k]
        merged = np.take_along_axis(cand, order, axis=1)
        merged_d2 = np.take_along_axis(cand_d2, order, axis=1)
        if full:
            heads, head_d2 = heads.copy(), head_d2.copy()
            heads[merge], head_d2[merge] = merged, merged_d2
        else:
            heads, head_d2 = merged, merged_d2
    # observation rows: k smallest of their m x n block
    D = np.hstack([C, P])
    D[np.arange(m), l + np.arange(m)] = np.inf
    tails, tail_d2 = _nearest(D, k)

    # keep (i, j) if either endpoint selected the other, in row-major order
    src = np.repeat(np.arange(n), k)
    dst = np.concatenate([heads.ravel(), tails.ravel()])
    keys = np.concatenate([src * n + dst, dst * n + src])
    d2 = np.concatenate([head_d2.ravel(), tail_d2.ravel()])
    # both directions of an edge carry the same distance, so any sort will do
    order = np.argsort(keys)
    keys, d2 = keys[order], np.concatenate([d2, d2])[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys, d2 = keys[first], d2[first]
    rows, cols = keys // n, keys % n
    vals = np.exp(-d2 / (2.0 * sigma * sigma))
    H = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    degrees = np.asarray(H.sum(axis=1)).ravel()
    S = normalize_similarity(H, degrees)
    return SimilarityGraph(n=n, H=H, degrees=degrees, S=S, sigma=float(sigma), k=k)


def normalize_similarity(H, degrees) -> sparse.csr_matrix:
    """S_ij = H_ij / sqrt(D_ii D_jj), mirrored so S is exactly symmetric."""
    degrees = np.asarray(degrees, dtype=float).ravel()
    bad = np.flatnonzero(~(degrees > 0))
    if bad.size:
        raise ValueError(f"node {bad[0] + 1} has zero degree")
    dinv = sparse.diags(1.0 / np.sqrt(degrees))
    raw = (dinv @ sparse.csr_matrix(H) @ dinv).tocsr()
    upper = sparse.triu(raw, k=1)
    S = (upper + upper.T + sparse.diags(raw.diagonal())).tocsr()
    S.eliminate_zeros()
    return S


def dump_edges(graph) -> str:
    """Edge list ``i j H_ij`` (1-based, i < j, lexicographic) for fixture diffing."""
    H = graph.H if isinstance(graph, SimilarityGraph) else sparse.csr_matrix(graph)
    coo = sparse.triu(H, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[t] + 1} {coo.col[t] + 1} {float(coo.data[t])!r}" for t in order
    ]
    return "\n".join(lines) + ("\n" if lines else "")
