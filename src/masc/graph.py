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


_BLOCK = 1 << 17  # distances per row tile (1 MB) of the gallery's k-NN selection
_WINDOWS = 8  # sigma windows a gallery keeps, the most recently used


@dataclass(frozen=True)
class _SigmaWindow:
    """What one sample size's median sigma needs from the gallery alone.

    ``li`` and ``oi`` are the gallery and observation rows the seeded
    subsample keeps, ``pairs`` the positions of the kept observation pairs
    in the condensed m-point distances, and ``values`` the squared gallery
    distances whose ranks can hold the median: a query's own distances sit
    among them with the two middle values at ranks ``lo`` and ``hi``.
    """

    li: np.ndarray
    oi: np.ndarray
    pairs: np.ndarray
    values: np.ndarray
    lo: int
    hi: int


class GalleryIndex:
    """The rows, k-NN lists and sigma windows of one labelled block.

    Everything here depends on the labelled rows alone, so one index serves
    every query against the same block. The k-NN lists are filled on first
    use of each k and the sigma windows on first use of each sample size;
    no l x l distance block is kept. ``X`` is used as given and must not
    change while the index lives.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        self.X = X
        self._lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._windows: dict[tuple[int, int, int], _SigmaWindow] = {}
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
                # row tiles of about 1 MB: each pair is computed twice, but
                # no l x l matrix is ever held, and cdist's values equal
                # pdist's bit for bit
                step, parts = max(1, _BLOCK // self.l), []
                for a in range(0, self.l, step):
                    D = cdist(self.X[a:a + step], self.X, "sqeuclidean")
                    rows = np.arange(D.shape[0])
                    D[rows, a + rows] = np.inf  # a row is not its own neighbour
                    parts.append(_nearest(D, min(k, self.l - 1)))
                lists = self._lists[k] = (np.concatenate([p[0] for p in parts]),
                                          np.concatenate([p[1] for p in parts]))
        return lists

    def window(self, m: int, config: GraphConfig) -> _SigmaWindow:
        """The sigma window for queries of m observations, built on the
        first such query; the :data:`_WINDOWS` most recently used are kept."""
        n = self.l + m
        key = (n, min(n, config.sigma_sample_cap), config.sigma_seed)
        with self._lock:
            window = self._windows.pop(key, None)
            if window is None:
                window = _sigma_window(self, m, key[1], config.sigma_seed)
            self._windows[key] = window  # reinserted last: most recently used
            if len(self._windows) > _WINDOWS:
                del self._windows[next(iter(self._windows))]
        return window

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


def _middle(size: int) -> tuple[int, int]:
    """Ranks of the two middle values among ``size`` values."""
    return (size - 1) // 2, size // 2


def _half_median(d2, lo: int, hi: int) -> float:
    """Half the average of the distances whose squares have ranks ``lo`` and
    ``hi`` in ``d2``, which is reordered in place."""
    d2.partition([lo, hi])
    # sqrt is monotone and sqrt(sqeuclidean) equals scipy's euclidean bit
    # for bit, so this is the median of the plain distances, averaged as
    # np.median averages its two middle values
    a, b = math.sqrt(d2[lo]), math.sqrt(d2[hi])
    median = a if lo == hi else (a + b) / 2.0
    if median == 0.0:
        raise ValueError("zero median distance")
    return median / 2.0


def _sigma_window(gallery: GalleryIndex, m: int, take: int, seed: int) -> _SigmaWindow:
    """The gallery's part of the median sigma of ``take`` of its l rows
    stacked on m observations.

    The subsample depends on n = l + m, ``take`` and ``seed`` only, so the
    set A of gallery pair distances it holds is fixed, and a query adds
    |B| = N - |A| values of its own, N = take(take-1)/2. If the value of
    rank K among all N comes from A, at most |B| values of B come before
    it, so its rank within A lies in [K - |B|, K]. The middle ranks
    lo <= hi therefore draw only on A's ranks [s, e), s = max(0, lo - |B|)
    and e = min(|A|, hi + 1). A's values of rank below s come before both
    middle values and those of rank e and above after them, so among the
    window A[s:e] and B the middle values have ranks lo - s and hi - s.
    The window need not be sorted. A is ``pdist`` of the kept gallery rows,
    O(take² d) once per window; when take = l + m the subsample keeps every
    row and A is all l(l-1)/2 gallery pairs.
    """
    l = gallery.l
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(l + m, size=take, replace=False))
    li, oi = idx[idx < l], idx[idx >= l] - l
    A = pdist(gallery.X[li], "sqeuclidean")
    i, j = (oi[t] for t in np.triu_indices(oi.size, 1))
    pairs = m * i - i * (i + 1) // 2 + j - i - 1  # condensed position of (i, j)
    N = take * (take - 1) // 2
    lo, hi = _middle(N)
    s = max(0, lo - (N - A.size))
    e = min(A.size, hi + 1)
    if e > s:
        A.partition([s, e - 1])
    return _SigmaWindow(li, oi, pairs, A[s:e].copy(), lo - s, hi - s)


def _median_sigma(gallery: GalleryIndex, C, Pc, config: GraphConfig) -> float:
    """:func:`estimate_sigma` of the gallery rows stacked on m observations,
    from the m x l cross block ``C`` and the condensed observation distances
    ``Pc``.

    The gallery's share comes from its cached sigma window for this m (see
    :func:`_sigma_window`), so after the first query of each m the cost is
    O(m·take) for gathering and partitioning the query's own values and the
    window instead of O(take²).
    """
    w = gallery.window(C.shape[0], config)
    d2 = np.concatenate([w.values, C[np.ix_(w.oi, w.li)].ravel(), Pc[w.pairs]])
    return _half_median(d2, w.lo, w.hi)


def estimate_sigma(X, config: GraphConfig = GraphConfig()) -> float:
    """Half the median pairwise distance of a seeded subsample.

    This is the reference definition of the median heuristic. The classify
    path computes the same value bit for bit in :func:`_median_sigma`, from
    a per-gallery window of order statistics and the query's own distances,
    and never calls this function. It stays public because the tests pin
    the heuristic through it and the benchmark tracer reports it by name.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to estimate sigma")
    rng = np.random.default_rng(config.sigma_seed)
    take = min(n, config.sigma_sample_cap)
    idx = rng.choice(n, size=take, replace=False)
    d2 = pdist(X[idx], "sqeuclidean")
    return _half_median(d2, *_middle(d2.size))


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
    # the keys are sorted row-major, so they are H's CSR layout as they stand
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    vals = np.exp(-d2 / (2.0 * sigma * sigma))
    H = sparse.csr_matrix((vals, keys % n, indptr), shape=(n, n))
    degrees = np.asarray(H.sum(axis=1)).ravel()
    S = normalize_similarity(H, degrees)
    return SimilarityGraph(n=n, H=H, degrees=degrees, S=S, sigma=float(sigma), k=k)


def normalize_similarity(H, degrees) -> sparse.csr_matrix:
    """S_ij = H_ij / sqrt(D_ii D_jj) of the symmetric matrix ``H``.

    Each stored entry is scaled as (H_ij * r_a) * r_b with r = 1/sqrt(D),
    a = min(i, j) and b = max(i, j), so S_ij and S_ji get the same bits.
    Entries that are or underflow to zero are dropped from S; ``H`` itself
    is left as it is.
    """
    degrees = np.asarray(degrees, dtype=float).ravel()
    bad = np.flatnonzero(~(degrees > 0))
    if bad.size:
        raise ValueError(f"node {bad[0] + 1} has zero degree")
    r = 1.0 / np.sqrt(degrees)
    S = sparse.csr_matrix(H, dtype=float, copy=True)
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    S.data = S.data * r[np.minimum(rows, S.indices)] * r[np.maximum(rows, S.indices)]
    S.eliminate_zeros()
    return S


def dump_edges(graph: SimilarityGraph) -> str:
    """Edge list ``i j H_ij`` (1-based, i < j, lexicographic) for fixture diffing."""
    coo = sparse.triu(graph.H, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[t] + 1} {coo.col[t] + 1} {float(coo.data[t])!r}" for t in order
    ]
    return "\n".join(lines) + ("\n" if lines else "")
