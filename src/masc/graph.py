"""k-NN similarity graphs with Gaussian edge weights."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist, pdist, squareform

from .data import DataError


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
# Galleries below this many rows get the full cdist block: there it costs
# less than the estimate and the recomputation (measured crossover).
_FILTER_MIN_L = 200
# A query whose pairs needing exact values exceed this share of its m x l
# block computes the whole block instead (ties, duplicates, integer grids).
_FULL_SHARE = 0.25
_U = np.finfo(float).eps / 2  # unit roundoff


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
    use of each k, the sigma windows on first use of each sample size and
    the rows centred on their mean (for :meth:`cross`'s estimate) on the
    first query; no l x l distance block is kept. ``X`` is used as given and
    must not change while the index lives. Its rows are checked for
    non-finite values here, once, so no query scans them again.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        if not np.isfinite(X).all():
            raise ValueError("X has a non-finite value")
        self.X = X
        self._lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._windows: dict[tuple[int, int, int], _SigmaWindow] = {}
        self._centred: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None
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

    def cross(self, obs) -> _CrossBlock:
        """The squared distances from the rows of ``obs`` to the gallery
        rows, as a GEMM estimate with an error bound (see
        :class:`_CrossBlock`).

        With the gallery rows centred on their mean, x, and the observations
        centred on the same mean, a, the estimate is
        G = ||a||² + ||x||² - 2 a·x, one m x l GEMM. Row i's bound is
        e_i = (2d + 16) u s_i² + 8 (d + 1) 2^-1074, with u = 2^-53 and
        s_i = ||a_i|| + max_j ||x_j||. To first order in u:

        - the norms and the dot product, summed in any order with or
          without FMA, as any BLAS blocks or threads the GEMM, are off by at
          most d u (||a||² + ||x||² + 2 ||a|| ||x||) <= d u s²;
        - the two additions that form G add at most 2 u s²;
        - centring rounds each coordinate of a and x by a relative u, which
          moves ||a - x||² from the true squared distance by at most 2 u s²;
        - ``cdist`` sums d squared differences, each rounded twice, in any
          order, so its value is within a relative (d + 2) u of the true
          one, itself at most s².

        That makes (2d + 6) u s²; the 10 u s² left over cover the second
        order terms and the rounding of every comparison made against G ± e
        and of the sigma band's ends (see :func:`_median_sigma`). Each
        rounding that lands below the normal range adds at most 2^-1075
        absolutely, fewer than 16 (d + 1) of them in all. Exactness never
        rests on G being close, only the count of pairs to recompute does,
        and centring keeps s small for data far from the origin.

        Below :data:`_FILTER_MIN_L` gallery rows, for m = 0 and where s² is
        not far from overflow (or not a number) the estimate is the
        ``cdist`` block itself, with e = 0.
        """
        obs = np.asarray(obs, dtype=float)
        m, d = obs.shape
        if self.l >= _FILTER_MIN_L and m:
            with self._lock:
                if self._centred is None:
                    mean = self.X.mean(axis=0)
                    Xc = self.X - mean
                    xn = np.einsum("ij,ij->i", Xc, Xc)
                    self._centred = mean, Xc, xn, math.sqrt(xn.max())
                mean, Xc, xn, R = self._centred
            A = obs - mean
            an = np.einsum("ij,ij->i", A, A)
            s2 = np.square(np.sqrt(an) + R)
            if s2.max() < 2.0 ** 1000:
                G = A @ Xc.T
                G *= -2.0
                G += an[:, None]
                G += xn
                e = (2 * d + 16) * _U * s2 + 8 * (d + 1) * 2.0 ** -1074
                return _CrossBlock(self.X, obs, G, e)
        return _CrossBlock(self.X, obs, cdist(obs, self.X, "sqeuclidean"))

    def sigma(self, C, Pc, config: GraphConfig = GraphConfig()) -> float:
        """The median-heuristic sigma of the gallery rows stacked on m
        observations, from their exact squared distances: the m x l block
        ``C`` (``cdist`` of the observations and the gallery rows) and the
        condensed ``Pc`` (``pdist`` of the observations).

        A caller that needs the whole block anyway (kmsm's cross kernels)
        passes it here; :func:`build_knn_graph` takes the estimate of
        :meth:`cross` instead.
        """
        return _median_sigma(self, _CrossBlock(self.X, None, C), Pc, config)


class _CrossBlock:
    """A query's m x l squared distances to the gallery rows.

    ``G`` estimates them and |G_ij - cdist_ij| <= ``e[i]`` for every j, so
    G settles every comparison whose margin exceeds the bound. The pairs it
    cannot settle get their ``cdist`` values from :meth:`exact`, and every
    value that leaves this block (an edge, a sigma) is one of those.
    Without ``e``, G is the ``cdist`` block itself, e = 0 and :meth:`exact`
    reads G; ``obs`` is then not needed.
    """

    def __init__(self, X, obs, G, e=None):
        self.X, self.obs, self.G = X, obs, G
        self.e = np.zeros(G.shape[0]) if e is None else e
        self._block = G if e is None else None

    def exact(self, rows, cols) -> np.ndarray:
        """``cdist`` values of the pairs (rows[t], cols[t]), listed row by
        row. One ``cdist`` call per row computes them, unless they exceed
        :data:`_FULL_SHARE` of the block: then the whole block, once.

        A single row's ``cdist`` on a subset of the gallery rows equals the
        same entries of the full block, and ``pdist``, bit for bit;
        ``tests/test_graph.py`` pins that.
        """
        if self._block is None and rows.size > _FULL_SHARE * self.G.size:
            self._block = cdist(self.obs, self.X, "sqeuclidean")
        if self._block is not None:
            return self._block[rows, cols]
        out = np.empty(rows.size)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        for a, b in zip(starts, np.r_[starts[1:], rows.size]):
            i = rows[a]
            out[a:b] = cdist(self.obs[i:i + 1], self.X[cols[a:b]], "sqeuclidean")[0]
        return out


def _nearest(D, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's k smallest entries of ``D``,
    ordered by (value, column)."""
    if k == 0 or D.shape[0] == 0:
        return np.empty((D.shape[0], k), dtype=np.intp), np.empty((D.shape[0], k))
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


def _ranked(d2, lo: int, hi: int) -> tuple[float, float]:
    """The values of ranks ``lo`` and ``hi`` = lo or lo + 1 in ``d2``, which
    is reordered in place."""
    # one partition and a min: partitioning at both ranks at once took six
    # times as long on a quarter million values
    d2.partition(lo)
    return d2[lo], (d2[lo + 1:].min() if hi > lo else d2[lo])


def _half_median(d2, lo: int, hi: int) -> float:
    """Half the average of the distances whose squares have ranks ``lo`` and
    ``hi`` = lo or lo + 1 in ``d2``, which is reordered in place."""
    # sqrt is monotone and sqrt(sqeuclidean) equals scipy's euclidean bit
    # for bit, so this is the median of the plain distances, averaged as
    # np.median averages its two middle values
    a, b = map(math.sqrt, _ranked(d2, lo, hi))
    median = a if lo == hi else (a + b) / 2.0
    if median == 0.0:  # the data's doing, mostly duplicate rows
        raise DataError("zero median distance")
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


def _median_sigma(gallery: GalleryIndex, cross: _CrossBlock, Pc, config: GraphConfig) -> float:
    """:func:`estimate_sigma` of the gallery rows stacked on m observations,
    from their :class:`_CrossBlock` and the condensed observation distances
    ``Pc``.

    The gallery's share comes from its cached sigma window for this m (see
    :func:`_sigma_window`), so after the first query of each m the cost is
    O(m·take) for gathering and partitioning the query's own values and the
    window instead of O(take²).

    The query's gallery distances enter as estimates, each within E/2 of
    its ``cdist`` value, E = 2 max e. Sorting moves no value further than
    that, so the exact values of the middle ranks lo and hi lie within E/2
    of the estimates' values a and b of those ranks. A value estimated
    below a - E is exactly below rank lo's, and one above b + E above rank
    hi's; e's own margin covers the rounding of a - E and b + E. So with
    ``below`` values under a - E, the middle values are those of ranks
    lo - below and hi - below among the values in [a - E, b + E], once
    their estimates are replaced by ``cdist`` values.
    """
    w = gallery.window(cross.G.shape[0], config)
    G = cross.G[w.oi][:, w.li]
    d2 = np.concatenate([w.values, G.ravel(), Pc[w.pairs]])
    E = 2.0 * cross.e[w.oi].max(initial=0.0)
    if not E:  # every value is exact
        return _half_median(d2, w.lo, w.hi)
    a, b = _ranked(d2.copy(), w.lo, w.hi)
    below = np.count_nonzero(d2 < a - E)
    band = (d2 >= a - E) & (d2 <= b + E)
    at = np.flatnonzero(band[w.values.size:w.values.size + G.size])
    i, j = np.unravel_index(at, G.shape)
    d2[w.values.size + at] = cross.exact(w.oi[i], w.li[j])
    return _half_median(d2[band], w.lo - below, w.hi - below)


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
    the remaining m rows are decided here, and only those rows are checked
    for non-finite values (the index checked its own). A labelled row's k nearest nodes
    are its cached labelled neighbours merged with the closer observations:
    the observations come after every labelled row, so a tie still goes to
    the smaller index and the graph equals a full rebuild exactly. Without
    ``gallery`` all of ``X`` is indexed first.

    The m x l observation-gallery distances come as a GEMM estimate G with
    a per-row bound e (:meth:`GalleryIndex.cross`): G decides and ``cdist``
    confirms. Only pairs G cannot place get their ``cdist`` values: those
    within e of an observation row's k-th smallest upper bound, or of a
    gallery row's k-th neighbour distance, or of the sigma median. Every
    other pair is strictly farther than the boundary it is tested against,
    so it is never selected, and every edge weight and sigma comes from
    ``cdist`` values. The graph is therefore bitwise the one the full
    ``cdist`` block gives. A query costs an O(m l d) GEMM, O(m² d) for the
    observations' own ``pdist`` and O(d) per recomputed pair.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (n, d) array")
    n = X.shape[0]
    k = config.k
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} samples, got {n}")
    if gallery is None:
        gallery = GalleryIndex(X)
    elif not np.array_equal(X[:gallery.l], gallery.X):
        # the index holds finite rows only, so a non-finite row fails here
        if not np.isfinite(X).all():
            raise ValueError("X has a non-finite value")
        raise ValueError("X must start with the gallery's rows")
    l, m = gallery.l, n - gallery.l
    obs = X[l:]
    if not np.isfinite(obs).all():  # the index checked the gallery's rows
        raise ValueError("X has a non-finite value")
    cross = gallery.cross(obs)
    Pc = pdist(obs, "sqeuclidean")
    P = squareform(Pc) if m else np.empty((0, 0))
    np.fill_diagonal(P, np.inf)  # a row is not its own neighbour
    sigma = config.sigma if config.sigma is not None else _median_sigma(gallery, cross, Pc, config)
    heads, head_d2 = gallery.neighbours(k)
    full = heads.shape[1] == k  # a gallery of l <= k rows lists only l - 1

    # the pairs G cannot place: an observation row's k nearest nodes have
    # exact values at most its k-th smallest upper bound t, and a gallery
    # row takes an observation only below its k-th neighbour distance
    e = cross.e[:, None]
    low = cross.G - e
    up = np.partition(cross.G, min(k, l) - 1, axis=1)[:, :k] + e
    t = np.partition(np.hstack([up, P]), k - 1, axis=1)[:, k - 1:k]
    kth = head_d2[:, -1] if full else np.full(l, np.inf)
    need = (low <= t) | (low < kth)
    rows, cols = np.nonzero(need)
    d2 = cross.exact(rows, cols)

    # gallery rows: cached lists merged with any strictly closer observation;
    # the observations left out are no closer than the k-th, so they would
    # sort after the whole cached list and are left at inf
    closer = d2 < kth[cols]
    hit = cols[closer]
    # a list shorter than k takes every observation
    merge = np.flatnonzero(np.bincount(hit, minlength=l)) if full else np.arange(l)
    if merge.size:
        obs_d2 = np.full((merge.size, m), np.inf)
        obs_d2[np.searchsorted(merge, hit), rows[closer]] = d2[closer]
        cand = np.hstack([heads[merge], np.broadcast_to(l + np.arange(m), (merge.size, m))])
        cand_d2 = np.hstack([head_d2[merge], obs_d2])
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
    # observation rows: their k nearest nodes lie among the recomputed
    # gallery columns and the observations no farther than t, laid out row
    # by row in column order; the inf padding after a row is never taken,
    # as a padded row has a finite t and k values up to it
    prow, pcol = np.nonzero(P <= t)
    order = np.argsort(np.concatenate([rows, prow]), kind="stable")
    rows = np.concatenate([rows, prow])[order]
    cols = np.concatenate([cols, l + pcol])[order]
    d2 = np.concatenate([d2, P[prow, pcol]])[order]
    counts = np.bincount(rows, minlength=m)
    pos = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    D = np.full((m, counts.max(initial=0)), np.inf)
    D[rows, pos] = d2
    node = np.zeros(D.shape, dtype=np.intp)
    node[rows, pos] = cols
    near, tail_d2 = _nearest(D, k)
    tails = node[np.arange(m)[:, None], near]

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
