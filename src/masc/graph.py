"""k-NN similarity graphs with Gaussian edge weights."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

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
        if self.sigma is not None:
            _check_width("sigma", self.sigma)
        if self.sigma_sample_cap < 2:
            raise ValueError("sigma_sample_cap >= 2 required")


def _check_width(name: str, sigma: float) -> None:
    """Raise ValueError unless the fixed width ``sigma`` is positive and
    2 sigma², the divisor of every Gaussian weight exp(-d² / (2 sigma²)), is
    a positive normal float."""
    if not sigma > 0:
        raise ValueError(f"fixed {name} must be > 0")
    s = float(sigma)  # a Python float: its square overflows to inf, silently
    if not np.finfo(float).tiny <= 2.0 * s * s < math.inf:
        raise ValueError(f"{name} {s!r} is out of range:"
                         " 2*sigma*sigma must be a positive normal float")


def gaussian_weights(sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """exp(-d2 / (2 sigma^2)) of an array of squared distances d2, as a
    callable: the graph's edge weights and kmsm's kernel values."""
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    sigma = float(sigma)
    # a product, not sigma ** 2: pow may round one ulp off, and then the
    # kernel of 2^j X with 2^j sigma is no longer bitwise that of X
    s2 = 2.0 * sigma * sigma

    def weights(d2):
        with np.errstate(over="ignore"):  # -inf, whose exp is the 0 it underflows to
            return np.exp(-d2 / s2)

    return weights


def _underflow(what: str, name: str, sigma: float, d2: float, given: bool) -> ValueError:
    """The error for a width ``sigma`` under which every Gaussian weight of
    ``what`` underflows to 0, ``d2`` being the smallest squared distance
    among them: a ValueError for a given width, a DataError for the one the
    median heuristic chose."""
    source = "" if given else "the median heuristic's "
    return (ValueError if given else DataError)(
        f"every {what} underflows to 0: {source}{name} {sigma:.6g} is too small"
        f" for the nearest distance {math.sqrt(d2):.6g}")


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
_U = np.finfo(float).eps / 2  # unit roundoff
_OVERFLOW = "a node's k-th nearest squared distance overflows"


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
    """The rows of one labelled block and what is derived from them alone,
    so one index serves every query against the same block.

    The k-NN lists of each k and the rows centred on their mean (for
    :meth:`cross`'s estimate) are parts of one memo, :meth:`_part`, which
    never evicts; :meth:`window` keeps the sigma windows of the most
    recently used sample sizes only. No l x l distance block is kept. ``X`` is used as given
    and must not change while the index lives. Its rows are checked for
    non-finite values here, once, so no query scans them again.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        if not np.isfinite(X).all():
            raise ValueError("X has a non-finite value")
        self.X = X
        self._parts = {}
        self._windows: dict[tuple[int, int, int], _SigmaWindow] = {}
        self._lock = threading.RLock()

    @property
    def l(self) -> int:
        return self.X.shape[0]

    def _part(self, key, build):
        """The part kept under ``key``, built by ``build()`` on first use
        under the index's lock, so it is built once. The lock is reentrant:
        a build may read another part, or a sigma window, without deadlock.
        """
        with self._lock:
            if key not in self._parts:
                self._parts[key] = build()
            return self._parts[key]

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, squared distances) of each row's min(k, l-1) nearest
        other rows, ordered by (distance, index)."""
        def build():
            # row tiles of about 1 MB: each pair is computed twice, but no
            # l x l matrix is ever held, and cdist's values equal pdist's
            # bit for bit
            j = min(k, self.l - 1)  # a 1-row gallery lists no neighbour
            step, parts = max(1, _BLOCK // self.l), []
            for a in range(0, self.l, step):
                D = cdist(self.X[a:a + step], self.X, "sqeuclidean")
                rows = np.arange(D.shape[0])
                D[rows, a + rows] = np.inf  # a row is not its own neighbour
                # a row's candidates: its entries up to its j-th smallest
                kth = np.partition(D, j - 1, axis=1)[:, j - 1:j] if j else -np.inf
                r, c = np.nonzero(D <= kth)
                parts.append(_k_smallest(r, c, D[r, c], D.shape[0], j))
            return tuple(map(np.concatenate, zip(*parts)))

        return self._part(("neighbours", k), build)

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
            def centre():
                mean = self.X.mean(axis=0)
                Xc = self.X - mean
                xn = np.einsum("ij,ij->i", Xc, Xc)
                return mean, Xc, xn, math.sqrt(xn.max())

            # rows near overflow read inf or NaN here and take the cdist block
            with np.errstate(over="ignore", invalid="ignore"):
                mean, Xc, xn, R = self._part("centred", centre)
                A = obs - mean
                an = np.einsum("ij,ij->i", A, A)
                s2 = np.square(np.sqrt(an) + R)
            if s2.max() < 2.0 ** 1000:
                G = A @ Xc.T
                G *= -2.0
                G += an[:, None]
                G += xn
                e = (2 * d + 16) * _U * s2 + 8 * (d + 1) * 2.0 ** -1074
                return _CrossBlock(self.X, G, obs, e)
        return _CrossBlock(self.X, cdist(obs, self.X, "sqeuclidean"))


class _CrossBlock:
    """A query's m x l squared distances to the gallery rows.

    ``G`` estimates them and |G_ij - cdist_ij| <= ``e[i]`` for every j, so
    G settles every comparison whose margin exceeds the bound. The pairs it
    cannot settle get their ``cdist`` values from :meth:`exact`, and every
    value that leaves this block (an edge, a sigma) is one of those.
    Without ``obs`` and ``e``, G is the ``cdist`` block itself, e = 0 and
    :meth:`exact` reads G.
    """

    def __init__(self, X, G, obs=None, e=None):
        self.X, self.G, self.obs = X, G, obs
        self.e = np.zeros(G.shape[0]) if e is None else e

    def exact(self, rows, cols) -> np.ndarray:
        """``cdist`` values of the pairs (rows[t], cols[t]), listed row by
        row, from one ``cdist`` call per row.

        A single row's ``cdist`` on a subset of the gallery rows equals the
        same entries of the full block, and ``pdist``, bit for bit;
        ``tests/test_graph.py`` pins that.
        """
        if self.obs is None:
            return self.G[rows, cols]
        out = np.empty(rows.size)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        for a, b in zip(starts, np.r_[starts[1:], rows.size]):
            i = rows[a]
            out[a:b] = cdist(self.obs[i:i + 1], self.X[cols[a:b]], "sqeuclidean")[0]
        return out


def _k_smallest(rows, cols, vals, nrows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's k smallest candidates, the triples
    (rows[t], cols[t], vals[t]), as (nrows, k) arrays ordered by (value,
    column).

    Every row below ``nrows`` must hold at least k candidates, in distinct
    columns. Each caller meets that: a gallery row has l - 1 >= min(k, l - 1)
    other rows; a merged gallery row holds its k cached neighbours plus at
    least one observation, or, with a list shorter than k, all n - 1 >= k
    other nodes; and an observation row has at least k values up to its
    bound t. Only a squared distance that overflowed to inf, which no
    strict comparison with inf admits, can leave a row short: that raises
    DataError.
    """
    order = np.lexsort((cols, vals, rows))
    counts = np.bincount(rows, minlength=nrows)
    if counts.min(initial=k) < k:
        raise DataError(_OVERFLOW)
    keep = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return cols[keep], vals[keep]


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
    if median == math.inf:  # squared distances beyond the floating-point range
        raise DataError("median distance overflows")
    sigma = median / 2.0
    if not 2.0 * sigma * sigma >= np.finfo(float).tiny:  # as _check_width asks of a given one
        raise DataError(f"the median heuristic's sigma {sigma!r} is out of range:"
                        " 2*sigma*sigma must be a positive normal float")
    return sigma


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
    for non-finite values (the index checked its own). Every k-NN list,
    cached or not, is picked by :func:`_k_smallest`, which orders a row's
    candidates by (distance, index). A labelled row's candidates are its
    cached labelled neighbours and the strictly closer observations, and an
    observation row's include every node no farther than its bound t
    (below), so the graph equals a full rebuild exactly. Without
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

    # gallery rows: a cached list merged with its strictly closer
    # observations; a list shorter than k takes every observation
    closer = d2 < kth[cols]
    hit = cols[closer]
    merge = np.flatnonzero(np.bincount(hit, minlength=l)) if full else np.arange(l)
    if merge.size:
        merged = _k_smallest(
            np.concatenate([np.repeat(np.arange(merge.size), heads.shape[1]),
                            np.searchsorted(merge, hit)]),
            np.concatenate([heads[merge].ravel(), l + rows[closer]]),
            np.concatenate([head_d2[merge].ravel(), d2[closer]]), merge.size, k)
        if full:
            heads, head_d2 = heads.copy(), head_d2.copy()
            heads[merge], head_d2[merge] = merged
        else:
            heads, head_d2 = merged
    # observation rows: their k nearest nodes lie among the recomputed
    # gallery columns and the observations no farther than t
    prow, pcol = np.nonzero(P <= t)
    tails, tail_d2 = _k_smallest(np.concatenate([rows, prow]), np.concatenate([cols, l + pcol]),
                                 np.concatenate([d2, P[prow, pcol]]), m, k)

    # a node is its own candidate at an infinite distance, so a list that
    # reaches one may have picked the node itself
    if np.isinf(head_d2).any() or np.isinf(tail_d2).any():
        raise DataError(_OVERFLOW)

    # keep (i, j) if either endpoint selected the other; both directions of
    # an edge carry bitwise the same distance, so any copy will do and the
    # sort need not be stable
    src = np.repeat(np.arange(n), k)
    dst = np.concatenate([heads.ravel(), tails.ravel()])
    keys = np.concatenate([src * n + dst, dst * n + src])
    order = keys.argsort()
    keys = keys[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    keys = keys[first]
    d2 = np.tile(np.concatenate([head_d2.ravel(), tail_d2.ravel()]), 2)[order[first]]
    # the keys are sorted row-major, so they are H's CSR layout as they stand
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    H = sparse.csr_matrix((gaussian_weights(sigma)(d2), keys % n, indptr), shape=(n, n))
    degrees = np.asarray(H.sum(axis=1)).ravel()
    dead = np.flatnonzero(degrees == 0)
    if dead.size:  # its nearest neighbour heads its list
        i = dead[0]
        nearest = head_d2[i, 0] if i < l else tail_d2[i - l, 0]
        raise _underflow(f"edge weight of node {i + 1}", "sigma", sigma, nearest,
                         config.sigma is not None)
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
