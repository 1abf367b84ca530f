"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (plain loops, dense algebra,
oversampling, Monte Carlo) and never calls the code paths it checks.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def rotate_oversampled(pattern, theta_deg, factor=8):
    """Dense forward-mapped rotation: split every pixel into factor^2
    subpixels, rotate each subpixel center about the grid center, and
    accumulate into the nearest output pixel."""
    p = np.asarray(pattern, dtype=float)
    h, w = p.shape
    rc, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(theta_deg)
    cos, sin = math.cos(rad), math.sin(rad)
    out = np.zeros_like(p)
    step = 1.0 / factor
    offsets = -0.5 + step / 2.0 + step * np.arange(factor)
    for r in range(h):
        for c in range(w):
            if p[r, c] == 0.0:
                continue
            mass = p[r, c] / (factor * factor)
            for dy in offsets:
                for dx in offsets:
                    y, x = r + dy - rc, c + dx - cc
                    yr = cos * y - sin * x + rc
                    xr = sin * y + cos * x + cc
                    ri, ci = int(round(yr)), int(round(xr))
                    if 0 <= ri < h and 0 <= ci < w:
                        out[ri, ci] += mass
    return out


def smoothness_by_loops(S, M):
    """(1/2) sum_ij S_ij ||M_i - M_j||^2 with explicit Python loops."""
    S = np.asarray(S if not hasattr(S, "toarray") else S.toarray(), dtype=float)
    M = np.asarray(M, dtype=float)
    n = S.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = M[i] - M[j]
            total += S[i, j] * float(diff @ diff)
    return 0.5 * total


def partitioned_smoothness(S, M, l):
    """The four blocks of the double sum split at the labelled/unlabelled
    boundary: (labelled-labelled, unlabelled-unlabelled, across, across)."""
    S = np.asarray(S if not hasattr(S, "toarray") else S.toarray(), dtype=float)
    M = np.asarray(M, dtype=float)
    n = S.shape[0]
    q1 = q2 = q3 = q4 = 0.0
    for i in range(n):
        for j in range(n):
            term = S[i, j] * float((M[i] - M[j]) @ (M[i] - M[j]))
            if i < l and j < l:
                q1 += term
            elif i >= l and j >= l:
                q2 += term
            elif i < l:
                q3 += term
            else:
                q4 += term
    return 0.5 * q1, 0.5 * q2, 0.5 * q3, 0.5 * q4


def linear_kernel(A, B):
    """Plain inner-product kernel (the KPCA-vs-PCA consistency stub)."""
    return np.atleast_2d(np.asarray(A, float)) @ np.atleast_2d(np.asarray(B, float)).T


def lp_cost(H, D, M, Y, mu):
    """The label-propagation objective, a dense double sum:
    (1/2) (sum_ij H_ij ||M_i/sqrt(D_ii) - M_j/sqrt(D_jj)||^2 + mu ||M - Y||_F^2)."""
    H = np.asarray(H if not hasattr(H, "toarray") else H.toarray(), dtype=float)
    D = np.asarray(D, dtype=float).ravel()
    M = np.asarray(M, dtype=float)
    Y = np.asarray(Y, dtype=float)
    R = M / np.sqrt(D)[:, None]
    diff = R[:, None, :] - R[None, :, :]
    smooth = float(np.sum(H * np.einsum("ijk,ijk->ij", diff, diff)))
    fit = float(mu) * float(np.square(M - Y).sum())
    return 0.5 * (smooth + fit)


def gaussian_logpdf(X, mean, cov):
    """Log density of a multivariate normal, via Cholesky."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    L = np.linalg.cholesky(cov)
    z = np.linalg.solve(L, (X - mean).T)
    maha = np.sum(z * z, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (maha + logdet + d * math.log(2.0 * math.pi))


def kl_monte_carlo(mean1, cov1, mean2, cov2, n=1_000_000, seed=0):
    """Monte Carlo KL(N1 || N2); returns (estimate, standard_error)."""
    rng = np.random.default_rng(seed)
    d = len(mean1)
    L = np.linalg.cholesky(cov1)
    X = mean1 + rng.normal(size=(n, d)) @ L.T
    diffs = gaussian_logpdf(X, mean1, cov1) - gaussian_logpdf(X, mean2, cov2)
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(n))


def random_spd(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T + d * np.eye(d))


def brute_force_neighbors(X, k):
    """Index-order tie-broken k nearest neighbors by explicit sorting."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = []
    for i in range(n):
        cand = [(float(np.sum((X[i] - X[j]) ** 2)), j) for j in range(n) if j != i]
        cand.sort()
        out.append([j for _, j in cand[:k]])
    return out


def reference_sigma(X, config):
    """Half the median of scipy's Euclidean distances over the seeded subsample."""
    from scipy.spatial.distance import pdist

    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(config.sigma_seed)
    take = min(X.shape[0], config.sigma_sample_cap)
    idx = rng.choice(X.shape[0], size=take, replace=False)
    median = float(np.median(pdist(X[idx])))
    if median == 0.0:
        raise ValueError("zero median distance")
    return median / 2.0


def reference_knn_graph(X, config):
    """Dense O(n^2) k-NN graph over all of X: full squared-distance matrix,
    per-row k-th smallest by partition, boundary ties trimmed to the smaller
    indices. H is assembled from COO triplets and S by sparse products with
    the diagonal matrix D^-1/2, its strict upper triangle mirrored below the
    diagonal so S is exactly symmetric."""
    from scipy import sparse
    from scipy.spatial.distance import pdist, squareform

    from masc.graph import SimilarityGraph

    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    k = config.k
    sigma = config.sigma if config.sigma is not None else reference_sigma(X, config)
    d2 = squareform(pdist(X, "sqeuclidean"))
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    adj = d2 <= kth[:, None]
    for i in np.flatnonzero(adj.sum(axis=1) != k):
        cand = np.flatnonzero(adj[i])
        keep = cand[np.lexsort((cand, d2[i, cand]))][:k]
        adj[i] = False
        adj[i, keep] = True
    np.fill_diagonal(d2, 0.0)
    adj |= adj.T
    rows, cols = np.nonzero(adj)
    vals = np.exp(-d2[rows, cols] / (2.0 * sigma * sigma))
    H = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    degrees = np.asarray(H.sum(axis=1)).ravel()
    if not (degrees > 0).all():  # the library's error, for the same node and distance
        from masc.graph import _underflow

        i = np.argmin(degrees > 0)
        raise _underflow(f"edge weight of node {i + 1}", "sigma", sigma,
                         np.delete(d2[i], i).min(), config.sigma is not None)
    dinv = sparse.diags(1.0 / np.sqrt(degrees))
    raw = (dinv @ H @ dinv).tocsr()
    upper = sparse.triu(raw, k=1)
    S = (upper + upper.T + sparse.diags(raw.diagonal())).tocsr()
    S.eliminate_zeros()
    return SimilarityGraph(n=n, H=H, degrees=degrees, S=S, sigma=float(sigma), k=k)


def random_graph_instance(rng, n_max=30, c_max=5, d=4):
    """Random labelled/unlabelled point cloud plus a k-NN similarity graph.

    Returns (S, Y_l, l, m, c); the graph is built by the library (instances
    are inputs here, the oracle part is what tests do with them).
    """
    from masc.graph import GraphConfig, build_knn_graph
    from masc.smoothing import one_hot_labels

    n = int(rng.integers(6, n_max + 1))
    l = int(rng.integers(2, n - 1))
    m = n - l
    c = int(rng.integers(2, c_max + 1))
    k = int(rng.integers(1, min(6, n - 1) + 1))
    X = rng.normal(size=(n, d))
    sigma = float(rng.uniform(0.5, 2.0))
    g = build_knn_graph(X, GraphConfig(k=k, sigma=sigma))
    labels = rng.integers(1, c + 1, size=l)
    return g.S, one_hot_labels(labels, c), l, m, c


def reference_lp_votes(S, Y_l, m, mu=1.0):
    """Votes of the m observation rows under the dense closed form: the
    labels stacked over m zero rows, solved by ``lp_solve`` (one LU of the
    n x n system) and counted by ``observation_votes``. Every faster lp
    path must return exactly these counts."""
    from masc.labelprop import lp_solve, observation_votes

    Y_l = np.asarray(Y_l, dtype=float)
    Y = np.vstack([Y_l, np.zeros((m, Y_l.shape[1]))])
    return observation_votes(lp_solve(S, Y, mu), m)


def reference_fit_gaussian(X, energy_cutoff=0.96):
    """The dense fit: eigendecompose the d x d sample covariance, keep the
    leading eigenvalues that reach ``energy_cutoff`` of the trace, replace
    the rest by their mean (floored at 1e-8 of the largest) and rebuild the
    covariance. Keeps every eigenvalue when rounding never reaches the
    cutoff, so at ``energy_cutoff=1`` a set with at most d rows can give a
    singular covariance. Returns the mean, the covariance and the retained
    count as attributes."""
    import scipy.linalg

    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    mean = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    vals, vecs = scipy.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    reached = np.cumsum(vals) >= energy_cutoff * float(vals.sum())
    retained = int(np.argmax(reached)) + 1 if reached.any() else d
    newvals = vals.copy()
    if retained < d:
        newvals[retained:] = max(float(vals[retained:].mean()), 1e-8 * float(vals[0]))
    reg = (vecs * newvals) @ vecs.T
    return SimpleNamespace(mean=mean, cov=0.5 * (reg + reg.T), retained=retained)


def reference_kl_gaussian(g1, g2):
    """KL(g1 || g2) from the dense covariances, via the Cholesky factors
    and triangular solves; takes anything with ``mean`` and ``cov``."""
    import scipy.linalg

    L1 = np.linalg.cholesky(g1.cov)
    L2 = np.linalg.cholesky(g2.cov)
    A = scipy.linalg.solve_triangular(L2, L1, lower=True)
    z = scipy.linalg.solve_triangular(L2, g2.mean - g1.mean, lower=True)
    logdet2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
    return 0.5 * (float(np.sum(A * A)) + float(z @ z) - len(g1.mean) + logdet2 - logdet1)
