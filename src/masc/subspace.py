"""MSM and KMSM baselines: PCA subspaces, kernel PCA, principal angles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist, pdist, squareform


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis of the top principal directions of one sample set."""

    basis: np.ndarray        # (d, q), orthonormal columns
    mean: np.ndarray         # (d,)
    eigenvalues: np.ndarray  # (q,), descending covariance eigenvalues

    @property
    def q(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class KernelSubspace:
    """Feature-space principal subspace expressed over the training set.

    ``coeffs`` are the expansion coefficients of the orthonormal feature-space
    basis over the centered kernel features of ``samples`` (eigenvectors of
    the double-centered kernel matrix scaled by 1/sqrt(eigenvalue)).
    """

    samples: np.ndarray
    coeffs: np.ndarray       # (n, q)
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    col_means: np.ndarray    # (n,) column means of the uncentered kernel matrix
    grand_mean: float
    eigenvalues: np.ndarray  # (q,), descending Gram eigenvalues
    sigma: float | None = None  # Gaussian bandwidth; None for injected kernels

    @property
    def q(self) -> int:
        return self.coeffs.shape[1]

    def project(self, X) -> np.ndarray:
        """Coordinates of new points on the feature-space basis, (len(X), q)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k = self.kernel(self.samples, X)
        kc = k - k.mean(axis=0, keepdims=True) - self.col_means[:, None] + self.grand_mean
        return kc.T @ self.coeffs


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    out = vectors.copy()
    lead = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    flip = lead < 0
    out[:, flip] = -out[:, flip]
    return out


@dataclass(frozen=True)
class PCAFit:
    """Thin SVD of one mean-centered set; :meth:`subspace` slices it to any q
    up to the number of directions kept."""

    mean: np.ndarray   # (d,)
    svals: np.ndarray  # (r,), descending
    Vt: np.ndarray     # (r, d), leading right singular vectors as rows
    n: int

    def subspace(self, q: int) -> Subspace:
        """Top-q eigenvectors of the sample covariance."""
        d = self.mean.shape[0]
        limit = min(d, self.n - 1, self.svals.size)
        if not 1 <= q <= limit:
            raise ValueError(f"q must be in 1..{limit} for a {self.n}x{d} set, got {q}")
        basis = _fix_signs(self.Vt[:q].T)
        eigenvalues = self.svals[:q] ** 2 / (self.n - 1)
        return Subspace(basis=basis, mean=self.mean, eigenvalues=eigenvalues)


def pca_fit(X, rank: int | None = None) -> PCAFit:
    """Thin SVD of the centered set, the Gram-side eigenproblem when the set
    is smaller than the dimension; ``rank`` keeps only that many leading
    directions."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D set with at least 2 samples")
    mean = X.mean(axis=0)
    _, svals, Vt = np.linalg.svd(X - mean, full_matrices=False)
    if rank is not None:
        svals, Vt = svals[:rank].copy(), Vt[:rank].copy()
    return PCAFit(mean=mean, svals=svals, Vt=Vt, n=X.shape[0])


def pca_subspace(X, q: int) -> Subspace:
    """Top-q eigenvectors of the mean-centered sample covariance."""
    return pca_fit(X).subspace(q)


def _basis(a) -> np.ndarray:
    return a.basis if isinstance(a, Subspace) else np.asarray(a, dtype=float)


def principal_angles(a, b) -> np.ndarray:
    """Canonical angles between two subspaces, ascending, in [0, pi/2].

    Cosines are the singular values of A^T B for orthonormal bases A and B,
    clamped to [0, 1]; the number of angles is the smaller dimension. Small
    angles are recovered through the sine route so that identical subspaces
    report angles at machine precision rather than sqrt(eps).
    """
    A, B = _basis(a), _basis(b)
    return np.sort(scipy.linalg.subspace_angles(A, B))


def msm_similarity(a, b, top: int = 1) -> float:
    """Set-to-set similarity in [0, 1]: mean of the top squared cosines.

    The default top=1 scores by the squared largest canonical correlation.
    """
    A, B = _basis(a), _basis(b)
    svals = scipy.linalg.svd(A.T @ B, compute_uv=False)
    svals = np.clip(svals, 0.0, 1.0)
    top = min(int(top), svals.size)
    if top < 1:
        raise ValueError("top >= 1 required")
    return float(np.mean(svals[:top] ** 2))


def msm_classify(train_sets, test_set, q: int = 9, top: int = 1) -> int:
    """Most similar class subspace wins (smallest index on ties)."""
    test = pca_subspace(test_set, q)
    sims = [msm_similarity(pca_subspace(ts, q), test, top) for ts in train_sets]
    return int(np.argmax(sims)) + 1


def gaussian_kernel(sigma: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) as a two-set Gram callable."""
    if not sigma > 0:
        raise ValueError("sigma_kernel must be > 0")
    s2 = 2.0 * float(sigma) ** 2

    def kernel(A, B):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if A is B or (A.shape == B.shape and np.shares_memory(A, B)):
            return np.exp(-squareform(pdist(A, "sqeuclidean")) / s2)
        return np.exp(-cdist(A, B, "sqeuclidean") / s2)

    return kernel


def kernel_matrix(X, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix of one set: symmetric PSD with unit diagonal."""
    X = np.asarray(X, dtype=float)
    return gaussian_kernel(sigma)(X, X)


def kpca_subspace(X, q: int, sigma: float | None = None, kernel=None) -> KernelSubspace:
    """Kernel PCA of one set: eigendecomposition of the double-centered kernel.

    Coefficients are scaled by 1/sqrt(eigenvalue) so the mapped basis is
    orthonormal in feature space. Pass ``kernel`` to override the Gaussian
    kernel (e.g. a linear kernel for consistency checks against plain PCA).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must be in 1..{n - 1} for a set of {n} samples, got {q}")
    bandwidth = None
    if kernel is None:
        if sigma is None:
            raise ValueError("either sigma or kernel must be given")
        bandwidth = float(sigma)
        kernel = gaussian_kernel(sigma)
    K = kernel(X, X)
    col_means = K.mean(axis=0)
    grand = float(K.mean())
    Kc = K - col_means[None, :] - col_means[:, None] + grand
    Kc = 0.5 * (Kc + Kc.T)
    vals, vecs = scipy.linalg.eigh(Kc)
    floor = n * np.finfo(float).eps * max(float(vals[-1]), 0.0)
    vals = vals[::-1][:q]
    vecs = vecs[:, ::-1][:, :q]
    if np.any(vals <= floor):
        raise ValueError(f"non-positive retained kernel eigenvalue (q={q} too large)")
    coeffs = _fix_signs(vecs) / np.sqrt(vals)[None, :]
    return KernelSubspace(
        samples=X,
        coeffs=coeffs,
        kernel=kernel,
        col_means=col_means,
        grand_mean=grand,
        eigenvalues=vals,
        sigma=bandwidth,
    )


def kernel_principal_angles(a: KernelSubspace, b: KernelSubspace) -> np.ndarray:
    """Principal angles between two feature-space subspaces via the kernel trick.

    The cosines are the singular values of the cross-set coefficient Gram
    product coeffs_a^T Kc_ab coeffs_b, where Kc_ab is the cross kernel block
    centered against each set's own feature mean.
    """
    Kab = a.kernel(a.samples, b.samples)
    Kc = (
        Kab
        - Kab.mean(axis=0, keepdims=True)
        - Kab.mean(axis=1, keepdims=True)
        + Kab.mean()
    )
    M = a.coeffs.T @ Kc @ b.coeffs
    svals = scipy.linalg.svd(M, compute_uv=False)
    return np.arccos(np.clip(svals, 0.0, 1.0))


def kmsm_similarity(a: KernelSubspace, b: KernelSubspace, top: int = 1) -> float:
    cos = np.cos(kernel_principal_angles(a, b))
    top = min(int(top), cos.size)
    if top < 1:
        raise ValueError("top >= 1 required")
    return float(np.mean(cos[:top] ** 2))


def kmsm_classify(train_sets, test_set, q: int = 9, sigma: float | None = None,
                  top: int = 1) -> int:
    """KMSM decision: kernel PCA per set, most similar class wins.

    When ``sigma`` is None it is set by the same median heuristic as the
    graph weights, over all samples involved in the comparison.
    """
    if sigma is None:
        from .graph import estimate_sigma

        stacked = np.vstack([np.asarray(ts, dtype=float) for ts in train_sets]
                            + [np.atleast_2d(np.asarray(test_set, dtype=float))])
        sigma = estimate_sigma(stacked)
    kernel = gaussian_kernel(sigma)
    test = kpca_subspace(test_set, q, kernel=kernel)
    sims = [kmsm_similarity(kpca_subspace(ts, q, kernel=kernel), test, top)
            for ts in train_sets]
    return int(np.argmax(sims)) + 1
