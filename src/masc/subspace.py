"""MSM and KMSM baselines: PCA subspaces, kernel PCA, principal angles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist, pdist, squareform

from .data import DataError


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
    rank: int          # numerical rank of the centered set

    def subspace(self, q: int) -> Subspace:
        """Top-q eigenvectors of the sample covariance."""
        d = self.mean.shape[0]
        limit = min(d, self.n - 1, self.svals.size)
        if not 1 <= q <= limit:
            raise ValueError(f"q must be in 1..{limit} for a {self.n}x{d} set, got {q}")
        basis = _fix_signs(self.Vt[:q].T)
        eigenvalues = self.svals[:q] ** 2 / (self.n - 1)
        return Subspace(basis=basis, mean=self.mean, eigenvalues=eigenvalues)


def pca_fit(X, keep: int | None = None) -> PCAFit:
    """Thin SVD of the centered set, the Gram-side eigenproblem when the set
    is smaller than the dimension; ``keep`` keeps only that many leading
    directions.

    The fit's ``rank`` counts every singular value above max(n, d)·eps times
    the largest, numpy's ``matrix_rank`` tolerance, kept or not.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D set with at least 2 samples")
    mean = X.mean(axis=0)
    _, svals, Vt = np.linalg.svd(X - mean, full_matrices=False)
    rank = int(np.count_nonzero(svals > max(X.shape) * np.finfo(float).eps * svals[0]))
    if keep is not None:
        svals, Vt = svals[:keep].copy(), Vt[:keep].copy()
    return PCAFit(mean=mean, svals=svals, Vt=Vt, n=X.shape[0], rank=rank)


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


def msm_similarity(a, b) -> float:
    """Set-to-set similarity in [0, 1]: the squared largest canonical correlation."""
    A, B = _basis(a), _basis(b)
    cos = np.clip(scipy.linalg.svd(A.T @ B, compute_uv=False), 0.0, 1.0)
    return float(cos[0] * cos[0])


def gaussian_kernel(sigma: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) as a two-set Gram callable."""
    if not sigma > 0:
        raise ValueError("sigma_kernel must be > 0")
    sigma = float(sigma)
    # a product, not sigma ** 2: pow may round one ulp off, and then the
    # kernel of 2^j X with 2^j sigma is no longer bitwise that of X
    s2 = 2.0 * sigma * sigma

    def kernel(A, B):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if A is B or (A.shape == B.shape and np.shares_memory(A, B)):
            return np.exp(-squareform(pdist(A, "sqeuclidean")) / s2)
        return np.exp(-cdist(A, B, "sqeuclidean") / s2)

    return kernel


def kpca_subspace(X, q: int, kernel) -> KernelSubspace:
    """Kernel PCA of one set: eigendecomposition of the double-centered kernel.

    ``kernel`` is a two-set Gram callable such as :func:`gaussian_kernel`.
    Coefficients are scaled by 1/sqrt(eigenvalue) so the mapped basis is
    orthonormal in feature space. A set whose centered kernel matrix has
    fewer than q positive eigenvalues raises :class:`DataError`.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must be in 1..{n - 1} for a set of {n} samples, got {q}")
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
        raise DataError(f"non-positive retained kernel eigenvalue (q={q} too large)")
    coeffs = _fix_signs(vecs) / np.sqrt(vals)[None, :]
    return KernelSubspace(
        samples=X,
        coeffs=coeffs,
        kernel=kernel,
        col_means=col_means,
        grand_mean=grand,
        eigenvalues=vals,
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


def kmsm_similarity(a: KernelSubspace, b: KernelSubspace) -> float:
    """The squared largest canonical correlation in feature space."""
    cos = np.cos(kernel_principal_angles(a, b))
    return float(cos[0] * cos[0])

