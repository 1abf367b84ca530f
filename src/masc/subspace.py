"""MSM and KMSM baselines: PCA subspaces, kernel PCA, principal angles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

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
class KernelFit:
    """Kernel PCA of one set, from its Gram matrix alone.

    ``coeffs`` are the expansion coefficients of the orthonormal feature-space
    basis over the set's centered kernel features (eigenvectors of the
    double-centered kernel matrix scaled by 1/sqrt(eigenvalue)).
    """

    coeffs: np.ndarray       # (n, q)
    col_means: np.ndarray    # (n,) column means of the uncentered kernel matrix
    grand_mean: float
    eigenvalues: np.ndarray  # (q,), descending Gram eigenvalues

    @property
    def q(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class KernelSubspace(KernelFit):
    """A :class:`KernelFit` with the samples and kernel it was fitted on, so
    that it can project new points and pair itself with other subspaces."""

    samples: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]

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
        """Top-q eigenvectors of the sample covariance; an eigenvalue beyond
        the floating-point range reads inf, which the basis does not use."""
        d = self.mean.shape[0]
        limit = min(d, self.n - 1, self.svals.size)
        if not 1 <= q <= limit:
            raise ValueError(f"q must be in 1..{limit} for a {self.n}x{d} set, got {q}")
        basis = _fix_signs(self.Vt[:q].T)
        with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mean = X.mean(axis=0)
        centred = X - mean
    if not np.isfinite(centred).all():
        raise DataError("the centred set leaves the floating-point range")
    _, svals, Vt = np.linalg.svd(centred, full_matrices=False)
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


def gaussian_weights(sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """exp(-d2 / (2 sigma^2)) of an array of squared distances d2, as a
    callable."""
    if not sigma > 0:
        raise ValueError("sigma_kernel must be > 0")
    sigma = float(sigma)
    # a product, not sigma ** 2: pow may round one ulp off, and then the
    # kernel of 2^j X with 2^j sigma is no longer bitwise that of X
    s2 = 2.0 * sigma * sigma

    def weights(d2):
        with np.errstate(over="ignore"):  # -inf, whose exp is the 0 it underflows to
            return np.exp(-d2 / s2)

    return weights


def gaussian_kernel(sigma: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) as a two-set Gram callable."""
    weights = gaussian_weights(sigma)

    def kernel(A, B):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        # kmsm takes its class Grams from cached pdist values instead:
        # cdist(A, A) equals squareform(pdist(A)) bit for bit
        return weights(cdist(A, B, "sqeuclidean"))

    return kernel


def _rank_floor(K, lam_max: float) -> float:
    """:func:`kpca_gram`'s rank floor for the n x n Gram ``K`` whose centered
    matrix has the largest eigenvalue ``lam_max``."""
    n = K.shape[0]
    eps = np.finfo(float).eps
    return n * eps * (max(lam_max, 0.0) + 2 * (n + 7) * float(np.abs(K).max()))


def kpca_gram(K, q: int) -> KernelFit:
    """Kernel PCA of one set from its n x n Gram matrix ``K``: the q leading
    eigenpairs of the double-centered kernel.

    Only those q pairs are computed, by LAPACK's selected-eigenpair solver
    (``subset_by_index``); the top one is lambda_max, which the rank floor
    needs. Where that solver finds fewer than q pairs or fails, as it can
    when q splits a cluster of exactly equal eigenvalues, all n are computed
    and the top q kept, the remedy LAPACK documents. Coefficients are scaled
    by 1/sqrt(eigenvalue) so the mapped basis is orthonormal in feature
    space.

    A set whose centered kernel matrix has fewer than q eigenvalues above
    the rank floor n·eps·(lambda_max + 2(n + 7)·max|K|) raises
    :class:`DataError`. The floor bounds, to first order, how far rounding
    can lift an eigenvalue that is 0 in exact arithmetic, as it is for a set
    of r distinct rows at q >= r:

    - centring: with u = eps/2, each column mean, summed in order, is off
      by at most n·u·max|K|, the pairwise-summed grand mean by at most
      (n + 16)·u·max|K|, and the three subtractions and the symmetrization
      add 13·u·max|K|. So every entry is off by at most (3n + 29)·u·max|K|
      <= 2(n + 7)·eps·max|K|, and the matrix, in the 2-norm, by n times
      that. This term follows the kernel's scale, not lambda_max: under a
      wide kernel every entry is near 1 while the centered matrix is tiny.
    - the eigensolver: backward stable, its eigenvalues move by at most a
      modest multiple of eps·lambda_max, taken as n·eps·lambda_max.

    On random sets of repeated rows the spurious eigenvalues of both the
    full and the subset solve stay below a twentieth of the floor.
    """
    n = K.shape[0]
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must be in 1..{n - 1} for a set of {n} samples, got {q}")
    col_means = K.mean(axis=0)
    grand = float(K.mean())
    Kc = K - col_means[None, :] - col_means[:, None] + grand
    Kc = 0.5 * (Kc + Kc.T)
    try:
        vals, vecs = scipy.linalg.eigh(Kc, subset_by_index=[n - q, n - 1])
    except np.linalg.LinAlgError:
        vals = ()
    if len(vals) < q:
        # e.g. the centred identity, the Gram of a set whose kernel values
        # all underflow to 0, at n = 8 and q = 1
        vals, vecs = scipy.linalg.eigh(Kc)
        vals, vecs = vals[n - q:], vecs[:, n - q:]
    floor = _rank_floor(K, float(vals[-1]))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if np.any(vals <= floor):
        raise DataError(f"non-positive retained kernel eigenvalue (q={q} too large)")
    coeffs = _fix_signs(vecs) / np.sqrt(vals)[None, :]
    return KernelFit(coeffs=coeffs, col_means=col_means, grand_mean=grand, eigenvalues=vals)


def kpca_subspace(X, q: int, kernel) -> KernelSubspace:
    """:func:`kpca_gram` of ``kernel(X, X)``, kept with ``X`` and ``kernel``.

    ``kernel`` is a two-set Gram callable such as :func:`gaussian_kernel`.
    """
    X = np.asarray(X, dtype=float)
    fit = kpca_gram(kernel(X, X), q)
    return KernelSubspace(samples=X, kernel=kernel, **vars(fit))


def gram_principal_angles(Kab, a: KernelFit, b: KernelFit) -> np.ndarray:
    """Principal angles between two feature-space subspaces from their cross
    kernel block ``Kab`` (rows: a's samples, columns: b's).

    The cosines are the singular values of the cross-set coefficient Gram
    product coeffs_a^T Kc_ab coeffs_b, where Kc_ab is ``Kab`` centered
    against each set's own feature mean. numpy's row and column means depend
    on memory layout, so the same values in another layout can give other
    bits; the references pass a C-contiguous block.
    """
    Kc = (
        Kab
        - Kab.mean(axis=0, keepdims=True)
        - Kab.mean(axis=1, keepdims=True)
        + Kab.mean()
    )
    M = a.coeffs.T @ Kc @ b.coeffs
    svals = scipy.linalg.svd(M, compute_uv=False)
    return np.arccos(np.clip(svals, 0.0, 1.0))


def gram_kmsm_similarity(Kab, a: KernelFit, b: KernelFit) -> float:
    """The squared largest canonical correlation in feature space, from the
    cross kernel block ``Kab`` (see :func:`gram_principal_angles`)."""
    cos = np.cos(gram_principal_angles(Kab, a, b))
    return float(cos[0] * cos[0])


def kernel_principal_angles(a: KernelSubspace, b: KernelSubspace) -> np.ndarray:
    """:func:`gram_principal_angles` of the cross kernel block of a's and b's
    samples."""
    return gram_principal_angles(a.kernel(a.samples, b.samples), a, b)


def kmsm_similarity(a: KernelSubspace, b: KernelSubspace) -> float:
    """:func:`gram_kmsm_similarity` of the cross kernel block of a's and b's
    samples."""
    return gram_kmsm_similarity(a.kernel(a.samples, b.samples), a, b)
