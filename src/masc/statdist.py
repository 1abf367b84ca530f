"""KLD baseline: regularized Gaussian fits and closed-form KL divergence."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

_EIGENVALUE_FLOOR = 1e-8  # relative to the largest eigenvalue


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian fit of one sample set with energy-cutoff covariance regularization."""

    mean: np.ndarray
    cov: np.ndarray
    energy_cutoff: float
    retained: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``cov``, factored on first use only."""
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance factorization failed (not SPD)") from exc

    def factored(self) -> FactoredGaussian:
        """The mean and Cholesky factor alone, without the covariance."""
        return FactoredGaussian(mean=self.mean, chol=self.chol)


@dataclass(frozen=True)
class FactoredGaussian:
    """Mean and lower Cholesky factor of a covariance: all a KL divergence
    reads, at half the memory of a :class:`GaussianModel` that keeps both."""

    mean: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_gaussian(X, energy_cutoff: float = 0.96) -> GaussianModel:
    """Sample mean and regularized covariance of one set.

    The covariance is eigendecomposed; the smallest number of leading
    eigenvalues whose sum reaches ``energy_cutoff`` of the trace is kept
    exactly, and the discarded eigenvalues are replaced by their mean
    (floored at 1e-8 of the largest) so the model stays full rank and the
    closed-form divergence exists. Unbiased 1/(n-1) normalization.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples to fit a Gaussian")
    if not 0 < energy_cutoff <= 1:
        raise ValueError("energy_cutoff must be in (0, 1]")
    mean = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    vals, vecs = scipy.linalg.eigh(cov)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    total = float(vals.sum())
    if not total > 0:
        raise ValueError("degenerate covariance (zero total variance)")
    reached = np.cumsum(vals) >= energy_cutoff * total
    retained = int(np.argmax(reached)) + 1 if reached.any() else d
    newvals = vals.copy()
    if retained < d:
        fill = max(float(vals[retained:].mean()), _EIGENVALUE_FLOOR * float(vals[0]))
        newvals[retained:] = fill
    reg = (vecs * newvals) @ vecs.T
    reg = 0.5 * (reg + reg.T)
    return GaussianModel(mean=mean, cov=reg, energy_cutoff=float(energy_cutoff),
                         retained=retained)


def kl_gaussian(g1: GaussianModel | FactoredGaussian,
                g2: GaussianModel | FactoredGaussian) -> float:
    """Closed-form KL(g1 || g2) via the Cholesky factor of g2's covariance.

    (1/2) (tr(S2^-1 S1) + (m2-m1)^T S2^-1 (m2-m1) - d + ln det S2 - ln det S1).
    """
    d = g1.dim
    if g2.dim != d:
        raise ValueError("dimension mismatch")
    L2 = g2.chol
    L1 = g1.chol
    A = scipy.linalg.solve_triangular(L2, L1, lower=True)
    trace_term = float(np.sum(A * A))
    z = scipy.linalg.solve_triangular(L2, g2.mean - g1.mean, lower=True)
    maha = float(z @ z)
    logdet2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
    return 0.5 * (trace_term + maha - d + logdet2 - logdet1)


def symmetric_kl(g1: GaussianModel | FactoredGaussian,
                 g2: GaussianModel | FactoredGaussian) -> float:
    return 0.5 * (kl_gaussian(g1, g2) + kl_gaussian(g2, g1))


def kld_classify(train_sets, test_set, energy_cutoff: float = 0.96,
                 symmetric: bool = True) -> int:
    """Smallest-divergence class wins (smallest index on ties).

    The default symmetrized divergence (KL(test||class) + KL(class||test))/2
    avoids fixing an arbitrary direction; ``symmetric=False`` scores by
    KL(test||class) only.
    """
    test = fit_gaussian(test_set, energy_cutoff)
    models = [fit_gaussian(ts, energy_cutoff) for ts in train_sets]
    if symmetric:
        scores = [symmetric_kl(test, mdl) for mdl in models]
    else:
        scores = [kl_gaussian(test, mdl) for mdl in models]
    return int(np.argmin(scores)) + 1
