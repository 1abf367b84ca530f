"""KLD baseline: regularized Gaussian fits and closed-form KL divergence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import DataError
from .subspace import pca_fit

_EIGENVALUE_FLOOR = 1e-8  # relative to the largest eigenvalue
_TINY = np.finfo(float).tiny  # the smallest positive normal float


@dataclass(frozen=True)
class Spectrum:
    """A covariance in spectral form, fill·I + Vᵀ·diag(variances − fill)·V.

    The rows of ``directions`` (V) are orthonormal. The covariance has the
    ``variances`` along them and ``fill`` in every direction orthogonal to
    them: the probabilistic-PCA form of Tipping & Bishop (1999), which holds
    r·d + r + 1 numbers instead of d².
    """

    variances: np.ndarray   # (r,), all > 0
    directions: np.ndarray  # (r, d)
    fill: float

    @classmethod
    def of_covariance(cls, cov) -> Spectrum:
        """Every eigenpair of an explicit covariance, the smallest as fill."""
        vals, vecs = scipy.linalg.eigh(cov)
        if not vals[0] > 0:
            raise ValueError("covariance factorization failed (not SPD)")
        return cls(vals[::-1].copy(), vecs[:, ::-1].T.copy(), float(vals[0]))

    def logdet(self) -> float:
        d, r = self.directions.shape[1], self.variances.size
        return float(np.sum(np.log(self.variances))) + (d - r) * math.log(self.fill)

    def covariance(self) -> np.ndarray:
        V = self.directions
        cov = (V.T * (self.variances - self.fill)) @ V
        cov = 0.5 * (cov + cov.T)
        cov[np.diag_indices_from(cov)] += self.fill
        return cov


class GaussianModel:
    """Gaussian fit of one sample set with energy-cutoff covariance regularization.

    :func:`fit_gaussian` builds the model from its :class:`Spectrum` alone.
    A model built from an explicit ``cov`` takes its spectrum from
    ``eigh(cov)`` on first use, keeping every direction. ``cov`` is built
    from the spectrum whenever it is read and was not given.
    """

    def __init__(self, mean, cov, energy_cutoff: float, retained: int,
                 spectrum: Spectrum | None = None):
        if (cov is None) == (spectrum is None):
            raise ValueError("give exactly one of cov and spectrum")
        self.mean = np.asarray(mean, dtype=float)
        self._cov = None if cov is None else np.atleast_2d(np.asarray(cov, dtype=float))
        self._spectrum = spectrum
        self.energy_cutoff = float(energy_cutoff)
        self.retained = int(retained)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> np.ndarray:
        return self.spectrum.covariance() if self._cov is None else self._cov

    @property
    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = Spectrum.of_covariance(self._cov)
        return self._spectrum


def fit_gaussian(X, energy_cutoff: float = 0.96) -> GaussianModel:
    """Sample mean and regularized covariance of one set.

    The variances and directions come from the thin SVD of the centred set.
    The smallest number of leading variances whose sum reaches
    ``energy_cutoff`` of the trace is kept exactly, at most n - 1 of them
    (the rank of the sample covariance) and at most d. The discarded
    variances, exact zeros beyond rank n - 1, are replaced by their mean,
    the fill, so the model stays full rank and the closed-form divergence
    exists. Every variance is floored at 1e-8 of the largest. Unbiased
    1/(n-1) normalization.

    A set whose variances leave the floating-point range is a
    :class:`DataError`, raised before any is computed: 1e-8 of the largest,
    and so every variance and the fill, must be a positive normal float,
    and d times the largest finite, so no sum of them overflows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples to fit a Gaussian")
    if not 0 < energy_cutoff <= 1:
        raise ValueError("energy_cutoff must be in (0, 1]")
    fit = pca_fit(X)
    top = float(fit.svals[0])
    if top == 0.0:
        raise DataError("degenerate covariance (zero total variance)")
    largest = top * top / (n - 1)  # a Python float: inf on overflow, no warning
    if not (_EIGENVALUE_FLOOR * largest >= _TINY and d * largest < math.inf):
        raise DataError("variances outside the floating-point range")
    variances = fit.svals ** 2 / (n - 1)
    total = float(variances.sum())
    reached = np.cumsum(variances) >= energy_cutoff * total
    retained = int(np.argmax(reached)) + 1 if reached.any() else variances.size
    retained = min(retained, n - 1, d)
    floor = _EIGENVALUE_FLOOR * float(variances[0])
    kept = np.maximum(variances[:retained], floor)
    if retained < d:
        fill = max(float(variances[retained:].sum()) / (d - retained), floor)
    else:
        fill = float(kept[-1])
    spectrum = Spectrum(kept, fit.Vt[:retained].copy(), fill)
    return GaussianModel(fit.mean, None, energy_cutoff, retained, spectrum)


def kl_gaussian(g1: GaussianModel, g2: GaussianModel) -> float:
    """Closed-form KL(g1 || g2) from the two spectral forms, in O(d·r1·r2).

    (1/2) (tr(S2^-1 S1) + δᵀ S2^-1 δ - d + ln det S2 - ln det S1), δ = m2 - m1,
    with S2^-1 = I/f2 + V2ᵀ diag(b2) V2 and b2 = 1/λ2 - 1/f2, so
      tr(S2^-1 S1) = tr(S1)/f2 + f1·Σ b2 + Σᵢⱼ b2ᵢ (V2 V1ᵀ)ᵢⱼ² (λ1ⱼ - f1),
      δᵀ S2^-1 δ   = ‖δ‖²/f2 + Σᵢ b2ᵢ (V2 δ)ᵢ²,
      ln det S     = Σ ln λ + (d - r) ln f.
    """
    d = g1.dim
    if g2.dim != d:
        raise ValueError("dimension mismatch")
    s1, s2 = g1.spectrum, g2.spectrum
    excess1 = s1.variances - s1.fill
    b2 = 1.0 / s2.variances - 1.0 / s2.fill
    cross = s2.directions @ s1.directions.T
    trace1 = d * s1.fill + float(excess1.sum())
    trace_term = (trace1 / s2.fill + s1.fill * float(b2.sum())
                  + float(b2 @ (cross * cross) @ excess1))
    delta = g2.mean - g1.mean
    proj = s2.directions @ delta
    maha = float(delta @ delta) / s2.fill + float(b2 @ (proj * proj))
    return 0.5 * (trace_term + maha - d + s2.logdet() - s1.logdet())

