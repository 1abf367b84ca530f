"""Label propagation baseline: closed-form solve, fixed-point iteration, majority vote."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class LPConfig:
    """Fitness weight mu > 0 with the derived mixing coefficients."""

    mu: float = 1.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu > 0 required")

    @property
    def alpha(self) -> float:
        return 1.0 / (1.0 + self.mu)

    @property
    def beta(self) -> float:
        return self.mu / (1.0 + self.mu)


def lp_solve(S, Y, mu: float = 1.0) -> np.ndarray:
    """Closed-form propagated label matrix M* = beta * mu * (I - alpha S)^{-1} Y.

    The leading beta*mu factor (rather than the 1-alpha of the common
    convention) is kept as a positive scalar; per-row argmax decisions are
    identical either way. M* satisfies the fixed point M* = alpha S M* +
    beta mu Y.
    """
    cfg = LPConfig(mu)
    # A = I - alpha S built in one n x n buffer (a copy, so dense input is
    # left alone); each entry is rounded exactly as in the plain expression
    A = np.asarray(S.toarray(), dtype=float) if sparse.issparse(S) else np.array(S, dtype=float)
    Y = np.asarray(Y, dtype=float)
    np.multiply(A, cfg.alpha, out=A)
    np.subtract(0.0, A, out=A)
    A[np.diag_indices_from(A)] += 1.0
    try:
        sol = np.linalg.solve(A, Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"label-propagation solve failed (cond ~ {np.linalg.cond(A):.3e})"
        ) from exc
    return cfg.beta * cfg.mu * sol


def lp_iterate(S, Y, mu: float = 1.0, tol: float = 1e-12, max_iter: int = 10_000):
    """Fixed-point recursion M <- alpha S M + beta mu Y started from Y.

    Second, independent route to the closed form; returns (M, iterations).
    """
    cfg = LPConfig(mu)
    Y = np.asarray(Y, dtype=float)
    source = cfg.beta * cfg.mu * Y
    M = Y.copy()
    for it in range(1, max_iter + 1):
        Mn = cfg.alpha * (S @ M) + source
        if np.max(np.abs(Mn - M)) <= tol * max(1.0, float(np.max(np.abs(Mn)))):
            return Mn, it
        M = Mn
    return M, max_iter


def propagation_labels(class_ids, c: int, m: int) -> np.ndarray:
    """Initial label matrix: one-hot labelled rows, all-zero observation rows."""
    from .smoothing import one_hot_labels

    return np.vstack([one_hot_labels(class_ids, c), np.zeros((m, c))])


def row_labels(M) -> np.ndarray:
    """Per-row decisions y_i = argmax_j M_ij (1-based, smallest index on ties)."""
    return np.argmax(np.asarray(M, dtype=float), axis=1) + 1


def observation_votes(M_star, m: int) -> np.ndarray:
    """Each class's votes among the last m rows, the observation rows.

    A row votes for its :func:`row_labels` decision, so a tie within a row
    goes to the smallest index; entry p - 1 counts the votes for class p.
    """
    M = np.asarray(M_star, dtype=float)
    n, c = M.shape
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")
    return np.bincount(row_labels(M[n - m :]), minlength=c + 1)[1:]
