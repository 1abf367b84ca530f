"""Label propagation baseline: closed form, fixed point, certified CG votes, majority vote."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Graphs with fewer nodes than this take the dense solve. Above it the
# certified conjugate-gradient votes are faster: on raster graphs with k = 5
# (2-vCPU host, one BLAS thread) both paths took about 2 ms at n = 270-280,
# where the dense one jumps.
_CG_MIN_N = 272
# CG stops when every column's recurrence residual is this small relative
# to its right-hand side, or after this many steps.
_CG_RTOL = 1e-12
_CG_MAX_ITER = 100


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


def lp_votes(S, Y_l, m: int, mu: float = 1.0) -> np.ndarray:
    """``observation_votes(lp_solve(S, Y, mu), m)`` for Y = [Y_l; 0], the
    labelled rows' one-hot matrix stacked over m all-zero observation rows.

    Graphs of ``_CG_MIN_N`` nodes or more first try :func:`_cg_votes`; the
    dense solve runs below that size and wherever CG cannot certify every
    vote, after the CG arrays are freed. The counts are the same either way.
    """
    n = S.shape[0]
    if not 1 <= m <= n or np.shape(Y_l)[0] != n - m:
        raise ValueError(f"need {n} = labelled rows + m with m >= 1, got m = {m}")
    votes = _cg_votes(S, Y_l, m, mu) if n >= _CG_MIN_N else None
    if votes is None:
        Y_l = np.asarray(Y_l, dtype=float)
        Y = np.vstack([Y_l, np.zeros((m, Y_l.shape[1]))])
        votes = observation_votes(lp_solve(S, Y, mu), m)
    return votes


def _cg_votes(S, Y_l, m, mu=1.0) -> np.ndarray | None:
    """The dense path's votes from conjugate gradients, or None where any
    of them is uncertain.

    S must be a symmetric degree-normalised similarity D^-1/2 H D^-1/2 of a
    nonnegative H, as the graph builder makes it. Block CG with one step
    scalar per column, started from X = 0, solves A X = Y with A = I - alpha S
    until every column's residual is ``_CG_RTOL`` of its right-hand side or
    ``_CG_MAX_ITER`` steps have run. The positive factor beta mu of the closed
    form changes no row's argmax, so X is compared unscaled.

    Error bound, with eps the machine epsilon and w = (n + 8) eps, which
    exceeds the relative rounding of any sum of at most n terms plus a few
    further operations:

    * The exact normalisation has ||S_e||_2 <= 1, and each stored entry of S
      is within w of it relatively, so ||S||_2 <= 1 + w (S is nonnegative).
      A is symmetric, so ||A^-1||_2 <= 1 / g with g = 1 - alpha (1 + w).
    * The residual R = Y - (X - alpha S X) is recomputed explicitly; the CG
      recurrence's residual is not trusted. Rounding moves column j of it
      by at most w (||y_j|| + 2 ||x_j||), since ||S |x_j| || <= ||S|| ||x_j||.
      With r_j the computed column, the exact residual has norm at most
      e_j = (1 + w) ||r_j|| + w (||y_j|| + 2 ||x_j||), and every entry of
      x_j - x*_j is at most ||A^-1 r_j||_2 <= e_j / g.
    * The dense reference is a backward-stable LU solve of the rounded
      I - alpha S, scaled by beta mu. It is allowed a normwise error of
      4 w ||x*_j|| / g, with ||x*_j|| <= ||x_j|| + e_j / g. That is the
      textbook backward error 3 n u || |L| |U| || of LU (u = eps / 2) for
      growth near 1 and ||A||_2 <= 2, and it also covers the rounding of
      the final scaling.

    Every entry of X and of the dense result then lies within
    T = (1 + w) max_j (e_j / g + 4 w ||x*_j|| / g) of the exact solution; the
    factor 1 + w covers the rounding of T and of the margins below. An
    observation row is certified when its largest entry exceeds the second
    largest by more than 2 T: both solves then give it the same strict
    argmax. Rows in a connected component of S without a labelled node are
    exactly zero in both solves (no path carries a label there), so they tie
    and vote for class 1. They are certified only when no edge joins a zero
    observation row of X to a nonzero row: a Krylov space of k steps reaches
    only k hops from the labels, so CG also leaves rows exactly zero that the
    dense solve does not.
    """
    alpha = LPConfig(mu).alpha
    A = sparse.csr_matrix(S)
    Y_l = np.asarray(Y_l, dtype=float)
    l, c = Y_l.shape
    n = l + m
    X = np.zeros((n, c))
    R = np.zeros((n, c))
    R[:l] = Y_l
    P = R.copy()
    rr = np.einsum("ij,ij->j", R, R)
    stop = rr * _CG_RTOL**2
    for _ in range(_CG_MAX_ITER):
        if np.all(rr <= stop):
            break
        AP = P - alpha * (A @ P)
        pap = np.einsum("ij,ij->j", P, AP)
        step = np.divide(rr, pap, out=np.zeros(c), where=pap > 0)
        X += step * P
        R -= step * AP
        rr_next = np.einsum("ij,ij->j", R, R)
        P = R + np.divide(rr_next, rr, out=np.zeros(c), where=rr > 0) * P
        rr = rr_next

    R = alpha * (A @ X) - X
    R[:l] += Y_l
    w = (n + 8) * np.finfo(float).eps
    g = 1.0 - alpha * (1.0 + w)
    x_norm = np.linalg.norm(X, axis=0)
    e = (1.0 + w) * np.linalg.norm(R, axis=0) + w * (np.linalg.norm(Y_l, axis=0) + 2.0 * x_norm)
    bound = (1.0 + w) * np.max(e / g + 4.0 * w * (x_norm + e / g) / g)

    obs = X[l:]
    zero = np.zeros(n, dtype=bool)
    zero[l:] = ~obs.any(axis=1)
    # if no edge leaves the zero observation rows, they are whole components
    # without a labelled node
    unlabelled = zero[l:] & zero[A[np.flatnonzero(zero)].indices].all()
    top = np.sort(obs, axis=1)
    margin = top[:, -1] - top[:, -2] if c > 1 else np.inf
    if not (g > 0 and np.all(unlabelled | (margin > 2.0 * bound))):
        return None
    return np.bincount(row_labels(obs), minlength=c + 1)[1:]
