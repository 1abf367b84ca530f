"""Set classification by constrained label smoothing on the similarity graph.

All observations are known to share one class, so the only admissible label
matrices keep the labelled block fixed and assign a single candidate class to
every observation row. Scoring a candidate therefore needs only the edges
crossing the labelled/unlabelled interface; the labelled-labelled part of the
smoothness is a constant and the unlabelled-unlabelled part vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class ClassScores:
    """Per-class smoothness scores; the decision is the (1-based) argmin.

    ``tie`` is set when the minimum is attained by more than one class, in
    which case the smallest class index is returned.
    """

    scores: np.ndarray
    decision: int
    tie: bool


def one_hot_labels(class_ids, c: int) -> np.ndarray:
    ids = np.asarray(class_ids, dtype=int).ravel()
    if ids.size and (ids.min() < 1 or ids.max() > c):
        raise ValueError(f"class id outside 1..{c}")
    Y = np.zeros((ids.size, c))
    Y[np.arange(ids.size), ids - 1] = 1.0
    return Y


def class_conditional_matrix(Y_l, m: int, p: int) -> np.ndarray:
    """Full label matrix under the hypothesis that all observations are class p.

    Top block is the labelled one-hot matrix, bottom m rows are the p-th
    canonical basis vector.
    """
    Y_l = np.asarray(Y_l, dtype=float)
    l, c = Y_l.shape
    if not 1 <= p <= c:
        raise ValueError(f"class {p} outside 1..{c}")
    if m < 0:
        raise ValueError("m >= 0 required")
    Z = np.zeros((l + m, c))
    Z[:l] = Y_l
    Z[l:, p - 1] = 1.0
    return Z


def _dense(S) -> np.ndarray:
    return S.toarray() if sparse.issparse(S) else np.asarray(S, dtype=float)


def _row_sums(block) -> np.ndarray:
    if sparse.issparse(block):
        return np.asarray(block.sum(axis=1)).ravel()
    return np.asarray(block, dtype=float).sum(axis=1)


def _col_sums(block) -> np.ndarray:
    if sparse.issparse(block):
        return np.asarray(block.sum(axis=0)).ravel()
    return np.asarray(block, dtype=float).sum(axis=0)


def full_smoothness(S, M) -> float:
    """(1/2) sum_ij S_ij ||M_i - M_j||^2, the literal double sum.

    This is the reference objective; the interface reduction below must agree
    with it up to the labelled-block constant.
    """
    Sd = _dense(S)
    M = np.asarray(M, dtype=float)
    diff = M[:, None, :] - M[None, :, :]
    return 0.5 * float(np.sum(Sd * np.einsum("ijk,ijk->ij", diff, diff)))


def interface_smoothness(S, Y_l, lam) -> float:
    """Candidate-dependent smoothness carried by labelled-unlabelled edges.

    Equals (1/2) sum_{i<=l, j>l} S_ij ||Y_i - lam||^2 plus the mirrored
    (1/2) sum_{i>l, j<=l} S_ij ||Y_j - lam||^2. Excludes the labelled-block
    constant, see :func:`labeled_constant`.
    """
    Y_l = np.asarray(Y_l, dtype=float)
    l = Y_l.shape[0]
    lam = np.asarray(lam, dtype=float).ravel()
    sq = np.square(Y_l - lam).sum(axis=1)
    upper = _row_sums(S[:l, l:])
    lower = _col_sums(S[l:, :l])
    return 0.5 * float(upper @ sq) + 0.5 * float(lower @ sq)


def labeled_constant(S, Y_l) -> float:
    """Smoothness of the labelled block; independent of the candidate class."""
    Y_l = np.asarray(Y_l, dtype=float)
    l = Y_l.shape[0]
    return full_smoothness(S[:l, :l], Y_l)


def masc_classify(S, Y_l, m: int) -> ClassScores:
    """Score each candidate class and return the smoothest assignment.

    Requires S built over n = l + m nodes in labelled-first order. The score
    q(p) sums both interface sums without the 1/2 factors, so it equals
    exactly 2 * interface_smoothness(S, Y_l, e_p); the scaling does not
    affect the argmin. Runtime after the graph is built is linear in c and in
    the number of interface edges.
    """
    Y_l = np.asarray(Y_l, dtype=float)
    l, c = Y_l.shape
    if m < 1:
        raise ValueError("m >= 1 required")
    n = l + m
    if S.shape != (n, n):
        raise ValueError(f"S must be {n}x{n} for l={l}, m={m}, got {S.shape}")
    upper = _row_sums(S[:l, l:])
    lower = _col_sums(S[l:, :l])
    # ||Y_i - e_p||^2 for every labelled row i and candidate p
    sq = np.square(Y_l).sum(axis=1)[:, None] - 2.0 * Y_l + 1.0
    scores = upper @ sq + lower @ sq
    decision = int(np.argmin(scores)) + 1
    tie = int(np.count_nonzero(scores == scores.min())) > 1
    return ClassScores(scores=scores, decision=decision, tie=tie)
