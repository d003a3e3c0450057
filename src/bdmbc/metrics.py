"""External clustering validity measures.

ARI and NMI come straight from the contingency table; F1 and accuracy
first match clusters to classes with an optimal assignment.  F1 is macro
(unweighted mean over true classes), held fixed everywhere so relative
orderings stay meaningful.  Entropies use natural logs; NMI is
base-invariant so the choice is cosmetic.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def _as_labels(x, name):
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D label vector")
    return arr


def contingency(true_labels, pred_labels):
    """(classes, clusters) int64 counts of points per (true, predicted) pair."""
    t = _as_labels(true_labels, "true_labels")
    p = _as_labels(pred_labels, "pred_labels")
    if len(t) != len(p):
        raise ValueError(f"label lengths differ: {len(t)} vs {len(p)}")
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    r, c = ti.max() + 1, pi.max() + 1
    return np.bincount(ti * c + pi, minlength=r * c).astype(np.int64, copy=False).reshape(r, c)


def _comb2(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def ari(true_labels, pred_labels):
    """Pair-counting adjusted Rand index; 1.0 for two single-cluster partitions."""
    return _ari(contingency(true_labels, pred_labels))


def _ari(counts):
    n = counts.sum()
    if n < 2:
        raise ValueError("ARI needs at least 2 points")
    sum_cells = _comb2(counts).sum()
    sum_rows = _comb2(counts.sum(axis=1)).sum()
    sum_cols = _comb2(counts.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / _comb2(n)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:  # both partitions trivial
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def nmi(true_labels, pred_labels):
    """Mutual information normalized by the geometric mean of the entropies."""
    return _nmi(contingency(true_labels, pred_labels))


def _nmi(counts):
    r, c = counts.shape
    if r == 1 and c == 1:
        return 1.0
    if r == 1 or c == 1:
        return 0.0
    n = counts.sum()
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    nz = counts > 0
    pij = counts[nz] / n
    outer = np.outer(row_sums, col_sums)[nz] / (n * n)
    mi = float(np.sum(pij * np.log(pij / outer)))
    hy = float(-np.sum((row_sums / n) * np.log(row_sums / n)))
    hp = float(-np.sum((col_sums / n) * np.log(col_sums / n)))
    value = mi / np.sqrt(hy * hp)
    return float(min(max(value, 0.0), 1.0))


def kuhn_munkres(cost):
    """Minimum-cost injective assignment of min(r, c) rows to columns.

    Deterministic among ties: returns the lexicographically smallest
    optimal assignment (rows in order; an unassigned row sorts after any
    column choice).  Raises ValueError when the optimal total is past the
    float range.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    r, c = cost.shape
    free_rows = np.ones(r, dtype=bool)
    free_cols = np.ones(c, dtype=bool)
    fixed_total = 0.0
    assign = {}
    # a trial's total may overflow to inf; it then just fails the test
    with np.errstate(over="ignore"):
        optimum = cost[linear_sum_assignment(cost)].sum()
        if not np.isfinite(optimum):
            raise ValueError("the optimal total is past the float range")
        tol = 1e-9 * max(1.0, abs(optimum))
        for row in range(r):
            if not free_cols.any():
                break
            free_rows[row] = False
            for col in np.flatnonzero(free_cols):
                free_cols[col] = False
                sub = cost[np.ix_(free_rows, free_cols)]
                total = fixed_total + cost[row, col] + sub[linear_sum_assignment(sub)].sum()
                if abs(total - optimum) <= tol:
                    assign[row] = int(col)
                    fixed_total += cost[row, col]
                    break
                free_cols[col] = True
    return assign


def matched_f1_accuracy(true_labels, pred_labels):
    """(macro-F1, accuracy) after optimally matching clusters to classes."""
    return _f1_accuracy(contingency(true_labels, pred_labels))


def _f1_accuracy(counts):
    assign = kuhn_munkres(-counts.astype(np.float64))
    cls = np.array(list(assign), dtype=np.intp)
    clu = np.array(list(assign.values()), dtype=np.intp)
    tp = counts[cls, clu]
    f1 = np.zeros(counts.shape[0])  # a class with no matched cluster scores 0
    f1[cls] = 2 * tp / (counts.sum(axis=1)[cls] + counts.sum(axis=0)[clu])
    return float(f1.mean()), float(tp.sum() / counts.sum())


def metric_report(true_labels, pred_labels):
    """All four measures, from one contingency table, as a dict in the
    standard row order."""
    counts = contingency(true_labels, pred_labels)
    f1, acc = _f1_accuracy(counts)
    return {
        "ari": _ari(counts),
        "nmi": _nmi(counts),
        "f1": f1,
        "acc": acc,
    }
