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
    counts = np.zeros((r, c), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


def _comb2(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def ari(true_labels, pred_labels):
    """Pair-counting adjusted Rand index; 1.0 for two single-cluster partitions."""
    counts = contingency(true_labels, pred_labels)
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
    counts = contingency(true_labels, pred_labels)
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


def _assignment_cost(cost, fixed, skipped=()):
    """Optimal total over assignments extending the fixed (row, col) pairs,
    with skipped rows committed to staying unassigned."""
    r, c = cost.shape
    used_rows = {f[0] for f in fixed} | set(skipped)
    rows = [i for i in range(r) if i not in used_rows]
    cols = [j for j in range(c) if j not in {f[1] for f in fixed}]
    total = sum(cost[i, j] for i, j in fixed)
    take = min(r, c) - len(fixed)
    if take <= 0 or not rows or not cols:
        return total
    sub = cost[np.ix_(rows, cols)]
    ri, ci = linear_sum_assignment(sub)
    return total + sub[ri, ci].sum()


def kuhn_munkres(cost):
    """Minimum-cost injective assignment of min(r, c) rows to columns.

    Deterministic among ties: returns the lexicographically smallest
    optimal assignment (rows in order; an unassigned row sorts after any
    column choice).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    r, c = cost.shape
    ri, ci = linear_sum_assignment(cost)
    optimum = cost[ri, ci].sum()
    fixed = []
    skipped = []
    assigned_cols = set()
    remaining = min(r, c)
    tol = 1e-9 * max(1.0, abs(optimum))
    for row in range(r):
        if remaining == 0:
            break
        choice = None
        for col in range(c):
            if col in assigned_cols:
                continue
            trial = fixed + [(row, col)]
            if abs(_assignment_cost(cost, trial, skipped) - optimum) <= tol:
                choice = col
                break
        if choice is None:
            skipped.append(row)  # every optimal assignment leaves this row out
            continue
        fixed.append((row, choice))
        assigned_cols.add(choice)
        remaining -= 1
    return dict(fixed)


def matched_f1_accuracy(true_labels, pred_labels):
    """(macro-F1, accuracy) after optimally matching clusters to classes."""
    counts = contingency(true_labels, pred_labels)
    r, c = counts.shape
    assign = kuhn_munkres(-counts.astype(np.float64))
    matched = {cls: clu for cls, clu in assign.items()}
    correct = sum(counts[cls, clu] for cls, clu in matched.items())
    acc = correct / counts.sum()
    f1s = []
    for cls in range(r):
        if cls in matched:
            clu = matched[cls]
            tp = counts[cls, clu]
            fp = counts[:, clu].sum() - tp
            fn = counts[cls].sum() - tp
            denom = 2 * tp + fp + fn
            f1s.append(2 * tp / denom if denom > 0 else 0.0)
        else:
            f1s.append(0.0)  # class got no matched cluster: precision 0
    return float(np.mean(f1s)), float(acc)


def metric_report(true_labels, pred_labels):
    """All four measures as a dict in the standard row order."""
    f1, acc = matched_f1_accuracy(true_labels, pred_labels)
    return {
        "ari": ari(true_labels, pred_labels),
        "nmi": nmi(true_labels, pred_labels),
        "f1": f1,
        "acc": acc,
    }
