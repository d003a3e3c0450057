"""External clustering validity measures.

ARI and NMI come straight from the contingency table; F1 and accuracy
first match clusters to classes with the lexicographically smallest
optimal assignment, from one shortest-augmenting-path solve and a search
over the edges its duals make tight.  The matching always pairs
min(classes, clusters) of them.  F1 is macro (unweighted mean over true
classes), held fixed everywhere so relative orderings stay meaningful.
Entropies use natural logs; NMI is base-invariant so the choice is
cosmetic.
"""

from __future__ import annotations

import numpy as np


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
    """Minimum-cost injective assignment of min(r, c) rows to columns, as a
    {row: column} dict.

    Deterministic among ties: returns the lexicographically smallest
    optimal assignment (rows in order; an unassigned row sorts after any
    column choice).  One shortest-augmenting-path solve finds an optimal
    assignment and duals; the optimal assignments are then exactly the
    matchings of the tight edges (zero reduced cost) that leave unmatched
    only vertices of zero dual, and a row-by-row search of alternating
    cycles over those edges picks the smallest.  The result always holds
    min(r, c) pairs.  It is optimal and lexicographically smallest whenever
    the cost sums are exact in float64, such as F1's negated counts.
    Raises ValueError when the optimal total is past the float range.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    r, c = cost.shape
    flip = r > c
    # Solve on costs scaled by a power of two, which is exact, to at most
    # 2**1023 / (2(r + c)) in size: every path length and dual stays within
    # five times the largest cost, and the total within min(r, c) times it,
    # so nothing overflows.
    shift = max(0, int(np.frexp(np.abs(cost).max())[1]) + (2 * (r + c)).bit_length() - 1023)
    short = np.ldexp(cost.T if flip else cost, -shift)
    pairs = np.arange(short.shape[0])
    partner, v = _shortest_augmenting_paths(short)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ldexp(short[pairs, partner].sum(), shift)):
            raise ValueError("the optimal total is past the float range")
    # u_i taken from its matched pair's own rounded difference, so matched
    # pairs have reduced cost exactly 0
    reduced = short - v
    reduced -= reduced[pairs, partner][:, None]
    # mate[i] is row i's column, c if unassigned; holder[j] is column j's
    # row, r if unmatched.  The extra row r and column c of `tight` stand
    # for the |r - c| padding dummies: a dummy is tight exactly to the
    # long-side vertices with dual 0, the ones an optimum may leave out.
    rows, cols = (partner, pairs) if flip else (pairs, partner)
    mate = np.full(r, c)
    mate[rows] = cols
    holder = np.full(c, r)
    holder[cols] = rows
    tight = np.zeros((r + 1, c + 1), dtype=bool)
    tight[:r, :c] = (reduced.T if flip else reduced) <= 0
    if flip:
        tight[:r, c] = v == 0
    elif r < c:
        tight[r, :c] = v == 0
    fixed = np.zeros(r + 1, dtype=bool)
    for x in range(r):
        m = mate[x]
        better = np.flatnonzero(tight[x, :m] & ~fixed[holder[:m]])
        if better.size:
            _take_smallest(x, better, tight, mate, holder, fixed)
        fixed[x] = True
    assigned = np.flatnonzero(mate < c)
    return dict(zip(assigned.tolist(), mate[assigned].tolist()))


def _shortest_augmenting_paths(cost):
    """Crouse's rectangular shortest augmenting path method (D. F. Crouse,
    "On implementing 2D rectangular assignment algorithms", IEEE TAES
    52(4), 2016), for rows <= columns.  Returns each row's column and the
    column duals v: with the row duals u, u_i + v_j <= cost_ij, with
    equality on matched pairs, v <= 0, and v == 0 on unmatched columns."""
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    col_of = np.full(nr, -1)
    row_of = np.full(nc, -1)
    for cur in range(nr):
        dist = np.full(nc, np.inf)
        via = np.zeros(nc, dtype=np.intp)
        unscanned = np.ones(nc, dtype=bool)
        rows = [cur]
        low, i = 0.0, cur
        while True:
            reach = low + cost[i] - u[i] - v
            shorter = unscanned & (reach < dist)
            dist[shorter] = reach[shorter]
            via[shorter] = i
            low = dist[unscanned].min()
            ties = unscanned & (dist == low)
            free = ties & (row_of < 0)
            j = int(np.argmax(free if free.any() else ties))
            unscanned[j] = False
            if row_of[j] < 0:
                break
            i = row_of[j]
            rows.append(i)
        u[cur] += low
        rest = np.array(rows[1:], dtype=np.intp)
        u[rest] += low - dist[col_of[rest]]
        scanned = ~unscanned
        v[scanned] -= low - dist[scanned]
        while True:  # augment along the path back to cur
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == cur:
                break
    return col_of, v


def _take_smallest(x, better, tight, mate, holder, fixed):
    """Give row x the smallest column in `better` (all below its own) that
    an alternating cycle through unfixed rows can free, if one can.

    A breadth-first search grows the set of freeable columns from x's own:
    a column is freeable when its holder is tight to a freeable one, and
    every column the padding row r leaves unmatched is freeable once that
    row is; the padding column c is freeable once an unassigned row is."""
    r, c = len(mate), len(holder)
    m = mate[x]
    freed = np.zeros(c + 1, dtype=bool)
    freed[m] = True
    moves_to = np.zeros(r + 1, dtype=np.intp)
    reached = fixed.copy()
    reached[x] = True
    unassigned_row = x  # the row that frees column c, read once freed[c]
    new = np.array([m])
    while new.size and not freed[better[0]]:
        hit = tight[:, new]
        rows = np.flatnonzero(hit.any(axis=1) & ~reached)
        reached[rows] = True
        moves_to[rows] = new[hit[rows].argmax(axis=1)]
        real = rows[rows < r]
        cols = mate[real]
        if not freed[c] and (cols == c).any():
            unassigned_row = real[np.argmax(cols == c)]
        if rows.size and rows[-1] == r:
            cols = np.concatenate([cols, np.flatnonzero(holder == r)])
        new = np.unique(cols[~freed[cols]])
        freed[new] = True
    found = better[freed[better]]
    if not found.size:
        return
    row, col = x, found[0]
    while True:  # each row takes the column it was reached through
        leaving = unassigned_row if col == c else holder[col]
        if row < r:
            mate[row] = col
        if col < c:
            holder[col] = row
        if col == m:
            break
        row, col = leaving, moves_to[leaving]


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
