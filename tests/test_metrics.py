"""Validity measures against definitional brute-force oracles.

Oracles: pair enumeration for ARI, direct entropy sums for NMI, and
permutation search and trial solves for the assignment problem.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import bdmbc
from bdmbc.metrics import (
    ari,
    contingency,
    kuhn_munkres,
    matched_f1_accuracy,
    metric_report,
    nmi,
)
from oracles import contingency_by_add_at, kuhn_munkres_by_trials


def set_partitions(items):
    """Oracle helper: every set partition of a list (restricted growth)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def labels_of(partition, n):
    out = np.empty(n, dtype=np.int64)
    for cid, block in enumerate(partition):
        for i in block:
            out[i] = cid
    return out


def rand_index_oracle(a, b):
    """Oracle: literal pair counting (agreements over all pairs)."""
    n = len(a)
    agree = sum(
        1
        for i, j in itertools.combinations(range(n), 2)
        if (a[i] == a[j]) == (b[i] == b[j])
    )
    return agree / math.comb(n, 2)


def ari_oracle(a, b):
    """Oracle: pair-counting ARI from first principles."""
    n = len(a)
    same_a = {(i, j) for i, j in itertools.combinations(range(n), 2) if a[i] == a[j]}
    same_b = {(i, j) for i, j in itertools.combinations(range(n), 2) if b[i] == b[j]}
    total = math.comb(n, 2)
    index = len(same_a & same_b)
    expected = len(same_a) * len(same_b) / total
    max_index = (len(same_a) + len(same_b)) / 2
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def nmi_oracle(a, b):
    """Oracle: direct entropy computation."""
    n = len(a)
    ca, cb = sorted(set(a)), sorted(set(b))
    if len(ca) == 1 and len(cb) == 1:
        return 1.0
    if len(ca) == 1 or len(cb) == 1:
        return 0.0
    mi = 0.0
    for x in ca:
        for y in cb:
            pxy = sum(1 for i in range(n) if a[i] == x and b[i] == y) / n
            if pxy > 0:
                px = sum(1 for i in range(n) if a[i] == x) / n
                py = sum(1 for i in range(n) if b[i] == y) / n
                mi += pxy * math.log(pxy / (px * py))
    ha = -sum(
        (sum(1 for i in range(n) if a[i] == x) / n)
        * math.log(sum(1 for i in range(n) if a[i] == x) / n)
        for x in ca
    )
    hb = -sum(
        (sum(1 for i in range(n) if b[i] == y) / n)
        * math.log(sum(1 for i in range(n) if b[i] == y) / n)
        for y in cb
    )
    return min(max(mi / math.sqrt(ha * hb), 0.0), 1.0)


def assignment_oracle(cost):
    """Oracle: exhaustive assignment search; returns (best total, best map)
    with the lexicographically smallest optimal assignment."""
    r, c = cost.shape
    k = min(r, c)
    best = None
    for rows in itertools.combinations(range(r), k):
        for cols in itertools.permutations(range(c), k):
            total = sum(cost[i, j] for i, j in zip(rows, cols))
            key = (total, tuple(sorted(zip(rows, cols))))
            if best is None or total < best[0] - 1e-12 or (
                abs(total - best[0]) <= 1e-12 and key[1] < best[1]
            ):
                best = (total, tuple(sorted(zip(rows, cols))))
    return best


# ------------------------------------------------------------- contingency


def test_contingency_diagonal():
    t = contingency([0, 0, 1, 1], [0, 0, 1, 1])
    assert np.array_equal(t, [[2, 0], [0, 2]])


def test_contingency_antidiagonal():
    t = contingency([0, 1], [1, 0])
    assert np.array_equal(t, [[0, 1], [1, 0]])


def test_contingency_marginals():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, 50)
    b = rng.integers(0, 3, 50)
    t = contingency(a, b)
    assert np.array_equal(t.sum(axis=1), np.bincount(a))
    assert np.array_equal(t.sum(axis=0), np.bincount(b))
    assert t.sum() == 50
    with pytest.raises(ValueError):
        contingency([0, 1], [0])
    with pytest.raises(ValueError):
        contingency([], [])


# --------------------------------------------------------------------- ari


def test_ari_identical_and_permuted():
    a = [0, 0, 1, 1, 2]
    assert ari(a, a) == 1.0
    assert ari(a, [2, 2, 0, 0, 1]) == 1.0


def test_ari_hand_value():
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_exhaustive_partitions():
    for n in range(2, 7):
        for pa in set_partitions(list(range(n))):
            la = labels_of(pa, n)
            for pb in set_partitions(list(range(n))):
                lb = labels_of(pb, n)
                assert ari(la, lb) == pytest.approx(ari_oracle(la, lb), abs=1e-12)
                # equality with 1 iff identical partitions
                same = {frozenset(b) for b in pa} == {frozenset(b) for b in pb}
                assert (abs(ari(la, lb) - 1.0) <= 1e-12) == same


def test_ari_symmetry_and_rand_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 3, 8)
        b = rng.integers(0, 3, 8)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)
        # the RI-based formulation: ARI == (RI - E[RI]) / (max - E[RI]);
        # verified indirectly through the pair-set oracle above
        assert ari(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)
        assert 0.0 <= rand_index_oracle(a, b) <= 1.0


# --------------------------------------------------------------------- nmi


def test_nmi_identical():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_nmi_independent_uniform():
    # 2x2 exactly uniform table carries zero mutual information
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_value():
    a, b = [0, 0, 1, 1], [0, 1, 1, 1]
    assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-12)


def test_nmi_degenerate_rules():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_nmi_exhaustive_partitions():
    for n in range(2, 6):
        parts = list(set_partitions(list(range(n))))
        for pa in parts:
            la = labels_of(pa, n)
            for pb in parts:
                lb = labels_of(pb, n)
                assert nmi(la, lb) == pytest.approx(nmi_oracle(la, lb), abs=1e-12)


# ------------------------------------------------------------ kuhn_munkres


def test_km_identity_cost():
    cost = np.ones((3, 3)) - np.eye(3)
    assert kuhn_munkres(cost) == {0: 0, 1: 1, 2: 2}


def test_km_two_by_two():
    assert kuhn_munkres(np.array([[1.0, 2.0], [2.0, 1.0]])) == {0: 0, 1: 1}
    # a finite optimum whose losing trials overflow to inf
    assert kuhn_munkres(np.array([[1e308, 0.0], [0.0, 1e308]])) == {0: 1, 1: 0}


def test_km_lexicographic_tie_break():
    # all-equal costs: every permutation optimal; smallest is the identity
    assert kuhn_munkres(np.zeros((3, 3))) == {0: 0, 1: 1, 2: 2}
    # rectangular with ties: row 0 must take the smallest feasible column
    assert kuhn_munkres(np.zeros((2, 3))) == {0: 0, 1: 1}
    assert kuhn_munkres(np.zeros((3, 2))) == {0: 0, 1: 1}


def test_km_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(100):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        if trial < 40:
            # quantized costs provoke ties
            cost = np.round(rng.random((r, c)) * 4) / 4
        else:
            # negated counts, as F1 matches them: zero and repeated cells
            cost = -rng.integers(0, 4, (r, c)).astype(np.float64)
        got = kuhn_munkres(cost)
        total = sum(cost[i, j] for i, j in got.items())
        best_total, best_map = assignment_oracle(cost)
        assert total == pytest.approx(best_total, abs=1e-9), trial
        assert tuple(sorted(got.items())) == best_map, trial


def test_km_equals_trial_oracle():
    """One solve and a tight-edge search give the trial loop's assignment
    on tie-heavy matrices of both orientations."""
    rng = np.random.default_rng(31)
    for trial in range(2000):
        r, c = (int(x) for x in rng.integers(1, 10, 2))
        kind = trial % 4
        if kind == 0:
            cost = np.round(rng.random((r, c)) * 4) / 4
        elif kind == 1:
            cost = -rng.integers(0, 4, (r, c)).astype(np.float64)
        elif kind == 2:
            cost = -rng.integers(0, 50, (r, c)).astype(np.float64)
        else:
            cost = -(rng.random((r, c)) < 0.2).astype(np.float64)
        assert kuhn_munkres(cost) == kuhn_munkres_by_trials(cost), (trial, cost)


def test_km_near_float_range_keeps_every_row():
    # float absorption of the -1 entries broke totals-within-tol tests:
    # row 0 was dropped from the first, the second kept a total of 0
    cost = np.array([[1e307, 1e308, 5e307, -1],
                     [5e307, 5e307, 1e307, -1e307],
                     [-1e307, 1e308, 1e308, -1]])
    assert kuhn_munkres(cost) == {0: 3, 1: 2, 2: 0}
    assert kuhn_munkres(np.array([[1e307, 5e307], [0, 1e307], [-1e307, -1]])) == {1: 0, 2: 1}
    # an optimum of -1.5e308, inside the float range, whose shortest-path
    # lengths overflow unless the solve scales the costs down
    cost = np.array([[-1, -1e308, 5e307], [1e308, -5e307, 3e307], [0, -5e307, -1e308]])
    assert kuhn_munkres(cost) == {0: 0, 1: 1, 2: 2}


def test_metric_report_time_bound():
    """The matching on many clusters stays fast: 150 classes by 150
    clusters, and 10 classes by 5000 clusters, of 20,000 random labels."""
    rng = np.random.default_rng(37)
    n = 20000
    for true, pred in ((rng.integers(0, 150, n), rng.integers(0, 150, n)),
                       (rng.integers(0, 10, n), np.arange(n) % 5000)):
        t0 = time.perf_counter()
        metric_report(true, pred)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, elapsed


def test_import_leaves_scipy_optimize_out():
    """No fit, grid or CLI call needs scipy.optimize, and loading it costs
    about 9.5 MB of RSS, so importing the package leaves it out."""
    # runs on the bdmbc this test imported, installed or not
    pkg_root = os.path.dirname(os.path.dirname(bdmbc.__file__))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    code = "import sys, bdmbc, bdmbc.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "False", proc.stderr


def test_km_errors():
    with pytest.raises(ValueError):
        kuhn_munkres(np.empty((0, 0)))
    with pytest.raises(ValueError):
        kuhn_munkres(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        kuhn_munkres(np.full((2, 2), 1e308))  # the optimum overflows


# ----------------------------------------------------- matched F1/accuracy


def test_f1_acc_identical_and_permuted():
    a = [0, 0, 1, 1, 2, 2]
    assert matched_f1_accuracy(a, a) == (1.0, 1.0)
    assert matched_f1_accuracy(a, [1, 1, 2, 2, 0, 0]) == (1.0, 1.0)


def test_f1_acc_hand_example():
    # true [0,0,1,1], pred [0,0,0,1]: matching keeps 0->0, 1->1;
    # accuracy (2 + 1)/4; class 0: P=2/3, R=1, F1=0.8; class 1: P=1, R=1/2,
    # F1=2/3; macro F1 = (0.8 + 2/3)/2
    f1, acc = matched_f1_accuracy([0, 0, 1, 1], [0, 0, 0, 1])
    assert acc == pytest.approx(0.75)
    assert f1 == pytest.approx((0.8 + 2 / 3) / 2)


def test_f1_acc_unmatched_class():
    # more classes than clusters: one class gets no cluster, scoring 0
    f1, acc = matched_f1_accuracy([0, 1, 2], [0, 1, 1])
    assert acc == pytest.approx(2 / 3)
    assert 0.0 <= f1 < 1.0


def test_label_name_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 3, 12)
        b = rng.integers(0, 3, 12)
        remap = {0: 7, 1: 3, 2: 11}
        b2 = np.array([remap[x] for x in b])
        assert ari(a, b) == pytest.approx(ari(a, b2), abs=1e-12)
        assert nmi(a, b) == pytest.approx(nmi(a, b2), abs=1e-12)
        assert matched_f1_accuracy(a, b) == matched_f1_accuracy(a, b2)


def test_metric_report_keys():
    rep = metric_report([0, 0, 1, 1], [0, 0, 1, 1])
    assert list(rep) == ["ari", "nmi", "f1", "acc"]
    assert all(v == 1.0 for v in rep.values())


def report_cases():
    """Label pairs with non-contiguous ids, a single cluster, a single
    class, and more clusters than classes."""
    rng = np.random.default_rng(23)
    ids = np.array([-4, 0, 3, 17, 250, 10**9])
    for _ in range(40):
        n = int(rng.integers(2, 80))
        yield (rng.choice(ids[: rng.integers(1, 4)], n),
               rng.choice(ids[: rng.integers(1, 7)], n))
    yield [5, 5, 9, 9, 9, 2], [1, 1, 1, 1, 1, 1]  # one cluster
    yield [3, 3, 3, 3], [0, 4, 4, 8]  # one class
    yield [0, 0, 0, 2, 2, 2], [0, 1, 2, 3, 4, 5]  # more clusters than classes
    yield [7, 7], [7, 7]


def test_contingency_equals_add_at_oracle():
    for t, p in report_cases():
        got = contingency(t, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, contingency_by_add_at(t, p))


def test_metric_report_equals_single_measures_bit_for_bit():
    for t, p in report_cases():
        f1, acc = matched_f1_accuracy(t, p)
        expected = {"ari": ari(t, p), "nmi": nmi(t, p), "f1": f1, "acc": acc}
        assert metric_report(t, p) == expected, (t, p)


def test_f1_accuracy_equals_definitional_oracle():
    """Classes matched by exhaustive search; per-class F1 and accuracy from
    Python-int counts.  Every case has fewer than eight classes, which numpy
    sums left to right, as Python's sum does, so the floats agree exactly."""
    rng = np.random.default_rng(29)
    cases = list(report_cases())
    for _ in range(60):
        n = int(rng.integers(1, 30))
        cases.append((rng.integers(0, 5, n), rng.integers(0, 6, n)))
    for t, p in cases:
        counts = contingency_by_add_at(t, p)
        matched = dict(assignment_oracle(-counts)[1])
        f1s = []
        for cls in range(counts.shape[0]):
            if cls not in matched:
                f1s.append(0.0)
                continue
            tp = int(counts[cls, matched[cls]])
            fp = int(counts[:, matched[cls]].sum()) - tp
            fn = int(counts[cls].sum()) - tp
            f1s.append(2 * tp / (2 * tp + fp + fn))
        accuracy = sum(int(counts[i, j]) for i, j in matched.items()) / len(t)
        assert matched_f1_accuracy(t, p) == (sum(f1s) / len(f1s), accuracy), (t, p)
