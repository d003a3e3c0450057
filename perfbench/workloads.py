"""The benchmark's workloads: inputs from a seed, one operation, its output.

The benchmark seed changes a workload's points but not the shape of its
problem, so the cost of a seed stays close to that of seed 0.  Seed 0
reproduces the documented inputs.  The algorithm seeds (bagging
rounds, grid) stay fixed at 0.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import bdmbc.cluster
import bdmbc.grid
from bdmbc import BdmbcConfig, Dataset, GaussianMixture, ari, gen_mixture, gen_multiblobs

TRIMODAL_GRID = {
    "b": [25],
    "rho": [0.9],
    "kd": [300],
    "kl": [750],
    "kg": list(range(5, 21)),
    "lambda": [round(0.1 + 0.05 * i, 2) for i in range(17)],
}


def _blobs(seed):
    """gen_multiblobs(n=20000, d=10, clusters=10, seed=3), fresh noise per seed.

    gen_multiblobs draws uniform centers and then the noise from
    Philox(key=[seed, 0]).  Here the centers always come from seed 3 and the
    noise from seed 3 + seed, so seed 0 is gen_multiblobs(seed=3) bit for bit
    and every seed keeps its cluster spacing, which sets the k-NN cost.
    """
    n, d, clusters = 20000, 10, 10
    centers = 5.0 * np.random.Generator(np.random.Philox(key=[3, 0])).random((clusters, d))
    rng = np.random.Generator(np.random.Philox(key=[3 + seed, 0]))
    rng.random((clusters, d))  # this stream's own centers, unused
    labels = np.arange(n, dtype=np.int64) % clusters
    return Dataset(centers[labels] + 0.3 * rng.standard_normal((n, d)), labels)


def _trimodal(seed):
    mix = GaussianMixture(
        means=[[0.20], [0.32], [0.65]],
        covs=[0.001, 0.002, 0.007],
        weights=[1 / 3, 1 / 3, 1 / 3],
    )
    return gen_mixture(mix, 2000, seed=seed)


def _quantized(seed):
    """Blobs on a 0.25 grid, rows permuted by the seed (seed 0 keeps the order).

    Every seed has the same multiset of points, so the same ties; the order
    decides how each tie is broken.  Fresh noise per seed would also change
    the number of tied rows, and with it the cost.
    """
    ds = gen_multiblobs(n=5000, d=2, clusters=6, seed=5)
    order = np.arange(ds.n)
    if seed:
        order = np.random.Generator(np.random.Philox(key=[seed, 1])).permutation(ds.n)
    return Dataset(np.round(ds.points[order] / 0.25) * 0.25, ds.labels[order])


def _fit(config):
    return lambda ds: bdmbc.cluster.bdmbc_fit(ds, config)


def _fit_output(ds, res):
    """The bytes `bdmbc cluster` writes to result.json, and the fit's ARI."""
    labels = res.labels
    if labels.shape != (ds.n,) or labels.min() < 0 or labels.max() >= res.num_clusters:
        raise ValueError("fit labels are not a partition of the points")
    out = json.dumps(res.to_json_dict(), separators=(",", ":"), sort_keys=True)
    return out.encode(), ari(ds.labels, labels)


def _grid(ds):
    return bdmbc.grid.grid_search(ds, TRIMODAL_GRID, metric="ari", seed=0)


def _grid_output(ds, rows):
    """The ranked rows as `bdmbc grid` writes them to CSV, and the best ARI."""
    if len(rows) != len(TRIMODAL_GRID["kg"]) * len(TRIMODAL_GRID["lambda"]):
        raise ValueError(f"grid returned {len(rows)} rows")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(bdmbc.grid.GRID_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in bdmbc.grid.GRID_COLUMNS])
    return buf.getvalue().encode(), rows[0]["ari"]


# name -> (dataset from seed, timed operation, output bytes and ARI)
WORKLOADS = {
    "blobs-bagged": (
        _blobs,
        _fit(BdmbcConfig(k_d=5, k_l=50, b=10, s=100, k_g=15, lam=0.5, seed=0)),
        _fit_output,
    ),
    "blobs-full": (
        _blobs,
        _fit(BdmbcConfig(k_d=100, k_l=50, b=1, rho=1.0, k_g=15, lam=0.5, seed=0)),
        _fit_output,
    ),
    "trimodal-grid": (_trimodal, _grid, _grid_output),
    "quantized-ties": (
        _quantized,
        _fit(BdmbcConfig(k_d=10, k_l=50, b=5, rho=0.25, k_g=15, lam=0.5, seed=0)),
        _fit_output,
    ),
}
