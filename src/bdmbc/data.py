"""Dataset loading, scaling, and seeded synthetic generators.

All generators draw from a counter-based Philox PRNG keyed by the user
seed, so identical (parameters, seed) pairs reproduce the same point
matrix on every platform.  Sub-streams are derived as Philox(key=(seed,
stream)) and never touch global RNG state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data or generator specs."""


def _rng(seed, stream=0):
    """Philox generator for (seed, stream); documented external interface."""
    check_seed(seed)
    # uint64 words: numpy reads a list holding a seed >= 2**63 as float64
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _points(ds):
    """The float64 point matrix of a Dataset, or of an array-like that passes
    a Dataset's checks (2-D, nonempty, finite)."""
    return ds.points if hasattr(ds, "points") else Dataset(ds).points


@dataclass(frozen=True)
class Dataset:
    """An n x d point matrix with optional integer ground-truth labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise DataError("points must be a 2-D array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError("dataset needs at least one row and one column")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain NaN or Inf")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.dtype.kind not in "biu":
                # a cast to int64 would truncate 1.5 to 1 and NaN to garbage
                try:
                    values = lab.astype(np.float64)
                except (TypeError, ValueError):
                    raise DataError("labels must be integers") from None
                if not np.all(np.isfinite(values)) or np.any(values != np.trunc(values)):
                    raise DataError("labels must be integers: found a non-integral "
                                    "or non-finite label")
                lab = values
            lab = lab.astype(np.int64)
            if lab.shape != (pts.shape[0],):
                raise DataError("labels length must equal number of points")
            if np.any(lab < 0):
                raise DataError("labels must be non-negative integers")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class GaussianMixture:
    """Components as (mean, covariance, weight); weights sum to 1."""

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        covs = np.asarray(self.covs, dtype=np.float64)
        if covs.ndim == 1:  # per-component variances for 1-D mixtures
            covs = covs[:, None, None]
        weights = np.asarray(self.weights, dtype=np.float64)
        m, d = means.shape
        if covs.shape != (m, d, d):
            raise DataError("covariance shapes must match component means")
        if weights.shape != (m,):
            raise DataError("one weight per component required")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise DataError("weights must be positive and sum to 1")
        for j in range(m):
            c = covs[j]
            if not np.allclose(c, c.T):
                raise DataError(f"covariance {j} is not symmetric")
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                raise DataError(f"covariance {j} is not positive definite") from None
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "weights", weights)

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def d(self):
        return self.means.shape[1]


def parse_label(text, where):
    """The int64 label a text cell holds, else a DataError naming where."""
    try:
        value = int(text)
    except ValueError:
        try:
            number = float(text)
        except ValueError:
            raise DataError(f"{where}: bad label {text!r}") from None
        if not number.is_integer():  # nor for inf and nan
            raise DataError(f"{where}: label {text!r} is not an integer")
        value = int(number)
    if not -(2**63) <= value < 2**63:
        raise DataError(f"{where}: label {text!r} is out of range")
    return value


def parse_number(value, where, integer):
    """The int (if integer) or float a JSON value holds, else a DataError
    naming where.  Ints, floats and their numpy types are numbers, and an
    integer is one with no fraction; bools, strings, lists and null are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DataError(f"{where}={value!r} is not {'an integer' if integer else 'a number'}")
    if not integer:
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            raise DataError(f"{where}={value!r} is out of range") from None
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise DataError(f"{where}={value!r} is not an integer")  # nor inf and nan
    return int(value)


def check_seed(seed):
    """DataError unless the integer seed fits a Philox key word, [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise DataError(f"seed={seed} out of range [0, 2**64)")


def load_csv(path, has_header=False, label_column=None):
    """Read a comma-delimited numeric file into a Dataset.

    label_column is a zero-based column index whose cells must be exact
    integers; remaining columns become coordinates.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if has_header and rows:
        rows = rows[1:]
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    if label_column is not None and not (0 <= label_column < width):
        raise DataError(f"label column {label_column} out of range for {width} columns")
    points, labels = [], []
    for rix, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {rix}: expected {width} cells, got {len(row)}")
        coords = []
        for cix, cell in enumerate(row):
            if cix == label_column:
                labels.append(parse_label(cell, f"row {rix}, column {cix}"))
                continue
            try:
                val = float(cell)
            except ValueError:
                raise DataError(f"row {rix}, column {cix}: cannot parse {cell!r}") from None
            if not math.isfinite(val):
                raise DataError(f"row {rix}, column {cix}: non-finite value {cell!r}")
            coords.append(val)
        points.append(coords)
    return Dataset(np.array(points, dtype=np.float64),
                   np.array(labels, dtype=np.int64) if label_column is not None else None)


def scale_minmax(ds):
    """Affinely map every dimension onto [0, 1]; constant dimensions map to 0."""
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = (ds.points - lo) / safe
    scaled[:, span == 0] = 0.0
    return Dataset(scaled, ds.labels)


def mixture_pdf(mix, x):
    """Density of the mixture at x (vectorized over leading axes of x)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != mix.d:
        raise DataError(f"point dimension {pts.shape[1]} != mixture dimension {mix.d}")
    dens = _component_densities(mix, pts) @ mix.weights
    return float(dens[0]) if squeeze else dens


def _component_densities(mix, pts):
    """(n, m) matrix of per-component Gaussian densities."""
    n = pts.shape[0]
    out = np.empty((n, mix.n_components))
    for j in range(mix.n_components):
        diff = pts - mix.means[j]
        chol = np.linalg.cholesky(mix.covs[j])
        z = np.linalg.solve(chol, diff.T)
        quad = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = np.exp(-0.5 * (quad + logdet + mix.d * math.log(2.0 * math.pi)))
    return out


def gen_mixture(mix, n, seed):
    """Draw n i.i.d. points; labels are the argmax-posterior component.

    Ties in posterior density break toward the lowest component index.
    """
    if n < 1:
        raise DataError("n must be >= 1")
    rng = _rng(seed)
    comp = rng.choice(mix.n_components, size=n, p=mix.weights)
    noise = rng.standard_normal((n, mix.d))
    pts = np.empty((n, mix.d))
    for j in range(mix.n_components):
        sel = comp == j
        chol = np.linalg.cholesky(mix.covs[j])
        pts[sel] = mix.means[j] + noise[sel] @ chol.T
    post = _component_densities(mix, pts) * mix.weights
    labels = np.argmax(post, axis=1)  # argmax takes the first (lowest) index on ties
    return Dataset(pts, labels)


_SHAPE_KINDS = ("moons", "circles", "blobs", "anisotropic")

_BLOB_CENTERS = np.array([[0.0, 0.0], [2.0, 2.0], [-2.0, 2.0]])
_BLOB_STD = 0.35
_ANISO_TRANSFORM = np.array([[0.6, -0.6], [-0.4, 0.8]])


def gen_shape(kind, n, noise=0.05, seed=0):
    """2-D labeled shapes; moons/circles carry 2 labels, blobs/anisotropic 3.

    Points are allocated to components round-robin (point j gets component
    j mod c), then perturbed with isotropic Gaussian noise of the given
    standard deviation.
    """
    if kind not in _SHAPE_KINDS:
        raise DataError(f"unknown shape kind {kind!r}; choose from {_SHAPE_KINDS}")
    if n < 2:
        raise DataError("n must be >= 2")
    if not noise >= 0:  # nor NaN
        raise DataError(f"noise={noise} must be >= 0")
    rng = _rng(seed)
    ncomp = 2 if kind in ("moons", "circles") else 3
    labels = np.arange(n, dtype=np.int64) % ncomp
    if kind == "moons":
        t = rng.uniform(0.0, math.pi, size=n)
        pts = np.where((labels == 0)[:, None],
                       np.column_stack([np.cos(t), np.sin(t)]),
                       np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]))
    elif kind == "circles":
        t = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.where(labels == 0, 1.0, 0.5)
        pts = np.column_stack([radius * np.cos(t), radius * np.sin(t)])
    else:
        pts = _BLOB_CENTERS[labels] + _BLOB_STD * rng.standard_normal((n, 2))
        if kind == "anisotropic":
            pts = pts @ _ANISO_TRANSFORM
    if noise > 0:
        pts = pts + noise * rng.standard_normal((n, 2))
    return Dataset(pts, labels)


def gen_multiblobs(n, d, clusters, seed, center_scale=5.0, std=0.3):
    """Isotropic Gaussian blobs around uniformly drawn centers in d dims.

    A simple repo-native multi-cluster generator for scalability runs and
    benchmarks; round-robin allocation of points to clusters.
    """
    if n < 1 or d < 1 or clusters < 1:
        raise DataError("n, d and clusters must all be >= 1")
    if not std >= 0:  # nor NaN
        raise DataError(f"std={std} must be >= 0")
    rng = _rng(seed)
    centers = center_scale * rng.random((clusters, d))
    labels = np.arange(n, dtype=np.int64) % clusters
    pts = centers[labels] + std * rng.standard_normal((n, d))
    return Dataset(pts, labels)


def dataset_from_spec(spec):
    """Build a Dataset from a generator spec dict (the CLI's JSON schema)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DataError("generator spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if "n" not in spec:
        raise DataError("bad generator spec: 'n' is missing")
    n = parse_number(spec["n"], "n", True)
    seed = parse_number(spec.get("seed", 0), "seed", True)
    if kind == "mixture":
        mix = GaussianMixture(
            means=np.asarray(spec["means"], dtype=np.float64),
            covs=np.asarray(spec["covs"], dtype=np.float64),
            weights=np.asarray(
                spec.get("weights", [1.0 / len(spec["means"])] * len(spec["means"])),
                dtype=np.float64,
            ),
        )
        return gen_mixture(mix, n, seed)
    if kind in _SHAPE_KINDS:
        return gen_shape(kind, n, noise=parse_number(spec.get("noise", 0.05), "noise", False),
                         seed=seed)
    if kind == "multiblobs":
        return gen_multiblobs(
            n,
            d=parse_number(spec.get("d", 2), "d", True),
            clusters=parse_number(spec.get("clusters", 3), "clusters", True),
            seed=seed,
            center_scale=parse_number(spec.get("center_scale", 5.0), "center_scale", False),
            std=parse_number(spec.get("std", 0.3), "std", False),
        )
    raise DataError(f"unknown generator kind {kind!r}")
