"""Dataset loading, scaling, and generator tests.

Oracles: hand-computed densities, quadrature/Monte-Carlo normalization of
mixture_pdf, and direct re-derivation of generator contracts.
"""

import json
import math

import numpy as np
import pytest

from bdmbc.bagging import BaggingPlan, bagged_k_distance, infinite_bagged_k_distance
from bdmbc.cluster import BdmbcConfig, bdmbc_fit
from bdmbc.data import (
    DataError,
    Dataset,
    GaussianMixture,
    dataset_from_spec,
    gen_mixture,
    gen_multiblobs,
    gen_shape,
    load_csv,
    mixture_pdf,
    scale_minmax,
)


def trimix():
    """The 1-D trimodal mixture used across the suite."""
    return GaussianMixture(
        means=[[0.20], [0.32], [0.65]],
        covs=[0.001, 0.002, 0.007],
        weights=[1 / 3, 1 / 3, 1 / 3],
    )


# ---------------------------------------------------------------- Dataset


def test_dataset_validation():
    ds = Dataset(np.zeros((3, 2)))
    assert ds.n == 3 and ds.d == 2 and ds.labels is None
    with pytest.raises(DataError):
        Dataset(np.zeros(3))  # 1-D array
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 2)))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 0.0]]))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), labels=[0, 1])  # wrong length
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), labels=[-1, 0])


@pytest.mark.parametrize("labels", [[0.2, 0.9, 1.5, 1.99], [0, 1, 2, np.nan],
                                    [0, 1, np.inf, 2], [0, 1, 2, 2.5]])
def test_dataset_rejects_non_integral_labels(labels):
    # a cast to int64 used to store [0.2, 0.9, 1.5, 1.99] as [0, 0, 1, 1]
    with pytest.raises(DataError, match="labels must be integers"):
        Dataset(np.zeros((4, 1)), labels=labels)


def test_dataset_keeps_integral_labels():
    for labels in ([0.0, 1.0, 3.0, 1.0], np.array([0, 1, 3, 1], dtype=np.uint8), [0, 1, 3, 1]):
        lab = Dataset(np.zeros((4, 1)), labels=labels).labels
        assert lab.dtype == np.int64 and np.array_equal(lab, [0, 1, 3, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda pts: bdmbc_fit(pts[:300], BdmbcConfig(k_d=5, k_l=20, b=2, rho=0.5, k_g=5)),
    lambda pts: bagged_k_distance(pts[:300], BaggingPlan(b=2, s=150, k_d=5)),
    lambda pts: bagged_k_distance(pts, BaggingPlan(b=2, s=100, k_d=5)),  # brute rounds
    lambda pts: infinite_bagged_k_distance(pts[:300], 150, 5),
], ids=["fit", "rank-table", "brute-rounds", "infinite"])
def test_array_entry_points_reject_non_finite(entry, bad):
    # an array passes the Dataset checks; one bad value used to give values
    # (or, through the brute rounds' centring mean, NaN everywhere)
    pts = gen_multiblobs(3000, 2, 3, seed=1).points
    pts[7, 1] = bad
    with pytest.raises(DataError, match="NaN or Inf"):
        entry(pts)


def test_gaussian_mixture_validation():
    with pytest.raises(DataError):
        GaussianMixture(means=[[0.0]], covs=[[-1.0]], weights=[1.0])
    with pytest.raises(DataError):
        GaussianMixture(means=[[0.0], [1.0]], covs=[1.0, 1.0], weights=[0.7, 0.2])
    with pytest.raises(DataError):
        GaussianMixture(
            means=[[0.0, 0.0]], covs=[[[1.0, 0.5], [0.4, 1.0]]], weights=[1.0]
        )


# ---------------------------------------------------------------- load_csv


def test_load_csv_plain(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.d == 2 and ds.labels is None
    assert np.array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_labels_and_header(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("x,y,c\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    ds = load_csv(path, has_header=True, label_column=2)
    assert ds.n == 4 and ds.d == 2
    assert np.array_equal(ds.labels, [0, 1, 0, 1])


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,abc\n")
    with pytest.raises(DataError, match="row 0, column 1"):
        load_csv(path)
    path.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)
    path.write_text("1,2.5\n3,4\n")
    with pytest.raises(DataError, match="not an integer"):
        load_csv(path, label_column=1)
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("cell,message", [
    ("inf", "not an integer"), ("-inf", "not an integer"), ("nan", "not an integer"),
    ("1.5", "not an integer"), ("1e300", "out of range"), ("abc", "bad label"),
])
def test_load_csv_rejects_bad_label_cells(tmp_path, cell, message):
    # int(float("inf")) raised OverflowError, and int(float("nan")) a plain
    # ValueError, instead of a DataError naming the cell
    path = tmp_path / "lab.csv"
    path.write_text(f"1,0\n2,1\n3,{cell}\n")
    with pytest.raises(DataError, match=f"row 2, column 1: .*{message}"):
        load_csv(path, label_column=1)


def test_load_csv_keeps_integral_label_cells(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("1,0\n2,1.0\n3,2e0\n4, 3\n")
    assert load_csv(path, label_column=1).labels.tolist() == [0, 1, 2, 3]


# ------------------------------------------------------------ scale_minmax


def test_scale_minmax_basic():
    ds = scale_minmax(Dataset(np.array([[2.0], [4.0], [6.0]])))
    assert np.array_equal(ds.points[:, 0], [0.0, 0.5, 1.0])


def test_scale_minmax_constant_dimension():
    ds = scale_minmax(Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])))
    assert np.array_equal(ds.points[:, 0], [0.0, 0.0, 0.0])
    assert np.array_equal(ds.points[:, 1], [0.0, 0.5, 1.0])


def test_scale_minmax_idempotent():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.random((40, 3)) * 7 - 3)
    once = scale_minmax(ds)
    twice = scale_minmax(once)
    assert np.array_equal(once.points, twice.points)


# ------------------------------------------------------------- mixture_pdf


def test_mixture_pdf_standard_normal():
    mix = GaussianMixture(means=[[0.0]], covs=[1.0], weights=[1.0])
    assert mixture_pdf(mix, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)


def test_mixture_pdf_symmetric_two_component():
    mix = GaussianMixture(means=[[-1.0], [1.0]], covs=[0.5, 0.5], weights=[0.5, 0.5])
    single = GaussianMixture(means=[[1.0]], covs=[0.5], weights=[1.0])
    assert mixture_pdf(mix, [0.0]) == pytest.approx(mixture_pdf(single, [0.0]), rel=1e-12)


def test_mixture_pdf_matches_direct_formula():
    # oracle: evaluate the closed-form univariate mixture density by hand
    mix = trimix()
    x = 0.20
    expected = sum(
        w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
        for w, m, v in zip([1 / 3] * 3, [0.20, 0.32, 0.65], [0.001, 0.002, 0.007])
    )
    assert mixture_pdf(mix, [x]) == pytest.approx(expected, rel=1e-12)


def test_mixture_pdf_monte_carlo_normalization():
    mix = trimix()
    rng = np.random.default_rng(0)
    lo, hi = 0.20 - 6 * math.sqrt(0.007), 0.65 + 6 * math.sqrt(0.007)
    xs = rng.uniform(lo, hi, size=(1_000_000, 1))
    integral = (hi - lo) * mixture_pdf(mix, xs).mean()
    assert abs(integral - 1.0) < 0.01


def test_mixture_pdf_dimension_mismatch():
    mix = trimix()
    with pytest.raises(DataError):
        mixture_pdf(mix, [0.0, 0.0])


# ------------------------------------------------------------- generators


def test_gen_mixture_trimix():
    ds = gen_mixture(trimix(), 2000, seed=0)
    assert ds.n == 2000 and ds.d == 1
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def test_gen_mixture_single_component():
    mix = GaussianMixture(means=[[0.0]], covs=[1.0], weights=[1.0])
    ds = gen_mixture(mix, 5, seed=1)
    assert np.array_equal(ds.labels, np.zeros(5, dtype=np.int64))


def test_gen_mixture_deterministic():
    a = gen_mixture(trimix(), 100, seed=7)
    b = gen_mixture(trimix(), 100, seed=7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = gen_mixture(trimix(), 100, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_gen_mixture_labels_are_argmax():
    # invariant: with equal weights, each point's component density at its
    # label is >= the density under every other component
    mix = trimix()
    ds = gen_mixture(mix, 500, seed=3)
    per_comp = np.column_stack(
        [
            mixture_pdf(
                GaussianMixture(means=[mix.means[j]], covs=[mix.covs[j]], weights=[1.0]),
                ds.points,
            )
            for j in range(3)
        ]
    )
    assert np.all(per_comp[np.arange(500), ds.labels] >= per_comp.max(axis=1) - 1e-12)


def test_gen_shape_kinds():
    for kind, ncomp in (("moons", 2), ("circles", 2), ("blobs", 3), ("anisotropic", 3)):
        ds = gen_shape(kind, 300, noise=0.05, seed=0)
        assert ds.d == 2
        assert set(np.unique(ds.labels)) == set(range(ncomp))


def test_gen_shape_circles_zero_noise():
    ds = gen_shape("circles", 200, noise=0.0, seed=0)
    radii = np.linalg.norm(ds.points, axis=1)
    expected = np.where(ds.labels == 0, 1.0, 0.5)
    assert np.allclose(radii, expected, atol=1e-12)


def test_gen_shape_blobs_round_robin():
    ds = gen_shape("blobs", 6, noise=0.01, seed=0)
    assert np.array_equal(np.bincount(ds.labels), [2, 2, 2])


def test_gen_shape_errors():
    with pytest.raises(DataError):
        gen_shape("swirl", 10)
    with pytest.raises(DataError):
        gen_shape("moons", 10, noise=-0.1)
    # NaN passed a noise < 0 test and drew the noise-free points
    with pytest.raises(DataError, match="noise=nan"):
        gen_shape("moons", 10, noise=math.nan)
    for std in (-0.3, math.nan):
        with pytest.raises(DataError, match=f"std={std}"):
            gen_multiblobs(10, 2, 2, seed=0, std=std)


def test_every_seed_below_2_64_keys_its_own_stream():
    # a seed >= 2**63 reached Philox through float64: 2**63 + 1 drew
    # 2**63's points and 2**64 - 1 warned of an invalid cast.  A seed
    # outside [0, 2**64) is rejected before any draw (a config's before
    # any stage runs): 2**64 raised an internal error and -1 aliased
    # 2**64 - 1
    draws = [gen_shape("moons", 20, seed=s).points for s in (2**63, 2**63 + 1, 2**64 - 1)]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])
    ds = gen_shape("moons", 60, seed=1)
    fit = bdmbc_fit(ds, BdmbcConfig(k_d=3, k_l=5, rho=0.5, seed=2**64 - 1))
    assert fit.config["seed"] == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(DataError, match=f"seed={seed} out of range"):
            dataset_from_spec({"kind": "moons", "n": 20, "seed": seed})
        with pytest.raises(DataError, match=f"seed={seed} out of range"):
            bagged_k_distance(ds, BaggingPlan(b=2, s=30, k_d=3, seed=seed))
        for data in (ds, ds.points[:1]):
            with pytest.raises(ValueError, match=f"seed={seed} out of range"):
                bdmbc_fit(data, BdmbcConfig(k_d=3, k_l=5, rho=1.0, seed=seed))


def test_gen_multiblobs():
    ds = gen_multiblobs(1000, 10, 10, seed=3)
    assert ds.n == 1000 and ds.d == 10
    assert np.array_equal(np.bincount(ds.labels), [100] * 10)
    again = gen_multiblobs(1000, 10, 10, seed=3)
    assert np.array_equal(ds.points, again.points)


def test_generator_text_serialization_stable():
    # generators must reproduce bit-identical values under a fixed seed,
    # checked through a 12-significant-digit text round trip
    ds = gen_shape("moons", 50, seed=11)
    text = json.dumps([[f"{v:.12g}" for v in row] for row in ds.points])
    ds2 = gen_shape("moons", 50, seed=11)
    text2 = json.dumps([[f"{v:.12g}" for v in row] for row in ds2.points])
    assert text == text2


def test_dataset_from_spec():
    ds = dataset_from_spec(
        {"kind": "mixture", "n": 50, "seed": 2,
         "means": [[0.0], [5.0]], "covs": [1.0, 1.0]}
    )
    assert ds.n == 50 and ds.d == 1
    ds = dataset_from_spec({"kind": "moons", "n": 30, "seed": 1})
    assert ds.n == 30
    ds = dataset_from_spec({"kind": "multiblobs", "n": 40, "d": 3, "clusters": 4, "seed": 0})
    assert ds.d == 3
    with pytest.raises(DataError):
        dataset_from_spec({"kind": "unknown", "n": 10})
    with pytest.raises(DataError):
        dataset_from_spec({"n": 10})
