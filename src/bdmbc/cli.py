"""Batch command-line front end.

Subcommands: gen (synthetic datasets), cluster (one fit), grid (Cartesian
parameter search), bench (two-config timing/quality comparison), eval
(metric report for two label files).  Exit codes: 0 success, 2 usage or
validation error, 3 I/O error, 4 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .cluster import PARAMETERS, BdmbcConfig, bdmbc_fit
from .data import DataError, dataset_from_spec, load_csv, parse_label, scale_minmax
from .grid import GRID_COLUMNS, SHARED, SWEPT, grid_search
from .metrics import metric_report

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _load_dataset(args):
    ds = load_csv(args.data, has_header=args.header, label_column=args.label_column)
    if args.scale:
        ds = scale_minmax(ds)
    return ds


def _write_result(result, out_prefix):
    with open(out_prefix + ".json", "w") as fh:
        json.dump(result.to_json_dict(), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    with open(out_prefix + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "core", "plls"])
        for i, (lab, core, p) in enumerate(
            zip(result.labels, result.core_mask, result.plls)
        ):
            writer.writerow([i, int(lab), int(core), repr(float(p))])


def cmd_gen(args):
    with open(args.spec) as fh:
        spec = json.load(fh)
    ds = dataset_from_spec(spec)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, lab in zip(ds.points, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    classes = len(np.unique(ds.labels)) if ds.labels is not None else 0
    print(f"wrote {args.out}: n={ds.n} d={ds.d} classes={classes}")
    return 0


def cmd_cluster(args):
    ds = _load_dataset(args)
    result = bdmbc_fit(ds, BdmbcConfig.from_dict(vars(args)))
    _write_result(result, args.out)
    print(f"num_clusters={result.num_clusters} modes={len(result.modes)}")
    for stage, seconds in result.timings.items():
        print(f"time[{stage}]={seconds:.4f}s")
    return 0


def cmd_grid(args):
    ds = _load_dataset(args)
    if ds.labels is None:
        raise DataError("grid search needs a labeled dataset (--label-column)")
    with open(args.grid) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise DataError(f"{args.grid}: grid spec must be a JSON object")
    metric = spec.get("metric", "ari")
    shared = {name: value for name, value in vars(args).items() if name in SHARED}
    rows = grid_search(ds, spec, metric=metric, **shared)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in GRID_COLUMNS])
    best = rows[0]
    print(f"best {metric}={best[metric]:.4f} at "
          + " ".join(f"{name}={best[name]}" for name in SWEPT))
    return 0


def _bench_one(ds, config):
    result = bdmbc_fit(ds, config)
    entry = {
        "config": result.config,
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
        "num_clusters": result.num_clusters,
    }
    if ds.labels is not None:
        entry["metrics"] = metric_report(ds.labels, result.labels)
    return entry


def cmd_bench(args):
    ds = _load_dataset(args)
    if ds.n < 2:
        # a one-point fit returns before any stage runs, so it has no timings
        raise DataError(f"{args.data}: bench needs at least 2 points, got {ds.n}")
    with open(args.config_a) as fh:
        config_a = BdmbcConfig.from_dict(json.load(fh))
    with open(args.config_b) as fh:
        config_b = BdmbcConfig.from_dict(json.load(fh))
    a = _bench_one(ds, config_a)
    b = _bench_one(ds, config_b)
    ratio = a["timings"]["bagged_kdist"] / max(b["timings"]["bagged_kdist"], 1e-12)
    report = {"a": a, "b": b, "kdist_time_ratio_a_over_b": round(ratio, 4)}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"kdist time a/b = {ratio:.2f}")
    for side, entry in (("a", a), ("b", b)):
        metrics = entry.get("metrics", {})
        stages = " ".join(f"{k}={v:.3f}s" for k, v in entry["timings"].items())
        print(f"[{side}] clusters={entry['num_clusters']} "
              + " ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
        print(f"[{side}] {stages}")
    return 0


def _read_label_file(path):
    with open(path) as fh:
        labels = [parse_label(line.strip(), f"{path} line {lineno}")
                  for lineno, line in enumerate(fh, 1) if line.strip()]
    if not labels:
        raise DataError(f"{path}: no labels")
    return np.array(labels, dtype=np.int64)


def cmd_eval(args):
    true_labels = _read_label_file(args.true_labels)
    pred_labels = _read_label_file(args.pred_labels)
    if len(true_labels) != len(pred_labels):
        raise DataError(
            f"label lengths differ: {len(true_labels)} vs {len(pred_labels)}"
        )
    report = metric_report(true_labels, pred_labels)
    print(json.dumps({k: round(v, 6) for k, v in report.items()}))
    return 0


def _add_data_args(p):
    p.add_argument("data", help="CSV dataset path")
    p.add_argument("--header", action="store_true", help="skip one header row")
    p.add_argument("--label-column", type=int, default=None,
                   help="zero-based label column index")
    p.add_argument("--scale", action="store_true", help="min-max scale each dimension")


def _add_config_args(p, names=PARAMETERS):
    """One --flag per named hyperparameter, typed as cluster.PARAMETERS says;
    a flag left out stays out of the namespace, so it keeps its default."""
    for name in names:
        field, integer = PARAMETERS[name]
        p.add_argument("--" + name.replace("_", "-"), type=int if integer else float,
                       default=argparse.SUPPRESS, help=f"BdmbcConfig.{field}")


def build_parser():
    parser = argparse.ArgumentParser(prog="bdmbc")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("spec", help="JSON generator spec path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cluster", help="cluster a dataset")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output prefix (.json/.csv)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("grid", help="grid-search hyperparameters")
    _add_data_args(p)
    p.add_argument("--grid", required=True, help="JSON grid spec path")
    _add_config_args(p, SHARED)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bench", help="compare two configurations")
    _add_data_args(p)
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("true_labels")
    p.add_argument("pred_labels")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DataError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
