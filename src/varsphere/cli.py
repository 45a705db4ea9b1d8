"""Command-line entry point: cluster, average, simulate, and mds commands.

Every command reads CSV/manifest inputs, writes CSV tables plus one JSON
metadata file into --out-dir, and is deterministic for a fixed seed: rerunning
with identical inputs yields byte-identical files.  Floats are serialized with
17 significant digits.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 completed
with a convergence warning (outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .averaging import RankCriterion, _Frame
from .clustering import (
    DISTANCES,
    ClusteringConfig,
    _geodesic_profile,
    centroid_separation,
    classical_mds,
    cluster_summary,
    kmeans,
)
from .dataset import _read_csv, _split_list, encode_dataset, infer_manifest, ingest, load_manifest
from .distances import _sq_dist_from_cos
from .encoding import Resultant, resultant
from .errors import ConvergenceWarning, NumericalError, ValidationError, count
from .geometry import Weights
from .simulation import SimConfig, run_benchmark


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_angle(text: str) -> float:
    """Parse an angle given as a float or as 'pi', 'pi/4', '2pi/5', '0.5*pi'."""
    t = text.strip().lower().replace(" ", "")
    try:
        return float(t)
    except ValueError:
        pass
    m = re.fullmatch(r"(\d+(?:\.\d*)?)?\*?pi(?:/(\d+(?:\.\d*)?))?", t)
    if not m:
        raise ValidationError(f"cannot parse angle {text!r}")
    num = float(m.group(1)) if m.group(1) else 1.0
    den = float(m.group(2)) if m.group(2) else 1.0
    if den == 0.0:
        raise ValidationError(f"angle {text!r} divides by zero")
    return num * math.pi / den


def _usage(parse):
    """An argparse type: parse(text), whose ValueError or ValidationError
    becomes a usage error (exit 2) that names the flag and quotes the text."""

    def typed(text: str):
        try:
            return parse(text)
        except (ValueError, ValidationError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return typed


def _list_of(item):
    """An argparse type: the non-empty comma-separated list (_split_list) of item(part)."""

    def parse(text: str) -> list:
        if not (parts := _split_list(text)):
            raise ValidationError("empty list")
        return [item(part) for part in parts]

    return _usage(parse)


_count = _usage(lambda text: count(int(text), "count"))  # an argparse type for a count of at least 1


def _criterion(args) -> RankCriterion:
    """The criterion the flags name; --H goes only with fixed and --theta only with trace."""
    for flag, value, kind in (("--H", args.H, "fixed"), ("--theta", args.theta, "trace")):
        if value is not None and args.criterion != kind:
            raise ValidationError(f"{flag} applies only to --criterion {kind}")
    if args.criterion == "trace":
        return RankCriterion.trace_ratio(0.5 if args.theta is None else args.theta)
    if args.criterion == "cattell":
        return RankCriterion.cattell()
    if args.H is None:
        raise ValidationError("--criterion fixed requires --H")
    return RankCriterion.fixed(args.H)


def _load_resultants(args) -> tuple[list[Resultant], Weights]:
    if args.data and args.manifest:
        raise ValidationError("pass either --data or --manifest, not both")
    table = None  # a bare CSV is read and parsed once, for typing and for ingestion
    if args.manifest:
        manifest = load_manifest(args.manifest)
    elif args.data:
        table = _read_csv(args.data)
        manifest = infer_manifest(args.data, table=table)
    else:
        raise ValidationError("one of --data or --manifest is required")
    ds = ingest(manifest, table=table)
    structures = encode_dataset(ds)
    return [resultant(s, ds.weights) for s in structures], ds.weights


def _out_dir(args) -> str:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use {args.out_dir!r} as the output directory: {exc}") from exc
    return args.out_dir


def _cmd_cluster(args) -> None:
    criterion = _criterion(args)
    resultants, weights = _load_resultants(args)
    config = ClusteringConfig(
        n_clusters=args.L,
        distance=args.distance,
        criterion=criterion,
        n_starts=args.starts,
        seed=args.seed,
    )
    model = kmeans(resultants, config)
    out = _out_dir(args)
    labels = [r.label for r in resultants]
    _write_csv(
        os.path.join(out, "assignments.csv"),
        ["variable", "cluster"],
        [(lab, int(c)) for lab, c in zip(labels, model.assignments)],
    )
    _write_csv(
        os.path.join(out, "cluster_cosines.csv"),
        ["variable", "cluster", "cos", "chord_dist", "geodesic_dist"],
        [
            (row["variable"], row["cluster"], row["cos"], row["chord_dist"], row["geodesic_dist"])
            for row in cluster_summary(model, resultants, labels)
        ],
    )
    sep = centroid_separation(model)
    _write_csv(
        os.path.join(out, "centroid_cosines.csv"),
        ["cluster"] + [f"c{j}" for j in range(args.L)],
        [(str(i), *sep[i]) for i in range(args.L)],
    )
    _write_json(
        os.path.join(out, "model.json"),
        {
            "command": "cluster",
            "n_clusters": config.n_clusters,
            "distance": config.distance,
            "criterion": config.criterion.describe(),
            "seed": config.seed,
            "n_starts": config.n_starts,
            "max_iter": config.max_iter,
            "n_variables": len(resultants),
            "n_observations": weights.n,
            "ranks": [int(r) for r in model.ranks],
            "within_inertia": model.within_inertia,
            "between_over_total": model.between_over_total,
            "converged": bool(model.converged),
            "n_iter": model.n_iter,
            "best_start": model.best_start,
            "objective_trace": list(model.objective_trace),
            "starts": model.starts,
            "centroid_cos": [[float(v) for v in row] for row in sep],
        },
    )


def _cmd_average(args) -> None:
    criterion = _criterion(args)
    resultants, weights = _load_resultants(args)
    # one frame, one spectrum: the scree, every rank's chord fit and geodesic start,
    # and one memo, so the profile's rank h is the average fitted here
    frame = _Frame(resultants)
    fit = frame.fit(criterion, args.distance)
    avg = frame.lift(fit)
    h = avg.rank
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "scree.csv"),
        ["component", "eigenvalue"],
        [(i + 1, v) for i, v in enumerate(frame.spectra(frame.everyone[None])[0][1])],
    )
    _write_csv(
        os.path.join(out, "factors_lambda.csv"),
        ["component", "lambda"],
        [(i + 1, v) for i, v in enumerate(avg.lam)],
    )
    _write_csv(
        os.path.join(out, "factors_u.csv"),
        ["observation"] + [f"u{j + 1}" for j in range(avg.rank)],
        ((i + 1, *avg.U[i]) for i in range(weights.n)),
    )
    if args.distance == "geodesic":
        _write_csv(
            os.path.join(out, "geodesic_inertia.csv"),
            ["h", "inertia"],
            [(i + 1, v) for i, v in enumerate(_geodesic_profile(frame, h))],
        )
    _write_json(
        os.path.join(out, "average.json"),
        {
            "command": "average",
            "distance": args.distance,
            "criterion": criterion.describe(),
            "chosen_rank": int(h),
            "n_variables": len(resultants),
            "n_observations": weights.n,
            "converged": bool(avg.converged),
            "objective": float(np.mean(fit[3] if args.distance == "chord"
                                       else -_sq_dist_from_cos(fit[3], "geodesic"))),
        },
    )


def _cmd_simulate(args) -> None:
    thetas = tuple(args.theta_grid)
    grid = [
        SimConfig(n=n, beta=beta, sigma2=s2, seed=args.seed,
                  replications=args.reps, theta_grid=thetas)
        for n in args.n
        for s2 in args.sigma2
        for beta in args.beta
    ]
    out = _out_dir(args)  # before the grid runs, which an unusable directory would waste
    rows = run_benchmark(grid, n_starts=args.starts, distance=args.distance)
    _write_csv(
        os.path.join(out, "benchmark.csv"),
        ["n", "beta", "sigma2", "theta", "mean_rand", "sd_rand", "replications", "failures"],
        [
            (r.n, r.beta, r.sigma2, r.theta, r.mean_rand, r.sd_rand, r.replications, r.failures)
            for r in rows
        ],
    )
    _write_json(
        os.path.join(out, "simulate.json"),
        {
            "command": "simulate",
            "n": args.n,
            "beta": args.beta,
            "sigma2": args.sigma2,
            "theta_grid": list(thetas),
            "replications": args.reps,
            "seed": args.seed,
            "n_starts": args.starts,
            "distance": args.distance,
            "cells": len(rows),
        },
    )


def _cosine_matrix(raw) -> np.ndarray:
    """The centroid cosines of a model file: a square list of lists over at
    least 2 centroids, every entry a finite number in [-1, 1] up to 1e-12."""
    if not (isinstance(raw, list) and len(raw) >= 2
            and all(isinstance(row, list) and len(row) == len(raw) for row in raw)):
        raise ValidationError("mds needs a square cosine matrix over at least 2 centroids")
    for i, row in enumerate(raw):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"centroid_cos entry ({i}, {j}) is not a number: {v!r}")
            if not (math.isfinite(v) and abs(v) <= 1.0 + 1e-12):
                raise ValidationError(
                    f"centroid_cos entry ({i}, {j}) = {v!r} is not a cosine in [-1, 1]"
                )
    return np.array(raw, dtype=float)


def _cmd_mds(args) -> None:
    try:
        with open(args.model, encoding="utf-8") as fh:
            model = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {args.model}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {args.model} is not valid JSON: {exc}") from exc
    if "centroid_cos" not in model or model.get("distance") not in DISTANCES:
        raise ValidationError("model file must carry 'centroid_cos' and a 'distance' "
                              f"among {DISTANCES}")
    cos = _cosine_matrix(model["centroid_cos"])
    d = np.sqrt(_sq_dist_from_cos(cos, model["distance"]))
    np.fill_diagonal(d, 0.0)
    coords = classical_mds(d, args.dims)
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "coordinates.csv"),
        ["cluster"] + [f"dim{j + 1}" for j in range(args.dims)],
        [(i, *coords[i]) for i in range(coords.shape[0])],
    )
    _write_json(
        os.path.join(out, "mds.json"),
        {
            "command": "mds",
            "dims": args.dims,
            "distance": model["distance"],
            "n_centroids": int(cos.shape[0]),
            "source_model": os.path.abspath(args.model),
        },
    )


def _add_input_flags(sub) -> None:
    sub.add_argument("--data", help="bare CSV; column kinds are inferred")
    sub.add_argument("--manifest", help="manifest file declaring column kinds and blocks")
    sub.add_argument("--out-dir", default=".", help="directory for the output files")


def _add_criterion_flags(sub) -> None:
    sub.add_argument("--criterion", choices=("trace", "cattell", "fixed"), default="trace")
    sub.add_argument("--theta", type=float, default=None,
                     help="trace-ratio threshold for --criterion trace (default 0.5)")
    sub.add_argument("--H", type=_count, default=None, help="rank for --criterion fixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varsphere",
        description="Cluster and average variable-structures on the operator sphere.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cluster", help="K-means over encoded variables")
    _add_input_flags(p)
    _add_criterion_flags(p)
    p.add_argument("--L", type=_count, required=True, help="number of clusters")
    p.add_argument("--distance", choices=DISTANCES, default="chord")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=_count, default=10, help="number of random restarts")
    p.set_defaults(func=_cmd_cluster)

    p = subs.add_parser("average", help="rank-H average of encoded variables")
    _add_input_flags(p)
    _add_criterion_flags(p)
    p.add_argument("--distance", choices=DISTANCES, default="chord")
    p.set_defaults(func=_cmd_average)

    p = subs.add_parser("simulate", help="run the clustering benchmark grid")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--n", type=_list_of(int), default="30,40",
                   help="comma-separated sample sizes")
    p.add_argument("--beta", type=_list_of(parse_angle), default="pi/4,pi/3,pi/2",
                   help="comma-separated angles (floats or pi fractions)")
    p.add_argument("--sigma2", type=_list_of(float), default="0.1,0.15",
                   help="comma-separated noise variances")
    p.add_argument("--theta-grid", type=_list_of(float), default="0,0.25,0.5,0.75,1",
                   help="comma-separated trace-ratio thresholds")
    p.add_argument("--reps", type=_count, default=10, help="replications per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=_count, default=10)
    p.add_argument("--distance", choices=DISTANCES, default="chord")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("mds", help="classical MDS of the centroids of a fitted model")
    p.add_argument("model", help="model.json written by the cluster command")
    p.add_argument("--dims", type=_count, default=2)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_mds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args)
        soft_failure = False
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
            if issubclass(w.category, ConvergenceWarning):
                soft_failure = True
        return 4 if soft_failure else 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
