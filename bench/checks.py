"""Output checks for the benchmark's CLI commands.

Three kinds of check:

* identities that hold on any input, e.g. the within-cluster inertia equals
  the sum of the squared distances listed in cluster_cosines.csv;
* for a chord clustering, a recomputation from the input CSV with numpy
  alone: every variable's unit resultant, each cluster's rank-H chord
  centroid, the within-cluster inertia, and, when K-means converged, that
  every variable lies closest to its own centroid;
* for every input that has a recorded reference (pool entry 0 on every
  seed, and every entry of the reference seed), agreement with the outputs
  recorded at the seed commit: discrete results (assignments, ranks, chosen
  rank, the simulate scores) exactly, real-valued results within the
  relative tolerances below.

The check_* functions for the three commands return (errors, summary); the
summary holds the values that a reference records.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Tolerance for scalar inertias and objectives, which a change of floating
# point order or of the ascent's stopping point moves far less than this.
REL_TOL = 1e-6
# Eigenvalues of a geodesic average are determined only to about the square
# root of the objective's tolerance, so they get a looser bound.
LAMBDA_REL_TOL = 1e-5
# Identities between two outputs of one run, written with 17 digits.
IDENTITY_REL_TOL = 1e-9
# A recomputation by another route (QR and SVD of the data instead of
# eigensolves of n x n operators) agrees to far better than this.
RECOMPUTE_REL_TOL = 1e-8


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


def check_cluster(out: str, distance: str, n_clusters: int, n_vars: int):
    errors = []
    _, assign_rows = _rows(os.path.join(out, "assignments.csv"))
    _, cos_rows = _rows(os.path.join(out, "cluster_cosines.csv"))
    _, sep_rows = _rows(os.path.join(out, "centroid_cosines.csv"))
    model = _json(os.path.join(out, "model.json"))
    assignments = [int(r[1]) for r in assign_rows]
    if len(assignments) != n_vars:
        errors.append(f"{len(assignments)} assignments for {n_vars} variables")
    if sorted(set(assignments)) != list(range(n_clusters)):
        errors.append(f"clusters used {sorted(set(assignments))}, expected 0..{n_clusters - 1}")
    if [int(r[1]) for r in cos_rows] != assignments:
        errors.append("cluster_cosines.csv disagrees with assignments.csv")
    col = 3 if distance == "chord" else 4
    sq = sum(float(r[col]) ** 2 for r in cos_rows)
    within = float(model["within_inertia"])
    if not _close(within, sq, IDENTITY_REL_TOL):
        errors.append(f"within_inertia {within!r} != sum of squared distances {sq!r}")
    if not all(-1.0 - 1e-12 <= float(r[2]) <= 1.0 + 1e-12 for r in cos_rows):
        errors.append("a cosine lies outside [-1, 1]")
    sep = np.array([[float(v) for v in r[1:]] for r in sep_rows])
    if sep.shape != (n_clusters, n_clusters) or not np.allclose(sep, sep.T, atol=1e-12) \
            or not np.all(np.diag(sep) == 1.0):
        errors.append("centroid_cosines.csv is not a symmetric cosine matrix")
    ranks = [int(r) for r in model["ranks"]]
    if len(ranks) != n_clusters or min(ranks) < 1:
        errors.append(f"bad centroid ranks {ranks}")
    bot = float(model["between_over_total"])
    if not (math.isfinite(bot) and bot <= 1.0 + 1e-12):
        errors.append(f"between_over_total {bot!r} is not a finite share of at most 1")
    summary = {"assignments": assignments, "ranks": ranks,
               "within_inertia": within, "between_over_total": bot}
    return errors, summary


def _unit_bases(data: str, n_numeric: int) -> dict[str, tuple[np.ndarray, int]]:
    """Each variable's orthonormal basis Q and rank r, read from the input CSV.

    With uniform observation weights, a variable's unit resultant is the
    orthogonal projector onto its centred column space divided by sqrt(r).
    """
    header, rows = _rows(data)
    bases = {}
    for j, name in enumerate(header):
        col = [r[j] for r in rows]
        if j < n_numeric:
            x = np.array([float(v) for v in col])
        else:
            levels = sorted(set(col))
            x = np.array([[v == lv for lv in levels[:-1]] for v in col], dtype=float)
        x = x.reshape(len(col), -1) - x.reshape(len(col), -1).mean(axis=0)
        q, _ = np.linalg.qr(x)
        bases[name] = (q, q.shape[1])
    return bases


def recompute_chord(data: str, n_numeric: int, names: list[str], assignments: list[int],
                    ranks: list[int]) -> tuple[float, np.ndarray]:
    """(within-cluster inertia, K x L cosines) of a chord clustering, from the data.

    Cluster l's centroid is U diag(lam / |lam|) U' for the top ranks[l]
    eigenpairs (U, lam) of the mean of its members' unit resultants.
    """
    bases = _unit_bases(data, n_numeric)
    members = [bases[name] for name in names]
    cos = np.empty((len(members), len(ranks)))
    for l, h in enumerate(ranks):
        own = [m for m, a in zip(members, assignments) if a == l]
        # mean of Q Q' / sqrt(r) over the cluster is B B'
        b = np.hstack([q / math.sqrt(len(own) * math.sqrt(r)) for q, r in own])
        u, sv, _ = np.linalg.svd(b, full_matrices=False)
        lam = sv[:h] ** 2
        lam /= np.linalg.norm(lam)
        for k, (q, r) in enumerate(members):
            cos[k, l] = float(np.sum(lam * np.sum((q.T @ u[:, :h]) ** 2, axis=0))) / math.sqrt(r)
    picked = cos[np.arange(len(members)), assignments]
    return float(np.sum(2.0 * (1.0 - picked))), cos


def check_chord_recomputed(out: str, data: str, n_numeric: int) -> list[str]:
    """Compare a chord clustering's outputs with recompute_chord."""
    errors = []
    _, assign_rows = _rows(os.path.join(out, "assignments.csv"))
    model = _json(os.path.join(out, "model.json"))
    assignments = [int(r[1]) for r in assign_rows]
    within, cos = recompute_chord(data, n_numeric, [r[0] for r in assign_rows], assignments,
                                  [int(h) for h in model["ranks"]])
    if not _close(float(model["within_inertia"]), within, RECOMPUTE_REL_TOL):
        errors.append(f"within_inertia {model['within_inertia']!r} != {within!r} recomputed "
                      "from the input")
    if model["converged"]:
        own = cos[np.arange(len(assignments)), assignments]
        closer = np.nonzero(cos.max(axis=1) > own + RECOMPUTE_REL_TOL)[0]
        if closer.size:
            errors.append(f"variables {closer.tolist()} lie closer to another centroid")
    return errors


def check_average(out: str, distance: str, n_obs: int, n_vars: int):
    errors = []
    meta = _json(os.path.join(out, "average.json"))
    _, lam_rows = _rows(os.path.join(out, "factors_lambda.csv"))
    _, u_rows = _rows(os.path.join(out, "factors_u.csv"))
    h = int(meta["chosen_rank"])
    lam = np.array([float(r[1]) for r in lam_rows])
    if lam.size != h or np.any(lam < 0.0) or np.any(np.diff(lam) > 0.0):
        errors.append(f"lambda {lam.tolist()} is not {h} sorted non-negative values")
    if not _close(float(lam @ lam), 1.0, IDENTITY_REL_TOL):
        errors.append(f"lambda has squared norm {float(lam @ lam)!r}, not 1")
    u = np.array([[float(v) for v in r[1:]] for r in u_rows])
    if u.shape != (n_obs, h):
        errors.append(f"factors_u.csv has shape {u.shape}, expected {(n_obs, h)}")
    elif float(np.max(np.abs(u.T @ u / n_obs - np.eye(h)))) > 1e-8:
        errors.append("factors_u.csv columns are not W-orthonormal")
    objective = float(meta["objective"])
    summary = {"chosen_rank": h, "lambda": lam.tolist(), "objective": objective}
    if distance == "geodesic":
        _, prof_rows = _rows(os.path.join(out, "geodesic_inertia.csv"))
        profile = [float(r[1]) for r in prof_rows]
        summary["profile"] = profile
        if objective > 0.0:
            errors.append(f"geodesic objective {objective!r} is positive")
        if len(profile) != h or not _close(profile[-1], -n_vars * objective, REL_TOL):
            errors.append(f"inertia profile {profile} does not end at "
                          f"-K * objective = {-n_vars * objective!r}")
    return errors, summary


def check_simulate(out: str, cells: int, n_thetas: int, reps: int):
    """Returns (errors, summary, failed replications); the caller counts the
    failures, so they are not repeated in the errors."""
    errors = []
    _, rows = _rows(os.path.join(out, "benchmark.csv"))
    if len(rows) != cells * n_thetas:
        errors.append(f"{len(rows)} benchmark rows, expected {cells * n_thetas}")
    failed = {}
    for r in rows:
        failed[tuple(r[:3])] = int(r[7])
        if int(r[6]) + int(r[7]) != reps:
            errors.append(f"cell {r[:4]}: {r[6]} replications + {r[7]} failures != {reps}")
        if not 0.0 <= float(r[4]) <= 1.0 or float(r[5]) < 0.0:
            errors.append(f"cell {r[:4]}: score {r[4]} or spread {r[5]} out of range")
    summary = {"scores": [r[:6] for r in rows]}
    return errors, summary, sum(failed.values())


def compare(summary: dict, reference: dict) -> list[str]:
    """Differences between a run's summary and its recorded reference."""
    errors = []
    for key, ref in reference.items():
        got = summary.get(key)
        if key in ("within_inertia", "between_over_total", "objective"):
            ok = got is not None and _close(got, ref, REL_TOL)
        elif key in ("lambda", "profile"):
            rel = LAMBDA_REL_TOL if key == "lambda" else REL_TOL
            ok = got is not None and len(got) == len(ref) and all(
                _close(a, b, rel) for a, b in zip(got, ref)
            )
        else:
            ok = got == ref
        if not ok:
            errors.append(f"{key}: got {got!r}, reference {ref!r}")
    return errors
