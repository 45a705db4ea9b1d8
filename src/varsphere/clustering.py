"""K-means clustering of unit-norm resultants with low-rank centroids.

Each cluster is summarized by a rank-H average of its members (chord-optimal
truncation in chord mode, geodesic average in geodesic mode), with H chosen
per cluster by a rank criterion at every update.  Assignment sends each
resultant to the centroid with the largest scalar product (equivalently the
smallest distance), restarts are seeded independently, and the best start by
within-cluster inertia wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .averaging import (
    RankCriterion,
    RankHOperator,
    cosines,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
)
from .encoding import Resultant
from .errors import ConvergenceWarning, ValidationError

DISTANCES = ("chord", "geodesic")


@dataclass(frozen=True)
class ClusteringConfig:
    """Settings for a k-means fit."""

    n_clusters: int
    distance: str = "chord"
    criterion: RankCriterion = field(default_factory=lambda: RankCriterion.trace_ratio(0.5))
    max_iter: int = 100
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValidationError("need at least one cluster")
        if self.distance not in DISTANCES:
            raise ValidationError(f"distance must be one of {DISTANCES}")
        if self.max_iter < 1 or self.n_starts < 1:
            raise ValidationError("max_iter and n_starts must be positive")


@dataclass
class ClusterModel:
    """A fitted partition with its centroids and fit diagnostics."""

    assignments: np.ndarray
    centroids: list[RankHOperator]
    ranks: list[int]
    distance: str
    within_inertia: float
    between_over_total: float
    converged: bool
    n_iter: int
    best_start: int
    objective_trace: list[float]
    config: ClusteringConfig


def _sq_dist_from_cos(cos: np.ndarray, distance: str) -> np.ndarray:
    if distance == "chord":
        return np.maximum(2.0 * (1.0 - cos), 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0)) ** 2


def _assign_from_cos(cos: np.ndarray, distance: str) -> np.ndarray:
    if distance == "chord":
        return np.argmax(cos, axis=1)
    return np.argmin(np.arccos(np.clip(cos, -1.0, 1.0)), axis=1)


def assign(resultant: Resultant, centroids: list[RankHOperator], distance: str) -> int:
    """Index of the closest centroid (ties go to the lowest index)."""
    if distance not in DISTANCES:
        raise ValidationError(f"distance must be one of {DISTANCES}")
    if not centroids:
        raise ValidationError("need at least one centroid")
    return int(_assign_from_cos(cosines([resultant], centroids), distance)[0])


def _fit(members: list[Resultant], distance: str, criterion: RankCriterion) -> RankHOperator:
    """Rank-H average of the members in the given distance."""
    fit = rank_h_average_euclidean if distance == "chord" else rank_h_average_geodesic
    return fit(members, criterion)


def _update_centroids(
    resultants: list[Resultant], assignment: np.ndarray, config: ClusteringConfig
) -> tuple[list[RankHOperator], list[int]]:
    centroids = [
        _fit([r for r, a in zip(resultants, assignment) if a == l], config.distance,
             config.criterion)
        for l in range(config.n_clusters)
    ]
    return centroids, [c.rank for c in centroids]


def _within(cos: np.ndarray, assignment: np.ndarray, distance: str) -> float:
    picked = cos[np.arange(cos.shape[0]), assignment]
    return float(np.sum(_sq_dist_from_cos(picked, distance)))


def _repair_empty(
    assignment: np.ndarray, cos: np.ndarray, n_clusters: int, distance: str
) -> np.ndarray:
    """Reseed each empty cluster with the resultant farthest from its centroid."""
    assignment = assignment.copy()
    for l in range(n_clusters):
        if np.any(assignment == l):
            continue
        sizes = np.bincount(assignment, minlength=n_clusters)
        eligible = np.nonzero(sizes[assignment] >= 2)[0]
        own = cos[eligible, assignment[eligible]]
        far = eligible[int(np.argmax(_sq_dist_from_cos(own, distance)))]
        assignment[far] = l
    return assignment


def _single_start(
    resultants: list[Resultant], config: ClusteringConfig, rng: np.random.Generator
) -> tuple[np.ndarray, list[RankHOperator], list[int], float, bool, int, list[float]]:
    k = len(resultants)
    perm = rng.permutation(k)
    assignment = np.empty(k, dtype=int)
    for l, chunk in enumerate(np.array_split(perm, config.n_clusters)):
        assignment[chunk] = l
    seen = {tuple(assignment)}
    trace: list[float] = []
    converged = False
    n_iter = 0
    centroids: list[RankHOperator] = []
    ranks: list[int] = []
    for n_iter in range(1, config.max_iter + 1):
        centroids, ranks = _update_centroids(resultants, assignment, config)
        cos = cosines(resultants, centroids)
        trace.append(_within(cos, assignment, config.distance))
        proposal = _assign_from_cos(cos, config.distance)
        proposal = _repair_empty(proposal, cos, config.n_clusters, config.distance)
        trace.append(_within(cos, proposal, config.distance))
        if np.array_equal(proposal, assignment):
            converged = True
            break
        key = tuple(proposal)
        assignment = proposal
        if key in seen:
            break  # assignment cycle: adaptive ranks can oscillate
        seen.add(key)
    if not converged:
        centroids, ranks = _update_centroids(resultants, assignment, config)
    within = _within(cosines(resultants, centroids), assignment, config.distance)
    return assignment, centroids, ranks, within, converged, n_iter, trace


def kmeans(resultants: list[Resultant], config: ClusteringConfig) -> ClusterModel:
    """Fit k-means over unit-norm resultants.

    Runs `config.n_starts` restarts from random balanced partitions seeded
    off `config.seed` and keeps the start with the lowest within-cluster
    inertia (ties go to the earliest start).
    """
    if len(resultants) < config.n_clusters:
        raise ValidationError(
            f"cannot split {len(resultants)} resultants into {config.n_clusters} clusters"
        )
    for r in resultants:
        if not r.normed:
            raise ValidationError("clustering expects unit-norm resultants")
    best = None
    best_start = -1
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_starts)
    for s, seq in enumerate(seeds):
        run = _single_start(resultants, config, np.random.default_rng(seq))
        if best is None or run[3] < best[3]:
            best = run
            best_start = s
    assignment, centroids, ranks, within, converged, n_iter, trace = best
    if not converged:
        warnings.warn(
            "k-means stopped on an assignment cycle or the iteration cap",
            ConvergenceWarning,
        )
    model = ClusterModel(
        assignments=assignment,
        centroids=centroids,
        ranks=ranks,
        distance=config.distance,
        within_inertia=within,
        between_over_total=float("nan"),
        converged=converged,
        n_iter=n_iter,
        best_start=best_start,
        objective_trace=trace,
        config=config,
    )
    model.between_over_total = inertia_ratio(model, resultants)
    return model


def inertia_ratio(model: ClusterModel, resultants: list[Resultant]) -> float:
    """Share of inertia explained: (total - within) / total.

    Total inertia is measured from the global rank-H average computed with
    the model's own distance and rank criterion.
    """
    overall = _fit(resultants, model.distance, model.config.criterion)
    cos = cosines(resultants, [overall])[:, 0]
    total = float(np.sum(_sq_dist_from_cos(cos, model.distance)))
    if total <= 1e-300:
        raise ValidationError("total inertia is zero: all resultants are identical")
    return (total - model.within_inertia) / total


def geodesic_inertia_profile(resultants: list[Resultant], h_max: int) -> np.ndarray:
    """Geodesic inertia D_H = sum_k arccos([R_k | avg_H])^2 for H = 1..h_max,
    where avg_H is the uniform geodesic rank-H average of the resultants."""
    if h_max < 1:
        raise ValidationError("h_max must be at least 1")
    profile = np.empty(h_max)
    for h in range(1, h_max + 1):
        avg = rank_h_average_geodesic(resultants, h)
        cos = cosines(resultants, [avg])[:, 0]
        profile[h - 1] = float(np.sum(_sq_dist_from_cos(cos, "geodesic")))
    return profile


def centroid_separation(model: ClusterModel) -> np.ndarray:
    """Pairwise scalar products between centroids (unit diagonal):
    [C_a | C_b] = sum_ij lam_i mu_j ((U_a' W U_b)_ij)^2."""
    cs = model.centroids
    cos = np.eye(len(cs))
    for i, a in enumerate(cs):
        for j in range(i + 1, len(cs)):
            g = a.U.T @ (a.weights.w[:, None] * cs[j].U)
            cos[i, j] = cos[j, i] = float(a.lam @ (g * g) @ cs[j].lam)
    return cos


def cluster_summary(
    model: ClusterModel, resultants: list[Resultant], labels: list[str] | None = None
) -> list[dict]:
    """Per-variable membership table: cluster, cosine with the centroid, and
    both distances to it."""
    if labels is None:
        labels = [r.label or f"var{k}" for k, r in enumerate(resultants)]
    if len(labels) != len(resultants):
        raise ValidationError("need one label per resultant")
    cos = cosines(resultants, model.centroids)[np.arange(len(labels)), model.assignments]
    chord = np.sqrt(_sq_dist_from_cos(cos, "chord"))
    geodesic = np.sqrt(_sq_dist_from_cos(cos, "geodesic"))
    return [
        {"variable": lab, "cluster": int(l), "cos": float(c),
         "chord_dist": float(dc), "geodesic_dist": float(dg)}
        for lab, l, c, dc, dg in zip(labels, model.assignments, cos, chord, geodesic)
    ]


def classical_mds(distances: np.ndarray, dims: int) -> np.ndarray:
    """Classical multidimensional scaling of a distance matrix.

    Double-centres the squared distances, eigendecomposes, and returns the
    top `dims` coordinates scaled by the square roots of the eigenvalues.
    Negative eigenvalues are truncated at zero; when fewer positive
    eigenvalues than `dims` exist the remaining columns are zero and a
    warning is emitted.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("expected a square distance matrix")
    n = d.shape[0]
    if dims < 1:
        raise ValidationError("dims must be at least 1")
    if np.any(d < -1e-12) or float(np.max(np.abs(np.diag(d)))) > 1e-8:
        raise ValidationError("distances must be non-negative with a zero diagonal")
    if float(np.max(np.abs(d - d.T))) > 1e-8:
        raise ValidationError("distance matrix must be symmetric")
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (d * d) @ j
    vals, vecs = np.linalg.eigh(0.5 * (b + b.T))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    n_pos = int(np.sum(vals > 1e-12 * max(float(vals[0]), 0.0)))
    if dims > n_pos:
        warnings.warn(
            f"only {n_pos} positive eigenvalues: extra coordinates are zero-padded"
        )
    take = min(dims, n)
    coords = np.zeros((n, dims))
    coords[:, :take] = vecs[:, :take] * np.sqrt(np.clip(vals[:take], 0.0, None))[None, :]
    # deterministic orientation: largest-magnitude entry of each axis positive
    for c in range(dims):
        col = coords[:, c]
        if col.any():
            if col[int(np.argmax(np.abs(col)))] < 0:
                coords[:, c] = -col
    return coords
