"""K-means clustering of unit-norm resultants with low-rank centroids.

Each cluster is summarized by a rank-H average of its members (chord-optimal
truncation in chord mode, geodesic average in geodesic mode), with H chosen
per cluster by a rank criterion at every update.  Assignment sends each
resultant to the centroid with the largest scalar product (equivalently the
smallest distance, by either), the first within 1e-12 of it, so rounding
cannot turn a tie; the best start by within-cluster inertia wins (ties go
to the earliest start).

Every centroid lies in the span of the stacked factors, so K-means runs on
the averaging frame, which reduces the dataset to that column space once (one
QR) and fits each member set once, whatever the number of starts and
iterations, as the public averages fit the whole set, under one stop rule;
a geodesic fit's ConvergenceWarning is emitted once per member set.  Every
inertia, cosine and assignment reported is read from the fits' K cosines.
At trace ratio 1 a chord centroid is the normalised mean of its members,
read from the frame's K x K cosine matrix with no spectrum, and only the best
start's L centroids are fitted, for their lifts and ranks (numerical ranks,
which drop eigenvalues under RANK_TOL of the largest; see _Frame).  The
starts advance in lockstep (_lockstep): each round takes every active
start's member sets from the frame in one request and proposes all their
assignments at once.  Each start keeps its own seed (spawned from the
config's), cycle rule and objective trace, so it follows the path it would
follow alone.  Only kmeans() assembles a model (lifts, ranks, the global
fit); the simulate benchmark reads the best start's partition alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import RankCriterion, RankHOperator, _Frame, cosines
from .encoding import Resultant
from .errors import ConvergenceWarning, ValidationError, warn
from .geometry import _fix_column_signs

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
    cosines: np.ndarray  # K x L: each resultant's cosine to each centroid, from their fits
    ranks: list[int]
    distance: str
    within_inertia: float
    between_over_total: float
    converged: bool
    n_iter: int
    best_start: int
    objective_trace: list[float]
    starts: list[dict]  # per start: within_inertia, n_iter and stop (converged, cycle or cap)
    config: ClusteringConfig


def _sq_dist_from_cos(cos: np.ndarray, distance: str) -> np.ndarray:
    if distance == "chord":
        return np.maximum(2.0 * (1.0 - cos), 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0)) ** 2


def _assign_from_cos(cos: np.ndarray) -> np.ndarray:
    """The nearest centroid by either distance: the first whose cosine lies
    within 1e-12 of the largest."""
    return np.argmax(cos >= cos.max(axis=-1, keepdims=True) - 1e-12, axis=-1)


def assign(resultant: Resultant, centroids: list[RankHOperator], distance: str) -> int:
    """Index of the closest centroid: the first whose cosine is within 1e-12
    of the largest, so ties, and rounding's near-ties, go to the lowest index."""
    if distance not in DISTANCES:
        raise ValidationError(f"distance must be one of {DISTANCES}")
    if not centroids:
        raise ValidationError("need at least one centroid")
    return int(_assign_from_cos(cosines([resultant], centroids))[0])


def _within(cos: np.ndarray, assignment: np.ndarray, distance: str) -> np.ndarray:
    """Within-cluster inertia of each assignment row (..., K) against its cosines (..., K, L)."""
    picked = np.take_along_axis(cos, assignment[..., None], axis=-1)[..., 0]
    return np.sum(_sq_dist_from_cos(picked, distance), axis=-1)


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


def _refit(frame: _Frame, assignment: np.ndarray, config: ClusteringConfig) -> np.ndarray:
    """The S x K x L cosines of each assignment row's (S x K) resultants to
    the fits of its clusters."""
    chosen = assignment[:, None, :] == np.arange(config.n_clusters)[:, None]
    cos = frame.fit_cosines(chosen.reshape(-1, frame.k), config.distance, config.criterion)
    cos = cos.reshape(len(assignment), config.n_clusters, frame.k)
    # C order, as one start's K x L was: numpy may pick its ufunc loops, and so
    # the rounding of arccos, by memory layout
    return np.ascontiguousarray(cos.transpose(0, 2, 1))


def kmeans(resultants: list[Resultant], config: ClusteringConfig) -> ClusterModel:
    """Fit k-means over unit-norm resultants.

    Runs `config.n_starts` starts from random balanced partitions seeded off
    `config.seed` and keeps the start with the lowest within-cluster inertia
    (ties go to the earliest start).  The starts advance together, one round
    for all of them at a time, but each follows exactly the path it would
    follow alone.  Every centroid is fitted in the column space of the
    resultants' factors, once per member set across all starts and the
    global fit of `between_over_total` (a full-rank chord run fits only the
    L centroids returned); only those are lifted back to the n observations.
    """
    return _kmeans(_Frame(resultants), config)


def _kmeans(frame: _Frame, config: ClusteringConfig) -> ClusterModel:
    """kmeans() on a frame, whose memo may be shared by several configs: the
    lockstep loop, then the best start's lifted centroids and the global fit."""
    best, assignment, cos, starts, traces = _lockstep(frame, config, _partitions(config, frame.k))
    fits = frame.centroids(assignment[best] == np.arange(config.n_clusters)[:, None],
                           config.distance, config.criterion)
    within = starts[best]["within_inertia"]
    return ClusterModel(
        assignments=assignment[best].copy(),
        centroids=[frame.lift(fit) for fit in fits],
        cosines=cos[best].copy(),
        ranks=[fit[1].size for fit in fits],
        distance=config.distance,
        within_inertia=within,
        between_over_total=_explained(frame, config.distance, config.criterion, within),
        converged=starts[best]["stop"] == "converged",
        n_iter=starts[best]["n_iter"],
        best_start=best,
        objective_trace=traces[best],
        starts=starts,
        config=config,
    )


def _partitions(config: ClusteringConfig, k: int) -> np.ndarray:
    """Each start's random balanced partition of k resultants, one row per
    start: cluster sizes as np.array_split deals them, laid on a permutation
    drawn from the start's seed."""
    l = config.n_clusters
    if k < l:
        raise ValidationError(f"cannot split {k} resultants into {l} clusters")
    labels = np.repeat(np.arange(l), k // l + (np.arange(l) < k % l))
    rows = np.empty((config.n_starts, k), dtype=int)
    for s, seq in enumerate(np.random.SeedSequence(config.seed).spawn(config.n_starts)):
        rows[s, np.random.default_rng(seq).permutation(k)] = labels
    return rows


def _lockstep(frame: _Frame, config: ClusteringConfig, partitions: np.ndarray) -> tuple:
    """Every start run from its row of `partitions` to its stop: (the best
    start, every start's final row, their S x K x L cosines, per-start records
    and objective traces), with a ConvergenceWarning if the best did not converge."""
    n_clusters, distance = config.n_clusters, config.distance
    assignment = partitions.copy()
    seen = [{row.tobytes()} for row in assignment]
    traces: list[list[float]] = [[] for _ in assignment]
    stops, n_iter = ["cap"] * len(assignment), [config.max_iter] * len(assignment)
    active = np.arange(len(assignment))
    for it in range(1, config.max_iter + 1):
        current = assignment[active]
        cos = _refit(frame, current, config)
        proposal = _assign_from_cos(cos)
        used = np.zeros((active.size, n_clusters), dtype=bool)
        used[np.arange(active.size)[:, None], proposal] = True
        for i in np.flatnonzero(~used.all(axis=1)):
            proposal[i] = _repair_empty(proposal[i], cos[i], n_clusters, distance)
        before, after = (_within(cos, a, distance).tolist() for a in (current, proposal))
        same = np.all(proposal == current, axis=1)
        for i, s in enumerate(active):
            traces[s] += [before[i], after[i]]
            key = proposal[i].tobytes()
            if same[i] or key in seen[s]:  # a cycle: adaptive ranks can oscillate
                stops[s], n_iter[s] = "converged" if same[i] else "cycle", it
            seen[s].add(key)
        assignment[active] = proposal
        active = np.array([s for s in active if stops[s] == "cap"], dtype=int)
        if not active.size:
            break
    # every start's final fits: a start that converged finds its last round's in the memo
    cos = _refit(frame, assignment, config)
    within = _within(cos, assignment, distance).tolist()
    best = int(np.argmin(within))
    if stops[best] != "converged":
        warn("k-means stopped on an assignment cycle or the iteration cap", ConvergenceWarning)
    starts = [{"within_inertia": w, "n_iter": n, "stop": stop}
              for w, n, stop in zip(within, n_iter, stops)]
    return best, assignment, cos, starts, traces


def _explained(frame: _Frame, distance: str, criterion: RankCriterion, within: float) -> float:
    """(total - within) / total, total measured from the global rank-H average."""
    cos = frame.fit_cosines(frame.everyone[None], distance, criterion)[0]
    total = float(np.sum(_sq_dist_from_cos(cos, distance)))
    if total <= 1e-300:
        raise ValidationError("total inertia is zero: all resultants are identical")
    return (total - within) / total


def inertia_ratio(model: ClusterModel, resultants: list[Resultant]) -> float:
    """Share of inertia explained: (total - within) / total.

    Total inertia is measured from the global rank-H average computed with
    the model's own distance and rank criterion.
    """
    return _explained(_Frame(resultants), model.distance, model.config.criterion,
                      model.within_inertia)


def geodesic_inertia_profile(resultants: list[Resultant], h_max: int) -> np.ndarray:
    """Geodesic inertia D_H = sum_k arccos([R_k | avg_H])^2 for H = 1..h_max,
    where avg_H is the uniform geodesic rank-H average of the resultants."""
    if h_max < 1:
        raise ValidationError("h_max must be at least 1")
    return np.array(_geodesic_profile(_Frame(resultants), h_max))


def _geodesic_profile(frame: _Frame, h_max: int) -> list[float]:
    """The inertia profile on a frame, read from each rank's fit: one spectrum
    for every rank's chord start, and a rank the frame has fitted is a memo hit."""
    return [float(np.sum(_sq_dist_from_cos(frame.fit(h, "geodesic")[3], "geodesic")))
            for h in range(1, h_max + 1)]


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
    """Per-variable membership table of the resultants the model clustered:
    cluster, cosine with the centroid (as within_inertia read it), and both distances to it."""
    if labels is None:
        labels = [r.label or f"var{k}" for k, r in enumerate(resultants)]
    if not len(labels) == len(resultants) == len(model.assignments):
        raise ValidationError("need one label per resultant the model clustered")
    cos = model.cosines[np.arange(len(labels)), model.assignments]
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
        warn(f"only {n_pos} positive eigenvalues: extra coordinates are zero-padded")
    take = min(dims, n)
    coords = np.zeros((n, dims))
    coords[:, :take] = vecs[:, :take] * np.sqrt(np.clip(vals[:take], 0.0, None))[None, :]
    # deterministic orientation: largest-magnitude entry of each axis positive
    return _fix_column_signs(coords)
