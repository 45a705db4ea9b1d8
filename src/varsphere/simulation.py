"""Synthetic bundles of correlated variables and a clustering benchmark.

The generator builds three bundles around latent factors: a two-dimensional
bundle (variables spread at random angles inside the plane of two orthogonal
latents), and two one-dimensional bundles, one of which can be rotated
towards the plane by an angle beta to make the problem harder.  Four
categorical variables are carved from the latents by quintile cuts.  The
benchmark clusters each simulated sample and scores the recovered partition
against the ground truth.  Its replications are independent, so they run on
min(usable cores, replications) processes, forked from this one, with
results, warnings and errors that do not depend on that number.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .averaging import RankCriterion, _Frame
from .clustering import ClusteringConfig, _kmeans
from .encoding import Resultant, encode_categorical, encode_numeric, resultant
from .errors import ValidationError, VarsphereError, warn
from .geometry import Weights

N_NUMERIC = 17
N_CATEGORICAL = 4
# ground-truth bundles over x1..x21 (numeric x1..x17, categorical x18..x21)
TRUTH = np.array([0] * 7 + [1] * 5 + [2] * 5 + [0, 0, 1, 2])


@dataclass(frozen=True)
class SimConfig:
    """One cell of the simulation design."""

    n: int
    beta: float
    sigma2: float
    seed: int = 0
    replications: int = 100
    theta_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        if self.n < 5:
            raise ValidationError("need at least 5 observations for quintile cuts")
        if not 0.0 < self.beta <= np.pi / 2.0 + 1e-12:
            raise ValidationError("beta must lie in (0, pi/2]")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValidationError(f"sigma2 must be positive and finite (got {self.sigma2!r})")
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        for theta in self.theta_grid:
            if not 0.0 <= theta <= 1.0:
                raise ValidationError("theta values must lie in [0, 1]")


@dataclass(frozen=True)
class SimSample:
    """One simulated draw: 17 numeric and 4 categorical variables."""

    numeric: np.ndarray      # n x 17
    categorical: np.ndarray  # n x 4, quintile codes 1..5
    latents: np.ndarray      # n x 4 standardized factors
    names: tuple[str, ...]
    truth: np.ndarray        # bundle id (0, 1, 2) per variable


def simulate_latents(n: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Four standardized latent factors under uniform weights.

    The four draws are Gram-Schmidt orthogonalized and standardized, so
    xi1, xi2 span the first bundle's plane exactly and xi4 is exactly
    uncorrelated with everything else.  xi3, the axis of the second bundle,
    is then tilted toward the plane by adding cos(beta) * xi2 to its own
    orthogonal draw and re-standardizing: at beta = pi/2 it stays exactly
    uncorrelated with the plane, and the realized correlation with xi2,
    cos(beta) / sqrt(1 + cos^2(beta)), grows as beta shrinks.
    """
    weights = Weights.uniform(n)
    w = weights.w
    for _ in range(100):
        xi = rng.standard_normal((n, 4))
        xi -= (w[None, :] @ xi)  # centre
        ok = True
        for j in range(4):
            for i in range(j):
                xi[:, j] -= (xi[:, j] @ xi[:, i]) / (xi[:, i] @ xi[:, i]) * xi[:, i]
            if float(np.sum(w * xi[:, j] ** 2)) <= 1e-12:
                ok = False  # degenerate draw: retry with fresh noise
                break
        if not ok:
            continue
        var = np.sum(w[:, None] * xi * xi, axis=0)
        xi = xi / np.sqrt(var)[None, :]
        xi3 = xi[:, 2] + np.cos(beta) * xi[:, 1]
        xi3 -= np.sum(w * xi3)
        v3 = float(np.sum(w * xi3 * xi3))
        if v3 <= 1e-12:
            continue
        xi[:, 2] = xi3 / np.sqrt(v3)
        return xi
    raise ValidationError("latent simulation kept producing degenerate draws")


def _quintile_codes(x: np.ndarray) -> np.ndarray:
    """Empirical quintile levels 1..5: left-open, right-closed bins, with the
    lowest bin closed below so the minimum lands in level 1."""
    n = x.size
    srt = np.sort(x)
    cuts = [srt[int(np.ceil(n * j / 5.0)) - 1] for j in range(1, 5)]
    codes = np.ones(n, dtype=int)
    for c in cuts:
        codes += x > c
    return codes


def simulate_sample(config: SimConfig, rng: np.random.Generator) -> SimSample:
    """Draw one sample of 21 variables from the three-bundle design."""
    n = config.n
    xi = simulate_latents(n, config.beta, rng)
    sd = np.sqrt(config.sigma2)
    numeric = np.empty((n, N_NUMERIC))
    alphas = rng.uniform(0.0, 2.0 * np.pi, size=7)
    for j, a in enumerate(alphas):
        numeric[:, j] = np.cos(a) * xi[:, 0] + np.sin(a) * xi[:, 1] + sd * rng.standard_normal(n)
    for j in range(7, 12):
        numeric[:, j] = xi[:, 2] + sd * rng.standard_normal(n)
    for j in range(12, 17):
        numeric[:, j] = xi[:, 3] + sd * rng.standard_normal(n)
    categorical = np.column_stack([_quintile_codes(xi[:, c]) for c in range(4)])
    names = tuple(f"x{j}" for j in range(1, N_NUMERIC + N_CATEGORICAL + 1))
    return SimSample(
        numeric=numeric,
        categorical=categorical,
        latents=xi,
        names=names,
        truth=TRUTH.copy(),
    )


def sample_resultants(sample: SimSample, weights: Weights | None = None) -> list[Resultant]:
    """Encode the 21 simulated variables as unit-norm resultants."""
    if weights is None:
        weights = Weights.uniform(sample.numeric.shape[0])
    out = []
    for j in range(N_NUMERIC):
        s = encode_numeric(sample.numeric[:, j], weights, label=sample.names[j])
        out.append(resultant(s, weights))
    for c in range(N_CATEGORICAL):
        s = encode_categorical(
            sample.categorical[:, c].tolist(), weights, label=sample.names[N_NUMERIC + c]
        )
        out.append(resultant(s, weights))
    return out


def rand_discrepancy(labels_p, labels_q) -> float:
    """Pair-level Jaccard distance between two partitions.

    Counts unordered pairs co-clustered in exactly one partition over pairs
    co-clustered in at least one; 0 means the partitions co-cluster the same
    pairs (identical up to relabeling), 1 means no co-clustered pair is
    shared.
    """
    p = np.asarray(labels_p)
    q = np.asarray(labels_q)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValidationError("partitions must label the same items")
    iu = np.triu_indices(p.size, k=1)
    same_p = (p[:, None] == p[None, :])[iu]
    same_q = (q[:, None] == q[None, :])[iu]
    union = int(np.sum(same_p | same_q))
    if union == 0:
        return 0.0
    return float(np.sum(same_p ^ same_q)) / union


@dataclass(frozen=True)
class BenchmarkRow:
    """Aggregated recovery score for one (n, beta, sigma2, theta) cell."""

    n: int
    beta: float
    sigma2: float
    theta: float
    mean_rand: float
    sd_rand: float
    replications: int
    failures: int


def _replicate(config: SimConfig, rep: int, n_starts: int, distance: str):
    """One replication's scores at each theta of its cell, or the text of
    the VarsphereError that failed it."""
    seq = np.random.SeedSequence((config.seed, rep))
    rng = np.random.default_rng(seq)
    kmeans_seed = int(seq.generate_state(1)[0])
    try:
        sample = simulate_sample(config, rng)
        frame = _Frame(sample_resultants(sample))
        scores = []
        for theta in config.theta_grid:
            model = _kmeans(
                frame,
                ClusteringConfig(
                    n_clusters=int(TRUTH.max()) + 1,
                    distance=distance,
                    criterion=RankCriterion.trace_ratio(theta),
                    n_starts=n_starts,
                    seed=kmeans_seed,
                ),
            )
            scores.append(rand_discrepancy(sample.truth, model.assignments))
        return scores
    except VarsphereError as exc:
        return str(exc)


def _fork_worker(tasks: list, n_starts: int, distance: str):
    """(pid, pipe) of a forked process that runs the tasks and pickles back
    each one's outcome and warnings; a defect comes back as its exception."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        try:  # never return into the caller, nor flush its buffers
            with os.fdopen(write, "wb") as out:
                for config, rep in tasks:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            outcome = _replicate(config, rep, n_starts, distance)
                        except Exception as exc:  # a defect: the caller raises it
                            outcome = exc
                    pickle.dump((outcome, [(str(w.message), w.category) for w in caught]), out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _outcomes(grid: list[SimConfig], n_starts: int, distance: str) -> list:
    """Every replication's outcome, in grid order, from w = min(usable
    cores, replications) processes: this one runs every w-th replication,
    forked workers the others.  A worker's warnings are issued again here,
    in replication order, and its defect is raised here, as is the death of
    a worker before it reports."""
    tasks = [(config, rep) for config in grid for rep in range(config.replications)]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_proc = min(cores, len(tasks))
    outcomes, workers, statuses, lost = [], [], {}, None
    try:
        with warnings.catch_warnings():  # Python >= 3.12 warns of forking
            # beside threads; OpenBLAS, the only one that runs them, stops them
            warnings.simplefilter("ignore", DeprecationWarning)
            for i in range(1, n_proc):
                workers.append(_fork_worker(tasks[i::n_proc], n_starts, distance))
        for k, (config, rep) in enumerate(tasks):
            if k % n_proc == 0:
                outcome = _replicate(config, rep, n_starts, distance)
            else:
                pid, reader = workers[k % n_proc - 1]
                try:
                    outcome, caught = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    lost = pid, config, rep  # raised once every worker is reaped
                    break
                for message, category in caught:
                    warn(message, category)
                if isinstance(outcome, Exception):
                    raise outcome
            if isinstance(outcome, str):  # a bad draw must not sink the grid
                warn(f"replication {rep} failed and was excluded: {outcome}")
            outcomes.append(outcome)
    finally:
        import signal  # only the workers need it: not imported with the package
        for pid, reader in workers:
            reader.close()
            os.kill(pid, signal.SIGKILL)  # every record is read, or the run failed
            statuses[pid] = os.waitpid(pid, 0)[1]
    if lost is not None:
        pid, config, rep = lost
        raise RuntimeError(
            f"the worker running replication {rep} of the cell n={config.n}, "
            f"beta={config.beta:g}, sigma2={config.sigma2:g} exited before reporting it "
            f"(pid {pid}, wait status {statuses[pid]})"
        )
    return outcomes


def run_benchmark(
    grid: list[SimConfig],
    n_starts: int = 10,
    distance: str = "chord",
) -> list[BenchmarkRow]:
    """Simulate, cluster, and score every cell of the design grid.

    Each replication draws one sample, encodes it once, and clusters it into
    the design's three bundles at every theta of the cell's grid (the rank criterion is trace_ratio(theta))
    so scores across theta are paired; the theta runs share one column-space
    frame, so a member set's spectrum is computed once per replication, two
    thetas below 1 that choose the same rank share its centroid, and theta = 1
    reads its cosines from the frame's K x K cosine matrix, with no spectrum
    but for the best start's L centroids.  Replication
    seeds derive from the cell seed by counter, so results do not depend on
    grid order.  A replication that raises a VarsphereError is counted as
    failed, reported with a warning naming the reason, and excluded from the
    cell statistics; any other exception is a defect and propagates.

    The replications run on w = min(usable cores, replications) processes,
    and every warning reaches the caller once, in replication order, so the
    rows, warnings and errors do not depend on w.
    """
    outcomes = iter(_outcomes(grid, n_starts, distance))
    rows: list[BenchmarkRow] = []
    for config in grid:
        scores: dict[float, list[float]] = {t: [] for t in config.theta_grid}
        failures = 0
        for _ in range(config.replications):
            outcome = next(outcomes)
            if isinstance(outcome, str):
                failures += 1
                continue
            for theta, score in zip(config.theta_grid, outcome):
                scores[theta].append(score)
        for theta in config.theta_grid:
            vals = np.asarray(scores[theta])
            mean = float(np.mean(vals)) if vals.size else float("nan")
            sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            rows.append(
                BenchmarkRow(
                    n=config.n,
                    beta=config.beta,
                    sigma2=config.sigma2,
                    theta=float(theta),
                    mean_rand=mean,
                    sd_rand=sd,
                    replications=int(vals.size),
                    failures=failures,
                )
            )
    return rows
