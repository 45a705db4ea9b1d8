"""K-means in the column space of the stacked factors, with memoised fits,
against the refit-everything loop on the n-row resultants."""

import tracemalloc
import warnings

import numpy as np
import pytest

from varsphere import (
    ClusteringConfig,
    RankCriterion,
    SimConfig,
    averaging,
    geodesic_inertia_profile,
    kmeans,
    rand_discrepancy,
    run_benchmark,
    sample_resultants,
    simulate_sample,
)

from _support import dense, random_normed_resultant, random_weights, refit_kmeans

# (observations, resultants): 9 resultants of rank 1-3 have sum q of 9 to 27
SIZES = {"n_below_sum_q": (6, 9), "n_above_sum_q": (40, 9)}
# Real-valued agreement with the refit loop.  Chord fits are closed-form, so
# only rounding separates the two.  A geodesic ascent stops once g moves by
# under 1e-10 with a fixed-point residual of at most 1e-6, or at its round
# cap, and rounding moves the round it stops at: over 24 random instances
# like these, its dense centroids drifted up to 4e-7 when converged and 6e-5
# when capped, and inertias up to 4e-6.
TOL = {"chord": (1e-12, 1e-10), "geodesic": (1e-5, 1e-6)}
# the chord list includes the benchmark's theta grid (0 and 1) and Cattell's rule
CRITERIA = {"chord": [RankCriterion.trace_ratio(0.6)] * 3 + [
                RankCriterion.trace_ratio(0.0), RankCriterion.trace_ratio(1.0),
                RankCriterion.cattell()],
            "geodesic": [RankCriterion.trace_ratio(0.6), RankCriterion.fixed(1)]}


def _resultants(rng, n, k, uniform):
    w = random_weights(rng, n, uniform=uniform)
    return [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4))) for _ in range(k)]


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform_w", "random_w"])
@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_kmeans_matches_the_refit_everything_loop(distance, uniform, size):
    n, k = SIZES[size]
    inertia_tol, centroid_tol = TOL[distance]
    for trial, criterion in enumerate(CRITERIA[distance]):
        rng = np.random.default_rng([n, uniform, trial])
        rs = _resultants(rng, n, k, uniform)
        assert (sum(r.factor.shape[1] for r in rs) > n) == (size == "n_below_sum_q")
        config = ClusteringConfig(n_clusters=3, distance=distance, n_starts=3, seed=trial,
                                  criterion=criterion)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = kmeans(rs, config)
            want = refit_kmeans(rs, config)
        assert np.array_equal(got.assignments, want.assignments)
        assert got.ranks == want.ranks
        assert (got.converged, got.best_start, got.n_iter) == \
            (want.converged, want.best_start, want.n_iter)
        assert np.allclose(got.objective_trace, want.objective_trace,
                           rtol=0.0, atol=inertia_tol)
        assert got.within_inertia == pytest.approx(want.within_inertia,
                                                   rel=0.0, abs=inertia_tol)
        assert got.between_over_total == pytest.approx(want.between_over_total,
                                                       rel=0.0, abs=inertia_tol)
        for c, oracle in zip(got.centroids, want.centroids):
            assert c.weights is rs[0].weights and c.converged == oracle.converged
            if c.converged:
                assert np.allclose(dense(c), dense(oracle), rtol=0.0, atol=centroid_tol)


def test_benchmark_rows_equal_independent_kmeans_per_theta():
    config = SimConfig(n=30, beta=np.pi / 3, sigma2=0.1, seed=4, replications=3,
                       theta_grid=(0.0, 0.5, 1.0))
    rows = run_benchmark([config], n_starts=3)
    scores = {t: [] for t in config.theta_grid}
    for rep in range(config.replications):
        seq = np.random.SeedSequence((config.seed, rep))
        sample = simulate_sample(config, np.random.default_rng(seq))
        rs = sample_resultants(sample)
        for theta in config.theta_grid:
            model = kmeans(rs, ClusteringConfig(
                n_clusters=3, criterion=RankCriterion.trace_ratio(theta), n_starts=3,
                seed=int(seq.generate_state(1)[0])))
            scores[theta].append(rand_discrepancy(sample.truth, model.assignments))
    assert [(r.theta, r.mean_rand, r.sd_rand, r.replications, r.failures) for r in rows] == [
        (t, float(np.mean(v)), float(np.std(v, ddof=1)), 3, 0) for t, v in scores.items()
    ]


def test_more_starts_add_no_n_row_memory():
    # the memo holds only r-row spectra and centroids, r = min(n, sum q), so a
    # start's extra member sets cost kilobytes; one n-row entry per distinct
    # fit would add megabytes
    sample = simulate_sample(SimConfig(20_000, beta=np.pi / 3, sigma2=0.1, seed=0),
                             np.random.default_rng(0))
    rs = sample_resultants(sample)

    def peak(starts):
        config = ClusteringConfig(n_clusters=3, n_starts=starts, seed=0)
        tracemalloc.start()
        try:
            kmeans(rs, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, ten = peak(1), peak(10)
    assert ten - one < 1_000_000, f"1 start {one / 1e6:.1f} MB, 10 starts {ten / 1e6:.1f} MB"


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_kmeans_takes_one_svd_per_distinct_member_set(distance, monkeypatch):
    # every spectrum is one SVD of a column slice; a geodesic fit starts from
    # it rather than averaging its members again, and memo hits take none
    rng = np.random.default_rng(7)
    rs = _resultants(rng, 40, 9, uniform=False)
    requests, svds = [], []
    centroid, svd = averaging._Frame.centroid, np.linalg.svd
    monkeypatch.setattr(averaging._Frame, "centroid", lambda self, members, *a: (
        requests.append(members.tobytes()) or centroid(self, members, *a)))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a[0].shape) or svd(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kmeans(rs, ClusteringConfig(n_clusters=3, distance=distance, n_starts=10, seed=1))
    assert len(svds) == len(set(requests)) < len(requests)


def test_inertia_profile_takes_one_svd(monkeypatch):
    # every rank's chord start comes from the one spectrum of the mean
    rs = _resultants(np.random.default_rng(8), 40, 9, uniform=False)
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = geodesic_inertia_profile(rs, 3)
    assert profile.shape == (3,) and len(svds) == 1
