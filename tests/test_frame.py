"""K-means on the Gram of the stacked factors, with memoised fits,
against the refit-everything loop on the n-row resultants."""

import tracemalloc
import warnings

import numpy as np
import pytest

from varsphere import (
    ClusteringConfig,
    ConvergenceWarning,
    RankCriterion,
    Resultant,
    SimConfig,
    Weights,
    averaging,
    choose_rank,
    clustering,
    encode_numeric,
    geodesic_inertia_profile,
    kmeans,
    rank_h_average_geodesic,
    rand_discrepancy,
    resultant,
    run_benchmark,
    sample_resultants,
    simulate_sample,
)

from varsphere.encoding import cosines
from varsphere.geometry import EIGEN_DROP_TOL, RANK_TOL

from _support import (
    count_spectrum_eigensolves, dense, n_row_objective, n_row_residual,
    random_normed_resultant, random_weights, refit_average, refit_kmeans,
)

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
    for trial, criterion in enumerate(CRITERIA[distance]):
        rng = np.random.default_rng([n, uniform, trial])
        rs = _resultants(rng, n, k, uniform)
        assert (sum(r.factor.shape[1] for r in rs) > n) == (size == "n_below_sum_q")
        config = ClusteringConfig(n_clusters=3, distance=distance, n_starts=3, seed=trial,
                                  criterion=criterion)
        _assert_matches_refit(rs, config)


def _assert_matches_refit(rs, config):
    """kmeans() against the sequential refit-everything loop: the same path
    for every start, the same best start, and its fields within TOL."""
    inertia_tol, centroid_tol = TOL[config.distance]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = kmeans(rs, config)
        want = refit_kmeans(rs, config)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.ranks == want.ranks
    assert (got.converged, got.best_start, got.n_iter) == \
        (want.converged, want.best_start, want.n_iter)
    assert [(s["n_iter"], s["stop"]) for s in got.starts] == \
        [(s["n_iter"], s["stop"]) for s in want.starts]
    if config.distance == "chord":  # a losing geodesic start may end on capped ascents
        assert np.allclose([s["within_inertia"] for s in got.starts],
                           [s["within_inertia"] for s in want.starts], rtol=0.0, atol=inertia_tol)
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
    return got


def _bundled(seed, n=12, k=6):
    """k rank-2 resultants around two directions, alternating: with L = k - 1
    clusters an assignment round often leaves a cluster empty."""
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n)
    bases = [rng.standard_normal((n, 2)) for _ in range(2)]
    return [_unit(bases[i % 2] + 0.3 * rng.standard_normal((n, 2)), w) for i in range(k)]


def _diagonal(seed, k=7, d=4):
    """k resultants diagonal in one basis of d uniformly weighted observations.
    They commute, so a cluster's rank under a trace ratio jumps as members
    come and go, and assignments can cycle."""
    rng = np.random.default_rng(seed)
    spectra = rng.random((k, d)) ** 3 * (rng.random((k, d)) < 0.8)
    w = Weights.uniform(d)
    return [_unit(np.diag(np.sqrt(lam))[:, lam > 0], w)
            for lam in spectra[np.any(spectra > 0, axis=1)]]


def _unit(x, w):
    """The unit-norm resultant with factor proportional to x."""
    return Resultant(x / np.sqrt(np.linalg.norm(x.T @ (w.w[:, None] * x))), w)


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_a_cycling_start_stops_while_the_others_go_on(distance):
    got = _assert_matches_refit(_diagonal(100), ClusteringConfig(
        n_clusters=3, distance=distance, n_starts=10, seed=0,
        criterion=RankCriterion.trace_ratio(0.5)))
    cycled = [s["n_iter"] for s in got.starts if s["stop"] == "cycle"]
    assert cycled and max(s["n_iter"] for s in got.starts) > min(cycled)


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_one_round_sends_every_start_to_the_final_refit(distance):
    rs = sample_resultants(simulate_sample(SimConfig(30, beta=np.pi / 3, sigma2=0.1, seed=0),
                                           np.random.default_rng(0)))
    got = _assert_matches_refit(rs, ClusteringConfig(n_clusters=3, distance=distance,
                                                     n_starts=4, seed=2, max_iter=1))
    assert [(s["n_iter"], s["stop"]) for s in got.starts] == [(1, "cap")] * 4


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_a_single_start_matches_the_sequential_loop(distance):
    rs = _resultants(np.random.default_rng(12), 40, 9, uniform=True)
    got = _assert_matches_refit(rs, ClusteringConfig(n_clusters=3, distance=distance,
                                                     n_starts=1, seed=5))
    assert len(got.starts) == 1 and got.best_start == 0


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_empty_cluster_repairs_match_the_sequential_loop(distance, monkeypatch):
    # the lockstep loop repairs only rows with an empty cluster, so every call
    # through the module attribute is a repair that fires (the oracle holds
    # its own reference to _repair_empty and is not counted)
    repairs = []
    repair = clustering._repair_empty
    monkeypatch.setattr(clustering, "_repair_empty",
                        lambda *a: repairs.append(1) or repair(*a))
    rs = _bundled(0)
    _assert_matches_refit(rs, ClusteringConfig(n_clusters=len(rs) - 1, distance=distance,
                                               n_starts=3, seed=0))
    assert repairs


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


def _write_csv(sample, path):
    """The sample's variables as a CSV the `average` command reads."""
    lines = [",".join(sample.names)] + [
        ",".join([*(repr(float(v)) for v in num), *(f"q{c}" for c in cat)])
        for num, cat in zip(sample.numeric, sample.categorical)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_no_ascent_round_runs_on_n_rows(tmp_path, monkeypatch):
    # every geodesic fit, a K-means centroid or a public average, ascends on
    # its members in their spectrum's basis: at most as many rows as columns
    from varsphere.cli import main

    sample = simulate_sample(SimConfig(2000, beta=np.pi / 3, sigma2=0.1),
                             np.random.default_rng(4))
    rs = sample_resultants(sample)
    path = _write_csv(sample, tmp_path / "sample.csv")
    shapes = []
    step = averaging._step
    monkeypatch.setattr(averaging, "_step", lambda z, *a: shapes.append(z.shape) or step(z, *a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rank_h_average_geodesic(rs, 2)
        geodesic_inertia_profile(rs, 2)
        code = main(["average", "--data", path, "--out-dir", str(tmp_path / "avg"),
                     "--distance", "geodesic", "--criterion", "fixed", "--H", "2"])
        public = len(shapes)
        kmeans(rs, ClusteringConfig(n_clusters=3, distance="geodesic", n_starts=2, seed=0))
    assert code in (0, 4)
    assert 0 < public < len(shapes) and all(rows <= cols for rows, cols in shapes)


def test_no_fit_takes_a_qr(tmp_path, monkeypatch):
    # one QR per categorical variable encoded, its W-orthonormal basis, and
    # none in any fit: the frame fits every centroid from its Gram, in K-means
    # in both distances, the public averages and the `average` command
    from varsphere.cli import main

    sample = simulate_sample(SimConfig(40, beta=np.pi / 3, sigma2=0.1), np.random.default_rng(6))
    path = _write_csv(sample, tmp_path / "sample.csv")
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(1) or qr(*args, **kwargs))
    rs = sample_resultants(sample)
    assert len(calls) == sample.categorical.shape[1] == 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for distance in ("chord", "geodesic"):
            kmeans(rs, ClusteringConfig(n_clusters=3, distance=distance, n_starts=2, seed=0))
        averaging.rank_h_average_euclidean(rs, 2)
        rank_h_average_geodesic(rs, 2)
        assert len(calls) == 4
        code = main(["average", "--data", path, "--out-dir", str(tmp_path / "avg"),
                     "--distance", "geodesic"])
    assert code in (0, 4)
    assert len(calls) == 8


@pytest.mark.parametrize("criterion", [RankCriterion.fixed(2), RankCriterion.trace_ratio(0.9)],
                         ids=["fixed_2", "theta_0.9"])
def test_geodesic_averages_of_near_copies_match_the_n_row_fit(criterion):
    # numeric pairs x, x + eps y under random weights: the mean's spectrum
    # spans eigenvalues down to ~eps^2 of the largest, where the Gram block's
    # basis is orthonormal only to rounding.  The frame's fit on at most q_S
    # rows must reach the objective, rank and stop of the fit on the n rows
    # from an SVD of the mean, with no frame: the ascent below the numerical
    # rank, and at it (theta 0.9 at eps <= 1e-6) the dense member-weight map
    for seed in range(5):
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            rng = np.random.default_rng([seed, round(-np.log10(eps))])
            w = random_weights(rng, 30)
            x, y = rng.standard_normal((2, 3, 30))
            rs = [resultant(encode_numeric(v, w), w) for pair in zip(x, x + eps * y) for v in pair]
            got = rank_h_average_geodesic(rs, criterion)
            want = refit_average(rs, criterion, "geodesic")
            assert (got.rank, got.converged) == (want.rank, want.converged), (seed, eps)
            assert n_row_objective(got, rs) == pytest.approx(
                n_row_objective(want, rs), rel=0.0, abs=1e-12), (seed, eps)


def test_more_starts_add_no_n_row_memory():
    # the memo holds only q_S-row spectra and coefficients, q_S <= sum q, so a
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
    # every spectrum is one eigensolve of a Gram block; a geodesic fit starts
    # from it rather than averaging its members again, and memo hits take none.
    # A request is one membership row passed to _Frame.centroids: one per
    # (start, cluster, round), per final refit and for the global fit
    rng = np.random.default_rng(7)
    rs = _resultants(rng, 40, 9, uniform=False)
    requests = []
    centroids = averaging._Frame.centroids
    monkeypatch.setattr(averaging._Frame, "centroids", lambda self, chosen, *a: (
        requests.extend(row.tobytes() for row in chosen) or centroids(self, chosen, *a)))
    eigensolves = count_spectrum_eigensolves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kmeans(rs, ClusteringConfig(n_clusters=3, distance=distance, n_starts=10, seed=1))
    assert len(eigensolves) == len(set(requests)) < len(requests)


def test_a_request_takes_one_stacked_eigh_per_block_size(monkeypatch):
    # the new chord sets of one request are grouped by block size q_S: blocks
    # of two sizes take two eigh calls, one matrix per distinct set, and give
    # the fits that the sets requested one at a time get
    rng = np.random.default_rng(11)
    w = random_weights(rng, 40, uniform=False)
    rs = [random_normed_resultant(rng, w, rank=q) for q in (1, 1, 2, 2, 1, 2)]
    chosen = np.zeros((6, len(rs)), dtype=bool)
    for row, members in zip(chosen, [(0, 1), (2, 3), (0, 4), (2, 5), (1, 4), (0, 1)]):
        row[list(members)] = True
    criterion = RankCriterion.trace_ratio(0.5)
    calls = []
    eigensolves = count_spectrum_eigensolves(monkeypatch, calls)
    fits = averaging._Frame(rs).centroids(chosen, "chord", criterion)
    assert calls == [(3, 2, 2), (2, 4, 4)] and len(eigensolves) == 5
    frame = averaging._Frame(rs)
    for row, fit in zip(chosen, fits):
        alone = frame.centroids(row[None], "chord", criterion)[0]
        assert np.array_equal(fit[1], alone[1])
        assert np.allclose(fit[3], alone[3], rtol=0.0, atol=1e-14)
        assert np.allclose(frame.lift(fit).U, frame.lift(alone).U, rtol=0.0, atol=1e-14)
    assert len(calls) == 2 + 5


def test_full_rank_chord_kmeans_fits_only_the_returned_centroids(monkeypatch):
    # at trace ratio 1 every round and the global fit read their cosines from
    # the K x K cosine matrix; only the best start's L centroids take a
    # spectrum, to be lifted and to report their ranks
    rs = _resultants(np.random.default_rng(7), 40, 9, uniform=False)
    eigensolves = count_spectrum_eigensolves(monkeypatch)
    model = kmeans(rs, ClusteringConfig(n_clusters=3, n_starts=10, seed=1,
                                        criterion=RankCriterion.trace_ratio(1.0)))
    assert len(eigensolves) <= len(model.centroids) + 1


def test_a_full_rank_chord_replication_takes_no_spectrum(monkeypatch):
    # a replication scores only each theta's best partition: at trace ratio 1
    # every round reads the K x K cosine matrix and no centroid is lifted, in
    # chord and, through the member-weight map, in geodesic
    spectra = []
    spectrum = averaging._Frame.spectra
    monkeypatch.setattr(averaging._Frame, "spectra",
                        lambda self, *a: spectra.append(1) or spectrum(self, *a))
    for distance in ("chord", "geodesic"):
        rows = run_benchmark([SimConfig(n=30, beta=np.pi / 3, sigma2=0.1, seed=4, replications=1,
                                        theta_grid=(1.0,))], n_starts=10, distance=distance)
        assert [(r.replications, r.failures) for r in rows] == [(1, 0)] and not spectra


def test_inertia_profile_takes_one_svd(monkeypatch):
    # every rank's chord start comes from the one spectrum of the mean
    rs = _resultants(np.random.default_rng(8), 40, 9, uniform=False)
    eigensolves = count_spectrum_eigensolves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = geodesic_inertia_profile(rs, 3)
    assert profile.shape == (3,) and len(eigensolves) == 1


def _simulated(n, seed):
    sample = simulate_sample(SimConfig(n, beta=np.pi / 3, sigma2=0.1), np.random.default_rng(seed))
    return sample_resultants(sample)


@pytest.mark.parametrize("n", [40, 400])
def test_converged_kmeans_centroids_meet_the_n_row_residual(n):
    # a K-means fit stops by the public average's rule: a centroid flagged
    # converged sits within 1e-6 of its own fixed-point step on the n rows
    rs = _simulated(n, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        model = kmeans(rs, ClusteringConfig(n_clusters=3, distance="geodesic", n_starts=2,
                                            criterion=RankCriterion.fixed(1), seed=0))
    converged = [(l, c) for l, c in enumerate(model.centroids) if c.converged]
    assert converged
    for l, c in converged:
        members = [r for r, a in zip(rs, model.assignments) if a == l]
        assert n_row_residual(c, members) <= 1e-6


def test_kmeans_global_fit_is_the_public_average():
    # at n >> sum q one memoised fit serves both: the global geodesic fit
    # behind between_over_total, lifted, is rank_h_average_geodesic's average
    rs = _simulated(2000, 1)
    criterion = RankCriterion.trace_ratio(0.5)
    frame = averaging._Frame(rs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        clustering._kmeans(frame, ClusteringConfig(n_clusters=3, distance="geodesic",
                                                   n_starts=2, criterion=criterion, seed=1))
        fits = len(frame._memo)
        ours = frame.lift(frame.centroids(frame.everyone[None], "geodesic", criterion)[0])
        assert len(frame._memo) == fits  # kmeans had fitted it
        public = rank_h_average_geodesic(rs, criterion)
    assert np.allclose(ours.U, public.U, rtol=0.0, atol=1e-12)
    assert np.allclose(ours.lam, public.lam, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [30, 40])
def test_full_rank_chord_cosines_match_the_spectrum_path(n):
    # at trace ratio 1 a centroid's cosines come from the K x K cosine
    # matrix; the spectrum path truncates the same member combination (the
    # normalised mean in chord, the member-weight map's in geodesic) at its
    # numerical rank, which here drops only round-off.  At n = 30, sum q = 33
    # exceeds n, so the stacked blocks are rank-deficient.  A frame built with
    # omega weighs the whole set (the last row) by it in both paths
    rs = _simulated(n, 3)
    k = len(rs)
    assert (sum(r.factor.shape[1] for r in rs) > n) == (n == 30)
    chosen = np.random.default_rng(n).random((200, k)) < 0.4
    chosen = np.vstack([chosen[chosen.any(axis=1)], np.eye(k, dtype=bool), np.ones(k, bool)])
    full = RankCriterion.trace_ratio(1.0)
    for omega in (None, np.random.default_rng(n + 1).dirichlet(np.ones(k))):
        for distance in ("chord", "geodesic"):
            frame = averaging._Frame(rs, omega)
            got = frame.fit_cosines(chosen, distance, full)
            want = np.array([fit[3] for fit in frame.centroids(chosen, distance, full)])
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (distance, omega is None)


def test_a_weighted_frame_fits_a_proper_subset_as_the_uniform_frame_does():
    # omega weighs only the whole set: a proper subset's mean is uniform over
    # its members, so its rank-1 fit on a frame built with omega is the one
    # on the uniform frame, bit for bit, in both distances
    rs = _simulated(40, 3)
    k = len(rs)
    omega = np.random.default_rng(7).dirichlet(np.ones(k))
    chosen = np.random.default_rng(8).random((30, k)) < 0.4
    chosen = chosen[chosen.any(axis=1) & ~chosen.all(axis=1)]
    for distance in ("chord", "geodesic"):
        weighted, uniform = (averaging._Frame(rs, w).centroids(chosen, distance, 1)
                             for w in (omega, None))
        for ((cols, coef), lam, converged, cos), ((cols_u, coef_u), lam_u, converged_u, cos_u) in zip(
                weighted, uniform):
            assert converged == converged_u
            for ours, theirs in ((cols, cols_u), (coef, coef_u), (lam, lam_u), (cos, cos_u)):
                assert np.array_equal(ours, theirs), distance


def test_full_rank_cosines_differ_by_at_most_the_dropped_eigenvalues():
    # a member whose operator has an eigenvalue between EIGEN_DROP_TOL and
    # RANK_TOL of its largest: the spectrum keeps it, the full rank drops it
    # from the centroid, and the K x K cosines keep it.  Each cosine may then
    # move by the dropped eigenvalues' sum over lam_1, and one along the
    # dropped direction does
    n = 10
    w = Weights.uniform(n)
    rng = np.random.default_rng(5)
    e = np.linalg.qr(rng.standard_normal((n, n)))[0]
    tilt = 1e-11
    rs = [_unit(np.column_stack([e[:, 0], np.sqrt(tilt) * e[:, 1]]), w), _unit(e[:, 1:2], w),
          *(random_normed_resultant(rng, w, rank=2) for _ in range(3))]
    frame = averaging._Frame(rs)
    planted = np.eye(len(rs), dtype=bool)[:1]
    full = RankCriterion.trace_ratio(1.0)
    lam = frame.spectrum(planted[0])[1]
    assert lam.size == 2 and EIGEN_DROP_TOL < lam[1] / lam[0] < RANK_TOL
    assert choose_rank(lam, full) == 1
    fit = frame.centroids(planted, "chord", full)[0]
    gap = np.abs(frame.fit_cosines(planted, "chord", full)[0] - fit[3])
    bound = lam[1:].sum() / lam[0]
    assert gap.max() <= bound + 1e-15
    assert gap[1] > 0.99 * bound


def test_full_rank_chord_averages_of_ill_conditioned_members_lift_orthonormal():
    # the frame takes a spectrum from the Gram block, whose condition number is
    # the square of the columns': members with columns scaled by 10^U(-5.5, -4.2)
    # put eigenvalues near RANK_TOL of lam_1, where Z_S V lam^-1/2 drifts from
    # orthonormal by ~1e-6.  Every lifted basis must still pass RankHOperator's
    # 1e-8 check, with the rank and cosines of the SVD of the scaled columns
    n, full = 30, RankCriterion.trace_ratio(1.0)
    w = Weights.uniform(n)
    rng = np.random.default_rng(0)
    for _ in range(200):
        rs = [_unit(rng.standard_normal((n, 3)) * 10.0 ** np.r_[0.0, rng.uniform(-5.5, -4.2, 2)], w)
              for _ in range(4)]
        z = np.hstack([np.sqrt(w.w)[:, None] * r.factor for r in rs])
        u, s, _ = np.linalg.svd(z / 2.0, full_matrices=False)
        h = int(np.count_nonzero(s * s > RANK_TOL * s[0] ** 2))
        t = z.T @ u[:, :h]
        want = np.add.reduceat(t * t, [0, 3, 6, 9]) @ (s[:h] ** 2 / np.linalg.norm(s[:h] ** 2))
        avg = averaging.rank_h_average_euclidean(rs, full)
        assert avg.rank == h
        assert np.allclose(cosines(rs, [avg])[:, 0], want, rtol=0.0, atol=1e-12)
