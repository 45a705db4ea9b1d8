"""K-means on the operator sphere, inertia diagnostics, and classical MDS."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from varsphere import (
    ClusteringConfig,
    RankCriterion,
    ValidationError,
    Weights,
    assign,
    centroid_separation,
    chord_dist,
    classical_mds,
    clustering,
    cluster_summary,
    encode_numeric,
    geodesic_inertia_profile,
    inertia_ratio,
    kmeans,
    rank_h_average_euclidean,
    resultant,
)

from _support import dense, random_normed_resultant, random_rank_h, random_weights


def bundle_resultants(rng, n, spreads):
    """Tight bundles of rank-one resultants around separated directions.

    spreads is a list of (size, jitter) pairs, one per bundle."""
    w = Weights.uniform(n)
    rs, truth = [], []
    for b, (size, jitter) in enumerate(spreads):
        direction = rng.standard_normal(n)
        for _ in range(size):
            x = direction + jitter * rng.standard_normal(n)
            rs.append(resultant(encode_numeric(x, w), w))
            truth.append(b)
    return w, rs, np.array(truth)


def test_single_cluster_collects_everything():
    rng = np.random.default_rng(3)
    w = random_weights(rng, 6)
    rs = [random_normed_resultant(rng, w) for _ in range(5)]
    model = kmeans(rs, ClusteringConfig(n_clusters=1, seed=0, n_starts=2))
    assert np.all(model.assignments == 0)
    assert model.between_over_total == pytest.approx(0.0, abs=1e-9)
    assert len(model.centroids) == 1
    assert model.converged


def test_one_cluster_per_resultant_is_perfect_at_full_rank():
    rng = np.random.default_rng(5)
    w = random_weights(rng, 7)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(4)]
    config = ClusteringConfig(
        n_clusters=4,
        criterion=RankCriterion.trace_ratio(1.0),
        seed=1,
        n_starts=20,
    )
    model = kmeans(rs, config)
    assert len(set(model.assignments.tolist())) == 4
    assert model.within_inertia == pytest.approx(0.0, abs=1e-10)
    assert model.between_over_total == pytest.approx(1.0, abs=1e-9)


def test_recovers_well_separated_bundles():
    rng = np.random.default_rng(7)
    w, rs, truth = bundle_resultants(rng, 40, [(6, 0.05), (6, 0.05), (6, 0.05)])
    for distance in ("chord", "geodesic"):
        model = kmeans(
            rs,
            ClusteringConfig(n_clusters=3, distance=distance, seed=0, n_starts=5),
        )
        # same partition as the truth, up to label names
        found = {tuple(sorted(np.nonzero(model.assignments == l)[0])) for l in range(3)}
        expected = {tuple(sorted(np.nonzero(truth == b)[0])) for b in range(3)}
        assert found == expected
        assert model.between_over_total > 0.9


def test_kmeans_is_deterministic_given_a_seed():
    rng = np.random.default_rng(11)
    w = random_weights(rng, 10)
    rs = [random_normed_resultant(rng, w) for _ in range(9)]
    config = ClusteringConfig(n_clusters=3, seed=42, n_starts=4)
    m1 = kmeans(rs, config)
    m2 = kmeans(rs, config)
    assert np.array_equal(m1.assignments, m2.assignments)
    assert m1.within_inertia == m2.within_inertia
    assert m1.best_start == m2.best_start
    for c1, c2 in zip(m1.centroids, m2.centroids):
        assert np.allclose(dense(c1), dense(c2))


def test_more_starts_never_hurt_the_objective():
    rng = np.random.default_rng(13)
    w = random_weights(rng, 8)
    rs = [random_normed_resultant(rng, w) for _ in range(10)]
    few = kmeans(rs, ClusteringConfig(n_clusters=3, seed=7, n_starts=1))
    many = kmeans(rs, ClusteringConfig(n_clusters=3, seed=7, n_starts=8))
    assert many.within_inertia <= few.within_inertia + 1e-12


def test_assignment_rule_matches_the_distances():
    rng = np.random.default_rng(17)
    w = random_weights(rng, 7)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(6)]
    centroids = [
        rank_h_average_euclidean(rs[:3], 1),
        rank_h_average_euclidean(rs[3:], 2),
    ]
    for r in rs:
        chord_pick = assign(r, centroids, "chord")
        geo_pick = assign(r, centroids, "geodesic")
        dists = [chord_dist(r, c.to_resultant()) for c in centroids]
        assert chord_pick == int(np.argmin(dists))
        assert geo_pick == chord_pick  # both distances decrease in the cosine
    with pytest.raises(ValidationError):
        assign(rs[0], centroids, "euclid")
    with pytest.raises(ValidationError):
        assign(rs[0], [], "chord")


@pytest.mark.parametrize("distance", ["chord", "geodesic"])
def test_a_cosine_within_1e_12_of_the_largest_goes_to_the_lower_index(distance, monkeypatch):
    # one rule for both distances: the nearest centroid is the first whose
    # cosine is within 1e-12 of the largest, so rounding cannot turn a tie
    rng = np.random.default_rng(3)
    w = random_weights(rng, 5)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(3)]
    centroids = [random_rank_h(rng, w, 1) for _ in range(2)]
    monkeypatch.setattr(clustering, "cosines", lambda *a: np.array([[0.5, 0.5 + 1e-15]]))
    assert assign(rs[0], centroids, distance) == 0
    monkeypatch.setattr(clustering, "cosines", lambda *a: np.array([[0.5, 0.5 + 2e-12]]))
    assert assign(rs[0], centroids, distance) == 1


def test_inertia_ratio_bounds_and_huygens_consistency():
    rng = np.random.default_rng(19)
    w = random_weights(rng, 8)
    rs = [random_normed_resultant(rng, w) for _ in range(8)]
    model = kmeans(rs, ClusteringConfig(n_clusters=3, seed=3, n_starts=4))
    ratio = inertia_ratio(model, rs)
    assert 0.0 <= ratio <= 1.0 + 1e-12
    assert ratio == pytest.approx(model.between_over_total, abs=1e-9)


def test_cluster_summary_and_centroid_separation():
    rng = np.random.default_rng(23)
    w = random_weights(rng, 8)
    rs = [random_normed_resultant(rng, w) for _ in range(7)]
    model = kmeans(rs, ClusteringConfig(n_clusters=2, seed=5, n_starts=3))
    rows = cluster_summary(model, rs)
    assert len(rows) == 7
    for k, row in enumerate(rows):
        l = model.assignments[k]
        expected_cos = model.centroids[l].dot(rs[k])
        assert row["cluster"] == int(l)
        assert row["cos"] == pytest.approx(expected_cos, abs=1e-10)
        assert row["chord_dist"] == pytest.approx(
            np.sqrt(max(2.0 * (1.0 - expected_cos), 0.0)), abs=1e-9
        )
        assert row["geodesic_dist"] == pytest.approx(
            np.arccos(min(max(expected_cos, -1.0), 1.0)), abs=1e-9
        )
    sep = centroid_separation(model)
    assert sep.shape == (2, 2)
    assert np.allclose(np.diag(sep), 1.0, atol=1e-9)
    assert sep[0, 1] == pytest.approx(sep[1, 0])


def test_centroid_separation_matches_the_dense_oracle():
    rng = np.random.default_rng(41)
    for trial in range(20):
        w = random_weights(rng, int(rng.integers(5, 10)))
        cs = [random_rank_h(rng, w, int(rng.integers(1, 4))) for _ in range(1 + trial % 4)]
        sep = centroid_separation(SimpleNamespace(centroids=cs))
        oracle = np.array([[np.sum(dense(a) * dense(b).T) for b in cs] for a in cs])
        assert np.allclose(sep, oracle, rtol=0.0, atol=1e-12)
        assert np.array_equal(sep, sep.T)
        assert np.all(np.diag(sep) == 1.0)


def test_geodesic_inertia_profile_decreases_with_rank():
    rng = np.random.default_rng(29)
    w = random_weights(rng, 9)
    rs = [random_normed_resultant(rng, w, rank=3) for _ in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = geodesic_inertia_profile(rs, 3)
    assert profile.shape == (3,)
    assert np.all(np.diff(profile) <= 1e-9)
    assert np.all(profile >= -1e-12)


def test_classical_mds_recovers_euclidean_configurations():
    rng = np.random.default_rng(31)
    for _ in range(10):
        pts = rng.standard_normal((5, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        coords = classical_mds(d, 2)
        d2 = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        assert np.allclose(d2, d, atol=1e-8)


def test_classical_mds_two_points_and_padding():
    d = np.array([[0.0, 1.4], [1.4, 0.0]])
    coords = classical_mds(d, 1)
    assert np.allclose(np.abs(coords[:, 0]), 0.7, atol=1e-12)
    assert coords[0, 0] == pytest.approx(-coords[1, 0])
    # asking for more dimensions than the configuration carries pads with zeros
    with pytest.warns(UserWarning):
        padded = classical_mds(d, 3)
    assert padded.shape == (2, 3)
    assert np.allclose(padded[:, 1:], 0.0)
    with pytest.raises(ValidationError):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)  # asymmetric


def test_empty_cluster_repair_keeps_all_clusters_alive():
    # more clusters than well-separated groups forces repair somewhere along
    # the way; every cluster label must still be in use at the end
    rng = np.random.default_rng(37)
    w, rs, _ = bundle_resultants(rng, 30, [(5, 0.01), (5, 0.01)])
    model = kmeans(
        rs,
        ClusteringConfig(
            n_clusters=4, criterion=RankCriterion.fixed(1), seed=2, n_starts=6
        ),
    )
    assert set(model.assignments.tolist()) == {0, 1, 2, 3}


def test_clustering_config_validation():
    with pytest.raises(ValidationError):
        ClusteringConfig(n_clusters=0)
    with pytest.raises(ValidationError):
        ClusteringConfig(n_clusters=2, distance="manhattan")
    with pytest.raises(ValidationError):
        ClusteringConfig(n_clusters=2, n_starts=0)
    with pytest.raises(ValidationError):
        kmeans([], ClusteringConfig(n_clusters=1))


def test_more_clusters_than_resultants_is_rejected():
    rng = np.random.default_rng(41)
    w = random_weights(rng, 6)
    rs = [random_normed_resultant(rng, w) for _ in range(2)]
    with pytest.raises(ValidationError):
        kmeans(rs, ClusteringConfig(n_clusters=3))
