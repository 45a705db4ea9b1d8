"""Weighted, sphere-scaled, and rank-constrained chord averages; rank rules."""

import warnings

import numpy as np
import pytest

from varsphere import (
    RankCriterion,
    RankHOperator,
    Resultant,
    ValidationError,
    chord_dist,
    choose_rank,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
)
from varsphere.encoding import cosines
from varsphere.geometry import as_weight_system

from _support import (
    dense,
    eigen,
    operator_dot,
    operator_norm,
    random_normed_resultant,
    random_rank_h,
    random_w_orthonormal,
    random_weights,
    weighted_mean,
)


def test_weighted_average_is_the_convex_combination():
    rng = np.random.default_rng(3)
    w = random_weights(rng, 8)
    rs = [random_normed_resultant(rng, w) for _ in range(4)]
    omega = np.array([0.1, 0.2, 0.3, 0.4])
    mean = weighted_mean(rs, omega)  # the oracle of the Huygens checks
    literal = sum(o * dense(r) for o, r in zip(omega, rs))
    assert np.allclose(dense(mean), literal)
    assert operator_norm(literal, w) <= 1.0 + 1e-12  # convexity keeps it inside the ball
    # the full-rank chord average is the mean scaled back to the sphere
    unit = rank_h_average_euclidean(rs, RankCriterion.trace_ratio(1.0), omega)
    assert operator_norm(dense(unit), w) == pytest.approx(1.0)
    assert np.allclose(dense(unit), literal / operator_norm(literal, w))


def test_as_weight_system_defaults_and_validation():
    assert np.allclose(as_weight_system(None, 4), np.full(4, 0.25))
    assert np.allclose(as_weight_system([0.5, 0.5], 2), [0.5, 0.5])
    with pytest.raises(ValidationError):
        as_weight_system([0.5, 0.6], 2)
    with pytest.raises(ValidationError):
        as_weight_system([1.5, -0.5], 2)
    with pytest.raises(ValidationError):
        as_weight_system([1.0], 2)


def test_averaging_requires_a_common_unit_sphere():
    rng = np.random.default_rng(5)
    w = random_weights(rng, 6)
    w2 = random_weights(rng, 6)
    rs = [random_normed_resultant(rng, w), random_normed_resultant(rng, w2)]
    with pytest.raises(ValidationError):
        rank_h_average_euclidean(rs, 1)
    with pytest.raises(ValidationError):
        rank_h_average_euclidean([], 1)


def test_huygens_decomposition_of_chord_inertia():
    # sum_k omega_k ||R_k - A||^2 splits exactly at the weighted mean
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        w = random_weights(rng, n)
        k = int(rng.integers(2, 7))
        rs = [random_normed_resultant(rng, w) for _ in range(k)]
        omega = rng.uniform(0.2, 1.0, size=k)
        omega /= omega.sum()
        mean = weighted_mean(rs, omega)
        a = random_normed_resultant(rng, w)

        def sq(op1, op2):
            return operator_norm(op1 - op2, w) ** 2

        lhs = sum(o * sq(dense(r), dense(a)) for o, r in zip(omega, rs))
        rhs = (sum(o * sq(dense(r), dense(mean)) for o, r in zip(omega, rs))
               + sq(dense(mean), dense(a)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rank_h_average_reproduces_a_planted_mean():
    # averaging one resultant at full rank returns that resultant
    rng = np.random.default_rng(11)
    w = random_weights(rng, 7)
    r = random_normed_resultant(rng, w, rank=3)
    avg = rank_h_average_euclidean([r], 3)
    assert np.allclose(dense(avg), dense(r), atol=1e-9)
    assert avg.rank == 3
    # rank bounds are enforced against the numerical rank of the mean
    with pytest.raises(ValidationError):
        rank_h_average_euclidean([r], 4)
    with pytest.raises(ValidationError):
        rank_h_average_euclidean([r], 0)


def test_rank_one_average_beats_random_candidates():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 4
        w = random_weights(rng, n)
        rs = [random_normed_resultant(rng, w) for _ in range(3)]
        avg = rank_h_average_euclidean(rs, 1)
        obj = sum(chord_dist(r, avg) ** 2 for r in rs) / 3.0
        for _ in range(500):
            x = rng.standard_normal(n)
            cand = Resultant(x[:, None] / np.sqrt(np.sum(w.w * x * x)), w)
            cand_obj = sum(chord_dist(r, cand) ** 2 for r in rs) / 3.0
            assert obj <= cand_obj + 1e-10


def test_rank_h_operator_validation():
    rng = np.random.default_rng(17)
    w = random_weights(rng, 6)
    u = random_w_orthonormal(rng, w, 2)
    lam = np.array([0.8, 0.6])
    op = RankHOperator(u, lam, w)
    assert operator_norm(dense(op), w) == pytest.approx(1.0)
    r = random_normed_resultant(rng, w)
    assert op.dot(r) == pytest.approx(operator_dot(dense(op), dense(r), w), abs=1e-10)
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([0.6, 0.8]), w)  # not descending
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([1.0, 1.0]), w)  # not unit length
    with pytest.raises(ValidationError):
        RankHOperator(u * 2.0, lam, w)  # not W-orthonormal
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([0.8, 0.6, 0.0]), w)  # shape mismatch


def test_a_rank_h_operator_clips_tolerated_negative_eigenvalues_in_its_factor():
    # the constructor accepts eigenvalues down to -1e-12; the factor U lam^1/2
    # takes the root of their clip at 0, so it stays finite
    rng = np.random.default_rng(23)
    w = random_weights(rng, 5)
    u = random_w_orthonormal(rng, w, 2)
    op = RankHOperator(u, np.array([1.0, -5e-13]), w)
    assert isinstance(op, Resultant)
    assert np.isfinite(op.factor).all()
    assert np.array_equal(op.factor, u * np.array([1.0, 0.0]))
    assert op.dot(op) == pytest.approx(1.0)


def test_choose_rank_trace_ratio():
    lam = np.array([3.0, 2.0, 1.0])  # cumulative shares 0.5, 5/6, 1
    crit = RankCriterion.trace_ratio
    assert choose_rank(lam, crit(0.0)) == 1
    assert choose_rank(lam, crit(0.5)) == 1
    assert choose_rank(lam, crit(0.51)) == 2
    assert choose_rank(lam, crit(5.0 / 6.0)) == 2
    assert choose_rank(lam, crit(0.84)) == 3
    assert choose_rank(lam, crit(1.0)) == 3
    # round-off tail does not count toward the rank
    assert choose_rank(np.array([1.0, 1e-14]), crit(1.0)) == 1
    # unsorted input is sorted internally
    assert choose_rank(np.array([1.0, 3.0, 2.0]), crit(0.5)) == 1


def test_choose_rank_cattell_and_fixed():
    cattell = RankCriterion.cattell()
    # H is the interior index where the scree curve bends hardest:
    # second differences (-7, 7.9, 0) peak at the third eigenvalue
    assert choose_rank(np.array([10.0, 9.0, 1.0, 0.9, 0.8]), cattell) == 3
    # second differences (8.9, 0) peak at the second one
    assert choose_rank(np.array([10.0, 1.0, 0.9, 0.8]), cattell) == 2
    # spectra with at most two positive values default to one direction
    assert choose_rank(np.array([3.0, 1.0]), cattell) == 1
    assert choose_rank(np.array([3.0]), cattell) == 1
    fixed = RankCriterion.fixed(2)
    assert choose_rank(np.array([3.0, 2.0, 1.0]), fixed) == 2
    assert choose_rank(np.array([3.0]), fixed) == 1  # capped at the rank
    with pytest.raises(ValidationError):
        choose_rank(np.array([0.0, 0.0]), cattell)
    with pytest.raises(ValidationError):
        choose_rank(np.array([]), cattell)


def test_rank_criterion_validation():
    with pytest.raises(ValidationError):
        RankCriterion.trace_ratio(1.5)
    for bad in (0, -1, 2.5, 2.0, True, None):
        with pytest.raises(ValidationError, match="fixed rank h must be an integer"):
            RankCriterion("fixed", h=bad)
    with pytest.raises(ValidationError):
        RankCriterion.fixed(0)
    with pytest.raises(ValidationError):
        RankCriterion("nonsense")
    # a field the kind ignores is refused, not kept and written by describe()
    for kind, extra in (("trace_ratio", {"theta": 0.5, "h": 3}), ("fixed", {"h": 2, "theta": 0.5}),
                        ("cattell", {"h": 2}), ("cattell", {"theta": 0.5})):
        with pytest.raises(ValidationError, match=f"a {kind} criterion takes no"):
            RankCriterion(kind, **extra)
    assert RankCriterion.trace_ratio(0.5).describe() == {
        "kind": "trace_ratio",
        "theta": 0.5,
    }
    assert RankCriterion.fixed(3).describe() == {"kind": "fixed", "h": 3}
    numpy_h = RankCriterion.fixed(np.int64(3))
    assert type(numpy_h.h) is int and numpy_h == RankCriterion.fixed(3)
    # an integer rank and the ascent's max_iter pass the same count check
    rng = np.random.default_rng(43)
    w = random_weights(rng, 5)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(3)]
    for bad in (0, -3, 2.5):
        with pytest.raises(ValidationError, match="max_iter must be an integer"):
            rank_h_average_geodesic(rs, 1, max_iter=bad)
    for fit in (rank_h_average_euclidean, rank_h_average_geodesic):
        for bad in (0, 1.5, np.float64(1.0), True):
            with pytest.raises(ValidationError, match="rank must be an integer"):
                fit(rs, bad)
    assert np.array_equal(rank_h_average_euclidean(rs, np.int64(1)).U,
                          rank_h_average_euclidean(rs, 1).U)


def test_rank_h_average_eigenstructure_matches_an_oracle():
    # for resultants sharing one eigenbasis the average's top directions are
    # the basis directions with the largest mean eigenvalues
    rng = np.random.default_rng(19)
    n = 6
    w = random_weights(rng, n)
    u = random_w_orthonormal(rng, w, 4)
    means = np.array([0.55, 0.3, 0.1, 0.05])
    rs = []
    for _ in range(5):
        lam = means + rng.uniform(-0.02, 0.02, size=4)
        rs.append(Resultant(u * np.sqrt(lam / np.linalg.norm(lam)), w))
    avg = rank_h_average_euclidean(rs, 2)
    # all inputs share the eigenbasis u, so the rank-2 average must live
    # exactly in the span of the two leading directions
    proj = (u[:, :2] @ u[:, :2].T) * w.w[None, :]
    op = dense(avg)
    assert np.allclose(proj @ op, op, atol=1e-8)
    assert np.linalg.norm(avg.lam) == pytest.approx(1.0)


def test_cosines_match_the_dense_oracle():
    # either side may be resultants or centroids: a centroid is the resultant
    # with factor U Lam^1/2, and the oracle reads it from (U, lam)
    rng = np.random.default_rng(31)
    ranks_seen, sides_seen = set(), set()
    for trial in range(40):
        w = random_weights(rng, int(rng.integers(5, 10)))
        rs = [random_normed_resultant(rng, w) for _ in range(int(rng.integers(1, 6)))]
        cs = [random_rank_h(rng, w, int(rng.integers(1, 4))) for _ in range(1 + trial % 4)]
        ranks_seen.update(c.rank for c in cs)
        a, b = (rs, cs)[trial % 2], (rs, cs)[trial // 2 % 2]
        sides_seen.add((trial % 2, trial // 2 % 2))
        oracle = np.array([[np.sum(dense(x) * dense(y).T) for y in b] for x in a])
        got = cosines(a, b)
        assert got.shape == (len(a), len(b))
        assert np.allclose(got, oracle, rtol=0.0, atol=1e-12)
        assert a[0].dot(b[0]) == pytest.approx(got[0, 0], abs=1e-12)
        assert cs[0].dot(rs[0]) == pytest.approx(rs[0].dot(cs[0]), abs=1e-12)
    assert ranks_seen == {1, 2, 3}
    assert sides_seen == {(0, 0), (0, 1), (1, 0), (1, 1)}
    stranger = random_normed_resultant(rng, random_weights(rng, w.n))
    for a, b in (([stranger], cs), ([cs[0], stranger], cs), ([], cs)):  # foreign, mixed, empty
        with pytest.raises(ValidationError):
            cosines(a, b)


@pytest.mark.parametrize("fit", [rank_h_average_euclidean, rank_h_average_geodesic])
def test_rank_criterion_average_equals_the_average_at_the_chosen_rank(fit):
    # the criterion is applied to the spectrum the fit computes anyway, so
    # the result must be the very same floats as choosing the rank first
    rng = np.random.default_rng(37)
    w = random_weights(rng, 7)
    rs = [random_normed_resultant(rng, w) for _ in range(5)]
    _, spectrum = eigen(weighted_mean(rs))
    criteria = (RankCriterion.trace_ratio(0.6), RankCriterion.cattell(), RankCriterion.fixed(2))
    for criterion in criteria:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            given = fit(rs, criterion)
            chosen = fit(rs, choose_rank(spectrum, criterion))
        assert given.rank == choose_rank(spectrum, criterion)
        assert np.array_equal(given.U, chosen.U)
        assert np.array_equal(given.lam, chosen.lam)
        assert given.converged == chosen.converged
