"""Weighted, sphere-scaled, and rank-constrained chord averages; rank rules."""

import warnings

import numpy as np
import pytest

from varsphere import (
    RankCriterion,
    RankHOperator,
    Resultant,
    ValidationError,
    as_weight_system,
    chord_dist,
    choose_rank,
    operator_dot,
    operator_norm,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
    sphere_average,
    weighted_average,
)
from varsphere.averaging import cosines

from _support import (
    random_normed_resultant,
    random_rank_h,
    random_w_orthonormal,
    random_weights,
)


def test_weighted_average_is_the_convex_combination():
    rng = np.random.default_rng(3)
    w = random_weights(rng, 8)
    rs = [random_normed_resultant(rng, w) for _ in range(4)]
    omega = np.array([0.1, 0.2, 0.3, 0.4])
    mean = weighted_average(rs, omega)
    literal = sum(o * r.op for o, r in zip(omega, rs))
    assert np.allclose(mean.op, literal)
    assert not mean.normed
    assert mean.norm() <= 1.0 + 1e-12  # convexity keeps it inside the ball
    unit = sphere_average(rs, omega)
    assert unit.norm() == pytest.approx(1.0)
    assert np.allclose(unit.op, literal / operator_norm(literal, w))


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
        weighted_average(rs)
    with pytest.raises(ValidationError):
        weighted_average([])


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
        mean = weighted_average(rs, omega)
        a = random_normed_resultant(rng, w)

        def sq(op1, op2):
            return operator_norm(op1 - op2, w) ** 2

        lhs = sum(o * sq(r.op, a.op) for o, r in zip(omega, rs))
        rhs = sum(o * sq(r.op, mean.op) for o, r in zip(omega, rs)) + sq(mean.op, a.op)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rank_h_average_reproduces_a_planted_mean():
    # averaging one resultant at full rank returns that resultant
    rng = np.random.default_rng(11)
    w = random_weights(rng, 7)
    r = random_normed_resultant(rng, w, rank=3)
    avg = rank_h_average_euclidean([r], 3)
    assert np.allclose(avg.operator(), r.op, atol=1e-9)
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
        avg_r = avg.to_resultant()
        obj = sum(chord_dist(r, avg_r) ** 2 for r in rs) / 3.0
        for _ in range(500):
            x = rng.standard_normal(n)
            op = np.outer(x, x) * w.w[None, :]
            cand = Resultant(op / operator_norm(op, w), w, normed=True)
            cand_obj = sum(chord_dist(r, cand) ** 2 for r in rs) / 3.0
            assert obj <= cand_obj + 1e-10


def test_rank_h_operator_validation():
    rng = np.random.default_rng(17)
    w = random_weights(rng, 6)
    u = random_w_orthonormal(rng, w, 2)
    lam = np.array([0.8, 0.6])
    op = RankHOperator(u, lam, w)
    assert operator_norm(op.operator(), w) == pytest.approx(1.0)
    r = random_normed_resultant(rng, w)
    assert op.dot(r) == pytest.approx(operator_dot(op.operator(), r.op, w), abs=1e-10)
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([0.6, 0.8]), w)  # not descending
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([1.0, 1.0]), w)  # not unit length
    with pytest.raises(ValidationError):
        RankHOperator(u * 2.0, lam, w)  # not W-orthonormal
    with pytest.raises(ValidationError):
        RankHOperator(u, np.array([0.8, 0.6, 0.0]), w)  # shape mismatch


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
    with pytest.raises(ValidationError):
        RankCriterion.fixed(0)
    with pytest.raises(ValidationError):
        RankCriterion("nonsense")
    assert RankCriterion.trace_ratio(0.5).describe() == {
        "kind": "trace_ratio",
        "theta": 0.5,
    }
    assert RankCriterion.fixed(3).describe() == {"kind": "fixed", "h": 3}


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
        op = (u * lam[None, :]) @ u.T * w.w[None, :]
        rs.append(Resultant(op / operator_norm(op, w), w, normed=True))
    avg = rank_h_average_euclidean(rs, 2)
    # all inputs share the eigenbasis u, so the rank-2 average must live
    # exactly in the span of the two leading directions
    proj = (u[:, :2] @ u[:, :2].T) * w.w[None, :]
    op = avg.operator()
    assert np.allclose(proj @ op, op, atol=1e-8)
    assert np.linalg.norm(avg.lam) == pytest.approx(1.0)


def test_cosines_match_the_dense_oracle():
    rng = np.random.default_rng(31)
    ranks_seen = set()
    for trial in range(40):
        w = random_weights(rng, int(rng.integers(5, 10)))
        rs = [random_normed_resultant(rng, w) for _ in range(int(rng.integers(1, 6)))]
        cs = [random_rank_h(rng, w, int(rng.integers(1, 4))) for _ in range(1 + trial % 4)]
        ranks_seen.update(c.rank for c in cs)
        dense = np.array([[np.sum(r.op * c.operator().T) for c in cs] for r in rs])
        got = cosines(rs, cs)
        assert got.shape == (len(rs), len(cs))
        assert np.allclose(got, dense, rtol=0.0, atol=1e-12)
        assert cs[0].dot(rs[0]) == pytest.approx(got[0, 0], abs=1e-12)
    assert ranks_seen == {1, 2, 3}
    stranger = random_normed_resultant(rng, random_weights(rng, w.n))
    with pytest.raises(ValidationError):
        cosines([stranger], cs)


@pytest.mark.parametrize("fit", [rank_h_average_euclidean, rank_h_average_geodesic])
def test_rank_criterion_average_equals_the_average_at_the_chosen_rank(fit):
    # the criterion is applied to the spectrum the fit computes anyway, so
    # the result must be the very same floats as choosing the rank first
    rng = np.random.default_rng(37)
    w = random_weights(rng, 7)
    rs = [random_normed_resultant(rng, w) for _ in range(5)]
    _, spectrum = weighted_average(rs).eigen()
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
