"""The geodesic rank-H average: gradients, steps, the Anderson-mixed ascent,
convergence, and the arc line search oracle that replays the paper's ascent."""

import warnings

import numpy as np
import pytest

from varsphere import (
    ConvergenceWarning,
    RankCriterion,
    RankHOperator,
    SimConfig,
    Weights,
    averaging,
    encode_numeric,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
    resultant,
    sample_resultants,
    simulate_sample,
)
from varsphere.encoding import cosines

from _support import (
    _line_cosines,
    _span_forms,
    arc_line_search,
    dense,
    dense_member_map,
    member_map_gap,
    n_row_ascent,
    n_row_gradients,
    n_row_objective,
    n_row_residual,
    n_row_step,
    operator_dot,
    operator_norm,
    random_normed_resultant,
    random_rank_h,
    random_w_orthonormal,
    random_weights,
    refit_average,
)


def reference_objective(u, lam, resultants, omega):
    """Independent evaluation of g = -sum omega arccos(h)^2."""
    total = 0.0
    for o, r in zip(omega, resultants):
        op = (u * lam[None, :]) @ u.T * r.weights.w[None, :]
        h = float(np.sum(dense(r) * op.T))
        h = min(max(h, -1.0), 1.0)
        total -= o * np.arccos(h) ** 2
    return total


def finite_difference_gradients(u, lam, resultants, omega, step=1e-6):
    """Central differences of the reference objective in every coordinate."""
    glam = np.zeros_like(lam)
    for i in range(lam.size):
        up, dn = lam.copy(), lam.copy()
        up[i] += step
        dn[i] -= step
        glam[i] = (
            reference_objective(u, up, resultants, omega)
            - reference_objective(u, dn, resultants, omega)
        ) / (2.0 * step)
    gu = np.zeros_like(u)
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            up, dn = u.copy(), u.copy()
            up[i, j] += step
            dn[i, j] -= step
            gu[i, j] = (
                reference_objective(up, lam, resultants, omega)
                - reference_objective(dn, lam, resultants, omega)
            ) / (2.0 * step)
    return glam, gu


def random_instance(rng, n=5, k=3, h=2):
    w = random_weights(rng, n)
    rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4))) for _ in range(k)]
    omega = rng.uniform(0.2, 1.0, size=k)
    omega /= omega.sum()
    u = random_w_orthonormal(rng, w, h)
    lam = np.abs(rng.standard_normal(h)) + 0.1
    lam = np.sort(lam)[::-1]
    lam /= np.linalg.norm(lam)
    return w, rs, omega, u, lam


def cosines_at(u, lam, resultants):
    op = (u * lam[None, :]) @ u.T * resultants[0].weights.w[None, :]
    return np.array([float(np.sum(dense(r) * op.T)) for r in resultants])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 25:
        w, rs, omega, u, lam = random_instance(rng)
        if np.any(cosines_at(u, lam, rs) > 0.99):
            continue  # keep clear of the arccos singularity
        gamma, gamma_u = n_row_gradients(u, lam, rs, omega)
        fd_lam, fd_u = finite_difference_gradients(u, lam, rs, omega)
        assert np.linalg.norm(gamma - fd_lam) <= 1e-5 * max(np.linalg.norm(fd_lam), 1e-12)
        assert np.linalg.norm(gamma_u - fd_u) <= 1e-5 * max(np.linalg.norm(fd_u), 1e-12)
        checked += 1


def test_objective_matches_reference_and_is_zero_at_the_point_itself():
    rng = np.random.default_rng(5)
    w = random_weights(rng, 6)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(4)]
    omega = np.full(4, 0.25)
    avg = rank_h_average_euclidean(rs, 2)
    val = n_row_objective(avg, rs, omega)
    assert val == pytest.approx(reference_objective(avg.U, avg.lam, rs, omega), abs=1e-10)
    assert val <= 0.0
    # the objective of a cloud at one of its own points: -mean squared arc
    single = rank_h_average_geodesic([rs[0]], 2)
    assert n_row_objective(single, [rs[0]]) == pytest.approx(0.0, abs=1e-10)


def test_fixed_point_step_ascends():
    rng = np.random.default_rng(7)
    improved = 0
    for _ in range(30):
        w, rs, omega, u, lam = random_instance(rng)
        g0 = reference_objective(u, lam, rs, omega)
        u2, lam2 = n_row_step(u, lam, rs, omega)
        # the new eigenvalue vector is a unit vector, the new basis W-orthonormal
        assert np.linalg.norm(lam2) == pytest.approx(1.0)
        gram = u2.T @ (w.w[:, None] * u2)
        assert np.allclose(gram, np.eye(u2.shape[1]), atol=1e-9)
        g_joint = reference_objective(u2, lam2, rs, omega)
        if g_joint > g0 + 1e-12:
            improved += 1
    # the combined fixed-point move should help almost always from random points
    assert improved >= 25


def test_arc_line_search_matches_a_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w, rs, omega, u, lam = random_instance(rng)
        a = RankHOperator(u, lam, w)
        u2, lam2 = n_row_step(u, lam, rs, omega)
        order = np.argsort(-lam2, kind="stable")
        b = RankHOperator(u2[:, order], lam2[order], w)
        tau, op = arc_line_search(a, b, rs, omega)
        assert 0.0 <= tau <= 1.0
        assert operator_norm(op, w) == pytest.approx(1.0)

        def g_of(opx):
            cos = np.array([float(np.sum(dense(r) * opx.T)) for r in rs])
            cos = np.clip(cos, -1.0, 1.0)
            return -float(np.sum(omega * np.arccos(cos) ** 2))

        found = g_of(op)
        ops = {t: dense(a) + t * (dense(b) - dense(a)) for t in np.linspace(0, 1, 1001)}
        best_grid = max(g_of(o / operator_norm(o, w)) for o in ops.values())
        assert found >= best_grid - 1e-6
        # endpoints are always candidates
        assert found >= g_of(dense(a)) - 1e-12
        assert found >= g_of(dense(b)) - 1e-12


def line_ends(rng, w, h):
    """A rank-h point P and three partners S: random, nearly P, and P itself."""
    a = random_rank_h(rng, w, h)
    near = random_w_orthonormal(rng, w, h)
    near = np.linalg.qr(np.sqrt(w.w)[:, None] * (a.U + 1e-9 * near))[0] / np.sqrt(w.w)[:, None]
    return a, [random_rank_h(rng, w, h), RankHOperator(near, a.lam, w), a]


def test_line_cosines_match_the_dense_interpolated_operator():
    rng = np.random.default_rng(37)
    taus = np.array([0.0, 0.3, 1.0, 2.5, 100.0])
    for h in (1, 2, 3):
        w = random_weights(rng, 7)
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4))) for _ in range(5)]
        a, partners = line_ends(rng, w, h)
        for b in partners:
            ends = cosines(rs, [a, b])
            root = np.sqrt(w.w)[:, None]
            _, m_p, m_s = _span_forms(root * a.U, a.lam, root * b.U, b.lam)
            fast = _line_cosines(ends[:, 0], ends[:, 1], np.sum((m_s - m_p) ** 2), taus)
            for tau, row in zip(taus, fast):
                x = dense(a) + tau * (dense(b) - dense(a))
                x /= operator_norm(x, w)
                oracle = np.array([float(np.sum(dense(r) * x.T)) for r in rs])
                assert np.allclose(row, oracle, rtol=0.0, atol=1e-12)


def test_geodesic_average_of_one_or_identical_inputs_is_exact():
    rng = np.random.default_rng(13)
    w = random_weights(rng, 6)
    r = random_normed_resultant(rng, w, rank=2)
    avg = rank_h_average_geodesic([r], 2)
    assert avg.converged
    assert np.allclose(dense(avg), dense(r), atol=1e-8)
    same = rank_h_average_geodesic([r, r, r], 2)
    assert same.converged
    assert np.allclose(dense(same), dense(r), atol=1e-8)
    assert n_row_objective(same, [r, r, r]) == pytest.approx(0.0, abs=1e-12)


def test_geodesic_average_improves_on_the_chord_start():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(5, 8))
        w = random_weights(rng, n)
        k = int(rng.integers(3, 6))
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 3))) for _ in range(k)]
        h = 2
        start = rank_h_average_euclidean(rs, h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            avg = rank_h_average_geodesic(rs, h)
        g0 = n_row_objective(start, rs)
        g1 = n_row_objective(avg, rs)
        assert g1 >= g0 - 1e-12
        assert np.all(np.diff(avg.lam) <= 1e-12)
        assert np.linalg.norm(avg.lam) == pytest.approx(1.0)


def test_converged_averages_sit_at_their_own_fixed_point():
    rng = np.random.default_rng(19)
    count = 0
    for _ in range(20):
        w = random_weights(rng, 6)
        rs = [random_normed_resultant(rng, w, rank=2) for _ in range(4)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            avg = rank_h_average_geodesic(rs, 2)
        if avg.converged:
            assert not any(issubclass(c.category, ConvergenceWarning) for c in caught)
            assert n_row_residual(avg, rs) <= 1e-6
            count += 1
        else:
            assert any(issubclass(c.category, ConvergenceWarning) for c in caught)
    assert count >= 15  # random instances of this size normally converge


def test_iteration_cap_warns_and_reports_non_convergence():
    rng = np.random.default_rng(23)
    w = random_weights(rng, 7)
    rs = [random_normed_resultant(rng, w, rank=3) for _ in range(5)]
    with pytest.warns(ConvergenceWarning, match="after 1 rounds: the iteration cap"):
        avg = rank_h_average_geodesic(rs, 2, max_iter=1)
    assert not avg.converged


def test_manual_ascent_reaches_the_fixed_point_monotonically():
    # replay the iteration with the package's step: the step value, safeguarded
    # by the arc search, must climb without ever dipping until the point stops
    # moving, and the final point must satisfy the fixed-point equations
    rng = np.random.default_rng(29)
    for _ in range(5):
        w = random_weights(rng, 6)
        rs = [random_normed_resultant(rng, w, rank=2) for _ in range(4)]
        omega = np.full(4, 0.25)
        current = rank_h_average_euclidean(rs, 2)
        u, lam = current.U, current.lam
        values = [reference_objective(u, lam, rs, omega)]
        done = False
        for _ in range(1000):
            u2, lam2 = n_row_step(u, lam, rs, omega)
            order = np.argsort(-lam2, kind="stable")
            u2, lam2 = u2[:, order], lam2[order]
            cand = reference_objective(u2, lam2, rs, omega)
            assert cand >= values[-1] - 1e-9, "fixed-point step lost ground"
            if cand - values[-1] < 1e-12:
                done = True
                break
            u, lam = u2, lam2
            values.append(cand)
        assert done, "iteration failed to settle within 1000 rounds"
        final = RankHOperator(u2, lam2, w)
        assert n_row_residual(final, rs, omega) <= 1e-5
        assert np.all(np.diff(values) >= -1e-9)


def test_geodesic_average_weight_mismatch_is_rejected():
    rng = np.random.default_rng(31)
    w = random_weights(rng, 5)
    rs = [random_normed_resultant(rng, w, rank=2) for _ in range(3)]
    avg = rank_h_average_geodesic(rs, 1)
    w2 = random_weights(rng, 5)
    other = [random_normed_resultant(rng, w2, rank=2) for _ in range(3)]
    from varsphere import ValidationError

    with pytest.raises(ValidationError):
        n_row_objective(avg, other)


def test_shipped_ascent_never_loses_ground_round_by_round():
    # criterion 5 replays the paper's ascent through oracles; this runs the
    # shipped one on its first 10 instances (same draws), capped at m rounds
    # for m = 1, 2, ..., and checks that g never falls as the cap grows
    rng = np.random.default_rng(105)
    for inst in range(10):
        w = random_weights(rng, 5)
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4))) for _ in range(4)]
        h = int(rng.integers(1, 3))
        previous = -np.inf
        for m in range(1, 21):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                avg = rank_h_average_geodesic(rs, h, max_iter=m)
            g = n_row_objective(avg, rs)
            assert g >= previous - 1e-12, f"instance {inst}: g fell by {previous - g:.2e} at m={m}"
            previous = g
            if avg.converged:
                break


def _near_copies(m):
    """m numeric variables x, x + 1e-3 y, x + 1e-3 z, ...: their mean has
    eigenvalues ~1e-7 of the largest beyond the first."""
    rng = np.random.default_rng(0)
    w = Weights.uniform(20)
    x = rng.standard_normal(20)
    return [resultant(encode_numeric(v, w), w)
            for v in [x] + [x + 1e-3 * rng.standard_normal(20) for _ in range(m - 1)]]


def test_a_failing_step_reports_its_own_error():
    # three near copies, of numerical rank 3: at H = 2, below it, the ascent's
    # polar factor refuses the rank-deficient Gamma' W^-1 Gamma, while the
    # gradient is far from vanishing
    rs = _near_copies(3)
    start = rank_h_average_euclidean(rs, 2)
    assert np.linalg.norm(n_row_gradients(start.U, start.lam, rs)[0]) > 1.0
    with pytest.warns(ConvergenceWarning) as caught:
        avg = rank_h_average_geodesic(rs, 2)
    assert not avg.converged
    assert [str(c.message) for c in caught] == [
        "geodesic average did not converge after 1 rounds: matrix is numerically rank-deficient"]
    assert caught[0].filename == __file__  # the stacklevel names the caller


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform_w", "random_w"])
def test_frame_ascent_meets_the_n_row_residual_far_above_sum_q(uniform, h):
    # n = 2,000 rows against sum q = 33 columns: the ascent runs in the
    # r = 33 frame, and its residual must still hold on the n lifted rows,
    # where a basis error grows like sqrt(n / r) under uniform W
    rng = np.random.default_rng([h, uniform])
    sample = simulate_sample(SimConfig(2000, np.pi / 3, 0.1), rng)
    rs = sample_resultants(sample, random_weights(rng, 2000, uniform=uniform))
    avg = rank_h_average_geodesic(rs, h)
    oracle = refit_average(rs, RankCriterion.fixed(h), "geodesic")
    assert avg.converged and oracle.converged
    assert n_row_residual(avg, rs) <= 1e-6
    assert n_row_objective(avg, rs) == pytest.approx(n_row_objective(oracle, rs),
                                                     rel=0.0, abs=1e-12)


@pytest.mark.parametrize(("seed", "h", "capped"), [(3, 2, -0.2887472880611751),
                                                   (2, 3, -0.31084332218086436)])
def test_slow_tails_converge_within_the_cap(seed, h, capped):
    # six simulated variables whose ascent at H >= 2 has a slow linear tail:
    # a line search along P + tau (S - P) left both at the 500-round cap with
    # residuals 2.1e-6 and 9.7e-6, at the objectives `capped`
    rs = sample_resultants(simulate_sample(SimConfig(30, np.pi / 3, 0.1),
                                           np.random.default_rng(seed)))
    members = rs[7:12] + [rs[19]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        avg = rank_h_average_geodesic(members, h)
    assert avg.converged
    assert n_row_residual(avg, members) <= 1e-6
    assert n_row_objective(avg, members) >= capped


def _full_rank_sets(seed, count):
    """Random member sets with random weights, each with its omega."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = random_weights(rng, int(rng.integers(4, 9)))
        k = int(rng.integers(1, 6))
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4))) for _ in range(k)]
        yield rs, rng.dirichlet(np.ones(k)) if rng.random() < 0.5 else None


def test_full_rank_fits_follow_the_dense_member_map():
    # at the mean's numerical rank a geodesic fit is the member-weight map on
    # the K x K cosine matrix: the public average (_settle) and the cosines of
    # random member sets (fit_cosines) against the same map run on the n x n
    # operators, and every fit's gap, recomputed on them, is within 1e-12
    full = RankCriterion.trace_ratio(1.0)
    for rs, omega in _full_rank_sets(61, 30):
        x, gap = dense_member_map(rs, omega)
        assert gap <= 1e-12
        avg = rank_h_average_geodesic(rs, full, omega)
        assert avg.converged
        assert np.abs(dense(avg) - x).max() <= 1e-10
        assert member_map_gap(dense(avg), rs, omega)[1] <= 1e-12
        frame = averaging._Frame(rs)
        chosen = np.random.default_rng(len(rs)).random((8, len(rs))) < 0.6
        chosen = chosen[chosen.any(axis=1)]
        got = frame.fit_cosines(chosen, "geodesic", full)
        for row, cos, a, converged in zip(chosen, got, *frame.member_weights(chosen, "geodesic")):
            members = [r for r, keep in zip(rs, row) if keep]
            x_s = dense_member_map(members)[0]
            assert converged
            assert np.allclose(cos, [operator_dot(dense(r), x_s, r.weights) for r in rs],
                               rtol=0.0, atol=1e-10)
            ops = sum(share * dense(r) for share, r in zip(a[row], members))
            assert member_map_gap(ops / operator_norm(ops, rs[0].weights), members)[1] <= 1e-12


def test_full_rank_fits_never_fall_below_the_ascent():
    # the ascent from the same chord start is a lower bound on a full-rank
    # fit's g; two near copies pin a set that it leaves unconverged at H = 2,
    # where its first step is refused as numerically rank-deficient
    full = RankCriterion.trace_ratio(1.0)
    sets = [(rs, None) for rs in (_near_copies(2),)] + list(_full_rank_sets(67, 20))
    for i, (rs, omega) in enumerate(sets):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            ascent = n_row_ascent(rank_h_average_euclidean(rs, full, omega), rs, omega)
        avg = rank_h_average_geodesic(rs, full, omega)
        assert avg.converged
        assert n_row_objective(avg, rs, omega) >= n_row_objective(ascent, rs, omega) - 1e-12
        if i == 0:
            assert avg.rank == 2 and not ascent.converged
            assert "numerically rank-deficient" in str(caught[-1].message)


def test_a_capped_full_rank_fit_warns_once_per_member_set():
    # eight numeric variables take more than 5 rounds of the map: capped at 5,
    # the set warns once with the ascent's text, however often it is asked
    # for and by either stage, and its fit and lift stay flagged unconverged
    rng = np.random.default_rng(3)
    w = Weights.uniform(12)
    rs = [resultant(encode_numeric(rng.standard_normal(12), w), w) for _ in range(8)]
    frame = averaging._Frame(rs, max_iter=5)
    full = RankCriterion.trace_ratio(1.0)
    with pytest.warns(ConvergenceWarning) as caught:
        cos = frame.fit_cosines(np.ones((3, 8), dtype=bool), "geodesic", full)
        frame.fit_cosines(np.ones((1, 8), dtype=bool), "geodesic", full)
        fit = frame.fit(full, "geodesic")
    assert [str(c.message) for c in caught] == [
        "geodesic average did not converge after 5 rounds: the iteration cap was reached"]
    assert not fit[2] and not frame.lift(fit).converged
    assert np.allclose(cos, fit[3], rtol=0.0, atol=1e-12)
    assert rank_h_average_geodesic(rs, full, max_iter=10).converged
