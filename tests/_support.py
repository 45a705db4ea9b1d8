"""Shared helpers for the test suite: random weight systems, structures and
unit-norm operators on the weighted sphere, and the dense n x n oracles that
the factored package is checked against."""

import sys

import numpy as np

from types import SimpleNamespace

from varsphere import (
    NumericalError,
    RankHOperator,
    Resultant,
    Weights,
    as_weight_system,
    encode_block,
    encode_categorical,
    encode_numeric,
    choose_rank,
    w_orthonormal_polar,
    weighted_average,
)
from varsphere.averaging import (
    H_SINGULAR, _Frame, _gather, _geodesic_from, _objective_value, _stack, cosines,
)
from varsphere.clustering import _assign_from_cos, _repair_empty, _sq_dist_from_cos, _within
from varsphere.geometry import EIGEN_DROP_TOL, _fix_column_signs


def count_spectrum_eigensolves(monkeypatch, calls: list | None = None) -> list:
    """Wrap np.linalg.eigh and return the list that gets the shape of each
    matrix solved by _Frame.spectra itself, one per member set's spectrum
    however the calls stack them; `calls`, if given, gets the shape of each
    such call.  The eigensolves of inverse square roots (ascent steps, lifts)
    are not counted."""
    matrices, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_code is _Frame.spectra.__code__:
            shape = np.shape(a)
            matrices.extend([shape[-2:]] * int(np.prod(shape[:-2])))
            if calls is not None:
                calls.append(shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return matrices


def dense(x):
    """The n x n operator of a Resultant (Z Z' W) or a RankHOperator (U Lam U' W)."""
    if isinstance(x, RankHOperator):
        return (x.U * x.lam[None, :]) @ x.U.T * x.weights.w[None, :]
    return (x.factor @ x.factor.T) * x.weights.w[None, :]


def operator_dot(a, b, weights):
    """Trace scalar product [A|B] = tr(A* B), A* = W^-1 A' W, of dense operators."""
    w = weights.w
    # tr(W^-1 A' W B) = sum_{ab} A_ab B_ab w_a / w_b
    return float(np.sum(a * b * (w[:, None] / w[None, :])))


def operator_norm(a, weights):
    return float(np.sqrt(max(operator_dot(a, a, weights), 0.0)))


# relative asymmetry and negativity tolerated in a dense weighted-spsd operator
SPSD_TOL = 1e-10


def w_spsd_eigen(a, weights):
    """Spectral decomposition A = U diag(lam) U' W of a dense weighted-spsd
    operator, with eigen()'s conventions: U' W U = I, lam descending,
    round-off eigenvalues dropped, largest-magnitude entry of each column
    positive.  Raises NumericalError when A is not weighted-spsd within SPSD_TOL."""
    rw = np.sqrt(weights.w)
    s = np.asarray(a, dtype=float) * (rw[:, None] / rw[None, :])  # W^1/2 A W^-1/2
    if np.linalg.norm(s - s.T) > SPSD_TOL * np.linalg.norm(s):
        raise NumericalError("operator is not self-adjoint")
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1]
    top = max(float(vals[0]), 0.0)
    if top == 0.0:
        return np.empty((weights.n, 0)), np.empty(0)
    if float(vals[-1]) < -SPSD_TOL * top:
        raise NumericalError("operator has a negative eigenvalue")
    np.clip(vals, 0.0, None, out=vals)
    keep = int(np.sum(vals > EIGEN_DROP_TOL * top))
    return _fix_column_signs(vecs[:, :keep] / rw[:, None]), vals[:keep]


def eigen(r):
    """Spectral decomposition (U, lam) of a resultant, op = U diag(lam) U' W,
    from a thin SVD W^1/2 Z = Q S V': U = W^-1/2 Q is W-orthonormal and
    lam = S^2 descends; eigenvalues under EIGEN_DROP_TOL of the largest are
    dropped, and each column's largest-magnitude entry is made positive."""
    rw = np.sqrt(r.weights.w)[:, None]
    q, sv, _ = np.linalg.svd(rw * r.factor, full_matrices=False)
    lam = sv * sv
    keep = int(np.sum(lam > EIGEN_DROP_TOL * np.max(lam, initial=0.0)))
    return _fix_column_signs(q[:, :keep] / rw), lam[:keep]


def grad_factor(h):
    """d(arccos^2)/dh = -2 arccos(h)/sqrt(1-h^2), returned without the sign,
    one scalar at a time: the ratio tends to 1 as h -> 1, so the factor is
    evaluated by its limit once h is within H_SINGULAR of 1 (the clamp also
    shields round-off values slightly above 1)."""
    h = max(h, -1.0 + H_SINGULAR)
    if h > 1.0 - H_SINGULAR:
        return 2.0
    return 2.0 * float(np.arccos(h)) / float(np.sqrt(1.0 - h * h))


# Reach of the line search (the fixed-point step is tau = 1), its first grid
# and the number of zooms into the best bracket.
TAU_MAX = 513.0
_TAU_GRID = np.concatenate(([0.0], np.geomspace(1.0 / 64.0, TAU_MAX, 61)))
LINE_ZOOMS = 8


def _span_forms(
    u_p: np.ndarray, lam: np.ndarray, u_s: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, M_P, M_S) with W^1/2 (P + tau (S - P)) W^-1/2 = Q (M_P + tau (M_S - M_P)) Q'
    for whitened bases U_P and U_S.

    From a thin QR [U_P, U_S] = Q R: M_P = R diag(lam, 0) R' and
    M_S = R diag(0, mu) R' are 2H x 2H.  Householder QR keeps Q orthonormal
    when the spans (nearly) coincide, and ||S - P||^2 = ||M_S - M_P||_F^2
    keeps its relative accuracy as S approaches P."""
    q, r = np.linalg.qr(np.hstack([u_p, u_s]))
    h = lam.size
    return q, (r[:, :h] * lam) @ r[:, :h].T, (r[:, h:] * mu) @ r[:, h:].T


def _line_cosines(a: np.ndarray, s: np.ndarray, d2: float, tau) -> np.ndarray:
    """Cosines [R_k | C/||C||] on the line C(tau) = P + tau (S - P), one row per tau.

    With a_k = [R_k|P], s_k = [R_k|S] and d2 = ||S - P||^2 for unit-norm P
    and S, ||C(tau)||^2 = 1 + tau (tau - 1) d2.  For weighted-spsd P and S,
    [P|S] >= 0 gives d2 <= 2, so the norm never falls below sqrt(1/2)."""
    tau = np.asarray(tau, dtype=float)[..., None]
    return ((1.0 - tau) * a + tau * s) / np.sqrt(1.0 + tau * (tau - 1.0) * d2)


def _line_search(
    a: np.ndarray, s: np.ndarray, d2: float, omega: np.ndarray, tau_max: float
) -> tuple[float, float]:
    """(tau, g) maximizing g along the normed line C(tau), tau in [0, tau_max].

    Each probe costs O(K).  The best node of a grid (0, then geometric up to
    tau_max, a node too) is refined by zooming into its bracket, so g is
    never below its value at either end."""
    taus = np.append(_TAU_GRID[_TAU_GRID < tau_max], tau_max)
    best_tau, best_g = 0.0, -np.inf
    for _ in range(LINE_ZOOMS):
        values = _objective_value(_line_cosines(a, s, d2, taus), omega)
        i = int(np.argmax(values))
        if values[i] > best_g:
            best_tau, best_g = float(taus[i]), float(values[i])
        taus = np.linspace(taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)], 33)
    return best_tau, best_g


def arc_line_search(r_prev, r_next, resultants, omega=None):
    """Best point of the normed chord arc between two rank-H operators.

    Returns (tau, op) where op = (R_prev + tau (R_next - R_prev)) / ||.||
    maximizes the geodesic objective among the arc points probed; the
    endpoints are always probed, so g(op) is never below either of them.
    The search runs on closed-form cosines; op is built only for the caller.
    """
    _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    ends = cosines(resultants, [r_prev, r_next])
    root = np.sqrt(r_prev.weights.w)[:, None]
    _, m_p, m_s = _span_forms(root * r_prev.U, r_prev.lam, root * r_next.U, r_next.lam)
    d2 = float(np.sum((m_s - m_p) ** 2))
    tau, _ = _line_search(ends[:, 0], ends[:, 1], d2, omega, 1.0)
    op = (1.0 - tau) * dense(r_prev) + tau * dense(r_next)
    return tau, op / np.sqrt(1.0 + tau * (tau - 1.0) * d2)


def refit_average(members, criterion, distance):
    """The uniform rank-h average of the members on the n rows, with no
    column-space frame: one SVD of their mean, the rank the criterion picks
    from its spectrum, the chord truncation and, for the geodesic distance,
    the ascent from it."""
    mean = weighted_average(members)
    u, lam = eigen(mean)
    kept = lam[:choose_rank(lam, criterion)]
    start = RankHOperator(u[:, :kept.size], kept / np.linalg.norm(kept), mean.weights)
    if distance == "chord":
        return start
    w = mean.weights.w
    root = np.sqrt(w)[:, None]
    u, lam, converged = _geodesic_from(*_stack(members)[:2], as_weight_system(None, len(members)),
                                       root * start.U, start.lam, 500, 1.0 / np.sqrt(w.min()))
    return RankHOperator(u / root, lam, mean.weights, converged=converged)


def refit_kmeans(resultants, config):
    """K-means with every centroid refitted from scratch by refit_average:
    no column-space frame and no memo, one start after the other.  Same
    starts, iteration, cycle rule, tie-breaks and global fit as kmeans();
    returns its fields."""
    dist, n_clusters = config.distance, config.n_clusters

    def update(assignment):
        cs = [refit_average([r for r, a in zip(resultants, assignment) if a == l],
                            config.criterion, dist) for l in range(n_clusters)]
        return cs, cosines(resultants, cs)

    best, starts = None, []
    for s, seq in enumerate(np.random.SeedSequence(config.seed).spawn(config.n_starts)):
        perm = np.random.default_rng(seq).permutation(len(resultants))
        assignment = np.empty(len(resultants), dtype=int)
        for l, chunk in enumerate(np.array_split(perm, n_clusters)):
            assignment[chunk] = l
        seen, trace, converged, stop = {tuple(assignment)}, [], False, "cap"
        for n_iter in range(1, config.max_iter + 1):
            cs, cos = update(assignment)
            trace.append(_within(cos, assignment, dist))
            proposal = _repair_empty(_assign_from_cos(cos), cos, n_clusters, dist)
            trace.append(_within(cos, proposal, dist))
            if np.array_equal(proposal, assignment):
                converged, stop = True, "converged"
                break
            assignment = proposal
            if tuple(proposal) in seen:
                stop = "cycle"
                break
            seen.add(tuple(proposal))
        if not converged:
            cs, cos = update(assignment)
        within = _within(cos, assignment, dist)
        starts.append({"within_inertia": within, "n_iter": n_iter, "stop": stop})
        if best is None or within < best.within_inertia:
            best = SimpleNamespace(assignments=assignment, centroids=cs,
                                   ranks=[c.rank for c in cs], within_inertia=within,
                                   converged=converged, n_iter=n_iter, best_start=s,
                                   objective_trace=trace)
    overall = refit_average(resultants, config.criterion, dist)
    total = float(np.sum(_sq_dist_from_cos(cosines(resultants, [overall])[:, 0], dist)))
    best.between_over_total = (total - best.within_inertia) / total
    best.starts = starts
    return best


def random_weights(rng, n, uniform=False):
    """A weight system, uniform or drawn from U[0.5, 2) and normalized."""
    if uniform:
        return Weights.uniform(n)
    return Weights.normalized(rng.uniform(0.5, 2.0, size=n))


def random_labels(rng, n, m):
    """A label list of length n covering exactly m levels."""
    codes = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(codes)
    return [f"lv{c}" for c in codes]


def random_spd(rng, q):
    a = rng.standard_normal((q, q))
    return a @ a.T + q * np.eye(q)


def random_structure(rng, weights, kind):
    """A random variable-structure of the given kind on the weight system."""
    n = weights.n
    if kind == "numeric":
        return encode_numeric(rng.standard_normal(n), weights, label="num")
    if kind == "categorical":
        m = int(rng.integers(2, min(5, n - 1) + 1))
        return encode_categorical(random_labels(rng, n, m), weights, label="cat")
    q = int(rng.integers(1, 4))
    x = rng.standard_normal((n, q))
    return encode_block(x, random_spd(rng, q), weights, label="blk")


def random_normed_resultant(rng, weights, rank=None):
    """A unit-norm weighted-spsd operator; generic rank < n unless given."""
    n = weights.n
    q = int(rank) if rank is not None else int(rng.integers(1, n))
    x = rng.standard_normal((n, q))
    return Resultant(x / np.sqrt(np.linalg.norm(x.T @ (weights.w[:, None] * x))), weights,
                     normed=True)


def random_w_orthonormal(rng, weights, h):
    """An n x h basis with U'WU = I."""
    return w_orthonormal_polar(rng.standard_normal((weights.n, h)), weights)


def random_rank_h(rng, weights, h):
    """A rank-h point U diag(lam) U' W of the sphere with random eigenpairs."""
    lam = np.sort(rng.uniform(0.1, 1.0, size=h))[::-1]
    return RankHOperator(random_w_orthonormal(rng, weights, h), lam / np.linalg.norm(lam), weights)


def align_signs(u, ref):
    """Flip columns of u so each correlates positively with ref's column."""
    flip = np.sum(u * ref, axis=0) < 0.0
    out = u.copy()
    out[:, flip] *= -1.0
    return out


# one (number, status, detail) row per acceptance criterion, echoed in the
# terminal summary by conftest.py
ACCEPTANCE_RESULTS = []


def record_criterion(number, status, detail=""):
    ACCEPTANCE_RESULTS.append((number, status, detail))
