"""Averages of unit-norm resultants, straight and along the sphere.

The plain weighted average of unit-norm resultants falls inside the ball;
scaling it back to the sphere gives the chord-optimal average, and keeping
only its leading H eigendirections (with the eigenvalue vector rescaled to
unit length) gives the best rank-H point of the sphere in the chord sense.

The geodesic counterpart maximizes
    g(lam, U) = - sum_k omega_k arccos(h_k)^2,   h_k = tr(U' A_k U Lam),
over W-orthonormal U and unit-length lam, where A_k = W R_k.  It is computed
by a fixed-point ascent (rescaled gradient for lam, weighted polar factor for
U) safeguarded by a line search along the chord arc between consecutive
iterates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .encoding import Resultant
from .errors import ConvergenceWarning, NumericalError, ValidationError
from .geometry import (
    RANK_TOL,
    Weights,
    numerical_rank,
    operator_norm,
    w_orthonormal_polar,
    w_spsd_eigen,
)

# h values this close to 1 switch the gradient factor to its analytic limit.
H_SINGULAR = 1e-9


@dataclass(frozen=True)
class RankCriterion:
    """Rule choosing how many eigendirections an average keeps."""

    kind: str
    theta: float | None = None
    h: int | None = None

    def __post_init__(self):
        if self.kind == "trace_ratio":
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise ValidationError("trace_ratio needs theta in [0, 1]")
        elif self.kind == "fixed":
            if self.h is None or self.h < 1:
                raise ValidationError("fixed rank must be a positive integer")
        elif self.kind != "cattell":
            raise ValidationError(f"unknown rank criterion {self.kind!r}")

    @classmethod
    def trace_ratio(cls, theta: float) -> "RankCriterion":
        return cls("trace_ratio", theta=float(theta))

    @classmethod
    def cattell(cls) -> "RankCriterion":
        return cls("cattell")

    @classmethod
    def fixed(cls, h: int) -> "RankCriterion":
        return cls("fixed", h=int(h))

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.theta is not None:
            out["theta"] = self.theta
        if self.h is not None:
            out["h"] = self.h
        return out


@dataclass
class RankHOperator:
    """A unit-norm rank-H point U diag(lam) U' W of the operator sphere."""

    U: np.ndarray
    lam: np.ndarray
    weights: Weights
    converged: bool = True

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        n, h = self.U.shape if self.U.ndim == 2 else (0, 0)
        if self.U.ndim != 2 or n != self.weights.n or h < 1 or self.lam.shape != (h,):
            raise ValidationError("rank-H operator needs an n x H basis and H eigenvalues")
        gram = self.U.T @ (self.weights.w[:, None] * self.U)
        if float(np.max(np.abs(gram - np.eye(h)))) > 1e-8:
            raise ValidationError("basis columns are not W-orthonormal")
        if np.any(self.lam < -1e-12) or np.any(np.diff(self.lam) > 1e-12):
            raise ValidationError("eigenvalues must be non-negative and sorted descending")
        if abs(float(np.linalg.norm(self.lam)) - 1.0) > 1e-8:
            raise ValidationError("eigenvalue vector must have unit euclidean norm")

    @property
    def rank(self) -> int:
        return self.lam.size

    def operator(self) -> np.ndarray:
        return (self.U * self.lam[None, :]) @ self.U.T * self.weights.w[None, :]

    def dot(self, other: Resultant) -> float:
        """Trace scalar product with a unit-norm resultant."""
        return float(cosines([other], [self])[0, 0])

    def to_resultant(self, label: str = "") -> Resultant:
        return Resultant(self.operator(), self.weights, normed=True, label=label)


def as_weight_system(omega, k: int) -> np.ndarray:
    """Validate (or default to uniform) a weight vector over k resultants."""
    if omega is None:
        return np.full(k, 1.0 / k)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (k,):
        raise ValidationError(f"expected {k} weights, got shape {omega.shape}")
    if np.any(omega < 0.0) or abs(omega.sum() - 1.0) > 1e-12:
        raise ValidationError("weights must be non-negative and sum to 1")
    return omega


def _gather(resultants: list[Resultant]) -> Weights:
    if not resultants:
        raise ValidationError("need at least one resultant")
    weights = resultants[0].weights
    for r in resultants:
        if not r.weights.same_as(weights):
            raise ValidationError("resultants live on different weight systems")
        if not r.normed:
            raise ValidationError("averaging expects unit-norm resultants")
    return weights


def _mean_op(resultants: list[Resultant], omega) -> tuple[np.ndarray, Weights]:
    weights = _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    op = np.zeros((weights.n, weights.n))
    for share, r in zip(omega, resultants):
        op += share * r.op
    return op, weights


def weighted_average(resultants: list[Resultant], omega=None) -> Resultant:
    """Convex combination sum_k omega_k R_k; stays in the unit ball."""
    op, weights = _mean_op(resultants, omega)
    return Resultant(op, weights, normed=False, label="average")


def sphere_average(resultants: list[Resultant], omega=None) -> Resultant:
    """The weighted average scaled back to the unit sphere."""
    mean = weighted_average(resultants, omega)
    nrm = mean.norm()
    if nrm <= 1e-300:
        raise NumericalError("the average operator is zero and cannot be normed")
    return Resultant(mean.op / nrm, mean.weights, normed=True, label="average")


def rank_h_average_euclidean(
    resultants: list[Resultant], h: int | RankCriterion, omega=None
) -> RankHOperator:
    """Chord-optimal rank-h average: top-h eigenpairs of the weighted average,
    with the retained eigenvalues rescaled to a unit vector.

    `h` is either the rank itself, which must lie in [1, numerical rank of the
    average], or a RankCriterion applied to the average's spectrum.  One
    eigendecomposition both certifies the average as weighted-spsd and
    supplies the eigenpairs."""
    mean, weights = _mean_op(resultants, omega)
    u, lam = w_spsd_eigen(mean, weights)
    if isinstance(h, RankCriterion):
        h = choose_rank(lam, h)
    r = numerical_rank(lam, RANK_TOL)
    if not 1 <= h <= r:
        raise ValidationError(f"rank {h} is outside the numerical rank {r} of the average")
    kept = lam[:h]
    return RankHOperator(u[:, :h], kept / np.linalg.norm(kept), weights)


def choose_rank(eigenvalues, criterion: RankCriterion) -> int:
    """Number of eigendirections to keep from a descending spectrum."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if lam.size == 0 or float(lam[0]) <= 0.0:
        raise ValidationError("cannot choose a rank from an empty or zero spectrum")
    r = numerical_rank(lam, RANK_TOL)
    if criterion.kind == "trace_ratio":
        theta = float(criterion.theta)
        if theta <= 1e-12:
            return 1
        if theta >= 1.0 - 1e-12:
            return r
        ratios = np.cumsum(lam) / np.sum(lam)
        hit = np.nonzero(ratios >= theta - 1e-12)[0]
        h = int(hit[0]) + 1 if hit.size else r
        return min(h, r)
    if criterion.kind == "cattell":
        lam = lam[:r]
        if r <= 2:
            return 1
        second = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
        return int(np.argmax(second)) + 2
    return min(int(criterion.h), r)


# ---------------------------------------------------------------------------
# Geodesic average
# ---------------------------------------------------------------------------


def _loadings(
    resultants: list[Resultant], u: np.ndarray, weights: Weights
) -> tuple[np.ndarray, np.ndarray]:
    """Products R_k U (K x n x H) and loadings eta_kj = u_j' W R_k u_j (K x H)."""
    ru = np.stack([r.op @ u for r in resultants])
    return ru, np.sum((weights.w[:, None] * u) * ru, axis=1)


def cosines(resultants: list[Resultant], centroids: list[RankHOperator]) -> np.ndarray:
    """Scalar products [R_k | C_l] = sum_j lam_lj u_lj' W R_k u_lj, K x L."""
    weights = centroids[0].weights
    if not all(x.weights.same_as(weights) for x in (*resultants, *centroids)):
        raise ValidationError("operands live on different weight systems")
    _, eta = _loadings(resultants, np.hstack([c.U for c in centroids]), weights)
    starts = np.cumsum([0] + [c.rank for c in centroids[:-1]])
    return np.add.reduceat(eta * np.concatenate([c.lam for c in centroids]), starts, axis=1)


def _cos_to_sq_arc(c: float) -> float:
    c = min(max(c, -1.0), 1.0)
    a = float(np.arccos(c))
    return a * a


def _objective_value(h: np.ndarray, omega: np.ndarray) -> float:
    return -float(sum(o * _cos_to_sq_arc(c) for o, c in zip(omega, h)))


def _grad_factor(h: float) -> float:
    """d(arccos^2)/dh = -2 arccos(h)/sqrt(1-h^2), returned without the sign.

    The ratio tends to 1 as h -> 1, so the factor is evaluated by its limit
    once h is within H_SINGULAR of 1 (the clamp also shields round-off
    values slightly above 1)."""
    h = max(h, -1.0 + H_SINGULAR)
    if h > 1.0 - H_SINGULAR:
        return 2.0
    return 2.0 * float(np.arccos(h)) / float(np.sqrt(1.0 - h * h))


def geodesic_objective(avg: RankHOperator, resultants: list[Resultant], omega=None) -> float:
    """g = - sum_k omega_k arccos([R_k | avg])^2 (non-positive, 0 when all equal)."""
    _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    return _objective_value(cosines(resultants, [avg])[:, 0], omega)


def geodesic_gradients(
    u: np.ndarray, lam: np.ndarray, resultants: list[Resultant], omega=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ambient-space gradient of g at (lam, U).

    Returns (gamma, Gamma) with
        gamma = sum_k omega_k [2 arccos(h_k)/sqrt(1-h_k^2)] eta_k,
        Gamma = sum_k omega_k [2 arccos(h_k)/sqrt(1-h_k^2)] 2 W R_k U Lam,
    the partial derivatives with respect to lam and U respectively.
    """
    weights = _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    ru, eta = _loadings(resultants, u, weights)
    factors = np.array([o * _grad_factor(c) for o, c in zip(omega, eta @ lam)])
    gamma = factors @ eta
    gamma_u = 2.0 * weights.w[:, None] * np.tensordot(factors, ru, axes=1) * lam[None, :]
    return gamma, gamma_u


def geodesic_step(
    u: np.ndarray, lam: np.ndarray, resultants: list[Resultant], omega=None
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point update: lam <- gamma/||gamma||, U <- polar factor of Gamma.

    Both moves are ascent directions for g.  Tiny negative gamma components
    (possible only through round-off) are clipped to zero before norming.
    """
    weights = _gather(resultants)
    gamma, gamma_u = geodesic_gradients(u, lam, resultants, omega)
    gamma = np.clip(gamma, 0.0, None)
    nrm = float(np.linalg.norm(gamma))
    if nrm <= 1e-300:
        raise NumericalError("gradient vanished: the current point is already critical")
    return w_orthonormal_polar(gamma_u, weights), gamma / nrm


def _materialize(u: np.ndarray, lam: np.ndarray, weights: Weights) -> np.ndarray:
    return (u * lam[None, :]) @ u.T * weights.w[None, :]


def _objective_on_op(op: np.ndarray, resultants, omega: np.ndarray) -> float:
    cosines = np.array([float(np.sum(r.op * op.T)) for r in resultants])
    return _objective_value(cosines, omega)


def _arc_search(
    op_prev: np.ndarray,
    op_next: np.ndarray,
    resultants,
    omega: np.ndarray,
    weights: Weights,
    iters: int = 60,
) -> tuple[float, np.ndarray, float]:
    """Golden-section maximization of g along the normed chord arc."""
    delta = op_next - op_prev

    def at(tau: float) -> tuple[np.ndarray, float]:
        c = op_prev + tau * delta
        nrm = operator_norm(c, weights)
        if nrm <= 1e-12:
            raise NumericalError("degenerate arc: the interpolated operator vanishes")
        c = c / nrm
        return c, _objective_on_op(c, resultants, omega)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    seen: list[tuple[float, np.ndarray, float]] = []
    for tau in (0.0, 1.0):
        op, val = at(tau)
        seen.append((tau, op, val))
    a, b = 0.0, 1.0
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    op1, f1 = at(c1)
    op2, f2 = at(c2)
    seen.append((c1, op1, f1))
    seen.append((c2, op2, f2))
    for _ in range(iters):
        if f1 >= f2:
            b, c2, f2, op2 = c2, c1, f1, op1
            c1 = b - invphi * (b - a)
            op1, f1 = at(c1)
            seen.append((c1, op1, f1))
        else:
            a, c1, f1, op1 = c1, c2, f2, op2
            c2 = a + invphi * (b - a)
            op2, f2 = at(c2)
            seen.append((c2, op2, f2))
    return max(seen, key=lambda t: t[2])


def arc_line_search(
    r_prev: RankHOperator, r_next: RankHOperator, resultants: list[Resultant], omega=None
) -> tuple[float, np.ndarray]:
    """Best point of the normed chord arc between two rank-H operators.

    Returns (tau, op) where op = (R_prev + tau (R_next - R_prev)) / ||.||
    maximizes the geodesic objective among the arc points probed; the
    endpoints are always probed, so g(op) is never below either of them.
    """
    weights = _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    tau, op, _ = _arc_search(
        r_prev.operator(), r_next.operator(), resultants, omega, weights
    )
    return tau, op


def _truncate_op(
    op: np.ndarray, h: int, weights: Weights
) -> tuple[np.ndarray, np.ndarray] | None:
    u, lam = w_spsd_eigen(op, weights)
    if lam.size < h or lam[h - 1] <= 0.0:
        return None
    kept = lam[:h]
    return u[:, :h], kept / np.linalg.norm(kept)


def _align_columns(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Flip columns of v so each matches the sign pattern of ref."""
    flip = np.sum(v * ref, axis=0) < 0.0
    out = v.copy()
    out[:, flip] *= -1.0
    return out


def _residual(
    u: np.ndarray, lam: np.ndarray, resultants, omega_v: np.ndarray, weights: Weights
) -> float:
    gamma, gamma_u = geodesic_gradients(u, lam, resultants, omega_v)
    gamma = np.clip(gamma, 0.0, None)
    nrm = float(np.linalg.norm(gamma))
    if nrm <= 1e-300:
        raise NumericalError("gradient vanished: residual is undefined at a critical point")
    r_lam = float(np.linalg.norm(lam - gamma / nrm))
    v = _align_columns(w_orthonormal_polar(gamma_u, weights), u)
    r_u = float(np.linalg.norm(u - v))
    return max(r_lam, r_u)


def fixed_point_residual(
    avg: RankHOperator, resultants: list[Resultant], omega=None
) -> float:
    """How far (lam, U) sits from its own fixed-point update (signs ignored)."""
    weights = _gather(resultants)
    omega_v = as_weight_system(omega, len(resultants))
    return _residual(avg.U, avg.lam, resultants, omega_v, weights)


def rank_h_average_geodesic(
    resultants: list[Resultant],
    h: int | RankCriterion,
    omega=None,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> RankHOperator:
    """Geodesic rank-h average of unit-norm resultants.

    Starts from the chord-optimal rank-h average (`h` is a rank or a
    RankCriterion, as for rank_h_average_euclidean) and ascends g by fixed-point
    steps safeguarded with a line search along the chord arc between
    consecutive iterates (re-truncated to rank h when an interior arc point
    wins).  When progress per round falls under 1e-6 the iteration probes
    extrapolated points further along the line of consecutive iterates,
    accepting one only if it improves g; this collapses the slow linear
    tail of the plain fixed-point map while keeping the objective sequence
    non-decreasing.  Iteration stops once the objective change falls under
    `tol` and the fixed-point residual is at most 1e-6, or after `max_iter`
    rounds, in which case the last iterate is returned with converged=False
    and a ConvergenceWarning is emitted.
    """
    weights = _gather(resultants)
    omega_v = as_weight_system(omega, len(resultants))
    start = rank_h_average_euclidean(resultants, h, omega_v)
    u, lam, h = start.U, start.lam, start.rank

    def value(u_, lam_) -> float:
        return _objective_value(_loadings(resultants, u_, weights)[1] @ lam_, omega_v)

    g_cur = value(u, lam)
    converged = False
    for _ in range(max_iter):
        try:
            u_step, lam_step = geodesic_step(u, lam, resultants, omega_v)
        except NumericalError:
            break
        g_step = value(u_step, lam_step)
        op_prev = _materialize(u, lam, weights)
        op_step = _materialize(u_step, lam_step, weights)
        try:
            tau, op_star, g_star = _arc_search(op_prev, op_step, resultants, omega_v, weights)
        except NumericalError:
            break
        best_u, best_lam, best_g = u_step, lam_step, g_step
        if g_star > g_step + 1e-13 and 0.0 < tau < 1.0:
            trunc = _truncate_op(op_star, h, weights)
            if trunc is not None:
                g_trunc = value(*trunc)
                if g_trunc > best_g + 1e-13:
                    best_u, best_lam, best_g = trunc[0], trunc[1], g_trunc
        if best_g < g_cur - 1e-13:
            # no ascent available: stop where we stand
            try:
                converged = _residual(u, lam, resultants, omega_v, weights) <= 1e-6
            except NumericalError:
                converged = False
            break
        g_round_start = g_cur
        u, lam, g_cur = best_u, best_lam, best_g
        if best_g - g_round_start < 1e-6:
            # slow linear tail: leap along the line of consecutive iterates,
            # keeping only a strictly better (hence still monotone) point
            op_cur = _materialize(u, lam, weights)
            direction = op_cur - op_prev
            leap, g_leap = None, g_cur + 1e-13
            for scale in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0):
                cand_op = op_cur + scale * direction
                nrm = operator_norm(cand_op, weights)
                if nrm <= 1e-12:
                    break
                try:
                    trunc = _truncate_op(cand_op / nrm, h, weights)
                except NumericalError:
                    break
                if trunc is None:
                    break
                g_t = value(*trunc)
                if g_t > g_leap:
                    leap, g_leap = trunc, g_t
            if leap is not None:
                u, lam, g_cur = leap[0], leap[1], g_leap
        delta = g_cur - g_round_start
        if abs(delta) < tol:
            try:
                res = _residual(u, lam, resultants, omega_v, weights)
            except NumericalError:
                break
            if res <= 1e-6:
                converged = True
                break
    if not converged:
        warnings.warn(
            "geodesic average stopped before reaching its target tolerance",
            ConvergenceWarning,
            stacklevel=2,
        )
    order = np.argsort(-lam, kind="stable")
    return RankHOperator(u[:, order], lam[order], weights, converged=converged)
