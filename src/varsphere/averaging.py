"""Averages of unit-norm resultants, straight and along the sphere.

The plain weighted average of unit-norm resultants falls inside the ball;
scaling it back to the sphere gives the chord-optimal average, and keeping
only its leading H eigendirections (with the eigenvalue vector rescaled to
unit length) gives the best rank-H point of the sphere in the chord sense.

All of it runs on the factors R_k = Z_k Z_k' W and on rank-H points (U, lam),
never on an n x n operator.  The private kernels take whitened rows, where W
is the identity: Z_k becomes W^1/2 Z_k and U becomes W^1/2 U, orthonormal, so
T = Z' W U is a plain product and the loadings u_j' W R_k u_j are block sums
of T^2; costs are O(n sum q H) to O(n (sum q)^2).  The public n-row functions
whiten on the way in and out.  Every average is fitted in one place, _Frame:
one QR of W^1/2 Z puts the resultants in its r-dimensional column space,
r <= sum q, and the spectrum of a mean comes from its members' q_S x q_S block
of the Gram Z'Z, which the frame forms once: one stacked eigh per block size.
The frame serves K-means, the public averages, the inertia profile and the
`average` command through one memoised fit, whose K cosines every report reads;
every geodesic ascent runs there, and only returned averages are lifted to n rows.

The geodesic counterpart maximizes
    g(lam, U) = - sum_k omega_k arccos(h_k)^2,   h_k = tr(U' A_k U Lam),
over W-orthonormal U and unit-length lam, where A_k = W R_k.  It is computed
by a fixed-point ascent (rescaled gradient for lam, weighted polar factor for
U) accelerated by type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
2011): each round combines the last ANDERSON_MEMORY differences of iterates
and step residuals into one candidate, retracts it to the sphere (polar factor
for U, clipped and normed lam) and keeps it only if it beats the plain step.
The step commutes with the lift, and every fit stops by one rule, the n-row
fixed-point residual <= 1e-6, met in the frame by scaling the residual's U
part by max_i w_i^-1/2 (see _Frame).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .encoding import Resultant
from .errors import ConvergenceWarning, NumericalError, ValidationError, warn
from .geometry import (
    EIGEN_DROP_TOL,
    RANK_TOL,
    Weights,
    _fix_column_signs,
    inv_sqrt_spd,
    numerical_rank,
)

# h values this close to 1 switch the gradient factor to its analytic limit.
H_SINGULAR = 1e-9
# A geodesic ascent has settled once a round moves g by less than this.
TOL = 1e-10
# Most differences of past iterates and their step residuals one Anderson round combines.
ANDERSON_MEMORY = 5


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

    @property
    def full(self) -> bool:
        """A trace ratio of 1, within 1e-12: keep the mean's whole numerical rank."""
        return self.kind == "trace_ratio" and self.theta >= 1.0 - 1e-12

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
        self.U = np.ascontiguousarray(self.U, dtype=float)
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

    def dot(self, other: Resultant) -> float:
        """Trace scalar product with a unit-norm resultant."""
        return float(cosines([other], [self])[0, 0])

    def to_resultant(self, label: str = "") -> Resultant:
        return Resultant(self.U * np.sqrt(self.lam), self.weights, True, label)


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
            raise ValidationError("expected unit-norm resultants")
    return weights


def weighted_average(resultants: list[Resultant], omega=None) -> Resultant:
    """Convex combination sum_k omega_k R_k, factor [sqrt(omega_k) Z_k]; inside the ball."""
    weights = _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    z = np.hstack([np.sqrt(share) * r.factor for share, r in zip(omega, resultants)])
    return Resultant(z, weights, normed=False, label="average")


def sphere_average(resultants: list[Resultant], omega=None) -> Resultant:
    """The weighted average scaled back to the unit sphere."""
    mean = weighted_average(resultants, omega)
    nrm = mean.norm()
    if nrm <= 1e-300:
        raise NumericalError("the average operator is zero and cannot be normed")
    return Resultant(mean.factor / np.sqrt(nrm), mean.weights, normed=True, label="average")


def rank_h_average_euclidean(
    resultants: list[Resultant], h: int | RankCriterion, omega=None
) -> RankHOperator:
    """Chord-optimal rank-h average: top-h eigenpairs of the weighted average,
    with the retained eigenvalues rescaled to a unit vector.

    `h` is either the rank itself, which must lie in [1, numerical rank of the
    average], or a RankCriterion applied to the average's spectrum.  The
    eigenpairs come from the column-space frame of the resultants."""
    frame = _Frame(resultants, omega)
    return frame.lift(frame.fit(h))


def choose_rank(eigenvalues, criterion: RankCriterion) -> int:
    """Number of eigendirections to keep from a spectrum.  A descending one,
    as the frame's spectrum is, is used as it is; any other is sorted first.  A
    full criterion keeps the numerical rank, so the full-rank chord centroid
    is the normalised mean less its eigenvalues under RANK_TOL of lam_1 (_Frame)."""
    lam = np.asarray(eigenvalues, dtype=float)
    if (lam[1:] > lam[:-1]).any():
        lam = np.sort(lam)[::-1]
    if lam.size == 0 or float(lam[0]) <= 0.0:
        raise ValidationError("cannot choose a rank from an empty or zero spectrum")
    theta = criterion.theta
    if criterion.kind == "trace_ratio" and theta <= 1e-12:
        return 1
    r = numerical_rank(lam, RANK_TOL)
    if criterion.full:
        return r
    if criterion.kind == "trace_ratio":
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


def _stack(resultants: list[Resultant]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whitened factors side by side, W^1/2 [Z_1 ... Z_K], the width q_k of
    each and the column each starts at."""
    widths = np.array([r.factor.shape[1] for r in resultants])
    return (np.sqrt(resultants[0].weights.w)[:, None] * np.hstack([r.factor for r in resultants]),
            widths, np.cumsum(widths) - widths)


def _loadings(z, starts, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T = Z' U for whitened blocks from `starts` and basis, and the loadings
    eta_kj = u_j' W R_k u_j = ||Z_k' u_j||^2 (K x H)."""
    t = z.T @ u
    return t, np.add.reduceat(t * t, starts, axis=0)


def cosines(resultants: list[Resultant], centroids: list[RankHOperator]) -> np.ndarray:
    """Scalar products [R_k | C_l] = sum_j lam_lj u_lj' W R_k u_lj, K x L."""
    weights = centroids[0].weights
    if not all(x.weights.same_as(weights) for x in (*resultants, *centroids)):
        raise ValidationError("operands live on different weight systems")
    z, _, blocks = _stack(resultants)
    _, eta = _loadings(z, blocks, np.sqrt(weights.w)[:, None] * np.hstack([c.U for c in centroids]))
    starts = np.cumsum([0] + [c.rank for c in centroids[:-1]])
    return np.add.reduceat(eta * np.concatenate([c.lam for c in centroids]), starts, axis=1)


def _objective_value(h: np.ndarray, omega: np.ndarray):
    """g = - sum_k omega_k arccos(h_k)^2 over the last axis of the cosines h."""
    return -(np.arccos(np.clip(h, -1.0, 1.0)) ** 2) @ omega


def geodesic_objective(avg: RankHOperator, resultants: list[Resultant], omega=None) -> float:
    """g = - sum_k omega_k arccos([R_k | avg])^2 (non-positive, 0 when all equal)."""
    _gather(resultants)
    omega = as_weight_system(omega, len(resultants))
    return float(_objective_value(cosines(resultants, [avg])[:, 0], omega))


def _gradients(z, widths, starts, omega: np.ndarray, u: np.ndarray, lam: np.ndarray):
    """geodesic_gradients on whitened blocks Z of widths q_k and starts, and a whitened
    basis: Gamma is one product 2 Z (f o T) Lam, f repeating each coefficient
    over its block.  f_k = omega_k d(arccos^2)/dh at h_k, without the sign:
    2 arccos(h)/sqrt(1-h^2) tends to 2 as h -> 1, so it takes that limit once
    h is within H_SINGULAR of 1 (the clamp also shields round-off above 1)."""
    t, eta = _loadings(z, starts, u)
    h = eta @ lam
    c = np.clip(h, -1.0 + H_SINGULAR, 1.0 - H_SINGULAR)
    factors = omega * np.where(h > 1.0 - H_SINGULAR, 2.0, 2.0 * np.arccos(c) / np.sqrt(1.0 - c * c))
    gamma = factors @ eta
    f_col = np.repeat(factors, widths)
    return gamma, 2.0 * (z @ (f_col[:, None] * t)) * lam[None, :]


def _step(z, widths, starts, omega: np.ndarray, u: np.ndarray, lam: np.ndarray):
    """geodesic_step on whitened arrays, the kernel every ascent round steps
    through: U <- the polar factor G (G'G)^-1/2 of the gradient G."""
    gamma, gamma_u = _gradients(z, widths, starts, omega, u, lam)
    gamma = np.clip(gamma, 0.0, None)
    nrm = float(np.linalg.norm(gamma))
    if nrm <= 1e-300:
        raise NumericalError("gradient vanished: the current point is already critical")
    return gamma_u @ inv_sqrt_spd(gamma_u.T @ gamma_u), gamma / nrm


def geodesic_gradients(
    u: np.ndarray, lam: np.ndarray, resultants: list[Resultant], omega=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ambient-space gradient of g at (lam, U).

    Returns (gamma, Gamma) with
        gamma = sum_k omega_k [2 arccos(h_k)/sqrt(1-h_k^2)] eta_k,
        Gamma = sum_k omega_k [2 arccos(h_k)/sqrt(1-h_k^2)] 2 W R_k U Lam,
    the partial derivatives with respect to lam and U respectively.
    """
    root = np.sqrt(_gather(resultants).w)[:, None]
    gamma, gamma_u = _gradients(*_stack(resultants), as_weight_system(omega, len(resultants)),
                                root * np.asarray(u, dtype=float), np.asarray(lam, dtype=float))
    return gamma, root * gamma_u


def geodesic_step(
    u: np.ndarray, lam: np.ndarray, resultants: list[Resultant], omega=None
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point update: lam <- gamma/||gamma||, U <- the weighted polar
    factor W^-1 Gamma (Gamma' W^-1 Gamma)^-1/2.

    Both moves are ascent directions for g.  Tiny negative gamma components
    (possible only through round-off) are clipped to zero before norming.
    """
    root = np.sqrt(_gather(resultants).w)[:, None]
    u_s, lam_s = _step(*_stack(resultants), as_weight_system(omega, len(resultants)),
                       root * np.asarray(u, dtype=float), np.asarray(lam, dtype=float))
    return u_s / root, lam_s


def _align_columns(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Flip columns of v so each matches the sign pattern of ref."""
    flip = np.sum(v * ref, axis=0) < 0.0
    out = v.copy()
    out[:, flip] *= -1.0
    return out


def _residual(u: np.ndarray, lam: np.ndarray, step: tuple, u_scale: float = 1.0) -> float:
    """Distance from (U, lam) to its fixed-point step, columns aligned in sign, U's scaled."""
    u_s, lam_s = step
    return max(float(np.linalg.norm(lam - lam_s)),
               u_scale * float(np.linalg.norm(u - _align_columns(u_s, u))))


def fixed_point_residual(avg: RankHOperator, resultants: list[Resultant], omega=None) -> float:
    """How far (lam, U) sits from its own fixed-point update (signs ignored)."""
    return _residual(avg.U, avg.lam, geodesic_step(avg.U, avg.lam, resultants, omega))


def _ascend(
    z: np.ndarray, widths: np.ndarray, starts: np.ndarray, omega: np.ndarray,
    u: np.ndarray, lam: np.ndarray, max_iter: int, u_scale: float,
) -> tuple[np.ndarray, np.ndarray, int, str | None]:
    """Safeguarded Anderson ascent from (U, lam) on whitened blocks (widths, starts), its
    residual's U part scaled by u_scale: (U, lam, rounds, why it stopped or None)."""
    def point(u_, lam_) -> tuple[np.ndarray, np.ndarray, float]:
        return u_, lam_, _objective_value(_loadings(z, starts, u_)[1] @ lam_, omega)

    u, lam, g_cur = point(u, lam)
    xs, fs = [], []  # the mixing window: flattened iterates and their step residuals
    step = None  # the fixed-point step at (U, lam), once the residual check has taken it
    for rounds in range(1, max_iter + 1):
        try:
            u_s, lam_s = step if step is not None else _step(z, widths, starts, omega, u, lam)
        except NumericalError as err:
            return u, lam, rounds, str(err)
        u_s = _align_columns(u_s, u)
        best = point(u_s, lam_s)
        x = np.concatenate((u.ravel(), lam))
        xs = xs[-ANDERSON_MEMORY:] + [x]
        fs = fs[-ANDERSON_MEMORY:] + [np.concatenate((u_s.ravel(), lam_s)) - x]
        if len(xs) > 1:
            dx, df = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
            y = x + fs[-1] - (dx + df) @ np.linalg.lstsq(df, fs[-1], rcond=None)[0]
            c, mu = y[:u.size].reshape(u.shape), np.clip(y[u.size:], 0.0, None)
            nrm = float(np.linalg.norm(mu))
            try:
                cand = nrm > 0.0 and point(c @ inv_sqrt_spd(c.T @ c), mu / nrm)
            except NumericalError:
                cand = False
            if cand and cand[2] > best[2] + 1e-13:
                best = cand
            else:
                xs, fs = xs[-1:], fs[-1:]
        stuck = best[2] < g_cur - 1e-13
        # a stuck round stays at (U, lam), where this round's step was taken
        step = (u_s, lam_s) if stuck else None
        if not stuck:
            small = abs(best[2] - g_cur) < TOL
            u, lam, g_cur = best
        if stuck or small:
            try:
                step = step or _step(z, widths, starts, omega, u, lam)
            except NumericalError as err:
                return u, lam, rounds, str(err)
            res = _residual(u, lam, step, u_scale)
            if res <= 1e-6:
                return u, lam, rounds, None
            if stuck:
                return u, lam, rounds, f"no ascent with residual {res:.2e} > 1e-6"
    return u, lam, max_iter, "the iteration cap was reached"


def rank_h_average_geodesic(
    resultants: list[Resultant], h: int | RankCriterion, omega=None, max_iter: int = 500,
) -> RankHOperator:
    """Geodesic rank-h average of unit-norm resultants.

    Starts from the chord-optimal rank-h average (`h` is a rank or a
    RankCriterion, as for rank_h_average_euclidean).  Each round takes the
    fixed-point step S from the current point and mixes it with the last
    ANDERSON_MEMORY rounds by type-II Anderson mixing, which collapses the
    slow linear tail of the fixed-point map.  The mixed point, retracted to
    the sphere, replaces S only if it beats it by 1e-13, else the mixing
    restarts; a round that cannot ascend stops, so g never decreases.  It is
    the frame's fit of the whole set, the same fit a K-means centroid gets,
    lifted to the n observations, and converges once g moves by under TOL
    and the lifted point's n-row fixed-point residual is at most 1e-6.
    Otherwise the last iterate comes back with converged=False and a
    ConvergenceWarning naming the rounds and the reason: the iteration cap,
    no ascent with residual above 1e-6, or the NumericalError that stopped
    a step.
    """
    frame = _Frame(resultants, omega, max_iter)
    return frame.lift(frame.fit(h, "geodesic"))


def _geodesic_from(
    z, widths, omega: np.ndarray, u: np.ndarray, lam: np.ndarray,
    max_iter: int, u_scale: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ascent from a start (U, lam) on validated arrays, as _ascend takes them bar the
    block starts: (U, lam descending, converged), with a ConvergenceWarning if it stops short."""
    u, lam, rounds, reason = _ascend(z, widths, np.cumsum(widths) - widths, omega,
                                     u, lam, max_iter, u_scale)
    if reason is not None:
        warn(f"geodesic average did not converge after {rounds} rounds: {reason}",
             ConvergenceWarning)
    order = np.argsort(-lam, kind="stable")
    return u[:, order], lam[order], reason is None


class _Frame:
    """Resultants in the column space of their stacked factors: the one place
    an average's spectrum is taken and truncated, and every geodesic ascent runs.

    A thin Householder QR W^1/2 [Z_1 ... Z_K] = Q R, taken once, puts every
    resultant and centroid in R^r, r = min(n, sum q), with orthonormal rows:
    resultant k becomes the block R_k, which keeps every scalar product, and a
    centroid (C, lam) with C'C = I lifts to U = W^-1/2 Q C.  This is the
    concatenated-column SVD of ClustOfVar (Chavent et al., JSS 2012).  The
    fixed-point step commutes with the lift, so an ascent on blocks is the
    n-row one, and every fit stops by the n-row rule: its residual's U part is
    scaled by s = max_i w_i^-1/2, since ||U - U_S|| <= s ||C - C_S||.  The
    frame holds s and the ascent's max_iter.

    A member set S is a boolean row over the K resultants, weighted
    uniformly, or by the frame's omega, which only the whole set takes.  One
    memo holds plain arrays, keyed by the set's packed row: under the bare
    key, the spectrum of the members' mean, from the eigh of the scaled block
    D G_SS D = V diag(lam) V' of the frame's Gram G = Z'Z, D = sqrt(omega_k)
    over the set's columns, held as (columns, D V lam^-1/2) and lam; under
    (key, distance, rank h or criterion), the fit (C, lam_h, converged,
    cosines to all K resultants), lam_h = lam[:h] / ||lam[:h]||, chord C the
    first h columns of Q_S = Z_S D V lam^-1/2, held as the spectrum's pair
    until lift() forms it, or the geodesic ascent from there.  Criteria that
    choose the same rank share one fit.  A request's new sets are settled
    together: one stacked eigh per block size, and one product G P = Z'C for
    the new chord fits, P holding their D V lam^-1/2.  Chord column signs stay
    as eigh leaves them (the cosines ignore them) until lift() signs them.  G
    squares the condition number, so a column of eigenvalue near RANK_TOL
    lam_1 is orthonormal only to ~1e-6, its weight in a cosine ~1e-10: lift()
    takes the polar factor C (C'C)^-1/2.
    Only the lift basis has n rows.  The full-rank (RankCriterion.full) chord
    centroid is the normalised mean M_S/||M_S||, whose cosines fit_cosines
    reads with no spectrum from the K x K cosine matrix A_km = [R_k | R_m] =
    ||R_k' R_m||_F^2 of ClustOfVar, built once from G; its rank is the mean's
    numerical rank, and the eigenvalues under RANK_TOL of lam_1 that the fit
    drops move each cosine by at most their sum / lam_1.
    """

    def __init__(self, resultants: list[Resultant], omega=None, max_iter: int = 500):
        weights = _gather(resultants)
        self.k = len(resultants)
        self.omega = None if omega is None else as_weight_system(omega, self.k)
        z, self._widths, self._starts = _stack(resultants)
        q, self.z = np.linalg.qr(z)
        self._gram = self.z.T @ self.z
        self.weights, self._lift = weights, q / np.sqrt(weights.w)[:, None]
        self._stop = max_iter, 1.0 / math.sqrt(float(weights.w.min()))
        self._owner = np.repeat(np.arange(self.k), self._widths)
        self.everyone = np.ones(self.k, dtype=bool)
        self._memo: dict = {}

    def spectrum(self, chosen: np.ndarray) -> tuple:
        """((columns, D V lam^-1/2), lam) of the mean of the members marked in `chosen`."""
        self.spectra(chosen[None], [key := np.packbits(chosen).tobytes()])
        return self._memo[key]

    def spectra(self, chosen: np.ndarray, keys: list) -> None:
        """Memoise each new member set's spectrum (a row of `chosen`, under its
        key), one stacked eigh per block size q_S, eigenvalues under
        EIGEN_DROP_TOL of the largest dropped before any square root."""
        todo = {key: row for key, row in zip(keys, chosen) if key not in self._memo}
        keys, rows = list(todo), np.array(list(todo.values()), dtype=bool).reshape(-1, self.k)
        sizes = np.count_nonzero(rows[:, self._owner], axis=1)
        for m in sorted(set(sizes.tolist())):
            group = np.flatnonzero(sizes == m)
            idx = np.nonzero(rows[group][:, self._owner])[1].reshape(group.size, m)  # each set's columns
            root = (np.sqrt(1.0 / np.count_nonzero(rows[group], axis=1))[:, None] if self.omega is None
                    else np.repeat(np.sqrt(self.omega), self._widths)[idx])  # D, or its one value
            lam, v = np.linalg.eigh(self._gram[idx[:, :, None], idx[:, None, :]]
                                    * (root[:, :, None] * root[:, None, :]))
            lam, v = lam[:, ::-1], v[:, :, ::-1]  # descending
            kept = lam > EIGEN_DROP_TOL * lam[:, :1]
            scaled = v * (root[:, :, None] * (1.0 / np.sqrt(np.where(kept, lam, 1.0)))[:, None, :])
            for i, keep, cols, coef, eig in zip(group.tolist(), np.count_nonzero(kept, axis=1).tolist(),
                                                idx, scaled, lam):
                self._memo[keys[i]] = (cols, coef[:, :keep]), eig[:keep]  # the kept D V lam^-1/2, lam

    @functools.cached_property
    def _cosine_matrix(self) -> np.ndarray:  # A, the block sums of the squared Gram Z'Z
        squares = self._gram * self._gram
        return np.add.reduceat(np.add.reduceat(squares, self._starts), self._starts, axis=1)

    def fit_cosines(self, chosen: np.ndarray, distance: str, h: int | RankCriterion) -> np.ndarray:
        """Each member set's K cosines to its centroid; at full rank in chord,
        (a A)_k / sqrt(a A a') for a = the set's row, uniform as in K-means."""
        if distance != "chord" or not isinstance(h, RankCriterion) or not h.full:
            return np.array([fit[3] for fit in self.centroids(chosen, distance, h)])
        share = chosen.astype(float)  # a float row: mixed types would cast through ufunc buffers
        dots = share @ self._cosine_matrix
        return dots / np.sqrt(np.sum(dots * share, axis=1))[:, None]

    def centroids(self, chosen: np.ndarray, distance: str, h: int | RankCriterion) -> list[tuple]:
        """The reduced rank-h centroid (C, lam, converged, K cosines) of each
        member set, one boolean row of `chosen` per set; one packbits call keys
        them all, and the new ones are settled together.  An integer h must lie
        in [1, numerical rank]."""
        width = -(-self.k // 8)
        packed = np.packbits(chosen, axis=1).tobytes()
        keys = [packed[i:i + width] for i in range(0, len(packed), width)]
        if new := [i for i, key in enumerate(keys) if (key, distance, h) not in self._memo]:
            self._settle(chosen[new], [keys[i] for i in new], distance, h)
        return [self._memo[key, distance, h] for key in keys]

    def _settle(self, chosen: np.ndarray, keys: list, distance: str, h: int | RankCriterion):
        """Memoise each set's fit under h and under the rank h picks from its
        spectrum; the new chord fits read their cosines from one product G P."""
        self.spectra(chosen, keys)
        chords = {}  # (key, rank) of each new chord fit: its spectrum's basis, its lam
        for key, row in dict(zip(keys, chosen)).items():
            basis, lam = self._memo[key]
            rank = choose_rank(lam, h) if isinstance(h, RankCriterion) else h
            if not isinstance(h, RankCriterion) and not (top := numerical_rank(lam, RANK_TOL)) >= h >= 1:
                raise ValidationError(f"rank {h} is outside the numerical rank {top} of the average")
            kept = lam[:rank]
            fit, lam_h = self._memo.get((key, distance, rank)), kept / math.sqrt(kept.dot(kept))
            if fit is None and distance == "geodesic":
                # the ascent from the chord fit, signed as the n-row eigenvectors are (it is
                # sign-equivariant only up to rounding, so it retraces the n-row one), on a
                # C-order copy of the blocks, as z is: BLAS rounds products by memory layout
                c, lam_h, converged = _geodesic_from(
                    np.ascontiguousarray(self.z[:, row[self._owner]]), self._widths[row],
                    as_weight_system(self.omega, int(row.sum())),
                    _fix_column_signs((self.z[:, basis[0]] @ basis[1])[:, :rank]), lam_h, *self._stop)
                t = self.z.T @ c
                fit = c, lam_h, converged, np.add.reduceat(t * t, self._starts) @ lam_h
            if fit is None:
                chords[key, rank] = basis, lam_h
            else:
                self._memo[key, distance, h] = self._memo[key, distance, rank] = fit
        at = np.cumsum([0] + [lam.size for _, lam in chords.values()])
        p = np.zeros((self._gram.shape[0], at[-1]))
        for ((cols, scaled), lam), start in zip(chords.values(), at):
            p[cols, start:start + lam.size] = scaled[:, :lam.size]
        t = self._gram @ p  # every new fit's Z'C
        cos = np.add.reduceat(np.add.reduceat(t * t, self._starts) * np.concatenate(
            [[]] + [lam for _, lam in chords.values()]), at[:-1], axis=1)
        for ((key, rank), (basis, lam)), cos_k in zip(chords.items(), cos.T):
            self._memo[key, distance, h] = self._memo[key, distance, rank] = basis, lam, True, cos_k

    def lift(self, fit: tuple) -> RankHOperator:
        """A fit's centroid on the n observations, each column's largest-magnitude entry positive."""
        c, lam, converged, _ = fit
        if isinstance(c, tuple):  # a chord fit: its spectrum's basis, Z_S D V lam^-1/2
            c = (self.z[:, c[0]] @ c[1])[:, :lam.size]
        c = c @ inv_sqrt_spd(c.T @ c)  # orthonormal to rounding, as the Gram route may not be
        return RankHOperator(_fix_column_signs(self._lift @ c), lam, self.weights,
                             converged=converged)

    def fit(self, h: int | RankCriterion, distance: str = "chord") -> tuple:
        """The whole set's rank-h fit (C, lam, converged, K cosines), as K-means' global fit."""
        return self.centroids(self.everyone[None], distance, h)[0]
