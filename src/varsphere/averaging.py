"""Averages of unit-norm resultants, straight and along the sphere.

The plain weighted average of unit-norm resultants falls inside the ball;
scaling it back to the sphere gives the chord-optimal average, and keeping
only its leading H eigendirections (with the eigenvalue vector rescaled to
unit length) gives the best rank-H point of the sphere in the chord sense.

All of it runs on factors, never on an n x n operator: R_k = Z_k Z_k' W, and a
rank-H point U Lam U' W is the resultant with factor U Lam^1/2.  The kernels
take whitened rows, where W is the identity: Z_k becomes W^1/2 Z_k, so
T = Z_a' W Z_b is a plain product and every scalar product
[A_k | B_l] = ||Z_k' W Z_l||_F^2 is a block sum of T^2 (encoding's
_block_sums); costs are O(n sum q H) to O(n (sum q)^2).  Every average is
fitted in one place, _Frame, from the Gram Z'Z of the whitened factors,
formed once: the spectrum of a mean comes from its members' q_S x q_S block
(one stacked eigh per block size), and every centroid, chord or geodesic, is
coefficients on its members' columns, found on at most q_S rows.  The frame
serves K-means, the public averages, the inertia profile and the `average`
command through one memoised fit, whose K cosines every report reads; every
geodesic fit runs there, and only returned averages are lifted to n rows.

The geodesic counterpart maximizes
    g(lam, U) = - sum_k omega_k arccos(h_k)^2,   h_k = tr(U' A_k U Lam),
over W-orthonormal U and unit-length lam, where A_k = W R_k (arccos^2 is the
geodesic branch of distances._sq_dist_from_cos).  At the numerical rank of
the members' mean g is concave, and its maximizer is a combination of the
members (see _Frame).  Below that rank a fixed-point ascent (rescaled gradient
for lam, weighted polar factor for U) climbs it, accelerated by type-II
Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011) of the last
ANDERSON_MEMORY iterates, whose retracted candidate is kept only if it beats
the plain step.  The step commutes with the lift, and every ascent stops by
one rule, the n-row fixed-point residual <= 1e-6, met in the frame by scaling
the residual's U part by max_i w_i^-1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .distances import _sq_dist_from_cos
from .encoding import Resultant, _block_sums, _common_weights, _stack
from .errors import ConvergenceWarning, NumericalError, ValidationError, count, warn
from .geometry import RANK_TOL, Weights, _fix_column_signs, _polar, as_weight_system, numerical_rank

# h values this close to 1 switch the gradient factor to its analytic limit.
H_SINGULAR = 1e-9
# A geodesic ascent has settled once a round moves g by less than this.
TOL = 1e-10
# Most differences of past iterates and their step residuals one Anderson round combines.
ANDERSON_MEMORY = 5
# A full-rank geodesic fit has converged once its gap, which bounds g* - g, is at most this.
GAP = 1e-12


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
            object.__setattr__(self, "h", count(self.h, "fixed rank h"))
        elif self.kind != "cattell":
            raise ValidationError(f"unknown rank criterion {self.kind!r}")
        for name, kind in (("theta", "trace_ratio"), ("h", "fixed")):
            if getattr(self, name) is not None and self.kind != kind:
                raise ValidationError(f"a {self.kind} criterion takes no {name}")

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
        return cls("fixed", h=h)

    def describe(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


class RankHOperator(Resultant):
    """A unit-norm rank-H point U diag(lam) U' W of the operator sphere: the
    resultant whose factor is U lam^1/2.  The constructor tolerates
    eigenvalues down to -1e-12, which the factor's square root clips to 0."""

    def __init__(self, U, lam, weights: Weights, converged: bool = True):
        U, lam = np.ascontiguousarray(U, dtype=float), np.asarray(lam, dtype=float)
        n, h = U.shape if U.ndim == 2 else (0, 0)
        if U.ndim != 2 or n != weights.n or h < 1 or lam.shape != (h,):
            raise ValidationError("rank-H operator needs an n x H basis and H eigenvalues")
        if float(np.max(np.abs(U.T @ (weights.w[:, None] * U) - np.eye(h)))) > 1e-8:
            raise ValidationError("basis columns are not W-orthonormal")
        if np.any(lam < -1e-12) or np.any(np.diff(lam) > 1e-12):
            raise ValidationError("eigenvalues must be non-negative and sorted descending")
        if abs(float(np.linalg.norm(lam)) - 1.0) > 1e-8:
            raise ValidationError("eigenvalue vector must have unit euclidean norm")
        super().__init__(U * np.sqrt(np.clip(lam, 0.0, None)), weights, _scaled=True)
        self.U, self.lam, self.converged = U, lam, converged

    @property
    def rank(self) -> int:
        return self.lam.size


def rank_h_average_euclidean(
    resultants: list[Resultant], h: int | RankCriterion, omega=None
) -> RankHOperator:
    """Chord-optimal rank-h average: top-h eigenpairs of the weighted average,
    with the retained eigenvalues rescaled to a unit vector.

    `h` is either the rank itself, which must lie in [1, numerical rank of the
    average], or a RankCriterion applied to the average's spectrum.  The
    eigenpairs come from the Gram of the resultants' factors (_Frame)."""
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
    r = numerical_rank(lam)
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
    return min(criterion.h, r)


# ---------------------------------------------------------------------------
# Geodesic average
# ---------------------------------------------------------------------------


def _loadings(z, starts, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T = Z' U for whitened blocks from `starts` and basis, and the loadings
    eta_kj = u_j' W R_k u_j = ||Z_k' u_j||^2 (K x H)."""
    t = z.T @ u
    return t, np.add.reduceat(t * t, starts, axis=0)


def _objective_value(h: np.ndarray, omega: np.ndarray):
    """g = - sum_k omega_k arccos(h_k)^2 over the last axis of the cosines h."""
    return -_sq_dist_from_cos(h, "geodesic") @ omega


def _factors(h: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """f = omega d(arccos^2)/dh at the cosines h, unsigned: 2 arccos(h)/sqrt(1-h^2), or its
    limit 2 once h is within H_SINGULAR of 1 (the clamp also shields round-off above 1)."""
    c = np.clip(h, -1.0 + H_SINGULAR, 1.0 - H_SINGULAR)
    return omega * np.where(h > 1.0 - H_SINGULAR, 2.0, 2.0 * np.arccos(c) / np.sqrt(1.0 - c * c))


def _gradients(z, widths, starts, omega: np.ndarray, u: np.ndarray, lam: np.ndarray):
    """The exact gradient (gamma, Gamma) of g at (lam, U), on whitened blocks Z
    of widths q_k and starts and a whitened basis U:
        gamma = sum_k f_k eta_k,   Gamma = sum_k f_k 2 Z_k Z_k' U Lam,
    the partial derivatives in lam and U, f = _factors(h).  Gamma is one
    product 2 Z (f o T) Lam, f repeating each coefficient over its block."""
    t, eta = _loadings(z, starts, u)
    factors = _factors(eta @ lam, omega)
    gamma = factors @ eta
    f_col = np.repeat(factors, widths)
    return gamma, 2.0 * (z @ (f_col[:, None] * t)) * lam[None, :]


def _step(z, widths, starts, omega: np.ndarray, u: np.ndarray, lam: np.ndarray):
    """The fixed-point step every ascent round takes, on whitened arrays:
    lam <- gamma/||gamma|| and U <- the polar factor G (G'G)^-1/2 of the
    gradient G = Gamma.  Both moves ascend g; gamma's tiny negative
    components, which only round-off makes, are clipped to zero first."""
    gamma, gamma_u = _gradients(z, widths, starts, omega, u, lam)
    gamma = np.clip(gamma, 0.0, None)
    nrm = float(np.linalg.norm(gamma))
    if nrm <= 1e-300:
        raise NumericalError("gradient vanished: the current point is already critical")
    return _polar(gamma_u), gamma / nrm


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
                cand = nrm > 0.0 and point(_polar(c), mu / nrm)
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
    """Geodesic rank-h average of unit-norm resultants: the frame's fit of
    the whole set, the one a K-means centroid gets, lifted to the n rows, from
    the chord-optimal rank-h average (`h` as for rank_h_average_euclidean).
    At the mean's numerical rank it is the weighted spherical mean, the fixed
    point of the member-weight map (see _Frame), converged once the map's gap,
    a bound on how far g lies below its maximum, is at most GAP.  Below that
    rank it is the Anderson-mixed ascent, which never lets g fall, converged
    once g moves by under TOL with the lifted point's n-row fixed-point
    residual at most 1e-6.  Otherwise the last iterate comes back with
    converged=False and a ConvergenceWarning naming the rounds and the reason:
    the iteration cap, no ascent with residual above 1e-6, or the
    NumericalError that stopped a step."""
    frame = _Frame(resultants, omega, max_iter)
    return frame.lift(frame.fit(h, "geodesic"))


def _warn_unconverged(rounds: int, reason: str) -> None:
    """The ConvergenceWarning of a geodesic fit that stopped short, naming its rounds and why."""
    warn(f"geodesic average did not converge after {rounds} rounds: {reason}", ConvergenceWarning)


def _geodesic_from(
    z, widths, omega: np.ndarray, u: np.ndarray, lam: np.ndarray,
    max_iter: int, u_scale: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ascent from a start (U, lam) on validated arrays, as _ascend takes them bar the
    block starts: (U, lam descending, converged), with a ConvergenceWarning if it stops short."""
    u, lam, rounds, reason = _ascend(z, widths, np.cumsum(widths) - widths, omega,
                                     u, lam, max_iter, u_scale)
    if reason is not None:
        _warn_unconverged(rounds, reason)
    order = np.argsort(-lam, kind="stable")
    return u[:, order], lam[order], reason is None


class _Frame:
    """The Gram of the resultants' whitened factors: the one place an
    average's spectrum is taken and truncated, and every geodesic fit runs.

    The frame forms the whitened stack Z = W^1/2 [Z_1 ... Z_K] and its Gram G =
    Z'Z once, and fits every centroid, chord or geodesic, as coefficients P on
    its members' columns: C = Z_S P, lifted to U = W^-1/2 C.  A member set S is
    a boolean row over the K resultants.  One memo holds plain arrays, keyed by
    the set's packed row (_keys): under the bare key, the spectrum of the
    members' mean, from the eigh of the scaled block D G_SS D = V diag(lam) V',
    D = sqrt(a_k) over the set's columns for its chord weights a, held as
    (columns, D V lam^-1/2) and lam, the eigenvalues above RANK_TOL of lam_1,
    as many as the numerical rank; under (key, distance, rank h or criterion),
    the fit ((columns, P), lam_h, converged, cosines to all K resultants), lam_h
    = lam[:h] / ||lam[:h]||; under (key, "geodesic"), a full-rank geodesic
    fit's member weights.  Criteria that choose the same rank share one fit.

    Q_S = Z_S D V lam^-1/2 is an orthonormal basis of the members' span.  A
    chord P is the first h columns of D V lam^-1/2.  A geodesic P is D V
    lam^-1/2 c on the members in that basis, Y = Q_S' Z_S = (D V lam^-1/2)'
    G_SS, at most q_S rows: at full rank c is the top h eigenvectors of
    Y diag(a) Y' for the member weights a below, else the ascent from the
    first h unit vectors.  The fixed-point step commutes with Q_S, so that
    ascent is the n-row one, and stops by the n-row rule: its residual's U
    part is scaled by s = max_i w_i^-1/2, as ||U - U_S|| <= s ||c - c_S||
    (||Q_S|| = 1).  The frame holds s and max_iter.  G squares the condition
    number, so Q_S is orthonormal only to rounding (a column of eigenvalue
    near RANK_TOL lam_1 to ~1e-6, its weight in a cosine ~1e-10): lift()
    takes the polar factor C (C'C)^-1/2, and signs the columns, which eigh
    and the ascent leave as they fall (the cosines ignore them).  Only a lift
    has n rows.  A request's new sets are settled together: one stacked eigh
    per block size, and one product G P lam^1/2 = Z'C lam^1/2, the whitened
    Z' W times the centroids' factors, for all their cosines.

    A centroid at the mean's numerical rank (RankCriterion.full's) is X = sum_k
    a_k R_k / ||.||, whose cosines h = A a / sqrt(a'A a) fit_cosines reads with
    no spectrum from the K x K cosine matrix A_km = ||R_k' R_m||_F^2 of
    ClustOfVar (Chavent et al., JSS 2012), built once from G.  member_weights()
    forms a: in chord the mean's shares, uniform over the members or omega for
    the whole set.  In geodesic, where g is concave, a is the fixed point of
    the Frank-Wolfe vertex step a <- f = _factors(h) from those shares, X the
    spherical mean of Buss & Fillmore (ACM TOG 2001); the fit has converged
    once the step's gap sqrt(f'A f) - f'h, a bound on g* - g (Jaggi, ICML
    2013), is at most GAP.  A lift drops the eigenvalues under RANK_TOL of
    lam_1, which moves each cosine by at most their sum / lam_1.
    """

    def __init__(self, resultants: list[Resultant], omega=None, max_iter: int = 500):
        self.weights = _common_weights(resultants)
        self.k = len(resultants)
        self.omega = as_weight_system(omega, self.k)
        self._z, self._widths, self._starts = _stack(resultants)
        self._gram = self._z.T @ self._z
        self._stop = count(max_iter, "max_iter"), 1.0 / math.sqrt(float(self.weights.w.min()))
        self._owner = np.repeat(np.arange(self.k), self._widths)
        self.everyone = np.ones(self.k, dtype=bool)
        self._memo: dict = {}

    def _keys(self, chosen: np.ndarray) -> list[bytes]:
        """The memo key of each member set, a row of the B x K `chosen`, from one packbits call."""
        width, packed = -(-self.k // 8), np.packbits(chosen, axis=1).tobytes()
        return [packed[i:i + width] for i in range(0, len(packed), width)]

    def spectra(self, chosen: np.ndarray) -> list[tuple]:
        """((columns, D V lam^-1/2), lam) of the mean of each member set, a row
        of `chosen`; the new sets take one stacked eigh per block size q_S, and
        their eigenvalues at most RANK_TOL of the largest are dropped before any
        square root, so a spectrum's length is its numerical rank."""
        keys = self._keys(chosen)
        todo = {key: row for key, row in zip(keys, chosen) if key not in self._memo}
        todo_keys, rows = list(todo), np.array(list(todo.values()), dtype=bool).reshape(-1, self.k)
        sizes = np.count_nonzero(rows[:, self._owner], axis=1)
        roots = np.sqrt(self.member_weights(rows, "chord")[0])[:, self._owner]  # D, column by column
        for m in sorted(set(sizes.tolist())):
            group = np.flatnonzero(sizes == m)
            idx = np.nonzero(rows[group][:, self._owner])[1].reshape(group.size, m)  # each set's columns
            root = roots[group[:, None], idx]
            lam, v = np.linalg.eigh(self._gram[idx[:, :, None], idx[:, None, :]]
                                    * (root[:, :, None] * root[:, None, :]))
            lam, v = lam[:, ::-1], v[:, :, ::-1]  # descending
            kept = lam > RANK_TOL * lam[:, :1]
            scaled = v * (root[:, :, None] * (1.0 / np.sqrt(np.where(kept, lam, 1.0)))[:, None, :])
            for i, keep, cols, coef, eig in zip(group.tolist(), np.count_nonzero(kept, axis=1).tolist(),
                                                idx, scaled, lam):
                self._memo[todo_keys[i]] = (cols, coef[:, :keep]), eig[:keep]  # the kept D V lam^-1/2, lam
        return [self._memo[key] for key in keys]

    @functools.cached_property
    def _cosine_matrix(self) -> np.ndarray:  # A, the block sums of the squared Gram Z'Z
        return _block_sums(self._gram, self._starts, self._starts)

    def fit_cosines(self, chosen: np.ndarray, distance: str, h: int | RankCriterion) -> np.ndarray:
        """Each member set's K cosines to its centroid; at full rank (a A)_k / sqrt(a A a')
        for the member weights a that member_weights() gives it, in either distance."""
        if not isinstance(h, RankCriterion) or not h.full:
            return np.array([fit[3] for fit in self.centroids(chosen, distance, h)])
        share = self.member_weights(chosen, distance)[0]
        dots = share @ self._cosine_matrix
        return dots / np.sqrt(np.sum(dots * share, axis=1))[:, None]

    def member_weights(self, chosen: np.ndarray, distance: str) -> tuple[np.ndarray, list]:
        """(a, converged) of each member set, a B x K array of weights and B flags: the one rule
        for a set's weights.  In chord, a is the shares of the set's mean: uniform over its members,
        or the frame's omega for the whole set.  In geodesic, a is the full-rank fit's fixed point of
        a <- f from those shares, memoised under the set's key: the new sets iterate as one B x K
        array, each row until its gap is at most GAP; one still open after max_iter rounds warns."""
        shares = (marks := chosen.astype(float)) / marks.sum(axis=1, keepdims=True)  # no bool casts
        shares[chosen.all(axis=1)] = self.omega
        if distance == "chord":
            return shares, [True] * len(shares)
        keys = self._keys(chosen)
        todo = {key: i for i, key in enumerate(keys) if (key, "geodesic") not in self._memo}
        omega = shares[list(todo.values())]
        a, open_, cos = omega.copy(), np.ones(len(omega), dtype=bool), self._cosine_matrix
        for rounds in range(self._stop[0] + 1):
            h = (dots := a @ cos) / np.sqrt(np.sum(dots * a, axis=1))[:, None]
            f = _factors(h, omega)
            open_ &= np.sqrt(np.sum((f @ cos) * f, axis=1)) - np.sum(f * h, axis=1) > GAP
            if rounds == self._stop[0] or not open_.any():
                break
            a[open_] = f[open_]  # a closed row keeps its weights: it has retired
        for key, weights, capped in zip(todo, a, open_):
            if capped:
                _warn_unconverged(rounds, "the iteration cap was reached")
            self._memo[key, "geodesic"] = weights, not capped
        fits = [self._memo[key, "geodesic"] for key in keys]
        return np.array([a for a, _ in fits]).reshape(-1, self.k), [c for _, c in fits]

    def centroids(self, chosen: np.ndarray, distance: str, h: int | RankCriterion) -> list[tuple]:
        """The rank-h fit ((columns, P), lam, converged, K cosines) of each
        member set, one boolean row of `chosen` per set; the new ones are
        settled together.  An integer h must lie in [1, numerical rank]."""
        if not isinstance(h, RankCriterion):
            h = count(h, "rank")
        keys = self._keys(chosen)
        if new := {key: i for i, key in enumerate(keys) if (key, distance, h) not in self._memo}:
            self._settle(chosen[list(new.values())], list(new), distance, h)
        return [self._memo[key, distance, h] for key in keys]

    def _settle(self, chosen: np.ndarray, keys: list, distance: str, h: int | RankCriterion):
        """Memoise each set's fit under h and under the rank h picks from its
        spectrum; the new fits read their cosines from one product G P lam^1/2."""
        new = {}  # (key, rank) of each new fit: ((columns, P), lam_h, converged)
        for key, row, ((cols, scaled), lam) in zip(keys, chosen, self.spectra(chosen)):
            rank = choose_rank(lam, h) if isinstance(h, RankCriterion) else h
            if not isinstance(h, RankCriterion) and h > lam.size:
                raise ValidationError(f"rank {h} is outside the numerical rank {lam.size} of the average")
            kept = lam[:rank]
            fit, lam_h = self._memo.get((key, distance, rank)), kept / math.sqrt(kept.dot(kept))
            if fit is not None:
                self._memo[key, distance, h] = fit
            elif distance == "chord":
                new[key, rank] = (cols, scaled[:, :rank]), lam_h, True
            else:  # on Y = Q_S' Z_S: at full rank the eigenpairs of Y diag(a) Y', else the ascent
                y = scaled.T @ self._gram[cols[:, None], cols]
                full = rank == lam.size
                (a,), (converged,) = self.member_weights(row[None], "geodesic" if full else "chord")
                if full:
                    mu, c = np.linalg.eigh((y * np.repeat(a[row], self._widths[row])) @ y.T)
                    c, lam_h = c[:, :-rank - 1:-1], mu[:-rank - 1:-1] / np.linalg.norm(mu[-rank:])
                else:
                    c, lam_h, converged = _geodesic_from(y, self._widths[row], a[row],
                                                         np.eye(lam.size, rank), lam_h, *self._stop)
                new[key, rank] = (cols, scaled @ c), lam_h, converged
        at = np.cumsum([0] + [lam.size for _, lam, _ in new.values()])
        p = np.zeros((self._gram.shape[0], at[-1]))
        for ((cols, coef), lam, _), start in zip(new.values(), at):
            p[cols, start:start + lam.size] = coef * np.sqrt(lam)  # the factor's coefficients
        cos = _block_sums(self._gram @ p, self._starts, at[:-1])
        for ((key, rank), (basis, lam, converged)), cos_k in zip(new.items(), cos.T):
            self._memo[key, distance, h] = self._memo[key, distance, rank] = basis, lam, converged, cos_k

    def lift(self, fit: tuple) -> RankHOperator:
        """A fit's centroid on the n observations, each column's largest-magnitude entry positive."""
        (cols, coef), lam, converged, _ = fit
        p = np.zeros((self._gram.shape[0], lam.size))
        p[cols] = coef
        c = self._z @ p  # Z_S P, with no n x q_S block gathered
        c = _polar(c)  # orthonormal to rounding, as Q_S may not be
        return RankHOperator(_fix_column_signs(c / np.sqrt(self.weights.w)[:, None]), lam,
                             self.weights, converged=converged)

    def fit(self, h: int | RankCriterion, distance: str = "chord") -> tuple:
        """The whole set's rank-h fit, as centroids() gives it: K-means' global fit."""
        return self.centroids(self.everyone[None], distance, h)[0]
