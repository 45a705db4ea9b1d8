"""Linear algebra under a diagonal observation-weight metric.

Observations carry positive weights summing to one.  The weight vector w
induces the scalar product <x|y> = sum_i w_i x_i y_i on R^n and, through the
trace form tr(A* B) with A* = W^-1 A' W, a euclidean geometry on the space of
n x n operators.  Everything downstream (encodings, distances, averages,
clustering) lives in that geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Tolerance used when counting meaningfully non-zero eigenvalues.
RANK_TOL = 1e-10
# Symmetry / negativity slack accepted when certifying an operator.
SPSD_TOL = 1e-10
# Relative floor under which an inverse square root refuses to proceed.
INV_SQRT_FLOOR = 1e-12
# Eigenvalues below this fraction of the largest are dropped as round-off.
EIGEN_DROP_TOL = 1e-12
# Variance below this fraction of the second moment counts as constant:
# centring a constant vector leaves residuals of order eps * magnitude, so
# the spurious variance sits around eps^2 ~ 1e-32 relative.
ZERO_VARIANCE_REL = 1e-26


@dataclass(frozen=True)
class Weights:
    """Positive observation weights summing to one (the diagonal metric W)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValidationError("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1 (got {w.sum()!r})")
        object.__setattr__(self, "w", w)

    @classmethod
    def uniform(cls, n: int) -> "Weights":
        if n < 1:
            raise ValidationError("need at least one observation")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def normalized(cls, values) -> "Weights":
        """Scale a positive vector so it sums to one."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValidationError("weights must be finite and strictly positive")
        return cls(v / v.sum())

    @property
    def n(self) -> int:
        return self.w.size

    def same_as(self, other: "Weights") -> bool:
        return self is other or (self.n == other.n and bool(np.array_equal(self.w, other.w)))


def _check_vector(x, weights: Weights) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != weights.n:
        raise ValidationError(
            f"expected a vector of length {weights.n}, got shape {x.shape}"
        )
    return x


def _check_operator(a, weights: Weights) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape != (weights.n, weights.n):
        raise ValidationError(
            f"expected a {weights.n} x {weights.n} operator, got shape {a.shape}"
        )
    return a


def w_dot(x, y, weights: Weights) -> float:
    """Weighted scalar product <x|y> = sum_i w_i x_i y_i."""
    x = _check_vector(x, weights)
    y = _check_vector(y, weights)
    return float(np.sum(weights.w * x * y))


def w_norm(x, weights: Weights) -> float:
    return float(np.sqrt(max(w_dot(x, x, weights), 0.0)))


def center(x, weights: Weights) -> np.ndarray:
    """Subtract the weighted mean, leaving <x|1> = 0."""
    x = _check_vector(x, weights)
    return x - np.sum(weights.w * x)


def variance(x, weights: Weights) -> float:
    """Weighted variance: squared norm of the centred vector."""
    c = center(x, weights)
    return float(np.sum(weights.w * c * c))


def variance_floor(x, weights: Weights) -> float:
    """Variance at or below this level is indistinguishable from round-off."""
    x = _check_vector(x, weights)
    return ZERO_VARIANCE_REL * float(np.sum(weights.w * x * x))


def standardize(x, weights: Weights) -> np.ndarray:
    """Centre and scale to unit weighted norm."""
    x = _check_vector(x, weights)
    c = x - np.sum(weights.w * x)
    v = float(np.sum(weights.w * c * c))
    if v <= variance_floor(x, weights) or not np.isfinite(v):
        raise ValidationError("cannot standardize a zero-variance vector")
    return c / np.sqrt(v)


def adjoint(a, weights: Weights) -> np.ndarray:
    """Adjoint A* = W^-1 A' W of an operator for the weighted product."""
    a = _check_operator(a, weights)
    w = weights.w
    return a.T * (w[None, :] / w[:, None])


def operator_dot(a, b, weights: Weights) -> float:
    """Trace scalar product [A|B] = tr(A* B) on the operator space."""
    a = _check_operator(a, weights)
    b = _check_operator(b, weights)
    w = weights.w
    # tr(W^-1 A' W B) = sum_{ab} A_ab B_ab w_a / w_b
    return float(np.sum(a * b * (w[:, None] / w[None, :])))


def operator_norm(a, weights: Weights) -> float:
    return float(np.sqrt(max(operator_dot(a, a, weights), 0.0)))


def _symmetrized(a: np.ndarray, weights: Weights) -> tuple[np.ndarray, float]:
    """Map A to S = W^1/2 A W^-1/2 and report the relative asymmetry of S."""
    rw = np.sqrt(weights.w)
    s = a * (rw[:, None] / rw[None, :])
    scale = float(np.linalg.norm(s))
    asym = float(np.linalg.norm(s - s.T))
    rel = asym / scale if scale > 0.0 else 0.0
    return 0.5 * (s + s.T), rel


def check_w_spsd(a, weights: Weights, tol: float = SPSD_TOL) -> None:
    """Certify that WA is symmetric and the spectrum of A is >= 0.

    Raises NumericalError when the operator fails either test beyond the
    relative tolerance.
    """
    a = _check_operator(a, weights)
    s, rel = _symmetrized(a, weights)
    if rel > tol:
        raise NumericalError(f"operator is not self-adjoint (relative asymmetry {rel:.2e})")
    vals = np.linalg.eigvalsh(s)
    top = max(float(vals[-1]), 0.0)
    if float(vals[0]) < -tol * max(top, 1e-300):
        raise NumericalError(
            f"operator has a negative eigenvalue ({vals[0]:.2e} vs largest {top:.2e})"
        )


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    if u.size == 0:
        return u
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs[None, :]


def w_spsd_eigen(a, weights: Weights) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition A = U diag(lam) U' W of a weighted-spsd operator.

    Returns (U, lam) with U' W U = I and lam sorted descending; eigenvalues
    below round-off (relative to the largest) are dropped, so U has one
    column per retained eigenvalue.
    """
    a = _check_operator(a, weights)
    s, rel = _symmetrized(a, weights)
    if rel > SPSD_TOL:
        raise NumericalError(f"operator is not self-adjoint (relative asymmetry {rel:.2e})")
    vals, vecs = np.linalg.eigh(s)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    top = max(float(vals[0]), 0.0)
    if top == 0.0:
        return np.empty((weights.n, 0)), np.empty(0)
    if float(vals[-1]) < -SPSD_TOL * top:
        raise NumericalError(
            f"operator has a negative eigenvalue ({vals[-1]:.2e} vs largest {top:.2e})"
        )
    np.clip(vals, 0.0, None, out=vals)
    keep = int(np.sum(vals > EIGEN_DROP_TOL * top))
    u = vecs[:, :keep] / np.sqrt(weights.w)[:, None]
    return _fix_column_signs(u), vals[:keep]


def numerical_rank(eigenvalues, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues exceeding tol times the largest one."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        return 0
    top = float(np.max(lam))
    if top <= 0.0:
        return 0
    return int(np.sum(lam > tol * top))


def sqrt_spd(m) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix")
    if np.linalg.norm(m - m.T) > 1e-10 * max(np.linalg.norm(m), 1e-300):
        raise ValidationError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    if float(vals[0]) <= 0.0:
        raise ValidationError("matrix is not positive definite")
    return (vecs * np.sqrt(vals)[None, :]) @ vecs.T


def inv_sqrt_spd(m) -> np.ndarray:
    """Inverse symmetric square root, refusing rank-deficient input."""
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    top = float(vals[-1])
    if top <= 0.0 or float(vals[0]) < INV_SQRT_FLOOR * top:
        raise NumericalError("matrix is numerically rank-deficient")
    return (vecs / np.sqrt(vals)[None, :]) @ vecs.T


def w_orthonormal_polar(g, weights: Weights) -> np.ndarray:
    """Weighted polar factor V = W^-1 G (G' W^-1 G)^-1/2.

    V maximizes tr(U'G) over all U with U' W U = I; it is the projection of
    G onto the weighted Stiefel manifold used by the averaging iteration.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != weights.n:
        raise ValidationError(
            f"expected an {weights.n} x H matrix, got shape {g.shape}"
        )
    wig = g / weights.w[:, None]
    return wig @ inv_sqrt_spd(g.T @ wig)
