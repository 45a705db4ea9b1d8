"""Linear algebra under a diagonal observation-weight metric.

Observations carry positive weights summing to one.  The weight vector w
induces the scalar product <x|y> = sum_i w_i x_i y_i on R^n and, through the
trace form tr(A* B) with A* = W^-1 A' W, a euclidean geometry on the space of
n x n operators.  Everything downstream (encodings, distances, averages,
clustering) lives in that geometry, but no operator is ever formed: each is
held as an n x q factor or a W-orthonormal basis with its eigenvalues, so
the helpers here work on n x q matrices and small q x q ones.  A span gets
a W-orthonormal basis from one QR of its whitened columns, with no Gram.
Member weights omega, non-negative shares summing to one (uniform by
default), are checked in one place, as_weight_system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Tolerance used when counting meaningfully non-zero eigenvalues.
RANK_TOL = 1e-10
# Relative floor under which the polar factor refuses a Gram's smallest eigenvalue.
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
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValidationError("weights must be finite and strictly positive")
        return cls(v / v.sum())

    @property
    def n(self) -> int:
        return self.w.size

    def same_as(self, other: "Weights") -> bool:
        return self is other or (self.n == other.n and bool(np.array_equal(self.w, other.w)))


def as_weight_system(omega, k: int) -> np.ndarray:
    """Validate a weight vector over k members, or default to uniform shares."""
    if omega is None:
        return np.full(k, 1.0 / k)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (k,):
        raise ValidationError(f"expected {k} weights, got shape {omega.shape}")
    if np.any(omega < 0.0) or abs(omega.sum() - 1.0) > 1e-12:
        raise ValidationError("weights must be non-negative and sum to 1")
    return omega


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs[None, :]


def numerical_rank(eigenvalues, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues exceeding tol times the largest one."""
    lam = np.asarray(eigenvalues, dtype=float)
    top = float(lam.max()) if lam.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(lam > tol * top))


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


def _polar(x: np.ndarray) -> np.ndarray:
    """Polar factor X (X'X)^-1/2, which maximizes tr(U'X) over U'U = I; on
    whitened rows, W^-1/2 _polar(W^-1/2 G) maximizes tr(U'G) over U'WU = I.
    The inverse square root comes from one eigh of the symmetrised Gram X'X,
    refused as rank-deficient below INV_SQRT_FLOOR of its largest eigenvalue."""
    m = x.T @ x
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    top = float(vals[-1])
    if top <= 0.0 or float(vals[0]) < INV_SQRT_FLOOR * top:
        raise NumericalError("matrix is numerically rank-deficient")
    return x @ ((vecs / np.sqrt(vals)[None, :]) @ vecs.T)


def _w_orthonormal_basis(x: np.ndarray, weights: Weights, what: str) -> np.ndarray:
    """B = W^-1/2 Q from one QR W^1/2 X = Q R, so B'WB = I and B B'W is the
    W-orthogonal projector X (X'WX)^-1 X'W; columns dependent to RANK_TOL,
    r_jj^2 <= RANK_TOL ||W^1/2 x_j||^2 (a squared sine to the earlier
    columns' span, free of scale), raise NumericalError naming `what`."""
    root = np.sqrt(weights.w)[:, None]
    q, r = np.linalg.qr(xw := root * x)
    if np.any(np.abs(np.diagonal(r)) <= RANK_TOL ** 0.5 * np.linalg.norm(xw, axis=0)):
        raise NumericalError(f"{what} has numerically dependent columns")
    return q / root
