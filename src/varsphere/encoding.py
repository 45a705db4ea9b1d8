"""Variable structures and their resultant operators.

A variable-structure is a centred data block X together with a symmetric
positive-definite metric M on its columns.  Its resultant R = X M X' W is a
weighted-spsd operator on observation space; scaled to unit trace norm it
becomes a point on the unit sphere of operator space, which is the common
representation this package clusters and averages.

A resultant is held only as its n x q factor Z = X M^1/2 (over sqrt(||R||)
when normed), R = Z Z' W, and no n x n operator is ever formed:
[R_a|R_b] = ||Z_a' W Z_b||_F^2 and ||R|| = ||Z' W Z||_F, both in O(n q^2);
spectra are taken by the averaging frame, from the Gram of stacked factors.

Numeric variables, categorical variables (through the projector onto their
centred indicator space) and whole metric-weighted blocks all reduce to this
one representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import ZERO_VARIANCE_REL, Weights, sqrt_spd

KINDS = ("numeric", "categorical", "block")


@dataclass(frozen=True)
class VariableStructure:
    """A centred data block with a positive-definite column metric.

    Attributes:
        X: n x q matrix of weighted-centred columns.
        M: q x q symmetric positive-definite metric.
        label: display name.
        kind: one of "numeric", "categorical", "block".
        levels: for categorical structures, the level labels in
            first-appearance order.
    """

    X: np.ndarray
    M: np.ndarray
    label: str
    kind: str
    levels: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown structure kind {self.kind!r}")

    @property
    def q(self) -> int:
        return self.X.shape[1]


def _gram_norm(z: np.ndarray, weights: Weights) -> float:
    """Trace norm ||Z Z' W|| = ||Z' W Z||_F of the operator with factor Z."""
    return float(np.linalg.norm(z.T @ (weights.w[:, None] * z)))


class Resultant:
    """An operator X M X' W, optionally scaled to unit trace norm, held as its
    factor Z (n x q) with op = Z Z' W.  Any factor gives a weighted-spsd
    operator, so the constructor only checks the shape, the entries and, for
    a normed resultant, ||Z' W Z||_F = 1, which `resultant` skips
    (_scaled) for the factors it divides by their own norm.  The factor is
    held C-contiguous: BLAS rounds products by memory layout, so results
    would otherwise depend on how the caller built it."""

    def __init__(self, factor, weights: Weights, normed: bool, label: str = "",
                 *, _scaled: bool = False):
        z = np.ascontiguousarray(factor, dtype=float)
        if z.ndim != 2 or z.shape[0] != weights.n:
            raise ValidationError(
                f"factor shape {z.shape} does not match {weights.n} observations"
            )
        if not np.isfinite(z).all():
            raise ValidationError("factor contains non-finite entries")
        if normed and not _scaled and abs((nrm := _gram_norm(z, weights)) - 1.0) > 1e-8:
            raise ValidationError(f"resultant flagged as normed has norm {nrm!r}")
        self.factor, self.weights, self.normed, self.label = z, weights, bool(normed), label
        self._norm = 1.0 if normed else None

    def norm(self) -> float:
        if self._norm is None:
            self._norm = _gram_norm(self.factor, self.weights)
        return self._norm

    def dot(self, other: "Resultant") -> float:
        """Trace scalar product ||Z_a' W Z_b||_F^2 with another resultant."""
        if not self.weights.same_as(other.weights):
            raise ValidationError("resultants live on different weight systems")
        cross = self.factor.T @ (self.weights.w[:, None] * other.factor)
        return float(np.sum(cross * cross))

    def __repr__(self) -> str:  # pragma: no cover
        tag = "normed" if self.normed else "raw"
        return f"Resultant({self.label or 'unnamed'}, n={self.weights.n}, {tag})"


def resultant(structure: VariableStructure, weights: Weights, normed: bool = True) -> Resultant:
    """R = X M X' W for a structure, normed to unit norm by default.  Its factor
    is X M^1/2; sqrt_spd certifies R as weighted-spsd by rejecting any M that
    is not symmetric positive definite.  A one-column structure (a numeric
    variable) needs no eigensolve: its factor is the column scaled by the
    root of its positive metric, the standardised column."""
    if structure.X.shape[0] != weights.n:
        raise ValidationError("structure and weights disagree on the number of observations")
    m = np.asarray(structure.M, dtype=float)
    if m.shape == (1, 1):
        if not m[0, 0] > 0.0:
            raise ValidationError("matrix is not positive definite")
        z = structure.X * np.sqrt(m[0, 0])
    else:
        z = structure.X @ sqrt_spd(m)
    nrm = _gram_norm(z, weights)
    if nrm <= 1e-300:
        raise NumericalError(f"structure {structure.label!r} has a zero resultant")
    if nrm == np.inf:  # dividing by it would leave a zero factor flagged normed
        raise NumericalError(f"structure {structure.label!r} has a resultant too large to norm")
    if normed:
        z = z / np.sqrt(nrm)
    return Resultant(z, weights, normed=normed, label=structure.label, _scaled=True)


def _center_columns(x: np.ndarray, weights: Weights) -> np.ndarray:
    return x - (weights.w[None, :] @ x)


def encode_numeric(x, weights: Weights, label: str = "") -> VariableStructure:
    """Encode one numeric variable; its normed resultant is the line projector.

    The centred column with metric 1/variance yields R = x~ x~' W for the
    standardized vector x~, a rank-one unit-norm operator that is invariant
    under any affine rescaling a*x + b (a != 0).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != weights.n:
        raise ValidationError(f"expected {weights.n} values for {label!r}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"numeric variable {label!r} contains non-finite values")
    c = x - np.sum(weights.w * x)
    v = float(np.sum(weights.w * c * c))
    if v <= ZERO_VARIANCE_REL * float(np.sum(weights.w * x * x)):
        raise ValidationError(f"numeric variable {label!r} has zero variance")
    return VariableStructure(X=c[:, None], M=np.array([[1.0 / v]]), label=label, kind="numeric")


def encode_categorical(
    labels, weights: Weights, label: str = "", drop_level: int | None = None
) -> VariableStructure:
    """Encode a categorical variable through its centred indicator projector.

    Levels are taken in first-appearance order; one level (the last seen, by
    default) is dropped to make the centred indicators a basis, and the
    metric (X'WX)^-1 turns the resultant into the orthogonal projector onto
    the indicator space.  The projector does not depend on which level was
    dropped, and its norm is sqrt(m - 1) for m levels.
    """
    labels = list(labels)
    if len(labels) != weights.n:
        raise ValidationError(f"expected {weights.n} labels for {label!r}, got {len(labels)}")
    levels = list(dict.fromkeys(labels))
    m = len(levels)
    if m < 2:
        raise ValidationError(f"categorical variable {label!r} has a single level")
    index = {lv: j for j, lv in enumerate(levels)}
    ind = np.zeros((weights.n, m))
    ind[np.arange(weights.n), [index[v] for v in labels]] = 1.0
    drop = m - 1 if drop_level is None else int(drop_level)
    if not 0 <= drop < m:
        raise ValidationError(f"drop_level {drop} out of range for {m} levels")
    kept = [j for j in range(m) if j != drop]
    x = _center_columns(ind[:, kept], weights)
    xtwx = x.T @ (weights.w[:, None] * x)
    metric = np.linalg.inv(xtwx)
    metric = 0.5 * (metric + metric.T)
    return VariableStructure(X=x, M=metric, label=label, kind="categorical",
                             levels=tuple(levels))


def encode_block(x, m, weights: Weights, label: str = "") -> VariableStructure:
    """Encode a whole data block with an explicit positive-definite metric."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != weights.n:
        raise ValidationError(f"block {label!r} must be an n x q matrix with n = {weights.n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"block {label!r} contains non-finite values")
    m = np.asarray(m, dtype=float)
    if m.shape != (x.shape[1], x.shape[1]):
        raise ValidationError(f"metric shape {m.shape} does not fit block with {x.shape[1]} columns")
    sqrt_spd(m)  # validates symmetry and positive definiteness
    xc = _center_columns(x, weights)
    if float(np.max(np.abs(xc))) <= 0.0:
        raise ValidationError(f"block {label!r} is zero after centering")
    return VariableStructure(X=xc, M=m, label=label, kind="block")


def compound_structure(
    structures: list[VariableStructure], omega, weights: Weights, label: str = ""
) -> VariableStructure:
    """Bundle several structures into one block whose normed resultant is the
    normed weighted average of the members' unit-norm resultants.

    Each member contributes the columns sqrt(omega_h / ||R_h||) * X_h M_h^1/2
    under the identity metric, so the compound resultant expands to
    sum_h omega_h R_h / ||R_h||.
    """
    if not structures:
        raise ValidationError("need at least one structure to compound")
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (len(structures),):
        raise ValidationError("one weight per structure is required")
    if np.any(omega < 0.0) or abs(omega.sum() - 1.0) > 1e-12:
        raise ValidationError("structure weights must be non-negative and sum to 1")
    blocks = []
    for share, s in zip(omega, structures):
        if s.X.shape[0] != weights.n:
            raise ValidationError("all structures must share the observation weights")
        blocks.append(np.sqrt(share) * resultant(s, weights).factor)
    x = np.concatenate(blocks, axis=1)
    if _gram_norm(x, weights) <= 1e-300:
        raise NumericalError("compound structure has a zero resultant")
    return VariableStructure(X=x, M=np.eye(x.shape[1]),
                             label=label or "+".join(s.label for s in structures),
                             kind="block")
