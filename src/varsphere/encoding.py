"""Variable structures and their resultant operators.

A variable-structure is a centred data block with a symmetric
positive-definite metric M on its columns, held as its n x q factor
Z = X M^1/2: `VariableStructure(X = Z)`.  Its resultant R = Z Z' W is a
weighted-spsd operator on observation space; scaled to unit trace norm it
becomes a point on the unit sphere of operator space, which is the common
representation this package clusters and averages.  A rank-H average is a
point of the same sphere, the resultant whose factor is U Lam^1/2.

Every resultant has unit norm: `resultant` divides the factor by sqrt(||R||),
and the constructor refuses a factor of any other norm.  A resultant is held
only as its factor, and no n x n operator is ever formed:
||R|| = ||Z' W Z||_F (_gram_norm) and [R_a|R_b] = ||Z_a' W Z_b||_F^2, both in
O(n q^2).  Every trace product is one kernel: `cosines` stacks the whitened
factors (_stack) and sums the squared product block by block (_block_sums);
Resultant.dot is its 1 x 1 case, and the averaging frame applies _block_sums
to the Gram of the same stack.

Every encoder returns that factor, so `resultant` only norms it; a metric is
given only through `encode_block`, which takes its one square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import ZERO_VARIANCE_REL, Weights, _w_orthonormal_basis, as_weight_system, sqrt_spd

KINDS = ("numeric", "categorical", "block")


@dataclass(frozen=True)
class VariableStructure:
    """A centred data block under its column metric, held as its factor.

    Attributes:
        X: n x q factor Z = X M^1/2 of the weighted-centred columns under
            their metric, so that the structure's resultant is Z Z' W.
        label: display name.
        kind: one of "numeric", "categorical", "block".
        levels: for categorical structures, the level labels in
            first-appearance order.
    """

    X: np.ndarray
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
    """A unit-norm operator Z Z' W, held as its n x q factor Z.  Any factor
    gives a weighted-spsd operator, so the constructor only checks the shape,
    the entries and ||Z' W Z||_F = 1 within 1e-8, which `resultant` and
    RankHOperator skip (_scaled) for the factors they have just divided by
    their own norm.  The factor is held C-contiguous: BLAS rounds products by
    memory layout, so results would otherwise depend on how the caller built
    it."""

    def __init__(self, factor, weights: Weights, label: str = "", *, _scaled: bool = False):
        z = np.ascontiguousarray(factor, dtype=float)
        if z.ndim != 2 or z.shape[0] != weights.n:
            raise ValidationError(
                f"factor shape {z.shape} does not match {weights.n} observations"
            )
        if not np.isfinite(z).all():
            raise ValidationError("factor contains non-finite entries")
        if not _scaled and abs((nrm := _gram_norm(z, weights)) - 1.0) > 1e-8:
            raise ValidationError(f"resultant has norm {nrm!r}, not 1")
        self.factor, self.weights, self.label = z, weights, label

    def dot(self, other: "Resultant") -> float:
        """Trace scalar product ||Z_a' W Z_b||_F^2 with another resultant."""
        return float(cosines([self], [other])[0, 0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Resultant({self.label or 'unnamed'}, n={self.weights.n})"


def _stack(resultants: list[Resultant]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whitened factors side by side, W^1/2 [Z_1 ... Z_K], the width q_k of
    each and the column each starts at."""
    widths = np.array([r.factor.shape[1] for r in resultants])
    return (np.sqrt(resultants[0].weights.w)[:, None] * np.hstack([r.factor for r in resultants]),
            widths, np.cumsum(widths) - widths)


def _block_sums(t: np.ndarray, rows, cols) -> np.ndarray:
    """The sums of t^2 over the blocks that start at `rows` and `cols`: for
    t = Z_a' W Z_b of stacked factors, the scalar products ||Z_k' W Z_l||_F^2."""
    return np.add.reduceat(np.add.reduceat(t * t, rows, axis=0), cols, axis=1)


def _common_weights(*groups: list[Resultant]) -> Weights:
    """The one weight system of the resultants in every group; an empty group,
    or resultants on different systems, raise ValidationError."""
    if not all(groups):
        raise ValidationError("need at least one resultant")
    weights = groups[0][0].weights
    if not all(r.weights.same_as(weights) for group in groups for r in group):
        raise ValidationError("resultants live on different weight systems")
    return weights


def cosines(a: list[Resultant], b: list[Resultant]) -> np.ndarray:
    """Trace scalar products [A_k | B_l] = ||Z_k' W Z_l||_F^2, len(a) x len(b)."""
    _common_weights(a, b)
    (za, _, rows), (zb, _, cols) = _stack(a), _stack(b)
    return _block_sums(za.T @ zb, rows, cols)


def resultant(structure: VariableStructure, weights: Weights) -> Resultant:
    """The unit-norm resultant X X' W / ||X X' W|| of a structure's factor X."""
    if structure.X.shape[0] != weights.n:
        raise ValidationError("structure and weights disagree on the number of observations")
    nrm = _gram_norm(structure.X, weights)
    if nrm <= 1e-300:
        raise NumericalError(f"structure {structure.label!r} has a zero resultant")
    if nrm == np.inf:  # dividing by it would leave a zero factor
        raise NumericalError(f"structure {structure.label!r} has a resultant too large to norm")
    return Resultant(structure.X / np.sqrt(nrm), weights, structure.label, _scaled=True)


def _center_columns(x: np.ndarray, weights: Weights) -> np.ndarray:
    return x - (weights.w[None, :] @ x)


def encode_numeric(x, weights: Weights, label: str = "") -> VariableStructure:
    """Encode one numeric variable as its standardised column c / sqrt(v).

    Its resultant R = c c' W / v is the rank-one line projector of unit norm,
    invariant under any affine rescaling a*x + b (a != 0).  A column whose
    variance is at most ZERO_VARIANCE_REL of its second moment is tested again
    divided by its largest magnitude, so squares that over- or underflow do
    not refuse it; at that scale it is constant.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != weights.n:
        raise ValidationError(f"expected {weights.n} values for {label!r}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"numeric variable {label!r} contains non-finite values")
    c = x - np.sum(weights.w * x)
    with np.errstate(over="ignore"):  # an overflow refuses, and is rescaled below
        v = float(np.sum(weights.w * c * c))
        constant = v <= ZERO_VARIANCE_REL * float(np.sum(weights.w * x * x))
    if constant:
        if (top := float(np.max(np.abs(x)))) in (0.0, 1.0):  # constant at unit scale
            raise ValidationError(f"numeric variable {label!r} has zero variance")
        return encode_numeric(x / top, weights, label)  # its largest magnitude is then 1
    return VariableStructure(c[:, None] * np.sqrt(1.0 / v), label, "numeric")


def _centred_indicators(labels, weights: Weights, label: str,
                        drop_level: int | None = None) -> tuple[list, np.ndarray]:
    """The levels of a categorical variable, in first-appearance order, and
    its centred indicator columns less the dropped level (the last, by default)."""
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
    return levels, _center_columns(ind[:, [j for j in range(m) if j != drop]], weights)


def encode_categorical(labels, weights: Weights, label: str = "",
                       drop_level: int | None = None) -> VariableStructure:
    """Encode a categorical variable as a W-orthonormal basis B of its centred
    indicators X, from one QR; its resultant B B'W is the W-orthogonal
    projector X (X'WX)^-1 X'W onto the indicator space.

    Levels are taken in first-appearance order; one level (the last seen, by
    default) is dropped to make the centred indicators a basis.  The projector
    does not depend on which level was dropped, and its norm is sqrt(m - 1)
    for m levels.
    """
    levels, x = _centred_indicators(labels, weights, label, drop_level)
    basis = _w_orthonormal_basis(x, weights, f"categorical variable {label!r}")
    return VariableStructure(basis, label, "categorical", tuple(levels))


def encode_block(x, m, weights: Weights, label: str = "") -> VariableStructure:
    """Encode a data block X with a positive-definite metric M as its factor
    X M^1/2, the one way to give a structure a metric."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != weights.n:
        raise ValidationError(f"block {label!r} must be an n x q matrix with n = {weights.n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"block {label!r} contains non-finite values")
    m = np.asarray(m, dtype=float)
    if m.shape != (x.shape[1], x.shape[1]):
        raise ValidationError(f"metric shape {m.shape} does not fit block with {x.shape[1]} columns")
    root = sqrt_spd(m)  # validates symmetry and positive definiteness
    xc = _center_columns(x, weights)
    if float(np.max(np.abs(xc))) <= 0.0:
        raise ValidationError(f"block {label!r} is zero after centering")
    return VariableStructure(xc @ root, label, "block")


def compound_structure(
    structures: list[VariableStructure], omega, weights: Weights, label: str = ""
) -> VariableStructure:
    """Bundle several structures into one block whose resultant is the
    weighted average of the members' resultants, scaled back to unit norm.

    Each member contributes its factor's columns scaled by
    sqrt(omega_h / ||X_h X_h' W||), so the compound's factor has the operator
    sum_h omega_h R_h, which `resultant` norms.
    """
    if not structures:
        raise ValidationError("need at least one structure to compound")
    blocks = []
    for share, s in zip(as_weight_system(omega, len(structures)), structures):
        if s.X.shape[0] != weights.n:
            raise ValidationError("all structures must share the observation weights")
        blocks.append(np.sqrt(share) * resultant(s, weights).factor)
    x = np.concatenate(blocks, axis=1)
    if _gram_norm(x, weights) <= 1e-300:
        raise NumericalError("compound structure has a zero resultant")
    return VariableStructure(x, label or "+".join(s.label for s in structures), "block")
