"""Distances and association measures between resultant operators.

Unit-norm resultants live on the sphere of operator space, where two natural
metrics coexist: the chord (straight-line) distance and the geodesic
(arc-length) distance.  Both are functions of the trace scalar product, which
for variable encodings expands into sums of squared correlations between
factor columns, ||Z_a' W Z_b||_F^2 (encoding.cosines, which refuses operands
on different weight systems), so the classical RV, phi-square and Tschuprow
association measures all appear as cosines here.  _sq_dist_from_cos is the
one map from a cosine to either squared distance; K-means, the averaging
objective and the command line read it too.  A rank-H centroid is a
resultant, so every function taking two resultants takes it too.
"""

from __future__ import annotations

import numpy as np

from .encoding import Resultant, VariableStructure, resultant
from .errors import NumericalError, ValidationError
from .geometry import Weights

COS_SLACK = 1e-8


def _require_normed(*rs: Resultant) -> None:
    for r in rs:
        if not r.normed:
            raise ValidationError("this distance is defined for unit-norm resultants only")


def clamped_cosine(value: float) -> float:
    """Clip a cosine to [-1, 1], refusing values far outside the range."""
    if value > 1.0 + COS_SLACK or value < -COS_SLACK:
        raise NumericalError(f"cosine {value!r} is outside the tolerated range")
    return min(max(value, -1.0), 1.0)


def _sq_dist_from_cos(cos, distance: str):
    """Squared chord, 2 (1 - cos) >= 0, or geodesic, arccos(cos)^2, distance from a cosine."""
    if distance == "chord":
        return np.maximum(2.0 * (1.0 - cos), 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0)) ** 2


def chord_dist(a: Resultant, b: Resultant) -> float:
    """Straight-line distance sqrt(2 (1 - [A|B])) between unit-norm operators."""
    _require_normed(a, b)
    return float(np.sqrt(_sq_dist_from_cos(a.dot(b), "chord")))


def geodesic_dist(a: Resultant, b: Resultant) -> float:
    """Arc-length distance arccos([A|B]) on the unit sphere of operators."""
    _require_normed(a, b)
    return float(np.arccos(clamped_cosine(a.dot(b))))


def rv_cos(a: Resultant, b: Resultant) -> float:
    """Cosine [A|B] / (||A|| ||B||); the RV coefficient of the two structures."""
    na, nb = a.norm(), b.norm()
    if na <= 0.0 or nb <= 0.0:
        raise NumericalError("cannot take the cosine with a zero operator")
    return a.dot(b) / (na * nb)


def phi2(xs: VariableStructure, ys: VariableStructure, weights: Weights) -> float:
    """Mean-square contingency between two categorical structures.

    Computed as the trace scalar product of the two indicator-space
    projectors; it equals the weighted contingency-table statistic
    sum_ij (p_ij - p_i p_j)^2 / (p_i p_j).
    """
    if xs.kind != "categorical" or ys.kind != "categorical":
        raise ValidationError("phi2 is defined for categorical structures")
    px = resultant(xs, weights, normed=False)
    py = resultant(ys, weights, normed=False)
    return px.dot(py)


def tschuprow(xs: VariableStructure, ys: VariableStructure, weights: Weights) -> float:
    """Tschuprow-normalized association: the cosine of the normed projectors.

    Equals phi2 / (sqrt(r - 1) sqrt(s - 1)) for r and s levels; its square is
    the classical Tschuprow T^2.
    """
    value = phi2(xs, ys, weights)
    r = len(xs.levels)
    s = len(ys.levels)
    return value / (np.sqrt(r - 1.0) * np.sqrt(s - 1.0))
