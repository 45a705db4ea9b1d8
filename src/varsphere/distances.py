"""Distances and association measures between resultant operators.

Every resultant has unit norm, so every one lives on the sphere of operator
space, where two natural metrics coexist: the chord (straight-line) distance
and the geodesic (arc-length) distance.  Both are functions of the trace
scalar product, which for variable encodings expands into sums of squared
correlations between factor columns, ||Z_a' W Z_b||_F^2 (encoding.cosines,
which refuses operands on different weight systems), so the classical RV and
Tschuprow association measures are cosines here, and phi-square is the
Tschuprow cosine scaled by sqrt(q_x q_y).  _sq_dist_from_cos is the one map
from a cosine to either squared distance; both distances, K-means, the
averaging objective and the command line read it.  A rank-H centroid is a
resultant, so every function taking two resultants takes it too.
"""

from __future__ import annotations

import numpy as np

from .encoding import Resultant, VariableStructure, resultant
from .errors import ValidationError
from .geometry import Weights


def _sq_dist_from_cos(cos, distance: str):
    """Squared chord, 2 (1 - cos) >= 0, or geodesic, arccos(cos)^2, distance from a cosine."""
    if distance == "chord":
        return np.maximum(2.0 * (1.0 - cos), 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0)) ** 2


def chord_dist(a: Resultant, b: Resultant) -> float:
    """Straight-line distance sqrt(2 (1 - [A|B])) between unit-norm operators."""
    return float(np.sqrt(_sq_dist_from_cos(a.dot(b), "chord")))


def geodesic_dist(a: Resultant, b: Resultant) -> float:
    """Arc-length distance arccos([A|B]) on the unit sphere of operators."""
    return float(np.sqrt(_sq_dist_from_cos(a.dot(b), "geodesic")))


def rv_cos(a: Resultant, b: Resultant) -> float:
    """Cosine [A|B] of two unit-norm operators; for two structures'
    resultants, their RV coefficient [R_a|R_b] / (||R_a|| ||R_b||)."""
    return a.dot(b)


def tschuprow(xs: VariableStructure, ys: VariableStructure, weights: Weights) -> float:
    """Tschuprow-normalized association of two categorical structures: the
    cosine of their normed indicator-space projectors.

    Equals phi2 / sqrt(q_x q_y) for q = levels - 1 columns; its square is the
    classical Tschuprow T^2.
    """
    if xs.kind != "categorical" or ys.kind != "categorical":
        raise ValidationError("phi2 and tschuprow are defined for categorical structures")
    return resultant(xs, weights).dot(resultant(ys, weights))


def phi2(xs: VariableStructure, ys: VariableStructure, weights: Weights) -> float:
    """Mean-square contingency between two categorical structures.

    A projector onto q = levels - 1 W-orthonormal columns has norm sqrt(q),
    so the trace scalar product of the two projectors is their cosine
    (tschuprow) times sqrt(q_x q_y); it equals the weighted contingency-table
    statistic sum_ij (p_ij - p_i p_j)^2 / (p_i p_j).
    """
    return float(tschuprow(xs, ys, weights) * np.sqrt(xs.q * ys.q))
