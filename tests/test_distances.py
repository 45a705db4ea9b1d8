"""Chord and geodesic distances and association measures."""

import numpy as np
import pytest

from varsphere import (
    Resultant,
    ValidationError,
    chord_dist,
    encode_categorical,
    geodesic_dist,
    phi2,
    resultant,
    rv_cos,
    tschuprow,
)

from _support import (
    dense,
    operator_dot,
    operator_norm,
    random_labels,
    random_normed_resultant,
    random_rank_h,
    random_structure,
    random_weights,
    raw_operator,
)


def contingency_phi2(labels_x, labels_y, w):
    """Independent oracle: the weighted mean-square contingency statistic."""
    lx = list(dict.fromkeys(labels_x))
    ly = list(dict.fromkeys(labels_y))
    p = np.zeros((len(lx), len(ly)))
    for weight, a, b in zip(w.w, labels_x, labels_y):
        p[lx.index(a), ly.index(b)] += weight
    pi = p.sum(axis=1)
    pj = p.sum(axis=0)
    expected = np.outer(pi, pj)
    return float(np.sum((p - expected) ** 2 / expected))


def test_distance_formulas_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(4, 10))
        w = random_weights(rng, n)
        a = random_normed_resultant(rng, w)
        b = random_normed_resultant(rng, w)
        c = a.dot(b)
        assert 0.0 <= c <= 1.0 + 1e-12
        assert chord_dist(a, b) == pytest.approx(np.sqrt(2.0 * (1.0 - c)), abs=1e-12)
        assert geodesic_dist(a, b) == pytest.approx(np.arccos(min(c, 1.0)), abs=1e-12)
        assert chord_dist(a, b) == pytest.approx(chord_dist(b, a))
        assert geodesic_dist(a, b) == pytest.approx(geodesic_dist(b, a))
        assert chord_dist(a, a) == pytest.approx(0.0, abs=1e-6)
        assert geodesic_dist(a, a) == pytest.approx(0.0, abs=1e-5)


def test_distances_take_a_centroid_directly():
    # a rank-H centroid is a unit-norm resultant; the oracle is its dense
    # operator U Lam U' W, built from (U, lam) and not from its factor
    rng = np.random.default_rng(9)
    for _ in range(30):
        w = random_weights(rng, int(rng.integers(4, 9)))
        a = random_normed_resultant(rng, w)
        c = random_rank_h(rng, w, int(rng.integers(1, 4)))
        for x, y in ((a, c), (c, a), (c, c)):
            cos = operator_dot(dense(x), dense(y), w)
            assert chord_dist(x, y) == pytest.approx(np.sqrt(max(2.0 * (1.0 - cos), 0.0)),
                                                     abs=1e-7)
            assert geodesic_dist(x, y) == pytest.approx(np.arccos(min(cos, 1.0)), abs=1e-6)
            assert rv_cos(x, y) == pytest.approx(
                cos / (operator_norm(dense(x), w) * operator_norm(dense(y), w)), abs=1e-10)


def test_chord_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(40):
        w = random_weights(rng, 6)
        a, b, c = (random_normed_resultant(rng, w) for _ in range(3))
        assert chord_dist(a, c) <= chord_dist(a, b) + chord_dist(b, c) + 1e-12


def test_distances_require_matching_unit_norm_operands():
    # every operand has unit norm by type: a raw operator is refused when it
    # is built (see also test_resultant_validation_and_dot)
    rng = np.random.default_rng(7)
    w = random_weights(rng, 8)
    a = random_normed_resultant(rng, w)
    s = random_structure(rng, w, "categorical")
    with pytest.raises(ValidationError, match="norm"):
        Resultant(s.X, w)
    w2 = random_weights(rng, 8)
    b = random_normed_resultant(rng, w2)
    with pytest.raises(ValidationError):
        chord_dist(a, b)


def test_both_distances_take_a_resultant_the_constructor_accepts():
    # a factor of norm 1 + 0.9e-8 passes the constructor's 1e-8 check, and
    # its cosine with itself, 1 + 1.8e-8, is a distance of 0 in either metric
    rng = np.random.default_rng(23)
    w = random_weights(rng, 8)
    r = random_normed_resultant(rng, w)
    r = Resultant(r.factor * np.sqrt(1.0 + 0.9e-8), w)
    assert r.dot(r) > 1.0 + 1e-8
    assert chord_dist(r, r) == 0.0
    assert geodesic_dist(r, r) == 0.0


def test_rv_cos_is_the_rv_coefficient_of_the_raw_operators():
    # rv_cos of the unit-norm resultants is [S|T] / (||S|| ||T||) of the
    # structures' raw operators X X' W
    rng = np.random.default_rng(11)
    w = random_weights(rng, 10)
    s = random_structure(rng, w, "block")
    t = random_structure(rng, w, "numeric")
    raw_s, raw_t = raw_operator(s, w), raw_operator(t, w)
    unit_s = resultant(s, w)
    unit_t = resultant(t, w)
    rv = operator_dot(raw_s, raw_t, w) / (operator_norm(raw_s, w) * operator_norm(raw_t, w))
    assert rv_cos(unit_s, unit_t) == pytest.approx(rv, abs=1e-10)
    assert rv_cos(unit_s, unit_t) == unit_s.dot(unit_t)
    assert rv_cos(unit_s, unit_s) == pytest.approx(1.0)


def test_phi2_matches_the_contingency_oracle():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(10, 60))
        w = random_weights(rng, n, uniform=trial % 2 == 0)
        lx = random_labels(rng, n, int(rng.integers(2, 5)))
        ly = random_labels(rng, n, int(rng.integers(2, 5)))
        sx = encode_categorical(lx, w, label="x")
        sy = encode_categorical(ly, w, label="y")
        oracle = contingency_phi2(lx, ly, w)
        assert phi2(sx, sy, w) == pytest.approx(oracle, abs=1e-10)
        assert phi2(sx, sy, w) == pytest.approx(phi2(sy, sx, w), abs=1e-10)


def test_phi2_of_identical_and_refined_partitions():
    rng = np.random.default_rng(17)
    w = random_weights(rng, 30)
    labels = random_labels(rng, 30, 4)
    s = encode_categorical(labels, w, label="x")
    assert phi2(s, s, w) == pytest.approx(3.0, abs=1e-9)
    assert tschuprow(s, s, w) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError):
        phi2(s, random_structure(rng, w, "numeric"), w)


def test_tschuprow_is_the_projector_cosine():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(12, 40))
        w = random_weights(rng, n)
        lx = random_labels(rng, n, int(rng.integers(2, 5)))
        ly = random_labels(rng, n, int(rng.integers(2, 5)))
        sx, sy = encode_categorical(lx, w), encode_categorical(ly, w)
        t = tschuprow(sx, sy, w)
        assert -1e-12 <= t <= 1.0 + 1e-9
        cos = resultant(sx, w).dot(resultant(sy, w))
        assert t == pytest.approx(cos, abs=1e-10)
        # phi2 over sqrt((r - 1)(s - 1)), from the contingency table
        r, c = len(set(lx)), len(set(ly))
        assert t == pytest.approx(contingency_phi2(lx, ly, w) / np.sqrt((r - 1.0) * (c - 1.0)),
                                  abs=1e-10)
