"""Encodings of numeric, categorical, and block variables as unit-norm operators."""

import numpy as np
import pytest

from varsphere import (
    NumericalError,
    Resultant,
    ValidationError,
    Weights,
    compound_structure,
    encode_block,
    encode_categorical,
    encode_numeric,
    resultant,
)

from varsphere import encoding
from varsphere.geometry import sqrt_spd

from _support import (
    centred,
    dense,
    eigen,
    indicators,
    inverse_gram,
    operator_dot,
    operator_norm,
    random_labels,
    random_spd,
    random_structure,
    random_weights,
    raw_operator,
    structure_operator,
    weighted_mean,
)


def test_numeric_resultant_is_a_unit_rank_one_projector():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 15))
        w = random_weights(rng, n)
        x = rng.standard_normal(n)
        r = resultant(encode_numeric(x, w), w)
        assert operator_norm(dense(r), w) == pytest.approx(1.0)
        _, lam = eigen(r)
        assert lam.size == 1
        # R equals the outer product of the standardized variable
        c = x - np.sum(w.w * x)
        z = c / np.sqrt(np.sum(w.w * c * c))
        assert np.allclose(dense(r), np.outer(z, z) * w.w[None, :], atol=1e-10)
        # projector: R^2 = R
        assert np.allclose(dense(r) @ dense(r), dense(r), atol=1e-10)


def test_one_column_factors_skip_the_eigensolve_and_the_norm_recheck(monkeypatch):
    rng = np.random.default_rng(7)
    w = random_weights(rng, 12)
    norms, roots = [], []
    gram_norm = encoding._gram_norm
    monkeypatch.setattr(encoding, "_gram_norm", lambda z, ws: norms.append(1) or gram_norm(z, ws))
    monkeypatch.setattr(encoding, "sqrt_spd", lambda m: roots.append(1) or sqrt_spd(m))
    for _ in range(20):
        x = rng.standard_normal(12) * 10.0 ** rng.uniform(-6, 6)
        s = encode_numeric(x, w)
        c = x - np.sum(w.w * x)
        raw = c[:, None] * np.sqrt(1.0 / float(np.sum(w.w * c * c)))
        norms.clear()
        r = resultant(s, w)
        # the centred column scaled by the root of its metric 1/v, bit for
        # bit, normed with one norm
        assert np.array_equal(r.factor, raw / np.sqrt(gram_norm(raw, w)))
        assert len(norms) == 1
    # no structure an encoder builds takes a square root in resultant
    cat = encode_categorical(random_labels(rng, 12, 4), w)
    for built in (cat, compound_structure([s, cat], [0.5, 0.5], w)):
        resultant(built, w)
    assert not roots
    # encode_block takes the one root that validates its metric
    block = encode_block(rng.standard_normal((12, 3)), random_spd(rng, 3), w)
    resultant(block, w)
    assert len(roots) == 1
    # a metric that is not positive definite is refused by that root
    for bad in (0.0, -1.0):
        with pytest.raises(ValidationError, match="not positive definite"):
            encode_block(s.X, np.array([[bad]]), w)
    # a norm that overflows would leave a zero factor
    with pytest.raises(NumericalError, match="too large to norm"), np.errstate(over="ignore"):
        resultant(encode_block(rng.standard_normal((12, 2)) * 1e200, np.eye(2), w), w)


def test_numeric_affine_invariance():
    rng = np.random.default_rng(5)
    w = random_weights(rng, 10)
    x = rng.standard_normal(10)
    base = resultant(encode_numeric(x, w), w)
    # at 1e160 the squares overflow and at 1e-170 they underflow
    for a, b in [(2.5, 0.0), (-1.0, 3.0), (0.01, -7.0), (-300.0, 0.5), (1e160, 0.0), (1e-170, 0.0)]:
        other = resultant(encode_numeric(a * x + b, w), w)
        assert np.allclose(dense(other), dense(base), atol=1e-9)


def test_numeric_rejects_bad_input():
    w = Weights.uniform(5)
    with pytest.raises(ValidationError):
        encode_numeric(np.ones(5), w)  # zero variance
    with pytest.raises(ValidationError):
        encode_numeric(np.arange(4.0), w)  # wrong length
    with pytest.raises(ValidationError):
        encode_numeric(np.array([1.0, np.nan, 0.0, 2.0, 1.0]), w)


def test_categorical_projector_properties():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(6, 20))
        w = random_weights(rng, n)
        m = int(rng.integers(2, 6))
        labels = random_labels(rng, n, m)
        s = encode_categorical(labels, w, label="g")
        assert s.levels == tuple(dict.fromkeys(labels))
        raw = raw_operator(s, w)
        # projector: idempotent with norm sqrt(m - 1)
        assert np.allclose(raw @ raw, raw, atol=1e-8)
        assert operator_norm(raw, w) == pytest.approx(np.sqrt(m - 1.0), abs=1e-8)
        # it fixes every centred indicator column
        for level in s.levels:
            ind = np.array([1.0 if v == level else 0.0 for v in labels])
            ind -= np.sum(w.w * ind)
            assert np.allclose(raw @ ind, ind, atol=1e-8)
        assert np.allclose(dense(resultant(s, w)), raw / np.sqrt(m - 1.0), atol=1e-8)


def test_categorical_drop_level_invariance():
    rng = np.random.default_rng(11)
    w = random_weights(rng, 12)
    labels = random_labels(rng, 12, 4)
    ops = []
    for d in range(4):
        s = encode_categorical(labels, w, drop_level=d)
        # a factor whose operator is the projector X (X'WX)^-1 X'W of the
        # centred indicators kept
        kept = indicators(labels, d)
        assert np.allclose(raw_operator(s, w),
                           structure_operator(kept, inverse_gram(kept, w), w), atol=1e-10)
        ops.append(dense(resultant(s, w)))
    for op in ops[1:]:
        assert np.allclose(op, ops[0], atol=1e-9)


def test_categorical_rejects_degenerate_input():
    w = Weights.uniform(6)
    with pytest.raises(ValidationError):
        encode_categorical(["a"] * 6, w)
    with pytest.raises(ValidationError):
        encode_categorical(["a", "b"], w)
    with pytest.raises(ValidationError):
        encode_categorical(["a", "b"] * 3, w, drop_level=2)


def test_a_level_with_a_vanishing_weight_is_a_projector_direction():
    # the centred indicator of a level carried by weight 1e-12 of the others
    # is short, not dependent: the rank rule reads each column's sine to the
    # span before it, so the level is kept and the operator is a projector
    light = Weights.normalized(np.array([1e-12, 1.0, 1.0, 1.0, 1.0, 1.0]))
    labels = ["rare", "a", "b", "a", "b", "a"]
    s = encode_categorical(labels, light, label="g")
    w, b = light.w[:, None], s.X
    x = centred(indicators(labels, 2), light)
    assert np.allclose(b.T @ (w * b), np.eye(2), atol=1e-12, rtol=0)
    assert np.allclose(b @ (b.T @ (w * x)), x, atol=1e-12, rtol=0)
    raw = raw_operator(s, light)
    assert float(np.max(np.abs(raw @ raw - raw))) <= 1e-12
    assert operator_norm(raw, light) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_block_with_unit_column_matches_numeric():
    rng = np.random.default_rng(13)
    w = random_weights(rng, 9)
    x = rng.standard_normal(9)
    v = float(np.sum(w.w * (x - np.sum(w.w * x)) ** 2))
    rb = resultant(encode_block(x[:, None], np.array([[1.0 / v]]), w), w)
    rn = resultant(encode_numeric(x, w), w)
    assert np.allclose(dense(rb), dense(rn), atol=1e-10)


def test_block_metric_change_of_basis_invariance():
    # X -> X A with M -> A^-1 M A^-T leaves the resultant unchanged
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, q = int(rng.integers(6, 12)), int(rng.integers(2, 4))
        w = random_weights(rng, n)
        x = rng.standard_normal((n, q))
        m = random_spd(rng, q)
        a = rng.standard_normal((q, q)) + 3.0 * np.eye(q)
        ainv = np.linalg.inv(a)
        m2 = ainv @ m @ ainv.T
        m2 = 0.5 * (m2 + m2.T)
        r1 = resultant(encode_block(x, m, w), w)
        r2 = resultant(encode_block(x @ a, m2, w), w)
        assert np.allclose(dense(r1), dense(r2), atol=1e-8)


def test_block_centers_its_columns():
    rng = np.random.default_rng(19)
    w = random_weights(rng, 8)
    x = rng.standard_normal((8, 2)) + 5.0
    s = encode_block(x, np.eye(2), w)
    assert np.allclose(w.w[None, :] @ s.X, 0.0, atol=1e-12)
    with pytest.raises(ValidationError):
        encode_block(np.ones((8, 2)), np.eye(2), w)  # zero after centering
    with pytest.raises(ValidationError):
        encode_block(x, np.eye(3), w)  # metric shape mismatch
    with pytest.raises(ValidationError):
        encode_block(x, -np.eye(2), w)  # not positive definite


def test_compound_is_the_weighted_average_of_member_spheres():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(8, 14))
        w = random_weights(rng, n)
        members = [
            random_structure(rng, w, kind)
            for kind in ("numeric", "categorical", "block")
        ]
        omega = rng.uniform(0.2, 1.0, size=3)
        omega /= omega.sum()
        comp = resultant(compound_structure(members, omega, w, label="bundle"), w)
        mean = weighted_mean([resultant(s, w) for s in members], omega)
        assert np.allclose(dense(comp), dense(mean) / operator_norm(dense(mean), w), atol=1e-9)
        assert operator_norm(dense(comp), w) == pytest.approx(1.0)


def test_compound_weight_validation():
    rng = np.random.default_rng(29)
    w = random_weights(rng, 8)
    members = [random_structure(rng, w, "numeric") for _ in range(2)]
    with pytest.raises(ValidationError):
        compound_structure(members, [0.7, 0.7], w)
    with pytest.raises(ValidationError):
        compound_structure(members, [1.0], w)
    with pytest.raises(ValidationError):
        compound_structure([], [], w)


def test_compound_without_weights_takes_uniform_shares():
    # omega=None means uniform shares, as it does for the averages
    rng = np.random.default_rng(37)
    w = random_weights(rng, 8)
    members = [random_structure(rng, w, kind) for kind in ("numeric", "categorical", "block")]
    plain = compound_structure(members, None, w)
    assert np.array_equal(plain.X, compound_structure(members, np.full(3, 1.0 / 3.0), w).X)
    mean = weighted_mean([resultant(s, w) for s in members])
    assert np.allclose(dense(resultant(plain, w)), dense(mean) / operator_norm(dense(mean), w),
                       atol=1e-9)


def test_resultant_validation_and_dot():
    rng = np.random.default_rng(31)
    w = random_weights(rng, 9)
    s = encode_categorical(random_labels(rng, 9, 3), w, label="g")
    r = resultant(s, w)
    raw = raw_operator(s, w)
    assert r.dot(r) == pytest.approx(1.0)
    assert operator_dot(dense(r), dense(r), w) == pytest.approx(r.dot(r), abs=1e-10)
    # the normed projector pairs with the raw one at the raw norm, sqrt(m - 1)
    assert operator_dot(dense(r), raw, w) == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert encoding._gram_norm(s.X, w) == pytest.approx(operator_norm(raw, w))
    w2 = random_weights(rng, 9)
    other = resultant(random_structure(rng, w2, "numeric"), w2)
    with pytest.raises(ValidationError):
        r.dot(other)
    # a raw factor is refused: the W-orthonormal basis of m = 3 levels has
    # norm sqrt(m - 1), and every resultant has norm 1
    with pytest.raises(ValidationError, match=r"norm 1\.41421356"):
        Resultant(s.X, w)
    with pytest.raises(ValidationError):
        Resultant(np.ones((3, 3)), w)  # wrong shape
    with pytest.raises(ValidationError):
        Resultant(np.ones(9), w)  # not 2-d
    with pytest.raises(ValidationError):
        Resultant(np.full((9, 2), np.nan), w)
