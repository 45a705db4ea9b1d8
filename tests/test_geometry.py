"""Weights, the dense trace-form oracles, eigendecompositions, polar factors."""

import numpy as np
import pytest

from varsphere import NumericalError, ValidationError, Weights
from varsphere.geometry import _polar, numerical_rank, sqrt_spd

from _support import (
    align_signs,
    dense,
    operator_dot,
    operator_norm,
    random_normed_resultant,
    random_w_orthonormal,
    random_weights,
    w_spsd_eigen,
    weighted_polar,
)


def test_weights_validation():
    with pytest.raises(ValidationError):
        Weights(np.array([0.5, 0.6]))  # does not sum to one
    with pytest.raises(ValidationError):
        Weights(np.array([1.5, -0.5]))
    with pytest.raises(ValidationError):
        Weights(np.array([[0.5, 0.5]]))
    with pytest.raises(ValidationError):
        Weights.normalized([1.0, 0.0, 2.0])
    w = Weights.normalized([2.0, 6.0])
    assert np.allclose(w.w, [0.25, 0.75])
    assert w.n == 2
    assert w.same_as(Weights(np.array([0.25, 0.75])))
    assert not w.same_as(Weights.uniform(2))
    assert not w.same_as(Weights.uniform(3))


def test_operator_dot_is_the_trace_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        w = random_weights(rng, n)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        literal = float(np.trace(np.diag(1.0 / w.w) @ a.T @ np.diag(w.w) @ b))  # tr(W^-1 A' W B)
        assert operator_dot(a, b, w) == pytest.approx(literal, abs=1e-10)
        assert operator_dot(a, b, w) == pytest.approx(operator_dot(b, a, w), abs=1e-10)
        assert operator_norm(a, w) == pytest.approx(np.sqrt(operator_dot(a, a, w)))


def test_operator_dot_of_spsd_pairs_reduces_to_plain_trace():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        w = random_weights(rng, n)
        a = dense(random_normed_resultant(rng, w))
        b = dense(random_normed_resultant(rng, w))
        assert operator_dot(a, b, w) == pytest.approx(float(np.sum(a * b.T)), abs=1e-10)
        assert operator_dot(a, b, w) >= -1e-12  # spsd cone is self-dual


def test_eigen_reconstructs_and_is_w_orthonormal():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        w = random_weights(rng, n)
        r = random_normed_resultant(rng, w)
        u, lam = w_spsd_eigen(dense(r), w)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.all(lam >= 0.0)
        gram = u.T @ (w.w[:, None] * u)
        assert np.allclose(gram, np.eye(u.shape[1]), atol=1e-10)
        rebuilt = (u * lam[None, :]) @ u.T * w.w[None, :]
        assert np.allclose(rebuilt, dense(r), atol=1e-10)
        # sign convention: the largest-magnitude entry of each column is positive
        idx = np.argmax(np.abs(u), axis=0)
        assert np.all(u[idx, np.arange(u.shape[1])] > 0.0)


def test_eigen_recovers_a_planted_spectrum():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        h = int(rng.integers(1, n))
        w = random_weights(rng, n)
        u0 = random_w_orthonormal(rng, w, h)
        lam0 = np.sort(rng.uniform(0.5, 3.0, size=h))[::-1]
        lam0 += np.linspace(0.2, 0.0, h)  # keep the eigenvalues distinct
        op = (u0 * lam0[None, :]) @ u0.T * w.w[None, :]
        u, lam = w_spsd_eigen(op, w)
        assert lam.size == h
        assert np.allclose(lam, lam0, atol=1e-9)
        assert np.allclose(align_signs(u, u0), u0, atol=1e-7)


def test_eigen_matches_numpy_under_uniform_weights():
    rng = np.random.default_rng(31)
    n = 7
    w = Weights.uniform(n)
    x = rng.standard_normal((n, 4))
    op = (x @ x.T) * w.w[None, :]
    _, lam = w_spsd_eigen(op, w)
    ref = np.linalg.eigvalsh((x @ x.T) / n)[::-1]
    assert np.allclose(lam, ref[: lam.size], atol=1e-10)


def test_eigen_drops_round_off_tail_and_zero_operator():
    w = Weights.uniform(4)
    u, lam = w_spsd_eigen(np.zeros((4, 4)), w)
    assert lam.size == 0 and u.shape == (4, 0)
    x = np.array([1.0, -1.0, 0.5, -0.5])
    op = np.outer(x, x) * w.w[None, :]
    _, lam = w_spsd_eigen(op, w)
    assert lam.size == 1  # the numerically-zero directions disappear


def test_numerical_rank():
    assert numerical_rank(np.array([3.0, 2.0, 1e-14])) == 2
    assert numerical_rank(np.array([3.0, 2.0, 1.0])) == 3
    assert numerical_rank(np.array([])) == 0
    assert numerical_rank(np.array([0.0, 0.0])) == 0


def test_sqrt_and_inv_sqrt():
    rng = np.random.default_rng(37)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        a = rng.standard_normal((q, q))
        m = a @ a.T + q * np.eye(q)
        s = sqrt_spd(m)
        assert np.allclose(s, s.T)
        assert np.allclose(s @ s, m, atol=1e-9)
        # the polar factor of s is s M^-1/2, and s's Gram is M: S M S = I
        polar = _polar(s)
        assert np.allclose(polar.T @ polar, np.eye(q), atol=1e-9)
    with pytest.raises(ValidationError):
        sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        sqrt_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError):
        _polar(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_polar_factor_is_w_orthonormal_and_idempotent():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        h = int(rng.integers(1, n))
        w = random_weights(rng, n)
        g = rng.standard_normal((n, h))
        v = weighted_polar(g, w)
        gram = v.T @ (w.w[:, None] * v)
        assert np.allclose(gram, np.eye(h), atol=1e-10)
        # the map inverts G = W V S (gradients carry a leading W), so an
        # orthonormal factor presented in those coordinates is a fixed point
        assert np.allclose(weighted_polar(w.w[:, None] * v, w), v, atol=1e-9)


def test_polar_factor_strips_an_spd_right_factor():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        h = int(rng.integers(1, n))
        w = random_weights(rng, n)
        u0 = random_w_orthonormal(rng, w, h)
        a = rng.standard_normal((h, h))
        p = a @ a.T + h * np.eye(h)
        g = w.w[:, None] * (u0 @ p)
        assert np.allclose(weighted_polar(g, w), u0, atol=1e-8)


def test_polar_factor_maximizes_the_trace_pairing():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        h = int(rng.integers(1, n))
        w = random_weights(rng, n)
        g = rng.standard_normal((n, h))
        v = weighted_polar(g, w)
        best = float(np.trace(v.T @ g))
        for _ in range(50):
            other = random_w_orthonormal(rng, w, h)
            assert float(np.trace(other.T @ g)) <= best + 1e-9
