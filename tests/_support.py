"""Shared helpers for the test suite: random weight systems, structures,
and unit-norm operators on the weighted sphere."""

import numpy as np

from varsphere import (
    RankHOperator,
    Resultant,
    Weights,
    encode_block,
    encode_categorical,
    encode_numeric,
    operator_norm,
    w_orthonormal_polar,
)


def random_weights(rng, n, uniform=False):
    """A weight system, uniform or drawn from U[0.5, 2) and normalized."""
    if uniform:
        return Weights.uniform(n)
    return Weights.normalized(rng.uniform(0.5, 2.0, size=n))


def random_labels(rng, n, m):
    """A label list of length n covering exactly m levels."""
    codes = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(codes)
    return [f"lv{c}" for c in codes]


def random_spd(rng, q):
    a = rng.standard_normal((q, q))
    return a @ a.T + q * np.eye(q)


def random_structure(rng, weights, kind):
    """A random variable-structure of the given kind on the weight system."""
    n = weights.n
    if kind == "numeric":
        return encode_numeric(rng.standard_normal(n), weights, label="num")
    if kind == "categorical":
        m = int(rng.integers(2, min(5, n - 1) + 1))
        return encode_categorical(random_labels(rng, n, m), weights, label="cat")
    q = int(rng.integers(1, 4))
    x = rng.standard_normal((n, q))
    return encode_block(x, random_spd(rng, q), weights, label="blk")


def random_normed_resultant(rng, weights, rank=None):
    """A unit-norm weighted-spsd operator; generic rank < n unless given."""
    n = weights.n
    q = int(rank) if rank is not None else int(rng.integers(1, n))
    x = rng.standard_normal((n, q))
    op = (x @ x.T) * weights.w[None, :]
    return Resultant(op / operator_norm(op, weights), weights, normed=True)


def random_w_orthonormal(rng, weights, h):
    """An n x h basis with U'WU = I."""
    return w_orthonormal_polar(rng.standard_normal((weights.n, h)), weights)


def random_rank_h(rng, weights, h):
    """A rank-h point U diag(lam) U' W of the sphere with random eigenpairs."""
    lam = np.sort(rng.uniform(0.1, 1.0, size=h))[::-1]
    return RankHOperator(random_w_orthonormal(rng, weights, h), lam / np.linalg.norm(lam), weights)


def align_signs(u, ref):
    """Flip columns of u so each correlates positively with ref's column."""
    flip = np.sum(u * ref, axis=0) < 0.0
    out = u.copy()
    out[:, flip] *= -1.0
    return out


# one (number, status, detail) row per acceptance criterion, echoed in the
# terminal summary by conftest.py
ACCEPTANCE_RESULTS = []


def record_criterion(number, status, detail=""):
    ACCEPTANCE_RESULTS.append((number, status, detail))
