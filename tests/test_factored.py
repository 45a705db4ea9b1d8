"""The factored representation R = Z Z' W against the dense n x n oracle.

Every product, norm, spectrum, cosine, average and gradient is computed from
the resultants' n x q factors; these property tests compare each one with
the same quantity computed from the materialized operators, over random and
uniform weights, every structure kind (compounds included), duplicate
variables, categorical levels carried by a tiny weight, factors with more
columns than rows, and as many centroids as resultants.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varsphere
from varsphere import (
    ClusteringConfig,
    ConvergenceWarning,
    RankCriterion,
    RankHOperator,
    Resultant,
    SimConfig,
    Weights,
    cluster_summary,
    compound_structure,
    encode_block,
    encode_categorical,
    encode_numeric,
    kmeans,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
    resultant,
    sample_resultants,
    simulate_sample,
)
from varsphere import averaging, cli, clustering
from varsphere.encoding import _gram_norm, cosines
from varsphere.geometry import numerical_rank

from _support import (
    dense,
    eigen,
    grad_factor,
    indicators,
    inverse_gram,
    inverse_variances,
    n_row_gradients,
    operator_dot,
    operator_norm,
    random_labels,
    random_spd,
    random_weights,
    structure_operator,
    w_spsd_eigen,
    weighted_mean,
)

KINDS = ("numeric", "categorical", "block", "compound")
TINY = 1e-6


def _structure(rng, weights, kind, tiny):
    """A random structure of the kind and its dense operator, by the formula
    X M X' W of its centred data under the metric an encoder stands for."""
    n = weights.n
    if kind == "numeric":
        x = rng.standard_normal(n)
        return (encode_numeric(x, weights, label="num"),
                structure_operator(x, inverse_variances(x, weights), weights))
    if kind == "categorical":
        m = int(rng.integers(2, min(4, n) + 1))
        if tiny:  # a level seen only at the observation with the tiny weight
            labels = ["rare"] + random_labels(rng, n - 1, m - 1)
        else:
            labels = random_labels(rng, n, m)
        x = indicators(labels)
        return (encode_categorical(labels, weights, label="cat"),
                structure_operator(x, inverse_gram(x, weights), weights))
    if kind == "block":  # up to n + 2 columns, so q > n happens
        q = int(rng.integers(1, n + 3))
        x, metric = rng.standard_normal((n, q)), random_spd(rng, q)
        return encode_block(x, metric, weights), structure_operator(x, metric, weights)
    members, ops = zip(*[_structure(rng, weights, k, tiny)
                         for k in ("numeric", "categorical", "block")])
    omega = rng.uniform(0.1, 1.0, size=3)
    omega /= omega.sum()
    return (compound_structure(list(members), omega, weights),
            sum(o * op / operator_norm(op, weights) for o, op in zip(omega, ops)))


@st.composite
def systems(draw):
    """(weights, structures, resultants, rng): 1 to 6 normed resultants on
    2 to 9 observations, the first structure sometimes repeated; each
    structure comes with its dense operator (_structure)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 9))
    weighting = draw(st.sampled_from(("uniform", "random", "tiny")))
    if weighting == "tiny":
        raw = rng.uniform(0.5, 2.0, size=n)
        raw[0] *= TINY
        weights = Weights.normalized(raw)
    else:
        weights = random_weights(rng, n, uniform=weighting == "uniform")
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    structures = [_structure(rng, weights, k, weighting == "tiny") for k in kinds]
    if draw(st.booleans()):
        structures.append(structures[0])
    return weights, structures, [resultant(s, weights) for s, _ in structures], rng


def _rank_h(rng, weights, h):
    """A random rank-h point; the basis W^-1/2 Q from a QR of W^1/2 G stays
    W-orthonormal under a tiny weight, where a polar factor of G does not."""
    rw = np.sqrt(weights.w)[:, None]
    q, _ = np.linalg.qr(rw * rng.standard_normal((weights.n, h)))
    lam = np.sort(rng.uniform(0.1, 1.0, size=h))[::-1]
    return RankHOperator(q / rw, lam / np.linalg.norm(lam), weights)


def _close(a, b, rel=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1.0)
    assert a.shape == b.shape
    assert float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


@settings(max_examples=60, deadline=None)
@given(systems())
def test_products_norms_and_spectra_match_the_dense_oracle(system):
    w, structures, rs, _ = system
    for (s, oracle), r in zip(structures, rs):
        # every encoder returns the factor of the operator its data and metric define
        _close(dense(r), oracle / operator_norm(oracle, w))
        assert operator_norm(dense(r), w) == pytest.approx(1.0, abs=1e-9)
        u, lam = eigen(r)
        oracle = w_spsd_eigen(dense(r), w)[1]
        assert lam.size == oracle.size
        _close(lam, oracle)
        assert np.all(np.diff(lam) <= 0.0)
        _close(u.T @ (w.w[:, None] * u), np.eye(lam.size))
        _close((u * lam[None, :]) @ u.T * w.w[None, :], dense(r))
        for other in rs:
            assert r.dot(other) == pytest.approx(operator_dot(dense(r), dense(other), w),
                                                 abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_averages_match_the_dense_mean(system):
    w, _, rs, rng = system
    omega = rng.uniform(0.1, 1.0, size=len(rs))
    omega /= omega.sum()
    oracle = sum(o * dense(r) for o, r in zip(omega, rs))
    mean = weighted_mean(rs, omega)
    _close(dense(mean), oracle)
    assert _gram_norm(mean.factor, w) == pytest.approx(operator_norm(oracle, w), abs=1e-9)
    du, dlam = w_spsd_eigen(oracle, w)
    _, lam = eigen(mean)
    assert lam.size == dlam.size
    _close(lam, dlam)
    for h in range(1, numerical_rank(dlam) + 1):
        avg = rank_h_average_euclidean(rs, h, omega)
        kept = dlam[:h] / np.linalg.norm(dlam[:h])
        _close(avg.lam, kept)
        if h == dlam.size or dlam[h - 1] - dlam[h] > 1e-6 * dlam[0]:  # unique truncation
            truncated = (du[:, :h] * kept[None, :]) @ du[:, :h].T * w.w[None, :]
            _close(dense(avg), truncated, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(systems(), st.booleans())
def test_cosines_match_the_dense_oracle(system, one_per_resultant):
    w, _, rs, rng = system
    n_random = len(rs) - 1 if one_per_resultant else int(rng.integers(1, 4))
    cs = [_rank_h(rng, w, int(rng.integers(1, w.n + 1))) for _ in range(n_random)]
    cs.append(rank_h_average_euclidean(rs, 1))
    oracle = np.array([[np.sum(dense(r) * dense(c).T) for c in cs] for r in rs])
    _close(cosines(rs, cs), oracle)
    # a centroid is a resultant, so it may stand on either side
    _close(cosines(cs, rs), oracle.T)
    _close(cosines(cs, cs), [[np.sum(dense(a) * dense(b).T) for b in cs] for a in cs])


@settings(max_examples=60, deadline=None)
@given(systems())
def test_gradients_match_the_dense_formula(system):
    w, _, rs, rng = system
    omega = rng.uniform(0.1, 1.0, size=len(rs))
    omega /= omega.sum()
    c = _rank_h(rng, w, int(rng.integers(1, w.n + 1)))
    u, lam = c.U, c.lam
    ru = [dense(r) @ u for r in rs]  # dense R_k U
    eta = np.array([np.sum((w.w[:, None] * u) * x, axis=0) for x in ru])
    f = np.array([o * grad_factor(h) for o, h in zip(omega, eta @ lam)])
    gamma, gamma_u = n_row_gradients(u, lam, rs, omega)
    _close(gamma, f @ eta, rel=1e-8)
    dense_u = sum(fk * 2.0 * w.w[:, None] * x * lam[None, :] for fk, x in zip(f, ru))
    _close(gamma_u, dense_u, rel=1e-8)


# one n x n float64 array at n = 5000 takes 200 MB; every factored path,
# encoding included, must stay far below that
BIG_N = 5000
PEAK_BYTES = 40e6


def _big_sample():
    config = SimConfig(n=BIG_N, beta=np.pi / 3, sigma2=0.1, seed=0, replications=1)
    return simulate_sample(config, np.random.default_rng(0))


def _traced(fn):
    """(fn(), peak memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chord_kmeans_builds_no_n_by_n_array():
    sample = _big_sample()

    def fit():
        rs = sample_resultants(sample)
        return rs, kmeans(rs, ClusteringConfig(n_clusters=3, n_starts=2, seed=0,
                                               criterion=RankCriterion.trace_ratio(0.5)))

    (rs, model), peak = _traced(fit)
    assert len(rs) == 21 and model.centroids[0].U.shape[0] == BIG_N
    assert peak < PEAK_BYTES, f"peak traced memory {peak / 1e6:.1f} MB"


def test_averages_build_no_n_by_n_array():
    rs = sample_resultants(_big_sample())
    chord, peak = _traced(lambda: rank_h_average_euclidean(rs, RankCriterion.trace_ratio(1.0)))
    assert chord.U.shape == (BIG_N, chord.rank) and chord.rank > 1
    assert peak < PEAK_BYTES, f"chord average: peak traced memory {peak / 1e6:.1f} MB"
    with pytest.warns(ConvergenceWarning):
        avg, peak = _traced(lambda: rank_h_average_geodesic(rs, 2, max_iter=5))
    assert avg.U.shape == (BIG_N, 2) and not avg.converged
    assert peak < PEAK_BYTES, f"geodesic average: peak traced memory {peak / 1e6:.1f} MB"


def test_reports_after_the_gram_allocate_no_n_row_block(tmp_path, monkeypatch):
    # the `average` objective and inertia profile and the cluster summary read
    # the frame fits' K cosines: once the frame's Gram is formed, the `average`
    # command allocates no n x sum q block (its one n-row array is the lifted
    # average it writes), and the summary not even one n-row column
    n = 20_000
    rs = sample_resultants(simulate_sample(SimConfig(n=n, beta=np.pi / 3, sigma2=0.1),
                                           np.random.default_rng(0)))
    block = 8 * n * sum(r.factor.shape[1] for r in rs)
    frame = averaging._Frame(rs)
    model = clustering._kmeans(frame, ClusteringConfig(n_clusters=3, n_starts=2, seed=0))
    monkeypatch.setattr(cli, "_load_resultants", lambda args: (rs, rs[0].weights))
    monkeypatch.setattr(cli, "_Frame", lambda resultants: frame)
    argv = ["average", "--data", "unread.csv", "--distance", "geodesic", "--criterion", "fixed",
            "--H", "3", "--out-dir", str(tmp_path)]
    code, peak = _traced(lambda: cli.main(argv))
    assert code in (0, 4) and (tmp_path / "geodesic_inertia.csv").read_text().count("\n") == 4
    assert peak < block / 2, f"average: peak {peak / 1e6:.2f} MB, n x sum q {block / 1e6:.1f} MB"
    rows, peak = _traced(lambda: cluster_summary(model, rs))
    assert len(rows) == 21
    assert peak < 8 * n, f"summary: peak traced memory {peak / 1e6:.3f} MB"


def test_public_names_resolve_once():
    assert len(set(varsphere.__all__)) == len(varsphere.__all__)
    missing = [name for name in varsphere.__all__ if not hasattr(varsphere, name)]
    assert not missing, f"__all__ names without a definition: {missing}"


def test_geodesic_average_ignores_the_factors_memory_layout():
    # the same factors held in C or Fortran order give the same floats
    for seed in range(10):
        sample = simulate_sample(SimConfig(40, beta=np.pi / 3, sigma2=0.1, seed=seed),
                                 np.random.default_rng(seed))
        rs = sample_resultants(sample)
        fortran = [Resultant(np.asfortranarray(r.factor), r.weights, r.label)
                   for r in rs]
        for h in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                c, f = rank_h_average_geodesic(rs, h), rank_h_average_geodesic(fortran, h)
            assert np.array_equal(c.U, f.U) and np.array_equal(c.lam, f.lam), (seed, h)
            assert c.converged == f.converged
