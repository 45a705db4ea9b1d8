"""Every warning of the package goes through errors.warn, which attributes it
to the first caller outside the package, however deep in it the warning
arises, and issues it through warnings.warn once."""

import ast
import os
import warnings

import numpy as np
import pytest

import varsphere
from varsphere import (
    ClusteringConfig,
    RankCriterion,
    SimConfig,
    ValidationError,
    Weights,
    classical_mds,
    encode_numeric,
    geodesic_inertia_profile,
    kmeans,
    rank_h_average_geodesic,
    resultant,
    run_benchmark,
    simulation,
)

SRC = os.path.dirname(varsphere.__file__)


def _near_triple():
    """Numeric variables x, x + 1e-3 y, x + 1e-3 z, of numerical rank 3: at
    H = 2, below it, the ascent's polar factor refuses the rank-deficient
    Gamma' W^-1 Gamma, so every fit of all three at H = 2 warns."""
    rng = np.random.default_rng(0)
    w = Weights.uniform(20)
    x = rng.standard_normal(20)
    return [resultant(encode_numeric(v, w), w)
            for v in (x, x + 1e-3 * rng.standard_normal(20), x + 1e-3 * rng.standard_normal(20))]


def _one_cluster():
    return ClusteringConfig(n_clusters=1, distance="geodesic", n_starts=1,
                            criterion=RankCriterion.fixed(2))


def _kmeans_at_the_cap(monkeypatch):
    rng = np.random.default_rng(3)
    w = Weights.uniform(12)
    rs = [resultant(encode_numeric(rng.standard_normal(12), w), w) for _ in range(8)]
    return lambda: kmeans(rs, ClusteringConfig(n_clusters=2, n_starts=1, max_iter=1, seed=0))


def _failed_replication(monkeypatch):
    def fail(sample, weights=None):
        raise ValidationError("planted fault")

    monkeypatch.setattr(simulation, "sample_resultants", fail)
    return lambda: run_benchmark([SimConfig(n=30, beta=np.pi / 4, sigma2=0.1, replications=1,
                                            theta_grid=(0.0,))], n_starts=1)


# each case: its setup, which returns the call to make, and a text its warnings must include
GEODESIC = "geodesic average did not converge"
CASES = {
    "rank_h_average_geodesic": (lambda mp: lambda: rank_h_average_geodesic(_near_triple(), 2),
                                GEODESIC),
    "geodesic_inertia_profile": (lambda mp: lambda: geodesic_inertia_profile(_near_triple(), 2),
                                 GEODESIC),
    "kmeans_fit": (lambda mp: lambda: kmeans(_near_triple(), _one_cluster()), GEODESIC),
    "kmeans_cap": (_kmeans_at_the_cap,
                   "k-means stopped on an assignment cycle or the iteration cap"),
    "classical_mds": (lambda mp: lambda: classical_mds(np.array([[0.0, 1.0], [1.0, 0.0]]), 3),
                      "extra coordinates are zero-padded"),
    "run_benchmark": (_failed_replication, "replication 0 failed and was excluded"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_warning_names_the_callers_file(case, monkeypatch):
    setup, text = CASES[case]
    run = setup(monkeypatch)
    calls = [0]
    original = warnings.warn

    def counting(message, category=None, stacklevel=1, **kwargs):
        calls[0] += 1
        return original(message, category, stacklevel + 1, **kwargs)

    monkeypatch.setattr(warnings, "warn", counting)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    assert any(text in str(w.message) for w in caught), [str(w.message) for w in caught]
    assert [w.filename for w in caught] == [__file__] * len(caught)
    assert calls[0] == len(caught)  # a wrapper of warnings.warn sees each warning once


def _is_warnings_warn(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "warn" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "warnings")


def test_every_warning_goes_through_the_helper():
    # a warnings.warn of its own names a frame inside the package, and a
    # literal stacklevel encodes one module's call depth in another
    found, helper = [], []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if name == "errors.py":
            helper = [call for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "warn" for call in ast.walk(node) if _is_warnings_warn(call)]
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if _is_warnings_warn(node) and node not in helper:
                found.append(f"{where}: warnings.warn outside errors.warn")
            if isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found.append(f"{where}: names imported from warnings")
            if isinstance(node, ast.keyword) and node.arg == "stacklevel" \
                    and isinstance(node.value, ast.Constant):
                found.append(f"{where}: literal stacklevel")
    assert len(helper) == 1  # through the module attribute, which wrappers replace
    assert not found, found
