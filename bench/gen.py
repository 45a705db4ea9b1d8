"""Benchmark input generator: the paper's three-bundle design, numpy only.

Each sample has n observations of 21 variables built around four latent
factors: 7 numeric variables at random angles in the plane of xi1 and xi2,
5 numeric variables on xi3 (tilted towards the plane by the angle beta),
5 numeric variables on xi4, and 4 five-level categoricals cut from the
latents at their empirical quintiles.  The generator is owned by the
benchmark, so a change to the package's own simulation module cannot alter
the inputs of the cluster and average workloads.
"""

from __future__ import annotations

import csv
import math

import numpy as np

N_NUMERIC = 17
N_CATEGORICAL = 4


def _latents(n: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Four centred, orthogonalised, standardised factors; xi3 tilted by beta."""
    xi = rng.standard_normal((n, 4))
    xi -= xi.mean(axis=0)
    xi, _ = np.linalg.qr(xi)
    xi *= math.sqrt(n)
    xi3 = xi[:, 2] + math.cos(beta) * xi[:, 1]
    xi[:, 2] = (xi3 - xi3.mean()) / xi3.std()
    return xi


def _quintiles(x: np.ndarray) -> list[str]:
    cuts = np.quantile(x, [0.2, 0.4, 0.6, 0.8])
    return [f"q{int(k) + 1}" for k in np.searchsorted(cuts, x, side="left")]


def sample(n: int, seed: int, beta: float = math.pi / 3, sigma2: float = 0.1):
    """(header, rows) of one simulated sample; rows hold CSV cell strings."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    xi = _latents(n, beta, rng)
    sd = math.sqrt(sigma2)
    cols = []
    for a in rng.uniform(0.0, 2.0 * math.pi, size=7):
        cols.append(math.cos(a) * xi[:, 0] + math.sin(a) * xi[:, 1])
    cols += [xi[:, 2]] * 5 + [xi[:, 3]] * 5
    numeric = np.column_stack(cols) + sd * rng.standard_normal((n, N_NUMERIC))
    categorical = [_quintiles(xi[:, c]) for c in range(N_CATEGORICAL)]
    header = [f"x{j}" for j in range(1, N_NUMERIC + N_CATEGORICAL + 1)]
    rows = [
        [repr(float(v)) for v in numeric[i]] + [cat[i] for cat in categorical]
        for i in range(n)
    ]
    return header, rows


def write_csv(path: str, n: int, seed: int) -> None:
    header, rows = sample(n, seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
