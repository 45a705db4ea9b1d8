"""Variable-structures as unit-norm operators on a weighted sphere.

Numeric variables, categorical variables, and metric-weighted blocks are
encoded as W-self-adjoint positive operators of unit norm, each held as its
n x q factor; the package provides distances between them, rank-H euclidean
and geodesic averages, K-means clustering with low-rank centroids, a
simulation benchmark, and a CSV-driven command line.
"""

from .averaging import (
    RankCriterion,
    RankHOperator,
    choose_rank,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
)
from .clustering import (
    ClusteringConfig,
    ClusterModel,
    assign,
    centroid_separation,
    classical_mds,
    cluster_summary,
    geodesic_inertia_profile,
    kmeans,
)
from .dataset import (
    BlockSpec,
    Dataset,
    DatasetManifest,
    encode_dataset,
    infer_manifest,
    ingest,
    load_manifest,
)
from .distances import (
    chord_dist,
    geodesic_dist,
    phi2,
    rv_cos,
    tschuprow,
)
from .encoding import (
    Resultant,
    VariableStructure,
    compound_structure,
    encode_block,
    encode_categorical,
    encode_numeric,
    resultant,
)
from .errors import (
    ConvergenceWarning,
    NumericalError,
    ValidationError,
    VarsphereError,
)
from .geometry import Weights
from .simulation import (
    BenchmarkRow,
    SimConfig,
    SimSample,
    rand_discrepancy,
    run_benchmark,
    sample_resultants,
    simulate_latents,
    simulate_sample,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "BlockSpec",
    "ClusterModel",
    "ClusteringConfig",
    "ConvergenceWarning",
    "Dataset",
    "DatasetManifest",
    "NumericalError",
    "RankCriterion",
    "RankHOperator",
    "Resultant",
    "SimConfig",
    "SimSample",
    "ValidationError",
    "VariableStructure",
    "VarsphereError",
    "Weights",
    "assign",
    "centroid_separation",
    "choose_rank",
    "chord_dist",
    "classical_mds",
    "cluster_summary",
    "compound_structure",
    "encode_block",
    "encode_categorical",
    "encode_dataset",
    "encode_numeric",
    "geodesic_dist",
    "geodesic_inertia_profile",
    "infer_manifest",
    "ingest",
    "kmeans",
    "load_manifest",
    "phi2",
    "rand_discrepancy",
    "rank_h_average_euclidean",
    "rank_h_average_geodesic",
    "resultant",
    "run_benchmark",
    "rv_cos",
    "sample_resultants",
    "simulate_latents",
    "simulate_sample",
    "tschuprow",
]
