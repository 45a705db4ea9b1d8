"""The public surface: what `varsphere` exports, and what it no longer does."""

import varsphere
from varsphere import averaging, clustering

# n-row helpers that no code path of the package called; their arithmetic
# lives on in the private kernels of averaging and in ClusterModel
REMOVED = ("weighted_average", "sphere_average", "geodesic_objective", "geodesic_gradients",
           "geodesic_step", "fixed_point_residual", "inertia_ratio")


def test_all_is_sorted_unique_and_resolves_and_leaves_out_the_removed_helpers():
    names = varsphere.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(varsphere, name)] == []
    for module in (varsphere, averaging, clustering):
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
