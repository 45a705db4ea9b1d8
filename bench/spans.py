"""Outside-in tracing: spans around the calls into each layer of varsphere.

Every wrap site is a module attribute through which one module reaches a
function of a layer, e.g. ``varsphere.clustering.rank_h_average_geodesic``.
Replacing that attribute with a timing wrapper records a span for every call
made through it without editing the package.  A site that no longer exists
after a refactor is listed and records zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  Several sites may feed one span name.
SITES = (
    ("varsphere.cli", "main", "cli.main"),
    ("varsphere.cli", "infer_manifest", "dataset.ingest"),
    ("varsphere.cli", "ingest", "dataset.ingest"),
    ("varsphere.cli", "encode_dataset", "dataset.encode"),
    ("varsphere.cli", "resultant", "encoding.resultant"),
    ("varsphere.simulation", "resultant", "encoding.resultant"),
    ("varsphere.encoding", "check_w_spsd", "geometry.spsd_check"),
    ("varsphere.encoding", "w_spsd_eigen", "geometry.eigen"),
    ("varsphere.averaging", "w_spsd_eigen", "geometry.eigen"),
    ("varsphere.cli", "w_spsd_eigen", "geometry.eigen"),
    ("varsphere.averaging", "w_orthonormal_polar", "geometry.polar"),
    ("varsphere.averaging", "weighted_average", "averaging.weighted_average"),
    ("varsphere.clustering", "weighted_average", "averaging.weighted_average"),
    ("varsphere.cli", "weighted_average", "averaging.weighted_average"),
    ("varsphere.averaging", "rank_h_average_euclidean", "averaging.chord"),
    ("varsphere.clustering", "rank_h_average_euclidean", "averaging.chord"),
    ("varsphere.cli", "rank_h_average_euclidean", "averaging.chord"),
    ("varsphere.clustering", "rank_h_average_geodesic", "averaging.geodesic"),
    ("varsphere.cli", "rank_h_average_geodesic", "averaging.geodesic"),
    ("varsphere.averaging", "geodesic_step", "averaging.geodesic_step"),
    ("varsphere.averaging", "geodesic_gradients", "averaging.gradient"),
    ("varsphere.cli", "kmeans", "clustering.kmeans"),
    ("varsphere.simulation", "kmeans", "clustering.kmeans"),
    ("varsphere.clustering", "inertia_ratio", "clustering.inertia_ratio"),
    ("varsphere.cli", "cluster_summary", "clustering.summary"),
    ("varsphere.cli", "centroid_separation", "clustering.summary"),
    ("varsphere.cli", "geodesic_inertia_profile", "clustering.profile"),
    ("varsphere.cli", "run_benchmark", "simulation.run"),
    ("varsphere.simulation", "simulate_sample", "simulation.sample"),
    ("varsphere.simulation", "sample_resultants", "simulation.encode"),
)

# Spans whose call counts a centroid fit of the clustering layer.
CENTROID_FIT_SITES = (
    "varsphere.clustering.rank_h_average_euclidean",
    "varsphere.clustering.rank_h_average_geodesic",
)


class Tracer:
    """Records spans (name, site, start, end, parent, run id) in memory."""

    def __init__(self, run_id: str, sites=SITES):
        self.run_id = run_id
        self.sites = sites
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.unconverged = 0
        self.failures = 0
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name in self.sites:
            site = f"{module_name}.{attr}"
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(site)
                continue
            setattr(module, attr, self._wrap(fn, name, site))

    def _wrap(self, fn, name: str, site: str):
        spans, stack = self.spans, self._stack
        on_result = {
            "averaging.geodesic": self._count_unconverged,
            "simulation.run": self._count_failures,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, site, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_unconverged(self, avg) -> None:
        self.unconverged += not getattr(avg, "converged", True)

    def _count_failures(self, rows) -> None:
        cells = {(r.n, r.beta, r.sigma2): r.failures for r in rows}
        self.failures += sum(cells.values())

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, site, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "site": site,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total time and self time per span name, plus derived counts.

        Total time counts a span only when no ancestor has the same name, so
        nested calls are not double counted; self time is a span's duration
        minus the durations of its direct children.
        """
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        fits = 0
        for i, (name, site, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
            if not self._has_ancestor(i, name):
                total[name] = total.get(name, 0.0) + dur
            fits += site in CENTROID_FIT_SITES

        def c(name):
            return float(calls.get(name, 0))

        def t(name):
            return total.get(name, 0.0)

        return {
            "cli.self_s": self_time.get("cli.main", 0.0),
            "dataset.ingest_s": t("dataset.ingest"),
            "dataset.encode_s": t("dataset.encode"),
            "encoding.resultant_s": t("encoding.resultant"),
            "encoding.resultant_calls": c("encoding.resultant"),
            "geometry.spsd_check_s": t("geometry.spsd_check"),
            "geometry.spsd_check_calls": c("geometry.spsd_check"),
            "geometry.eigen_s": t("geometry.eigen"),
            "geometry.eigen_calls": c("geometry.eigen"),
            "geometry.polar_calls": c("geometry.polar"),
            "averaging.weighted_average_calls": c("averaging.weighted_average"),
            "averaging.chord_s": t("averaging.chord"),
            "averaging.chord_calls": c("averaging.chord"),
            "averaging.geodesic_s": t("averaging.geodesic"),
            "averaging.geodesic_self_s": self_time.get("averaging.geodesic", 0.0),
            "averaging.geodesic_calls": c("averaging.geodesic"),
            "averaging.geodesic_rounds": c("averaging.geodesic_step"),
            "averaging.gradient_calls": c("averaging.gradient"),
            "averaging.geodesic_unconverged": float(self.unconverged),
            "clustering.kmeans_s": t("clustering.kmeans"),
            "clustering.kmeans_self_s": self_time.get("clustering.kmeans", 0.0),
            "clustering.centroid_fits": float(fits),
            "clustering.inertia_ratio_s": t("clustering.inertia_ratio"),
            "clustering.summary_s": t("clustering.summary"),
            "clustering.profile_s": t("clustering.profile"),
            "simulation.sample_s": t("simulation.sample"),
            "simulation.encode_s": t("simulation.encode"),
            "simulation.replications": c("simulation.sample"),
            "simulation.failures": float(self.failures),
            "trace.missing_sites": float(len(self.missing)),
        }

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False
