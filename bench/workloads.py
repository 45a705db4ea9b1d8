"""The benchmark's workloads: one CLI command each, over a pool of inputs.

A run of a workload executes the command once per dataset of its pool, in
pool order, and repeats whole passes over the pool while another pass fits
in the run's time.  Pool entry i of workload seed s is generated from
sub-seed s * 1000 + i, so every seed gives a fixed set of inputs, and a
faster program measures more passes over the same inputs rather than a
different subset.  The first REFERENCE_ENTRIES entries use the reference
seed's inputs on every seed, so every run compares some outputs with the
recorded references.

BENCHMARK.json gates the two chord workloads.  The two geodesic workloads run
with --workload and --all but are not gated: their times spread across seeds
by more than the largest bound allowed (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed whose pool outputs are recorded in references/, keyed by sub-seed.
REFERENCE_SEED = 0
# Leading pool entries that take the reference seed's inputs on every seed.
REFERENCE_ENTRIES = 1
# Operations a traced run measures: the first pool entries, so that two
# traced runs of one seed repeat every call and round count exactly.
TRACE_OPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # cluster, average or simulate
    n: int | None         # rows of the generated CSV; None: the command simulates
    args: tuple[str, ...]
    pool: int             # datasets in one pass
    why: str

    def sub_seed(self, seed: int, index: int) -> int:
        if index < REFERENCE_ENTRIES:
            seed = REFERENCE_SEED
        return seed * 1000 + index

    def argv(self, sub_seed: int, data: str | None, out_dir: str) -> list[str]:
        argv = [self.command, *self.args]
        if data is not None:
            argv += ["--data", data]
        if self.command in ("cluster", "simulate"):
            argv += ["--seed", str(sub_seed)]
        return argv + ["--out-dir", out_dir]

    @property
    def opts(self) -> dict[str, str]:
        return dict(zip(self.args[::2], self.args[1::2]))

    def attempted(self) -> int:
        """Operations one command attempts: one, or one per replication."""
        if self.command != "simulate":
            return 1
        cells = 1
        for key in ("--n", "--beta", "--sigma2"):
            cells *= len(self.opts[key].split(","))
        return cells * int(self.opts["--reps"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cluster-chord-n400",
            command="cluster",
            n=400,
            args=("--distance", "chord", "--L", "3", "--starts", "3"),
            pool=16,
            why="n x n operators dominate: encoding, spsd checks, eigensolves, K x L cosines; "
            "no geodesic work",
        ),
        Workload(
            name="cluster-geodesic-n40",
            command="cluster",
            n=40,
            args=("--distance", "geodesic", "--L", "3", "--starts", "1",
                  "--criterion", "fixed", "--H", "1"),
            pool=15,
            why="geodesic ascent and the global refit in inertia_ratio dominate; "
            "n x n work is negligible at n = 40",
        ),
        Workload(
            name="simulate-grid",
            command="simulate",
            n=None,
            args=("--n", "30,40", "--beta", "pi/4,pi/3,pi/2", "--sigma2", "0.1",
                  "--theta-grid", "0,1", "--reps", "2", "--distance", "chord",
                  "--starts", "10"),
            pool=13,
            why="many tiny chord fits, so per-call overhead dominates; "
            "the only workload that runs the simulation layer and counts replications",
        ),
        Workload(
            name="average-geodesic-n40",
            command="average",
            n=40,
            args=("--distance", "geodesic", "--criterion", "fixed", "--H", "1"),
            pool=8,
            why="one geodesic average over all 21 variables, then the inertia profile "
            "refits it",
        ),
    )
}
