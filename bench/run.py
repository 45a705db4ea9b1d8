"""The varsphere benchmark.

Run one workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload cluster-chord-n400 --seed 1 --seconds 50 --trace 0

Other modes:

    python3 bench/run.py --all [--trace 1] [--out FILE]   every workload, one table
    python3 bench/run.py --self-test     corrupted references must be caught
    python3 bench/run.py --record        rewrite references/ from the reference seed

Each operation runs in a fresh worker process (bench/worker.py), one at a
time, with BLAS pinned to one thread.  With --trace 0 the run makes whole
passes over the workload's pool of inputs and reports the end-to-end metrics
of BENCHMARK.json over them; with
--trace 1 it runs the first TRACE_OPS pool entries untraced and then traced,
checks that both wrote byte-identical files, and reports the per-layer
metrics as means per operation.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import REFERENCE_SEED, TRACE_OPS, WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
# No new operation starts after this many seconds, and no worker outlives
# WORKER_DEADLINE, so a run ends within the 180 seconds it is allowed.
RUN_LIMIT = 120.0
WORKER_DEADLINE = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark itself cannot run, as opposed to the program failing."""


def _metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _require_program() -> None:
    for name in ("__init__.py", "cli.py"):
        if not os.path.isfile(os.path.join(ROOT, "src", "varsphere", name)):
            raise BenchmarkError(f"src/varsphere/{name} is missing: nothing to benchmark")


def run_op(workload, seed: int, index: int, trace: bool, compare: bool, deadline: float) -> dict:
    """Run one operation in a fresh worker and return its measurements."""
    work = os.path.join(WORK, f"{workload.name}-{seed}-{index}-{os.getpid()}")
    os.makedirs(work)
    spec = {"workload": workload.name, "seed": seed, "index": index, "work": work,
            "trace": trace, "compare": compare, "spans_file": _spans_file(workload, seed)}
    env = dict(os.environ, **PINNED)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"attempted": workload.attempted(), "failed": workload.attempted(),
                "errors": [f"worker exited with code {proc.returncode} before reporting"],
                "setup_s": setup, "wall_s": float("nan"), "crashed": True}
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def _report_errors(workload, index: int, result: dict) -> None:
    for err in result["errors"]:
        print(f"{workload.name}[{index}]: {err}", file=sys.stderr)


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Whole passes over the pool, one more whenever it is expected to end
    within `seconds`; the first pass always runs."""
    start = time.perf_counter()
    deadline = start + WORKER_DEADLINE
    ops: list[dict] = []
    passes: list[list[dict]] = []
    truncated = False
    while True:
        pass_start = time.perf_counter()
        this_pass = []
        for index in range(workload.pool):
            if time.perf_counter() - start > RUN_LIMIT:
                truncated = True
                break
            result = run_op(workload, seed, index, False, True, deadline)
            _report_errors(workload, index, result)
            this_pass.append(result)
        ops += this_pass
        if truncated:
            if not passes:
                # Not even one pass fits: the entries left undone count as
                # failed, and the times cover the entries that were run.
                passes.append(this_pass)
                for index in range(len(this_pass), workload.pool):
                    ops.append({"attempted": workload.attempted(),
                                "failed": workload.attempted(),
                                "errors": [f"not run: {RUN_LIMIT:.0f} s limit reached"],
                                "crashed": True})
                    _report_errors(workload, index, ops[-1])
            break
        passes.append(this_pass)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    # Every pool entry weighs the same: the median of its passes, then the
    # mean over entries, since entries take different amounts of work.
    per_entry = [[p[i]["wall_s"] for p in passes if i < len(p) and not p[i].get("crashed")]
                 for i in range(workload.pool)]
    per_entry = [statistics.median(w) for w in per_entry if w]
    timed = [op for op in ops if not op.get("crashed")]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    metrics = {
        "wall_s": statistics.fmean(per_entry) if per_entry else float("nan"),
        "setup_s": statistics.median(op["setup_s"] for op in ops if "setup_s" in op),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed) if timed
        else float("nan"),
        "ok_ratio": 1.0 - failed / attempted,
        "fail_ratio": failed / attempted,
        "convergence_warnings": statistics.median(op["convergence_warnings"] for op in timed)
        if timed else float("nan"),
        "operations": len(ops),
        "passes": len(passes),
        "truncated": truncated,
    }
    return metrics, ops


def _spans_file(workload, seed: int) -> str:
    return os.path.join(WORK, "spans", f"{workload.name}-{seed}.jsonl")


def traced_run(workload, seed: int) -> tuple[dict, list[dict]]:
    """Untraced then traced runs of the first TRACE_OPS pool entries.

    The traced workers append their spans to .bench_work/spans/.
    """
    spans = _spans_file(workload, seed)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    if os.path.exists(spans):
        os.remove(spans)
    deadline = time.perf_counter() + WORKER_DEADLINE
    ops, layers, overhead, cpu, warns = [], [], [], [], []
    for index in range(min(TRACE_OPS, workload.pool)):
        plain = run_op(workload, seed, index, False, True, deadline)
        traced = run_op(workload, seed, index, True, True, deadline)
        for result in (plain, traced):
            _report_errors(workload, index, result)
            ops.append(result)
        if plain.get("crashed") or traced.get("crashed"):
            continue
        if plain["digests"] != traced["digests"]:
            print(f"{workload.name}[{index}]: traced outputs differ from untraced outputs",
                  file=sys.stderr)
            traced["failed"] = traced["attempted"]
        for site in traced["missing_sites"]:
            print(f"{workload.name}: wrap site {site} no longer exists", file=sys.stderr)
        layers.append(traced["layers"])
        overhead.append(traced["wall_s"] - plain["wall_s"])
        cpu.append(plain["cpu_s"])
        warns.append(plain["convergence_warnings"])
    if not layers:
        raise BenchmarkError(f"{workload.name}: no operation completed under tracing")
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    metrics = {name: statistics.fmean(row[name] for row in layers) for name in layers[0]}
    metrics.update({
        "proc.cpu_s": statistics.fmean(cpu),
        "proc.tracing_overhead_s": statistics.fmean(overhead),
        "convergence_warnings": statistics.fmean(warns),
        "fail_ratio": failed / attempted,
        "operations": len(ops),
    })
    return metrics, ops


def run_metadata(ops: list[dict]) -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    meta = next((op["meta"] for op in ops if "meta" in op), {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": meta.get("blas"),
        "python": meta.get("python", platform.python_version()),
        "numpy": meta.get("numpy"),
        "commit": commit,
        "src_lines": lines,
        "platform": platform.platform(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    if trace:
        return traced_run(workload, seed)
    return timed_run(workload, seed, seconds)


def result_line(metrics: dict, ops: list[dict], units: dict) -> dict:
    missing = [name for name in units if name not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not computed: {missing}")
    return {
        "correct": all(not op["errors"] for op in ops),
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


# Printed by --all next to the gated metrics, with their units.
SUMMARY_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
                 "convergence_warnings": "count", "operations": "count"}


def run_all(seed: int, seconds: float, trace: bool, out: str | None, units: dict) -> dict:
    report = {"seed": seed, "seconds": seconds, "trace": trace, "workloads": {}}
    all_ops = []
    for workload in WORKLOADS.values():
        metrics, ops = run_workload(workload, seed, seconds, trace)
        all_ops += ops
        line = result_line(metrics, ops, units)
        line["metrics"].update({k: {"value": metrics[k], "unit": u}
                                for k, u in SUMMARY_UNITS.items() if k in metrics})
        report["workloads"][workload.name] = line
        print(f"{workload.name}  correct={line['correct']}  "
              f"attempted={line['attempted']}  failed={line['failed']}")
        for name, m in line["metrics"].items():
            print(f"    {name:36s} {m['value']:>14.6g} {m['unit']}")
    report["meta"] = run_metadata(all_ops)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _corruptions(reference: dict):
    """Copies of a reference with one value changed in each."""
    for key, value in reference.items():
        bad = json.loads(json.dumps(reference))
        if isinstance(value, float):
            bad[key] = value * (1.0 + 1e-3) + 1e-9
        elif isinstance(value, int):
            bad[key] = value + 1
        elif value and isinstance(value[0], list):
            bad[key][0][-1] = bad[key][0][-1] + "1"
        elif value and isinstance(value[0], float):
            bad[key][0] = value[0] * (1.0 + 1e-3) + 1e-9
        else:
            bad[key][0] = value[0] + 1
        yield key, bad


def self_test() -> bool:
    import checks
    from spans import SITES, Tracer

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer("self-test", SITES + (("varsphere.cli", "no_such_function", "cli.main"),))
    tracer.install()
    ok = tracer.missing == ["varsphere.cli.no_such_function"]
    print(f"missing wrap site listed, not fatal -> {'pass' if ok else tracer.missing}")
    for workload in WORKLOADS.values():
        result = run_op(workload, REFERENCE_SEED, 0, False, False,
                        time.perf_counter() + WORKER_DEADLINE)
        with open(os.path.join(BENCH, "references", f"{workload.name}.json"),
                  encoding="utf-8") as fh:
            reference = json.load(fh)["outputs"][str(workload.sub_seed(REFERENCE_SEED, 0))]
        clean = result["errors"] + checks.compare(result["summary"], reference)
        print(f"{workload.name}: true reference -> {clean or 'pass'}")
        ok &= not clean
        for key, bad in _corruptions(reference):
            caught = checks.compare(result["summary"], bad)
            print(f"{workload.name}: corrupted {key} -> {'caught' if caught else 'MISSED'}")
            ok &= bool(caught)
        if workload.command == "cluster" and workload.opts["--distance"] == "chord":
            ok &= _self_test_recompute(workload, reference)
    return ok


def _self_test_recompute(workload, reference: dict) -> bool:
    """The numpy-only recomputation must agree with the true outputs and
    disagree with a moved assignment or a changed rank."""
    import checks
    import gen

    data = os.path.join(WORK, f"self-test-{os.getpid()}.csv")
    gen.write_csv(data, workload.n, workload.sub_seed(REFERENCE_SEED, 0))
    names = [f"x{j}" for j in range(1, gen.N_NUMERIC + gen.N_CATEGORICAL + 1)]
    assignments, ranks = reference["assignments"], reference["ranks"]
    moved = [(assignments[0] + 1) % len(ranks)] + assignments[1:]
    cases = [("true outputs", assignments, ranks, True),
             ("moved assignment", moved, ranks, False),
             ("changed rank", assignments, [ranks[0] + 1] + ranks[1:], False)]
    ok = True
    try:
        for label, assign, rank, agree in cases:
            within, _ = checks.recompute_chord(data, gen.N_NUMERIC, names, assign, rank)
            same = math.isclose(within, reference["within_inertia"],
                                rel_tol=checks.RECOMPUTE_REL_TOL)
            print(f"{workload.name}: recomputed inertia, {label} -> "
                  f"{'pass' if same == agree else 'FAIL'}")
            ok &= same == agree
    finally:
        os.remove(data)
    return ok


def record() -> None:
    for workload in WORKLOADS.values():
        outputs = {}
        for index in range(workload.pool):
            result = run_op(workload, REFERENCE_SEED, index, False, False,
                            time.perf_counter() + WORKER_DEADLINE)
            if result["errors"]:
                raise BenchmarkError(f"{workload.name}[{index}]: {result['errors']}")
            outputs[str(workload.sub_seed(REFERENCE_SEED, index))] = result["summary"]
        path = os.path.join(BENCH, "references", f"{workload.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "outputs": outputs}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--out", help="with --all: write the report JSON here")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        _require_program()
        os.makedirs(WORK, exist_ok=True)
        if args.self_test:
            return 0 if self_test() else 1
        if args.record:
            record()
            return 0
        units = _metric_spec()[args.trace]
        if args.all:
            report = run_all(args.seed, args.seconds, bool(args.trace), args.out, units)
            print(json.dumps(report["meta"]))
            return 0
        if args.workload is None:
            parser.error("--workload, --all, --self-test or --record is required")
        workload = WORKLOADS[args.workload]
        metrics, ops = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"meta": run_metadata(ops), "operations": len(ops),
                          "passes": metrics.get("passes"), "truncated": metrics.get("truncated"),
                          "op_wall_s": [op.get("wall_s") for op in ops]}))
        print(json.dumps(result_line(metrics, ops, units)))
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
