"""One benchmark operation in a fresh process.

Usage: python3 bench/worker.py '<json spec>'

The worker imports varsphere from the checkout's src/, writes its generated
input CSV, prints "ready", runs varsphere.cli.main once, checks the outputs,
and prints one JSON line with its measurements.  The parent times set-up as
the interval from starting the process to reading "ready".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import warnings

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402

import varsphere  # noqa: E402
import varsphere.cli  # noqa: E402
from varsphere.errors import ConvergenceWarning  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N_VARS = gen.N_NUMERIC + gen.N_CATEGORICAL


def _count_convergence_warnings(counter: list[int]):
    """Wrap warnings.warn to count ConvergenceWarnings; outputs are unaffected."""
    original = warnings.warn

    def warn(message, category=None, stacklevel=1, **kwargs):
        if isinstance(category, type) and issubclass(category, ConvergenceWarning):
            counter[0] += 1
        return original(message, category, stacklevel + 1, **kwargs)

    warnings.warn = warn


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def _digests(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _check(workload, out: str, data: str | None, sub_seed: int, compare: bool):
    """(errors, summary, failed replications or None) for one command's outputs."""
    opts = workload.opts
    failed_reps = None
    if workload.command == "cluster":
        errors, summary = checks.check_cluster(out, opts["--distance"], int(opts["--L"]), N_VARS)
        if opts["--distance"] == "chord":
            errors += checks.check_chord_recomputed(out, data, gen.N_NUMERIC)
    elif workload.command == "average":
        errors, summary = checks.check_average(out, opts["--distance"], workload.n, N_VARS)
    else:
        cells = workload.attempted() // int(opts["--reps"])
        errors, summary, failed_reps = checks.check_simulate(
            out, cells, len(opts["--theta-grid"].split(",")), int(opts["--reps"])
        )
    if compare:
        path = os.path.join(BENCH, "references", f"{workload.name}.json")
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)["outputs"].get(str(sub_seed))
        if reference is not None:
            errors += [f"reference: {e}" for e in checks.compare(summary, reference)]
    return errors, summary, failed_reps


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    seed, index, work = spec["seed"], spec["index"], spec["work"]
    if not os.path.abspath(varsphere.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"varsphere imported from {varsphere.__file__}, not the checkout", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        tracer = Tracer(run_id=f"{workload.name}/{seed}/{index}")
        tracer.install()
    n_warnings = [0]
    _count_convergence_warnings(n_warnings)

    sub_seed = workload.sub_seed(seed, index)
    data = None
    if workload.n is not None:
        data = os.path.join(work, "input.csv")
        gen.write_csv(data, workload.n, sub_seed)
    out = os.path.join(work, "out")
    argv = workload.argv(sub_seed, data, out)
    print("ready", flush=True)

    stderr = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(stderr):
        rc = varsphere.cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = workload.attempted()
    if rc in (0, 4):
        try:
            errors, summary, failed_reps = _check(workload, out, data, sub_seed, spec["compare"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors, summary, failed_reps = [f"unreadable output: {exc!r}"], {}, None
    else:
        errors = [f"exit code {rc}: {stderr.getvalue().strip()[-500:]}"]
        summary, failed_reps = {}, None
    failed = attempted if errors else (failed_reps or 0)
    if failed_reps:
        errors.append(f"{failed_reps} replications failed")

    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "convergence_warnings": n_warnings[0],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "summary": summary,
        "digests": _digests(out) if os.path.isdir(out) else {},
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
        },
    }
    if tracer is not None:
        tracer.write(spec["spans_file"])
        result["layers"] = tracer.layer_metrics()
        result["missing_sites"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
