"""End-to-end acceptance gate: nine numbered criteria, one verdict line each.

Each test prints "[PASS] criterion N: ..." (or FAIL/SKIP) and the same lines
are echoed in the terminal summary.  Criterion 7 needs the wine tasting CSV
at data/wine.csv and is skipped when the file is absent.
"""

import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from varsphere import (
    ClusteringConfig,
    NumericalError,
    RankCriterion,
    RankHOperator,
    Resultant,
    SimConfig,
    Weights,
    arc_line_search,
    assign,
    centroid_separation,
    encode_categorical,
    encode_numeric,
    fixed_point_residual,
    geodesic_inertia_profile,
    geodesic_gradients,
    geodesic_step,
    infer_manifest,
    ingest,
    encode_dataset,
    kmeans,
    operator_norm,
    phi2,
    rank_h_average_euclidean,
    rank_h_average_geodesic,
    resultant,
    run_benchmark,
    w_orthonormal_polar,
    w_spsd_eigen,
    weighted_average,
)
from varsphere.cli import main as cli_main

from _support import (
    random_labels,
    random_normed_resultant,
    random_w_orthonormal,
    random_weights,
    record_criterion,
)

WINE_CSV = os.path.join(os.path.dirname(__file__), "..", "data", "wine.csv")


def _check(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_criterion(number, status, detail)
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_phi2_two_path_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(10, 201))
        w = random_weights(rng, n, uniform=trial % 2 == 0)
        lx = random_labels(rng, n, int(rng.integers(2, 7)))
        ly = random_labels(rng, n, int(rng.integers(2, 7)))
        via_trace = phi2(
            encode_categorical(lx, w, label="x"),
            encode_categorical(ly, w, label="y"),
            w,
        )
        # contingency route: weighted cell/margin proportions
        ux = list(dict.fromkeys(lx))
        uy = list(dict.fromkeys(ly))
        p = np.zeros((len(ux), len(uy)))
        for weight, a, b in zip(w.w, lx, ly):
            p[ux.index(a), uy.index(b)] += weight
        expected = np.outer(p.sum(axis=1), p.sum(axis=0))
        via_table = float(np.sum((p - expected) ** 2 / expected))
        worst = max(worst, abs(via_trace - via_table))
    _check(1, worst <= 1e-10,
           f"phi2 trace vs contingency on 200 pairs, max |diff| = {worst:.2e}")


def test_criterion_2_huygens_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        w = random_weights(rng, 6)
        rs = [random_normed_resultant(rng, w) for _ in range(5)]
        omega = rng.uniform(0.2, 1.0, size=5)
        omega /= omega.sum()
        mean = weighted_average(rs, omega)
        a = random_normed_resultant(rng, w)

        def sq(op1, op2):
            return operator_norm(op1 - op2, w) ** 2

        lhs = sum(o * sq(r.op, a.op) for o, r in zip(omega, rs))
        rhs = sum(o * sq(r.op, mean.op) for o, r in zip(omega, rs)) + sq(mean.op, a.op)
        worst = max(worst, abs(lhs - rhs))
    _check(2, worst <= 1e-10,
           f"chord-inertia split on 100 systems (n=6, K=5), max |diff| = {worst:.2e}")


def test_criterion_3_euclidean_rank_one_optimality():
    rng = np.random.default_rng(103)
    margin = np.inf
    ok = True
    for _ in range(20):
        n = 3
        w = random_weights(rng, n)
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 3)))
              for _ in range(3)]
        mean = weighted_average(rs)
        avg = rank_h_average_euclidean(rs, 1)
        # candidate objective 2 - 2 [mean | C] decreases in the mean pairing,
        # so optimality is: the computed average pairs at least as high as
        # every random rank-one unit candidate
        a = w.w[:, None] * mean.op  # symmetric W-mean matrix
        v = rng.standard_normal((100_000, n))
        v /= np.sqrt(np.sum(v * v * w.w[None, :], axis=1))[:, None]
        cand = np.einsum("ki,ij,kj->k", v, a, v)
        ours = float(np.sum((avg.U[:, 0] * (a @ avg.U[:, 0])))) * avg.lam[0]
        gap = ours - float(cand.max())
        margin = min(margin, gap)
        if gap < -1e-12:
            ok = False
    _check(3, ok,
           "rank-1 chord average beats 1e5 random candidates on 20 instances "
           f"(worst margin {margin:.2e})")


def _reference_objective(u, lam, resultants, omega):
    total = 0.0
    for o, r in zip(omega, resultants):
        op = (u * lam[None, :]) @ u.T * r.weights.w[None, :]
        h = min(max(float(np.sum(r.op * op.T)), -1.0), 1.0)
        total -= o * math.acos(h) ** 2
    return total


def test_criterion_4_geodesic_gradients_match_finite_differences():
    rng = np.random.default_rng(104)
    checked = 0
    worst = 0.0
    while checked < 50:
        n, k, h = 5, 3, 2
        w = random_weights(rng, n)
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4)))
              for _ in range(k)]
        omega = rng.uniform(0.2, 1.0, size=k)
        omega /= omega.sum()
        u = random_w_orthonormal(rng, w, h)
        lam = np.sort(np.abs(rng.standard_normal(h)) + 0.1)[::-1]
        lam /= np.linalg.norm(lam)
        op = (u * lam[None, :]) @ u.T * w.w[None, :]
        if max(float(np.sum(r.op * op.T)) for r in rs) > 0.99:
            continue  # stay away from the arccos singularity
        gamma, gamma_u = geodesic_gradients(u, lam, rs, omega)
        step = 1e-6
        fd_lam = np.zeros(h)
        for i in range(h):
            up, dn = lam.copy(), lam.copy()
            up[i] += step
            dn[i] -= step
            fd_lam[i] = (
                _reference_objective(u, up, rs, omega)
                - _reference_objective(u, dn, rs, omega)
            ) / (2 * step)
        fd_u = np.zeros_like(u)
        for i in range(n):
            for j in range(h):
                up, dn = u.copy(), u.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd_u[i, j] = (
                    _reference_objective(up, lam, rs, omega)
                    - _reference_objective(dn, lam, rs, omega)
                ) / (2 * step)
        rel_lam = np.linalg.norm(gamma - fd_lam) / max(np.linalg.norm(fd_lam), 1e-12)
        rel_u = np.linalg.norm(gamma_u - fd_u) / max(np.linalg.norm(fd_u), 1e-12)
        worst = max(worst, rel_lam, rel_u)
        checked += 1
    _check(4, worst <= 1e-5,
           f"gradients vs central differences on 50 points, max rel err = {worst:.2e}")


def test_criterion_5_geodesic_ascent_is_monotone_and_converges():
    rng = np.random.default_rng(105)
    ok = True
    detail = ""
    worst_dip = 0.0
    worst_residual = 0.0
    for inst in range(50):
        n = 5
        w = random_weights(rng, n)
        k = 4
        rs = [random_normed_resultant(rng, w, rank=int(rng.integers(1, 4)))
              for _ in range(k)]
        h = int(rng.integers(1, 3))
        omega = np.full(k, 1.0 / k)
        # replay the arc-safeguarded ascent with the public pieces: the
        # accepted objective values must never dip
        start = rank_h_average_euclidean(rs, h, omega)
        u, lam = start.U, start.lam
        prev = _reference_objective(u, lam, rs, omega)
        for _ in range(500):
            try:
                u2, lam2 = geodesic_step(u, lam, rs, omega)
            except NumericalError:
                break
            order = np.argsort(-lam2, kind="stable")
            u2, lam2 = u2[:, order], lam2[order]
            cand = _reference_objective(u2, lam2, rs, omega)
            tau, arc_op = arc_line_search(
                RankHOperator(u, lam, w), RankHOperator(u2, lam2, w), rs, omega
            )
            if 0.0 < tau < 1.0:
                vecs, vals = w_spsd_eigen(arc_op, w)
                if vals.size >= h and vals[h - 1] > 0.0:
                    kept = vals[:h] / np.linalg.norm(vals[:h])
                    g_arc = _reference_objective(vecs[:, :h], kept, rs, omega)
                    if g_arc > cand:
                        u2, lam2, cand = vecs[:, :h], kept, g_arc
            worst_dip = min(worst_dip, cand - prev)
            if cand < prev - 1e-12:
                ok = False
                detail = f"instance {inst}: objective dipped by {prev - cand:.2e}"
                break
            u, lam = u2, lam2
            if cand - prev < 1e-10:
                break
            prev = cand
        if not ok:
            break
        # the driver must converge on the same instance, with a small residual
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            avg = rank_h_average_geodesic(rs, h, omega)
        res = fixed_point_residual(avg, rs, omega)
        worst_residual = max(worst_residual, res)
        if not avg.converged or res > 1e-6:
            ok = False
            detail = f"instance {inst}: converged={avg.converged}, residual={res:.2e}"
            break
    if ok:
        detail = (
            "50 instances: no dip beyond 1e-12 "
            f"(worst step {worst_dip:.1e}), max residual {worst_residual:.2e}"
        )
    _check(5, ok, detail)


def test_criterion_6_benchmark_reproduces_the_reference_cells():
    reps = 30
    seed = 23
    grid = [
        SimConfig(n=40, beta=math.pi / 2.0, sigma2=0.1, seed=seed,
                  replications=reps, theta_grid=(0.0, 1.0)),
        SimConfig(n=30, beta=math.pi / 4.0, sigma2=0.1, seed=seed,
                  replications=reps, theta_grid=(1.0,)),
        SimConfig(n=30, beta=math.pi / 3.0, sigma2=0.1, seed=seed,
                  replications=reps, theta_grid=(1.0,)),
        SimConfig(n=30, beta=math.pi / 2.0, sigma2=0.1, seed=seed,
                  replications=reps, theta_grid=(1.0,)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_benchmark(grid)
    by_key = {(r.n, round(r.beta, 6), r.theta): r.mean_rand for r in rows}
    t0 = by_key[(40, round(math.pi / 2, 6), 0.0)]
    t1 = by_key[(40, round(math.pi / 2, 6), 1.0)]
    b45 = by_key[(30, round(math.pi / 4, 6), 1.0)]
    b60 = by_key[(30, round(math.pi / 3, 6), 1.0)]
    b90 = by_key[(30, round(math.pi / 2, 6), 1.0)]
    failures = sum(r.failures for r in rows)
    checks = [
        failures == 0,
        t1 <= 0.05,
        t1 < t0,
        abs(t0 - 0.075) <= 0.05,
        abs(b45 - 0.134) <= 0.05,
        abs(b60 - 0.046) <= 0.05,
        abs(b90 - 0.008) <= 0.05,
        b45 > b60 > b90,
    ]
    detail = (
        f"n=40 pi/2: theta1={t1:.3f} (<=0.05, < theta0={t0:.3f}); "
        f"n=30 theta=1 across beta: {b45:.3f} > {b60:.3f} > {b90:.3f} "
        f"(targets 0.134, 0.046, 0.008 +/- 0.05); {failures} failed replications"
    )
    _check(6, all(checks), detail)


def test_criterion_7_wine_inertia_profile_and_two_cluster_fit():
    if not os.path.exists(WINE_CSV):
        record_criterion(7, "SKIP", "data/wine.csv not supplied")
        print("[SKIP] criterion 7: data/wine.csv not supplied")
        pytest.skip("wine dataset not supplied")
    ds = ingest(infer_manifest(WINE_CSV))
    structures = encode_dataset(ds)
    rs = [resultant(s, ds.weights) for s in structures]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = geodesic_inertia_profile(rs, 4)
        model = kmeans(
            rs,
            ClusteringConfig(
                n_clusters=2,
                distance="geodesic",
                criterion=RankCriterion.trace_ratio(0.5),
                seed=0,
                n_starts=10,
            ),
        )
    targets = np.array([36.006, 32.555, 32.062, 31.829])
    sep = centroid_separation(model)[0, 1]
    ok = bool(np.all(np.abs(profile - targets) <= 0.05)) and abs(sep - 0.376) <= 0.02
    detail = (
        f"D1..D4 = {np.round(profile, 3).tolist()} (targets {targets.tolist()}), "
        f"centroid cosine {sep:.3f} (target 0.376 +/- 0.02)"
    )
    _check(7, ok, detail)


def test_criterion_8_invariance_suites():
    rng = np.random.default_rng(108)
    failures = []

    # sign/scale invariance of the numeric encoding
    for _ in range(100):
        n = int(rng.integers(5, 30))
        w = random_weights(rng, n)
        x = rng.standard_normal(n)
        a = float(rng.uniform(0.1, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.normal(0.0, 5.0))
        r1 = resultant(encode_numeric(x, w), w)
        r2 = resultant(encode_numeric(a * x + b, w), w)
        if not np.allclose(r1.op, r2.op, atol=1e-9):
            failures.append("sign/scale")
            break

    # dropped-level invariance of categorical projectors
    for _ in range(100):
        n = int(rng.integers(8, 30))
        w = random_weights(rng, n)
        m = int(rng.integers(2, 6))
        labels = random_labels(rng, n, m)
        ops = [
            resultant(encode_categorical(labels, w, drop_level=d), w).op
            for d in range(m)
        ]
        if not all(np.allclose(op, ops[0], atol=1e-8) for op in ops[1:]):
            failures.append("dropped-level")
            break

    # argmax-cosine and argmin-distance give the same assignment
    for _ in range(100):
        n = int(rng.integers(5, 9))
        w = random_weights(rng, n)
        rs = [random_normed_resultant(rng, w) for _ in range(6)]
        cents = [
            rank_h_average_euclidean(rs[:3], int(rng.integers(1, 3))),
            rank_h_average_euclidean(rs[3:], int(rng.integers(1, 3))),
            rank_h_average_euclidean([rs[0], rs[5]], 1),
        ]
        if any(
            assign(r, cents, "chord") != assign(r, cents, "geodesic") for r in rs
        ):
            failures.append("argmax/argmin")
            break

    # the weighted polar factor maximizes tr(U'G) over the W-Stiefel manifold
    for _ in range(100):
        n = int(rng.integers(3, 7))
        h = int(rng.integers(1, n))
        w = random_weights(rng, n)
        g = rng.standard_normal((n, h))
        v = w_orthonormal_polar(g, w)
        best = float(np.trace(v.T @ g))
        for _ in range(1000):
            u = random_w_orthonormal(rng, w, h)
            if float(np.trace(u.T @ g)) > best + 1e-12:
                failures.append("polar")
                break
        if failures and failures[-1] == "polar":
            break

    _check(
        8,
        not failures,
        "sign/scale, dropped-level, assignment-equivalence, polar-optimality "
        + ("all hold on 100+ instances each" if not failures
           else f"violated: {failures[0]}"),
    )


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "vars.csv"
    rng = np.random.default_rng(109)
    base = rng.standard_normal(12)
    cols = {
        "v1": base + 0.1 * rng.standard_normal(12),
        "v2": base + 0.1 * rng.standard_normal(12),
        "v3": rng.standard_normal(12),
        "v4": rng.standard_normal(12),
    }
    labels = ["red" if v > 0 else "blue" for v in cols["v3"]]
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v1", "v2", "v3", "v4", "color"])
        for i in range(12):
            writer.writerow(
                [f"{cols[c][i]!r}" for c in ("v1", "v2", "v3", "v4")] + [labels[i]]
            )
    commands = {
        "cluster": ["cluster", "--data", str(data), "--L", "2", "--seed", "7",
                    "--starts", "4"],
        "average": ["average", "--data", str(data), "--distance", "geodesic",
                    "--criterion", "fixed", "--H", "2"],
        "simulate": ["simulate", "--n", "30", "--beta", "pi/2", "--sigma2", "0.1",
                     "--theta-grid", "0,1", "--reps", "2", "--seed", "11",
                     "--starts", "2"],
    }
    ok = True
    detail_parts = []
    produced = {}
    for name, argv in commands.items():
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}_{run}"
            code = cli_main(argv + ["--out-dir", str(out)])
            if code not in (0, 4):
                ok = False
                detail_parts.append(f"{name} exited {code}")
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        produced[name] = files
        if sorted(os.listdir(outs[1])) != files:
            ok = False
            detail_parts.append(f"{name} wrote different file sets")
            continue
        for f in files:
            if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes():
                ok = False
                detail_parts.append(f"{name}/{f} differs between reruns")
    # mds consumes the clustering model: same determinism contract
    model = tmp_path / "cluster_r1" / "model.json"
    if ok:
        for run in ("m1", "m2"):
            out = tmp_path / f"mds_{run}"
            code = cli_main(["mds", str(model), "--out-dir", str(out)])
            if code != 0:
                ok = False
                detail_parts.append(f"mds exited {code}")
        if ok and (
            (tmp_path / "mds_m1" / "coordinates.csv").read_bytes()
            != (tmp_path / "mds_m2" / "coordinates.csv").read_bytes()
        ):
            ok = False
            detail_parts.append("mds coordinates differ between reruns")
    n_files = sum(len(v) for v in produced.values())
    detail = (
        f"cluster, average, simulate, mds reruns byte-identical ({n_files} files)"
        if ok
        else "; ".join(detail_parts)
    )
    _check(9, ok, detail)
