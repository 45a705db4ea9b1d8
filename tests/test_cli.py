"""The command-line interface: outputs, determinism, and exit codes."""

import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

from varsphere import ValidationError
from varsphere.cli import main, parse_angle

from _support import count_spectrum_eigensolves


CSV_TEXT = """v1,v2,v3,v4,color,grade
1.2,0.9,5.1,0.3,red,good
2.4,2.1,4.0,0.1,blue,bad
0.7,0.4,4.8,0.9,red,good
1.9,1.7,5.5,0.2,green,bad
2.2,2.5,4.2,0.8,blue,good
0.3,0.1,5.9,0.4,red,bad
3.1,2.9,4.4,0.6,green,good
1.1,1.3,5.2,0.7,blue,bad
"""


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "vars.csv"
    path.write_text(CSV_TEXT)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_angle_forms():
    assert parse_angle("0.75") == 0.75
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4.0)
    assert parse_angle("2pi/5") == pytest.approx(2.0 * math.pi / 5.0)
    assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2.0)
    assert parse_angle(" PI / 3 ") == pytest.approx(math.pi / 3.0)
    with pytest.raises(ValidationError):
        parse_angle("tau")
    with pytest.raises(ValidationError):
        parse_angle("pi/")
    for text in ("pi/0", "2pi/0.0"):
        with pytest.raises(ValidationError, match=text):
            parse_angle(text)


def test_cluster_writes_all_outputs(data_csv, tmp_path):
    out = tmp_path / "out"
    code = main([
        "cluster", "--data", data_csv, "--out-dir", str(out),
        "--L", "2", "--seed", "0", "--starts", "4",
    ])
    assert code == 0
    rows = read_rows(out / "assignments.csv")
    assert rows[0] == ["variable", "cluster"]
    assert [r[0] for r in rows[1:]] == ["v1", "v2", "v3", "v4", "color", "grade"]
    assert {r[1] for r in rows[1:]} == {"0", "1"}
    cos_rows = read_rows(out / "cluster_cosines.csv")
    assert cos_rows[0] == ["variable", "cluster", "cos", "chord_dist", "geodesic_dist"]
    assert len(cos_rows) == 7
    cen_rows = read_rows(out / "centroid_cosines.csv")
    assert cen_rows[0] == ["cluster", "c0", "c1"]
    model = json.loads((out / "model.json").read_text())
    assert model["command"] == "cluster"
    assert model["n_clusters"] == 2
    assert model["n_variables"] == 6
    assert model["n_observations"] == 8
    assert len(model["centroid_cos"]) == 2
    assert 0.0 <= model["between_over_total"] <= 1.0
    # v1 and v2 track each other; v3 is noise around a different direction
    assign = {r[0]: r[1] for r in rows[1:]}
    assert assign["v1"] == assign["v2"]


def test_cluster_is_byte_deterministic(data_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main([
            "cluster", "--data", data_csv, "--out-dir", str(out),
            "--L", "2", "--seed", "3", "--starts", "3",
        ])
        assert code == 0
    for name in ("assignments.csv", "cluster_cosines.csv",
                 "centroid_cosines.csv", "model.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cluster_with_manifest_and_blocks(data_csv, tmp_path):
    manifest = tmp_path / "vars.manifest"
    manifest.write_text(
        "data = vars.csv\n"
        "numeric = v1, v2, v3, v4\n"
        "categorical = color, grade\n"
        "block.pair = v1, v2\n"
    )
    out = tmp_path / "out"
    code = main([
        "cluster", "--manifest", str(manifest), "--out-dir", str(out),
        "--L", "2", "--starts", "3",
    ])
    assert code == 0
    rows = read_rows(out / "assignments.csv")
    assert [r[0] for r in rows[1:]] == ["v3", "v4", "color", "grade", "pair"]


def test_an_empty_block_exits_2_naming_its_line(data_csv, tmp_path, capsys):
    manifest = tmp_path / "vars.manifest"
    manifest.write_text("data = vars.csv\nnumeric = v1, v2, v3\nblock.e =\n")
    code = main(["cluster", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
                 "--L", "2"])
    assert code == 2
    assert f"error: {manifest}:3: block 'e' declares no columns" in capsys.readouterr().err


@pytest.mark.parametrize("declared", ["numeric = v1, v2, v3", "numeric = v1, v2\ncategorical = v3"])
def test_a_weight_column_that_is_also_a_variable_exits_2(data_csv, tmp_path, capsys, declared):
    manifest = tmp_path / "vars.manifest"
    manifest.write_text(f"data = vars.csv\nweights = v3\n{declared}\n")
    out = tmp_path / "out"
    code = main(["cluster", "--manifest", str(manifest), "--out-dir", str(out), "--L", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight column 'v3' is also declared numeric" in err
    assert not (out / "assignments.csv").exists()


def test_dependent_block_columns_exit_3(tmp_path, capsys):
    (tmp_path / "dup.csv").write_text("a,a_copy,c\n1.5,1.5,2\n0.2,0.2,7\n3.1,3.1,1\n2.4,2.4,5\n")
    manifest = tmp_path / "dup.manifest"
    manifest.write_text("data = dup.csv\nnumeric = a, a_copy, c\n"
                        "block.b = a, a_copy\nblock.b.metric = projector\n")
    code = main(["cluster", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
                 "--L", "2"])
    assert code == 3
    assert "numerical error: block 'b' has numerically dependent columns" in capsys.readouterr().err


def test_the_cattell_criterion(data_csv, tmp_path):
    out = tmp_path / "avg"
    assert main(["average", "--data", data_csv, "--out-dir", str(out),
                 "--criterion", "cattell"]) == 0
    lam = np.array([float(r[1]) for r in read_rows(out / "scree.csv")[1:]])
    rank = int(np.count_nonzero(lam > 1e-10 * lam[0]))
    assert rank > 2
    second = lam[:rank - 2] - 2.0 * lam[1:rank - 1] + lam[2:rank]
    meta = json.loads((out / "average.json").read_text())
    assert meta["criterion"] == {"kind": "cattell"}
    assert meta["chosen_rank"] == int(np.argmax(second)) + 2

    out = tmp_path / "cluster"
    assert main(["cluster", "--data", data_csv, "--out-dir", str(out), "--L", "2",
                 "--criterion", "cattell"]) == 0
    assert json.loads((out / "model.json").read_text())["criterion"] == {"kind": "cattell"}


def test_average_chord_and_geodesic(data_csv, tmp_path):
    out = tmp_path / "avg"
    code = main([
        "average", "--data", data_csv, "--out-dir", str(out), "--theta", "0.6",
    ])
    assert code == 0
    meta = json.loads((out / "average.json").read_text())
    assert meta["command"] == "average"
    assert meta["distance"] == "chord"
    assert meta["chosen_rank"] >= 1
    scree = read_rows(out / "scree.csv")
    assert scree[0] == ["component", "eigenvalue"]
    spectrum = [float(r[1]) for r in scree[1:]]
    assert spectrum == sorted(spectrum, reverse=True)
    lam = read_rows(out / "factors_lambda.csv")
    assert len(lam) - 1 == meta["chosen_rank"]
    values = np.array([float(r[1]) for r in lam[1:]])
    assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-12)
    u = read_rows(out / "factors_u.csv")
    assert len(u) - 1 == 8  # one row per observation
    assert not (out / "geodesic_inertia.csv").exists()

    out2 = tmp_path / "avg_geo"
    code = main([
        "average", "--data", data_csv, "--out-dir", str(out2),
        "--distance", "geodesic", "--criterion", "fixed", "--H", "2",
    ])
    assert code in (0, 4)  # geodesic averaging may legitimately warn
    meta2 = json.loads((out2 / "average.json").read_text())
    assert meta2["chosen_rank"] == 2
    assert meta2["objective"] <= 0.0
    profile = read_rows(out2 / "geodesic_inertia.csv")
    assert profile[0] == ["h", "inertia"]
    assert len(profile) == 3


def test_simulate_writes_benchmark_grid(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--out-dir", str(out), "--n", "30", "--beta", "pi/2",
        "--sigma2", "0.1", "--theta-grid", "0,1", "--reps", "2",
        "--seed", "5", "--starts", "2",
    ])
    assert code == 0
    rows = read_rows(out / "benchmark.csv")
    assert rows[0] == ["n", "beta", "sigma2", "theta", "mean_rand",
                       "sd_rand", "replications", "failures"]
    assert len(rows) == 3  # one cell, two thetas
    assert [r[3] for r in rows[1:]] == ["0", "1"]
    meta = json.loads((out / "simulate.json").read_text())
    assert meta["cells"] == 2
    assert meta["beta"] == [math.pi / 2.0]
    # rerun into a second directory: byte-identical
    out2 = tmp_path / "sim2"
    main([
        "simulate", "--out-dir", str(out2), "--n", "30", "--beta", "pi/2",
        "--sigma2", "0.1", "--theta-grid", "0,1", "--reps", "2",
        "--seed", "5", "--starts", "2",
    ])
    assert (out / "benchmark.csv").read_bytes() == (out2 / "benchmark.csv").read_bytes()


def test_mds_places_two_centroids_symmetrically(data_csv, tmp_path):
    out = tmp_path / "fit"
    main([
        "cluster", "--data", data_csv, "--out-dir", str(out),
        "--L", "2", "--starts", "3",
    ])
    model = json.loads((out / "model.json").read_text())
    cos01 = model["centroid_cos"][0][1]
    d = math.sqrt(max(2.0 * (1.0 - cos01), 0.0))
    out_mds = tmp_path / "mds"
    code = main(["mds", str(out / "model.json"), "--dims", "1",
                 "--out-dir", str(out_mds)])
    assert code == 0
    rows = read_rows(out_mds / "coordinates.csv")
    assert rows[0] == ["cluster", "dim1"]
    x0, x1 = float(rows[1][1]), float(rows[2][1])
    assert abs(x0) == pytest.approx(d / 2.0, abs=1e-10)
    assert x0 == pytest.approx(-x1, abs=1e-10)
    meta = json.loads((out_mds / "mds.json").read_text())
    assert meta["n_centroids"] == 2


def test_exit_codes_for_bad_input(data_csv, tmp_path, capsys):
    out = str(tmp_path / "x")
    # no such file
    assert main(["cluster", "--data", str(tmp_path / "nope.csv"),
                 "--out-dir", out, "--L", "2"]) == 2
    # both input flags
    assert main(["cluster", "--data", data_csv, "--manifest", data_csv,
                 "--out-dir", out, "--L", "2"]) == 2
    # neither input flag
    assert main(["cluster", "--out-dir", out, "--L", "2"]) == 2
    # fixed criterion without --H
    assert main(["average", "--data", data_csv, "--out-dir", out,
                 "--criterion", "fixed"]) == 2
    # beta outside (0, pi/2]
    assert main(["simulate", "--out-dir", out, "--beta", "0",
                 "--n", "30", "--sigma2", "0.1", "--reps", "1"]) == 2
    # an angle over zero, and a non-finite noise variance
    assert main(["simulate", "--out-dir", out, "--beta", "pi/0",
                 "--n", "30", "--sigma2", "0.1", "--reps", "1"]) == 2
    assert main(["simulate", "--out-dir", out, "--beta", "pi/4",
                 "--n", "30", "--sigma2", "nan", "--reps", "1"]) == 2
    # no start, or an empty grid axis, is a usage error naming the flag
    grid = {"--n": "30", "--beta": "pi/4", "--sigma2": "0.1", "--theta-grid": "0,1"}
    for flag, value in [("--starts", "0"), ("--starts", "-3"), ("--n", ""),
                        ("--beta", ""), ("--sigma2", " , "), ("--theta-grid", "")]:
        argv = ["simulate", "--out-dir", out, "--reps", "1",
                *[part for f, v in {**grid, flag: value}.items() for part in (f, v)]]
        if flag == "--starts":
            argv += [flag, value]
        assert main(argv) == 2
        assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "x" / "benchmark.csv").exists()
    # every count flag is checked at parse time, before any input is read
    for argv in (["cluster", "--data", data_csv, "--L", "0"],
                 ["cluster", "--data", data_csv, "--L", "2", "--starts", "0"],
                 ["average", "--data", data_csv, "--criterion", "fixed", "--H", "0"],
                 ["simulate", "--reps", "0"],
                 ["mds", str(tmp_path / "model.json"), "--dims", "-1"]):
        assert main([*argv, "--out-dir", out]) == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # an output directory that is an existing file is refused by path, before the grid runs
    (taken := tmp_path / "taken").write_text("")
    assert main(["simulate", "--out-dir", str(taken), "--n", "30", "--beta", "pi/4",
                 "--sigma2", "0.1", "--reps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(taken)) in err and "Traceback" not in err
    # argparse errors also surface as exit code 2
    assert main(["cluster", "--data", data_csv, "--out-dir", out]) == 2
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_a_criterion_flag_its_criterion_ignores_exits_2(data_csv, tmp_path, capsys):
    # --H belongs to --criterion fixed and --theta to --criterion trace (the default, theta 0.5)
    for extra, flag in ((["--H", "3"], "--H"), (["--criterion", "cattell", "--H", "1"], "--H"),
                        (["--criterion", "fixed", "--H", "1", "--theta", "0.9"], "--theta"),
                        (["--criterion", "cattell", "--theta", "0.5"], "--theta")):
        for command in (["cluster", "--L", "2"], ["average"]):
            assert main([*command, "--data", data_csv, *extra, "--out-dir", str(tmp_path / "x")]) == 2
            assert f"error: {flag} applies only to" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert main(["cluster", "--data", data_csv, "--L", "2", "--out-dir", str(tmp_path / "y")]) == 0
    with open(tmp_path / "y" / "model.json") as fh:
        assert json.load(fh)["criterion"] == {"kind": "trace_ratio", "theta": 0.5}


def test_a_negative_seed_exits_2(data_csv, tmp_path, capsys):
    # the seed goes through the count rule, not into numpy's SeedSequence
    for argv in (["cluster", "--data", data_csv, "--L", "2"],
                 ["simulate", "--n", "30", "--beta", "pi/4", "--sigma2", "0.1", "--reps", "1"]):
        assert main([*argv, "--seed", "-1", "--out-dir", str(tmp_path / "x")]) == 2
        assert "error: seed must be an integer of at least 0 (got -1)" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_mds_input_validation(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["mds", str(missing), "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mds", str(bad), "--out-dir", str(tmp_path)]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"distance": "chord"}))
    assert main(["mds", str(incomplete), "--out-dir", str(tmp_path)]) == 2
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"distance": "chord", "centroid_cos": [[1.0]]}))
    assert main(["mds", str(single), "--out-dir", str(tmp_path)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"distance": "manhattan",
                                   "centroid_cos": [[1.0, 0.5], [0.5, 1.0]]}))
    assert main(["mds", str(unknown), "--out-dir", str(tmp_path)]) == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"distance": "chord", "centroid_cos": [[1.0, 0.5], [0.5]]}))
    assert main(["mds", str(ragged), "--out-dir", str(tmp_path)]) == 2
    # a bad entry is named by its (row, column); nothing is written
    for entry, text in [("abc", "not a number"), (None, "not a number"),
                        (True, "not a number"), (float("nan"), "not a cosine"),
                        (float("inf"), "not a cosine"), (2.0, "not a cosine"),
                        (-1.0 - 1e-9, "not a cosine")]:
        bad_entry = tmp_path / "entry.json"
        bad_entry.write_text(json.dumps({"distance": "geodesic",
                                         "centroid_cos": [[1.0, 0.5], [entry, 1.0]]}))
        assert main(["mds", str(bad_entry), "--out-dir", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "centroid_cos entry (1, 0)" in err and text in err
    assert not (tmp_path / "m").exists()
    # round-off just past +-1 is still a cosine
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"distance": "chord",
                                "centroid_cos": [[1.0 + 1e-13, -1.0], [-1.0, 1]]}))
    assert main(["mds", str(edge), "--out-dir", str(tmp_path / "e")]) == 0


def test_missing_cell_is_reported_with_location(tmp_path, capsys):
    holes = tmp_path / "holes.csv"
    holes.write_text("a,b\n1,2\n,3\n4,5\n")
    code = main(["average", "--data", str(holes), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "holes.csv:3" in err
    assert "'a'" in err


def test_non_finite_cell_is_reported_with_location(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("a,b\n1,2\n3,nan\n4,5\n")
    code = main(["average", "--data", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "nan.csv:3: column 'b': non-finite value" in capsys.readouterr().err


def test_geodesic_profile_ends_at_the_reported_average(data_csv, tmp_path, monkeypatch):
    # the profile ascends once per rank below the chosen one, as the public
    # profile does; its last entry and the objective are read, bit for bit,
    # from the cosines of the one fit written to factors_*.csv, and agree with
    # the n-row inertia of the written average
    import varsphere.averaging as averaging
    from varsphere import RankHOperator, geodesic_inertia_profile
    from varsphere.encoding import cosines
    from varsphere.cli import _load_resultants

    ascents = []
    ascend = averaging._geodesic_from
    monkeypatch.setattr(averaging, "_geodesic_from", lambda z, widths, omega, u, lam, *a: (
        ascents.append(lam.size) or ascend(z, widths, omega, u, lam, *a)))
    out = tmp_path / "avg"
    code = main(["average", "--data", data_csv, "--out-dir", str(out),
                 "--distance", "geodesic", "--criterion", "fixed", "--H", "2"])
    monkeypatch.undo()
    assert code in (0, 4)
    assert ascents == [2, 1]
    resultants, weights = _load_resultants(
        argparse.Namespace(data=data_csv, manifest=None)
    )
    lam = np.array([float(r[1]) for r in read_rows(out / "factors_lambda.csv")[1:]])
    u = np.array([[float(v) for v in r[1:]] for r in read_rows(out / "factors_u.csv")[1:]])
    profile = [float(r[1]) for r in read_rows(out / "geodesic_inertia.csv")[1:]]
    objective = json.loads((out / "average.json").read_text())["objective"]
    frame = averaging._Frame(resultants)
    fit = frame.fit(2, "geodesic")
    assert np.array_equal(u, frame.lift(fit).U) and np.array_equal(lam, fit[1])
    sq = np.arccos(np.clip(fit[3], -1.0, 1.0)) ** 2
    assert profile[-1] == float(np.sum(sq)) and objective == float(np.mean(-sq))
    written = RankHOperator(u, lam, weights)
    n_row_cos = cosines(resultants, [written])[:, 0]
    n_row = float(np.sum(np.arccos(n_row_cos) ** 2))
    assert profile[-1] == pytest.approx(n_row, rel=1e-12, abs=0.0)
    uniform = np.full(n_row_cos.size, 1.0 / n_row_cos.size)
    assert objective == pytest.approx(float(averaging._objective_value(n_row_cos, uniform)),
                                      rel=1e-12, abs=0.0)
    assert profile[:-1] == list(geodesic_inertia_profile(resultants, 1))


def test_bare_csv_is_read_once(data_csv, tmp_path, monkeypatch):
    import varsphere.cli as cli
    import varsphere.dataset as dataset

    reads, parses = [], []
    read, parse = dataset._read_csv, dataset._parse_floats
    counting = lambda path: reads.append(path) or read(path)  # noqa: E731
    monkeypatch.setattr(dataset, "_read_csv", counting)
    monkeypatch.setattr(cli, "_read_csv", counting)
    monkeypatch.setattr(dataset, "_parse_floats",
                        lambda cells: parses.append(tuple(cells)) or parse(cells))
    resultants, weights = cli._load_resultants(argparse.Namespace(data=data_csv, manifest=None))
    assert reads == [data_csv]
    assert len(resultants) == 6 and weights.n == 8
    # typing and ingestion share one float parse of each column
    rows = list(csv.reader(io.StringIO(CSV_TEXT)))[1:]
    assert len(parses) == len(set(parses)) <= 6
    assert set(parses) <= set(zip(*rows))
    manifest = tmp_path / "vars.manifest"
    manifest.write_text("data = vars.csv\nnumeric = v1, v2\ncategorical = color\n")
    cli._load_resultants(argparse.Namespace(data=None, manifest=str(manifest)))
    assert reads[1:] == [data_csv]


def test_average_takes_one_svd_of_the_mean(data_csv, tmp_path, monkeypatch):
    # the scree, the chord average, the geodesic start and the geodesic
    # profile's start at every rank share one spectrum eigensolve
    eigensolves = count_spectrum_eigensolves(monkeypatch)
    for flags, expected in [(["--theta", "0.6"], 1), (["--criterion", "fixed", "--H", "2"], 1),
                            (["--distance", "geodesic", "--criterion", "fixed", "--H", "1"], 1),
                            (["--distance", "geodesic", "--criterion", "fixed", "--H", "2"], 1)]:
        eigensolves.clear()
        code = main(["average", "--data", data_csv, "--out-dir", str(tmp_path / "a"), *flags])
        assert code in (0, 4) and len(eigensolves) == expected, (flags, len(eigensolves))
