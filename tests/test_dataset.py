"""Manifest parsing, CSV ingestion and typing, and whole-dataset encoding."""

import numpy as np
import pytest

from varsphere import (
    NumericalError,
    ValidationError,
    encode_dataset,
    encode_numeric,
    infer_manifest,
    ingest,
    load_manifest,
    resultant,
)
from varsphere import encoding
from varsphere.dataset import BlockSpec, DatasetManifest
from varsphere.geometry import sqrt_spd

from _support import (
    centred,
    dense,
    indicators,
    inverse_gram,
    inverse_variances,
    operator_norm,
    raw_operator,
    structure_operator,
)


TOY_CSV = """id,height,width,color,grade,wt
a,1.2,3.5,red,good,1
b,2.4,1.1,blue,bad,2
c,0.7,2.2,red,good,1
d,1.9,4.0,green,bad,2
e,2.2,0.5,blue,good,1
f,0.3,3.1,red,bad,2
"""


def write_toy(tmp_path, csv_text=TOY_CSV, manifest_text=None):
    data = tmp_path / "toy.csv"
    data.write_text(csv_text)
    if manifest_text is None:
        manifest_text = (
            "# toy dataset\n"
            "data = toy.csv\n"
            "numeric = height, width\n"
            "categorical = color, grade\n"
        )
    manifest = tmp_path / "toy.manifest"
    manifest.write_text(manifest_text)
    return data, manifest


def test_load_manifest_round_trip(tmp_path):
    text = (
        "data = toy.csv   # comment after the value\n"
        "\n"
        "weights = wt\n"
        "numeric = height\n"
        "numeric = width\n"
        "categorical = color, grade\n"
        "block.shape = height, width\n"
        "block.shape.metric = projector\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    m = load_manifest(str(path))
    assert m.data_path == str(tmp_path / "toy.csv")
    assert m.numeric == ("height", "width")  # repeated keys accumulate
    assert m.categorical == ("color", "grade")
    assert m.weight_column == "wt"
    assert m.blocks == (BlockSpec("shape", ("height", "width"), "projector"),)


def test_load_manifest_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.manifest"
    bad.write_text("data = x.csv\nnot a key value line\n")
    with pytest.raises(ValidationError, match=r"bad\.manifest:2"):
        load_manifest(str(bad))
    bad.write_text("data = x.csv\nmystery = 3\n")
    with pytest.raises(ValidationError, match="unknown key"):
        load_manifest(str(bad))
    bad.write_text("numeric = a\n")
    with pytest.raises(ValidationError, match="missing the 'data' key"):
        load_manifest(str(bad))
    bad.write_text("data = x.csv\nblock.b.metric = projector\n")
    with pytest.raises(ValidationError, match="undeclared block"):
        load_manifest(str(bad))
    bad.write_text("data = x.csv\nblock.b = c1\nblock.b.metric = fancy\n")
    with pytest.raises(ValidationError, match="metric must be one of"):
        load_manifest(str(bad))
    with pytest.raises(ValidationError, match="cannot read manifest"):
        load_manifest(str(tmp_path / "absent.manifest"))


@pytest.mark.parametrize("lines", [
    ["numeric = height", "data = toy.csv", "data = other.csv"],
    ["data = toy.csv", "numeric = height", "weights = wt", "weights = height"],
    ["data = toy.csv", "numeric = height, width", "block.e = height, width", "block.e = width"],
    ["data = toy.csv", "numeric = height", "block.e = height", "block.e.metric = projector",
     "block.e.metric = projector"],
])
def test_a_single_valued_key_may_not_repeat(tmp_path, lines):
    # the last line repeats a key that may appear once, and would silently win
    _, path = write_toy(tmp_path, manifest_text="\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=rf"toy\.manifest:{len(lines)}: key .* is repeated"):
        load_manifest(str(path))


def test_an_empty_block_is_refused_with_its_line(tmp_path):
    _, path = write_toy(tmp_path, manifest_text="data = toy.csv\nnumeric = height\nblock.e =\n")
    with pytest.raises(ValidationError, match=r"toy\.manifest:3: block 'e' declares no columns"):
        load_manifest(str(path))


@pytest.mark.parametrize("text, lineno, key", [
    ("data =\nnumeric = height\n", 1, "data"),
    ("data = toy.csv\nnumeric = height\nweights =\n", 3, "weights"),
    ("data = toy.csv\nweights =   # no column\nnumeric = height\n", 2, "weights"),
])
def test_an_empty_single_valued_key_is_refused_with_its_line(tmp_path, text, lineno, key):
    # an empty weights key would silently fall back to uniform weights
    _, path = write_toy(tmp_path, manifest_text=text)
    with pytest.raises(ValidationError, match=rf"toy\.manifest:{lineno}: key '{key}' has no value"):
        load_manifest(str(path))


def test_a_block_may_not_take_the_name_of_a_standalone_column(tmp_path):
    text = "data = toy.csv\nnumeric = height, width, wt\nblock.{} = width, wt\n"
    _, path = write_toy(tmp_path, manifest_text=text.format("height"))
    with pytest.raises(ValidationError, match="block 'height' has the name of a column"):
        ingest(load_manifest(str(path)))
    # a block may take the name of one of its own members
    _, path = write_toy(tmp_path, manifest_text=text.format("width"))
    labels = [s.label for s in encode_dataset(ingest(load_manifest(str(path))))]
    assert labels == ["height", "width"]


def test_infer_manifest_types_by_inspection(tmp_path):
    data, _ = write_toy(tmp_path)
    m = infer_manifest(str(data))
    assert m.numeric == ("height", "width", "wt")
    assert m.categorical == ("id", "color", "grade")
    assert m.blocks == ()


def test_infer_manifest_reports_missing_cells(tmp_path):
    data = tmp_path / "holes.csv"
    for hole in ("", " \t "):
        data.write_text(f"a,b\n1,x\n{hole},y\n3,z\n")
        # the same text and row whether the column is typed or declared numeric
        for read in (lambda: infer_manifest(str(data)),
                     lambda: ingest(DatasetManifest(data_path=str(data), numeric=("a",)))):
            with pytest.raises(ValidationError, match=r"holes\.csv:3: missing value in column 'a'"):
                read()


def test_a_blank_line_in_one_column_is_a_missing_value(tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("a\n1\n\n3\n")
    for read in (lambda: infer_manifest(str(data)),
                 lambda: ingest(DatasetManifest(data_path=str(data), numeric=("a",)))):
        with pytest.raises(ValidationError, match=r"one\.csv:3: missing value in column 'a'"):
            read()
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,x\n\n3,y\n")
    with pytest.raises(ValidationError, match=r"wide\.csv:3: expected 2 fields, got 0"):
        infer_manifest(str(wide))


def test_blank_lines_after_the_last_row_are_ignored(tmp_path):
    data = tmp_path / "tail.csv"
    for text in ("a,b\n1,x\n2,y\n\n", "a,b\n1,x\n2,y\n\n\n", "a\n1\n2\n\n"):
        data.write_text(text)
        manifest = infer_manifest(str(data))
        assert manifest.numeric == ("a",)
        ds = ingest(manifest)
        assert ds.n == 2 and ds.numeric["a"].tolist() == [1.0, 2.0]


def test_an_empty_first_line_is_rejected_as_the_header(tmp_path):
    # it would otherwise be read as a header of no columns, and the first
    # real line rejected as ragged
    data = tmp_path / "lead.csv"
    for text in ("\na\n1\n2\n", "\n\na,b\n1,x\n"):
        data.write_text(text)
        for read in (lambda: infer_manifest(str(data)),
                     lambda: ingest(DatasetManifest(data_path=str(data), numeric=("a",)))):
            with pytest.raises(ValidationError, match=r"lead\.csv:1: the header line is empty"):
                read()


def test_read_csv_structural_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        infer_manifest(str(empty))
    dup = tmp_path / "dup.csv"
    dup.write_text("a,a\n1,2\n")
    with pytest.raises(ValidationError, match="duplicate column names"):
        infer_manifest(str(dup))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match=r"ragged\.csv:3: expected 2 fields"):
        infer_manifest(str(ragged))
    headonly = tmp_path / "headonly.csv"
    headonly.write_text("a,b\n")
    with pytest.raises(ValidationError, match="no data rows"):
        infer_manifest(str(headonly))


def test_ingest_types_weights_and_order(tmp_path):
    text = (
        "data = toy.csv\n"
        "weights = wt\n"
        "numeric = height, width\n"
        "categorical = color\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    ds = ingest(load_manifest(str(path)))
    assert ds.n == 6
    assert ds.weights.w.sum() == pytest.approx(1.0)
    # weights 1,2,1,2,1,2 normalize to x/9
    assert np.allclose(ds.weights.w, np.array([1, 2, 1, 2, 1, 2]) / 9.0)
    assert set(ds.numeric) == {"height", "width"}
    assert list(ds.categorical) == ["color"]
    assert ds.order == ["height", "width", "color"]  # header order, typed only
    assert ds.numeric["height"][0] == pytest.approx(1.2)


def test_ingest_validation_errors(tmp_path):
    _, path = write_toy(
        tmp_path,
        manifest_text="data = toy.csv\nnumeric = absent\n",
    )
    with pytest.raises(ValidationError, match="declared column 'absent'"):
        ingest(load_manifest(str(path)))
    _, path2 = write_toy(
        tmp_path,
        manifest_text="data = toy.csv\nnumeric = height\ncategorical = height\n",
    )
    with pytest.raises(ValidationError, match="both numeric and categorical"):
        ingest(load_manifest(str(path2)))
    _, path3 = write_toy(
        tmp_path,
        manifest_text="data = toy.csv\nnumeric = color\n",
    )
    with pytest.raises(ValidationError, match=r"column 'color': cannot parse"):
        ingest(load_manifest(str(path3)))
    _, path4 = write_toy(
        tmp_path,
        manifest_text="data = toy.csv\nnumeric = height\nblock.b = width\n",
    )
    with pytest.raises(ValidationError, match="not declared"):
        ingest(load_manifest(str(path4)))


def test_ingest_missing_value_names_row_and_column(tmp_path):
    csv_text = "a,b\n1,x\n2,\n3,z\n"
    data = tmp_path / "gap.csv"
    data.write_text(csv_text)
    manifest = DatasetManifest(
        data_path=str(data), numeric=("a",), categorical=("b",)
    )
    with pytest.raises(ValidationError, match=r"gap\.csv:3: missing value in column 'b'"):
        ingest(manifest)


def test_ingest_rejects_non_positive_weights(tmp_path):
    data = tmp_path / "w.csv"
    data.write_text("x,wt\n1,1\n2,0\n3,1\n")
    manifest = DatasetManifest(data_path=str(data), numeric=("x",), weight_column="wt")
    with pytest.raises(ValidationError, match="must be positive"):
        ingest(manifest)


def test_encode_dataset_orders_and_blocks(tmp_path):
    text = (
        "data = toy.csv\n"
        "numeric = height, width\n"
        "categorical = color, grade\n"
        "block.shape = height, width\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    ds = ingest(load_manifest(str(path)))
    structures = encode_dataset(ds)
    # blocked columns drop out of the individual list; the block comes last
    assert [s.label for s in structures] == ["color", "grade", "shape"]
    assert structures[-1].kind == "block"
    assert structures[-1].q == 2
    for s in structures:
        assert operator_norm(dense(resultant(s, ds.weights)), ds.weights) == pytest.approx(1.0)


def test_block_metrics_standardized_and_projector(tmp_path):
    text = (
        "data = toy.csv\n"
        "numeric = height, width\n"
        "block.b = height, width\n"
        "block.b.metric = projector\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    ds = ingest(load_manifest(str(path)))
    block = encode_dataset(ds)[-1]
    raw = raw_operator(block, ds.weights)
    # projector metric makes the operator idempotent with norm sqrt(q)
    assert np.allclose(raw @ raw, raw, atol=1e-8)
    assert operator_norm(raw, ds.weights) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    # standardized-diagonal equals the sum of the members' unit projectors
    text2 = text.replace("block.b.metric = projector\n", "")
    _, path2 = write_toy(tmp_path, manifest_text=text2)
    ds2 = ingest(load_manifest(str(path2)))
    block2 = encode_dataset(ds2)[-1]
    raw2 = raw_operator(block2, ds2.weights)
    parts = [
        raw_operator(encode_numeric(ds2.numeric[c], ds2.weights), ds2.weights)
        for c in ("height", "width")
    ]
    assert np.allclose(raw2, parts[0] + parts[1], atol=1e-10)


@pytest.mark.parametrize("metric", ["standardized-diagonal", "projector"])
def test_blocks_are_factors_under_the_identity_metric(tmp_path, monkeypatch, metric):
    # a block of numeric and categorical members under unequal weights: its
    # factor's operator is X M X'W of its centred columns under the metric named,
    # and encoding it takes no square root
    text = ("data = toy.csv\nweights = wt\nnumeric = height, width\ncategorical = color\n"
            f"block.mix = height, color, width\nblock.mix.metric = {metric}\n")
    _, path = write_toy(tmp_path, manifest_text=text)
    ds = ingest(load_manifest(str(path)))
    w = ds.weights
    roots = []
    monkeypatch.setattr(encoding, "sqrt_spd", lambda m: roots.append(1) or sqrt_spd(m))
    block = encode_dataset(ds)[-1]
    raw = raw_operator(block, w)
    assert not roots
    x = np.column_stack([ds.numeric["height"], centred(indicators(ds.categorical["color"]), w),
                         ds.numeric["width"]])
    m = inverse_variances(x, w) if metric == "standardized-diagonal" else inverse_gram(x, w)
    assert np.allclose(raw, structure_operator(x, m, w), atol=1e-10)


def _collinear_block(tmp_path, eps, scale=1.0):
    """The dataset of a projector block of a and b = scale * (a + eps * noise),
    n = 50."""
    rng = np.random.default_rng(0)
    a, noise = rng.standard_normal(50), rng.standard_normal(50)
    rows = zip(a.tolist(), (scale * (a + eps * noise)).tolist())
    csv_text = "a,b\n" + "".join(f"{u!r},{v!r}\n" for u, v in rows)
    _, path = write_toy(tmp_path, csv_text=csv_text, manifest_text=(
        "data = toy.csv\nnumeric = a, b\nblock.b = a, b\nblock.b.metric = projector\n"))
    return ingest(load_manifest(str(path)))


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("eps", [1e-8, 1e-6])
def test_near_collinear_projector_blocks_are_refused(tmp_path, eps, scale):
    # columns dependent to RANK_TOL, r_22^2 <= RANK_TOL ||b||^2 in the QR of
    # the whitened block, are refused with the block named, at any scale of b
    with pytest.raises(NumericalError, match="block 'b' has numerically dependent columns"):
        encode_dataset(_collinear_block(tmp_path, eps, scale))


@pytest.mark.parametrize("eps, scale", [(3e-5, 1.0), (1e-4, 1.0), (1e6, 1.0), (1e6, 1e-12)])
def test_accepted_projector_blocks_are_projectors(tmp_path, eps, scale):
    # near-collinear columns above the rule, and independent columns whose
    # scales differ by 1e6 either way (b about 1e6 or 1e-6 times the noise)
    ds = _collinear_block(tmp_path, eps, scale)
    raw = raw_operator(encode_dataset(ds)[-1], ds.weights)
    assert float(np.max(np.abs(raw @ raw - raw))) <= 1e-12
    assert operator_norm(raw, ds.weights) == pytest.approx(np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("metric", ["standardized-diagonal", "projector"])
def test_a_constant_block_column_is_refused_under_either_metric(tmp_path, metric):
    # centring a constant column leaves rounding residue, which a projector's
    # scale-free rank rule would otherwise take for a direction
    rng = np.random.default_rng(3)
    rows = zip(rng.standard_normal(20).tolist(), rng.uniform(0.5, 2.0, 20).tolist())
    csv_text = "a,c,wt\n" + "".join(f"{u!r},0.1,{v!r}\n" for u, v in rows)
    _, path = write_toy(tmp_path, csv_text=csv_text, manifest_text=(
        "data = toy.csv\nweights = wt\nnumeric = a, c\nblock.b = a, c\n"
        f"block.b.metric = {metric}\n"))
    ds = ingest(load_manifest(str(path)))
    c = ds.numeric["c"]
    assert np.any(c - ds.weights.w @ c != 0.0)
    with pytest.raises(ValidationError, match="block 'b' has a zero-variance column"):
        encode_dataset(ds)


def test_block_with_categorical_member_uses_indicators(tmp_path):
    text = (
        "data = toy.csv\n"
        "numeric = height\n"
        "categorical = color\n"
        "block.mix = height, color\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    ds = ingest(load_manifest(str(path)))
    structures = encode_dataset(ds)
    assert [s.label for s in structures] == ["mix"]
    # one numeric column plus (3 - 1) centred indicator columns
    assert structures[0].q == 3


def test_encode_dataset_requires_variables(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a\n1\n2\n")
    ds = ingest(DatasetManifest(data_path=str(data)))
    with pytest.raises(ValidationError, match="declares no variables"):
        encode_dataset(ds)


def test_manifest_hash_is_a_comment_only_after_whitespace(tmp_path):
    text = (
        "data = toy.csv\n"
        "numeric = a#1, b  # inline comment\n"
        "categorical = c#\t# tab-separated comment\n"
    )
    _, path = write_toy(tmp_path, manifest_text=text)
    m = load_manifest(str(path))
    assert m.numeric == ("a#1", "b")
    assert m.categorical == ("c#",)


def test_ingest_names_a_non_finite_weight_cell(tmp_path):
    (tmp_path / "w.csv").write_text("x,wt\n1,1\n2,1\n3,inf\n")
    _, path = write_toy(tmp_path, manifest_text="data = w.csv\nnumeric = x\nweights = wt\n")
    with pytest.raises(ValidationError, match=r"w\.csv:4: column 'wt': non-finite value"):
        ingest(load_manifest(str(path)))
    # a nan column parses, so it is typed numeric, and is then rejected
    nan = tmp_path / "nan.csv"
    nan.write_text("x,y\n1,2\n2,nan\n3,1\n")
    m = infer_manifest(str(nan))
    assert m.numeric == ("x", "y")
    with pytest.raises(ValidationError, match=r"nan\.csv:3: column 'y': non-finite value"):
        ingest(m)


def test_numeric_cells_ingest_as_float_parses_them(tmp_path):
    cells = [" 1.5", "1e-3", "+.5", "1_000", "5.", "-0", "1.5 "]
    data = tmp_path / "spell.csv"
    data.write_text("x,c\n" + "".join(f"{v},{i % 2}\n" for i, v in enumerate(cells)))
    ds = ingest(infer_manifest(str(data)))
    assert ds.numeric["x"].tobytes() == np.array([float(v) for v in cells]).tobytes()


def test_a_byte_order_mark_is_ignored(tmp_path):
    bom = "\ufeff"
    data = tmp_path / "bom.csv"
    data.write_text(bom + "a,b,c\n1,2,x\n2,1,y\n3,5,x\n", encoding="utf-8")
    bare = infer_manifest(str(data))
    assert (bare.numeric, bare.categorical) == (("a", "b"), ("c",))
    manifest = tmp_path / "bom.manifest"
    for text in ("data = bom.csv\nnumeric = a, b\n", bom + "data = bom.csv\nnumeric = a, b\n"):
        manifest.write_text(text, encoding="utf-8")
        ds = ingest(load_manifest(str(manifest)))
        assert ds.order == ["a", "b"]
        assert ds.numeric["a"].tolist() == [1.0, 2.0, 3.0]
