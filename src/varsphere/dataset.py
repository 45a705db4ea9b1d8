"""CSV ingestion driven by a flat key = value manifest.

The manifest declares which columns are numeric, which are categorical,
an optional weight column, and optional named blocks of columns that are
encoded together, as their factor: standardised columns, or one QR basis of
their span (projector).  A bare CSV can also be ingested without a manifest,
in which case every column is typed by inspection (numeric when every cell
parses as a float).  A blank or whitespace-only cell is a missing value in
any column, and a leading byte-order mark in either file is ignored.
"""

from __future__ import annotations

import csv
import operator
import os
import re
from dataclasses import dataclass

import numpy as np

from .encoding import (
    VariableStructure,
    _center_columns,
    _centred_indicators,
    encode_categorical,
    encode_numeric,
)
from .errors import ValidationError
from .geometry import ZERO_VARIANCE_REL, Weights, _w_orthonormal_basis

BLOCK_METRICS = ("standardized-diagonal", "projector")


@dataclass(frozen=True)
class BlockSpec:
    name: str
    columns: tuple[str, ...]
    metric: str = "standardized-diagonal"


@dataclass(frozen=True)
class DatasetManifest:
    data_path: str
    numeric: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    weight_column: str | None = None
    blocks: tuple[BlockSpec, ...] = ()


@dataclass
class Dataset:
    """Typed raw columns plus observation weights, ready for encoding."""

    n: int
    weights: Weights
    numeric: dict[str, np.ndarray]
    categorical: dict[str, list]
    order: list[str]
    manifest: DatasetManifest


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def load_manifest(path: str) -> DatasetManifest:
    """Parse a flat key = value manifest file.

    Keys: data (CSV path, relative to the manifest), weights (column name),
    numeric / categorical (comma-separated column lists, may repeat),
    block.<name> (a non-empty column list) and block.<name>.metric (one of
    standardized-diagonal, projector).  Every key but numeric and categorical
    may appear only once, and data and weights may not be empty.  A `#` starts
    a comment only at the start of a line or after whitespace, so
    `numeric = a#1` names column a#1.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read manifest {path}: {exc}") from exc
    data_path = None
    weight_column = None
    numeric: list[str] = []
    categorical: list[str] = []
    block_cols: dict[str, tuple[str, ...]] = {}
    block_metric: dict[str, str] = {}
    seen: set[str] = set()  # the single-valued keys read so far
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ValidationError(f"{path}:{lineno}: key {key!r} is repeated")
        if key not in ("numeric", "categorical"):
            seen.add(key)
        if key in ("data", "weights") and not value:
            raise ValidationError(f"{path}:{lineno}: key {key!r} has no value")
        if key == "data":
            data_path = value
        elif key == "weights":
            weight_column = value
        elif key == "numeric":
            numeric.extend(_split_list(value))
        elif key == "categorical":
            categorical.extend(_split_list(value))
        elif key.startswith("block."):
            rest = key[len("block."):]
            if rest.endswith(".metric"):
                name = rest[: -len(".metric")]
                if value not in BLOCK_METRICS:
                    raise ValidationError(
                        f"{path}:{lineno}: block metric must be one of {BLOCK_METRICS}"
                    )
                block_metric[name] = value
            elif columns := _split_list(value):
                block_cols[rest] = columns
            else:
                raise ValidationError(f"{path}:{lineno}: block {rest!r} declares no columns")
        else:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
    if not data_path:
        raise ValidationError(f"{path}: manifest is missing the 'data' key")
    for name in block_metric:
        if name not in block_cols:
            raise ValidationError(f"{path}: metric given for undeclared block {name!r}")
    blocks = tuple(
        BlockSpec(name, cols, block_metric.get(name, "standardized-diagonal"))
        for name, cols in block_cols.items()
    )
    base = os.path.dirname(os.path.abspath(path))
    return DatasetManifest(
        data_path=os.path.join(base, data_path) if not os.path.isabs(data_path) else data_path,
        numeric=tuple(numeric),
        categorical=tuple(categorical),
        weight_column=weight_column,
        blocks=blocks,
    )


def _read_csv(path: str) -> tuple[list[str], int, list[list[str]], list]:
    """A CSV's header, row count and columns, with each column as parsed once
    by _parse_floats; an empty first line is rejected, empty last ones dropped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read data file {path}: {exc}") from exc
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValidationError(f"{path}: the file is empty")
    header, data = rows[0], rows[1:]
    if not header:
        raise ValidationError(f"{path}:1: the header line is empty")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in the header")
    if not data:
        raise ValidationError(f"{path}: no data rows")
    for lineno, row in enumerate(data, start=2):
        if not row and len(header) == 1:  # csv reads a blank cell of one column as no row
            row.append("")
        if len(row) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
    columns = list(map(list, zip(*data)))
    return header, len(data), columns, [_parse_floats(c) for c in columns]


def _parse_floats(cells: list[str]) -> np.ndarray | int:
    """The cells parsed as by float(), or the index of the first one that does
    not parse.  A blank or whitespace-only cell never parses."""
    rest = iter(cells)
    try:
        return np.fromiter(map(float, rest), dtype=float, count=len(cells))
    except ValueError:  # the failing cell is the last one taken from rest
        return len(cells) - operator.length_hint(rest) - 1


def _present(path: str, name: str, cells: list[str]) -> list[str]:
    """The cells, after rejecting the first blank or whitespace-only one as missing."""
    if not all(map(str.strip, cells)):
        lineno = 2 + list(map(str.strip, cells)).index("")
        raise ValidationError(f"{path}:{lineno}: missing value in column {name!r}")
    return cells


def infer_manifest(csv_path: str, *, table=None) -> DatasetManifest:
    """Type every column of a bare CSV: numeric when all cells parse as floats.
    A column with an empty or whitespace-only name is refused.

    `table` is csv_path as read by _read_csv when the caller has already read
    it; otherwise the file is read here."""
    header, _, columns, floats = table if table is not None else _read_csv(csv_path)
    for j, name in enumerate(header, start=1):
        if not name.strip():
            raise ValidationError(f"{csv_path}:1: column {j} has no name")
    numeric, categorical = [], []
    for name, cells, parsed in zip(header, columns, floats):
        if isinstance(parsed, np.ndarray):
            numeric.append(name)
        else:
            _present(csv_path, name, cells)
            categorical.append(name)
    return DatasetManifest(
        data_path=os.path.abspath(csv_path),
        numeric=tuple(numeric),
        categorical=tuple(categorical),
    )


def ingest(manifest: DatasetManifest, *, table=None) -> Dataset:
    """Read and type-check the CSV named by a manifest.

    Rows with missing or non-finite values are rejected with the row and
    column named; the weight column, when present, must be positive, may not
    also be declared numeric or categorical, and is normalized to sum to one.
    `table` is the file as read by _read_csv when the caller has already read it.
    """
    path = manifest.data_path
    header, n, columns, floats = table if table is not None else _read_csv(path)
    positions = {name: j for j, name in enumerate(header)}
    declared = list(manifest.numeric) + list(manifest.categorical)
    if manifest.weight_column:
        declared.append(manifest.weight_column)
    for block in manifest.blocks:
        declared.extend(block.columns)
    for name in declared:
        if name not in positions:
            raise ValidationError(f"{path}: declared column {name!r} is not in the header")
    overlap = set(manifest.numeric) & set(manifest.categorical)
    if overlap:
        raise ValidationError(f"columns declared both numeric and categorical: {sorted(overlap)}")
    if (weight := manifest.weight_column) in (*manifest.numeric, *manifest.categorical):
        raise ValidationError(f"{path}: weight column {weight!r} is also declared numeric or categorical")

    def numeric_column(name: str) -> np.ndarray:
        cells, parsed = columns[positions[name]], floats[positions[name]]
        if isinstance(parsed, np.ndarray) and np.all(np.isfinite(parsed)):
            return parsed
        _present(path, name, cells)  # some cell is bad: name the first one
        bad = parsed if isinstance(parsed, int) else len(cells)
        infinite = np.flatnonzero(~np.isfinite(_parse_floats(cells[:bad])))
        if infinite.size:
            raise ValidationError(f"{path}:{infinite[0] + 2}: column {name!r}: non-finite value")
        raise ValidationError(f"{path}:{bad + 2}: column {name!r}: cannot parse {cells[bad]!r}")

    if manifest.weight_column:
        raw_w = numeric_column(manifest.weight_column)
        if np.any(raw_w <= 0.0):
            raise ValidationError(f"weight column {manifest.weight_column!r} must be positive")
        weights = Weights.normalized(raw_w)
    else:
        weights = Weights.uniform(n)

    blocked = {c for b in manifest.blocks for c in b.columns}
    numeric_cols = {name: numeric_column(name) for name in manifest.numeric}
    categorical_cols = {c: _present(path, c, columns[positions[c]]) for c in manifest.categorical}
    for block in manifest.blocks:
        for name in block.columns:
            if name in numeric_cols or name in categorical_cols:
                continue
            # a block member must itself be declared numeric or categorical
            raise ValidationError(
                f"block {block.name!r} references column {name!r} that is not declared "
                "numeric or categorical"
            )
    order = [
        name
        for name in header
        if (name in numeric_cols or name in categorical_cols) and name not in blocked
    ]
    for block in manifest.blocks:
        if block.name in order:
            raise ValidationError(f"{path}: block {block.name!r} has the name of a column "
                                  "that is encoded on its own")
    return Dataset(
        n=n,
        weights=weights,
        numeric=numeric_cols,
        categorical=categorical_cols,
        order=order,
        manifest=manifest,
    )


def _block_structure(dataset: Dataset, block: BlockSpec) -> VariableStructure:
    """A block's structure, held as its factor: numeric members contribute
    their column, categorical members their centred indicators (last level
    dropped); the centred block, refused with a constant column, is
    standardised or, for a projector, a W-orthonormal basis of its span."""
    w = dataset.weights
    x = np.concatenate([dataset.numeric[name][:, None] if name in dataset.numeric
                        else _centred_indicators(dataset.categorical[name], w, name)[1]
                        for name in block.columns], axis=1)
    return _block_factor(x, w, block)


def _block_factor(x: np.ndarray, w: Weights, block: BlockSpec) -> VariableStructure:
    """The block structure of the columns x, each column tested for constancy
    as encode_numeric tests one: neither metric depends on a column's scale."""
    xc = _center_columns(x, w)
    with np.errstate(over="ignore"):  # an overflow refuses, and is rescaled below
        var = np.sum(w.w[:, None] * xc * xc, axis=0)
        low = var <= ZERO_VARIANCE_REL * np.sum(w.w[:, None] * x * x, axis=0)
    if np.any(low):
        top = np.max(np.abs(x), axis=0)
        if np.any((top[low] == 0.0) | (top[low] == 1.0)):  # constant at unit scale
            raise ValidationError(f"block {block.name!r} has a zero-variance column")
        return _block_factor(x / np.where(low, top, 1.0), w, block)
    if block.metric == "standardized-diagonal":
        factor = xc * np.sqrt(1.0 / var)
    else:
        factor = _w_orthonormal_basis(xc, w, f"block {block.name!r}")
    return VariableStructure(factor, block.name, "block")


def encode_dataset(dataset: Dataset) -> list[VariableStructure]:
    """Encode every non-blocked column in CSV order, then the blocks."""
    w = dataset.weights
    structures = []
    for name in dataset.order:
        if name in dataset.numeric:
            structures.append(encode_numeric(dataset.numeric[name], w, label=name))
        else:
            structures.append(encode_categorical(dataset.categorical[name], w, label=name))
    for block in dataset.manifest.blocks:
        structures.append(_block_structure(dataset, block))
    if not structures:
        raise ValidationError("the manifest declares no variables to encode")
    return structures
