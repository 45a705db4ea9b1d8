"""CSV ingestion driven by a flat key = value manifest.

The manifest declares which columns are numeric, which are categorical,
an optional weight column, and optional named blocks of columns that are
encoded together under a shared metric.  A bare CSV can also be ingested
without a manifest, in which case every column is typed by inspection
(numeric when every cell parses as a float).  A blank or whitespace-only
cell is a missing value in any column, and a leading byte-order mark in
either file is ignored.
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
    encode_block,
    encode_categorical,
    encode_numeric,
)
from .errors import NumericalError, ValidationError
from .geometry import ZERO_VARIANCE_REL, Weights

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
    block.<name> (column list) and block.<name>.metric (one of
    standardized-diagonal, projector).  A `#` starts a comment only at the
    start of a line or after whitespace, so `numeric = a#1` names column a#1.
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
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
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
            else:
                block_cols[rest] = _split_list(value)
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
    by _parse_floats."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read data file {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: the file is empty")
    header, data = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in the header")
    if not data:
        raise ValidationError(f"{path}: no data rows")
    for lineno, row in enumerate(data, start=2):
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

    `table` is csv_path as read by _read_csv when the caller has already read
    it; otherwise the file is read here."""
    header, _, columns, floats = table if table is not None else _read_csv(csv_path)
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
    column named; the weight column, when present, must be positive and is
    normalized to sum to one.  `table` is the file as read by _read_csv when
    the caller has already read it.
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
    return Dataset(
        n=n,
        weights=weights,
        numeric=numeric_cols,
        categorical=categorical_cols,
        order=order,
        manifest=manifest,
    )


def _block_structure(dataset: Dataset, block: BlockSpec) -> VariableStructure:
    """Assemble a block: numeric members contribute their column, categorical
    members their centred indicators (last level dropped)."""
    w = dataset.weights
    pieces = []
    for name in block.columns:
        if name in dataset.numeric:
            pieces.append(dataset.numeric[name][:, None])
        else:
            s = encode_categorical(dataset.categorical[name], w, label=name)
            pieces.append(s.X)
    x = np.concatenate(pieces, axis=1)
    xc = x - (w.w[None, :] @ x)
    if block.metric == "standardized-diagonal":
        var = np.sum(w.w[:, None] * xc * xc, axis=0)
        floor = ZERO_VARIANCE_REL * np.sum(w.w[:, None] * x * x, axis=0)
        if np.any(var <= floor):
            raise ValidationError(f"block {block.name!r} has a zero-variance column")
        metric = np.diag(1.0 / var)
    else:
        gram = xc.T @ (w.w[:, None] * xc)
        try:
            metric = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"block {block.name!r} has a singular metric") from exc
        metric = 0.5 * (metric + metric.T)
    return encode_block(x, metric, w, label=block.name)


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
