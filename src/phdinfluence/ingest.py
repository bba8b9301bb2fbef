"""CSV ingestion into datasets.

The reader is strict: predictor cells that do not parse as numbers raise with
their row and column instead of being coerced, a header or predictor list
that names a column twice is rejected, and only rows whose response is
missing can be dropped (when configured).  A leading UTF-8 byte order mark
is not part of the first column name.  When no explicit predictor list is
given, every column other than the response that is numeric in all retained
rows is used, and the resolved list travels with the dataset so runs are
auditable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import (
    DuplicateColumn,
    InsufficientData,
    MissingColumn,
    NonNumericCell,
    TooFewRows,
)
from .moments import Dataset

#: cell contents treated as a missing value
MISSING_MARKERS = frozenset({"", "NA", "NaN", "nan", "N/A", "null"})


@dataclass(frozen=True)
class IngestConfig:
    response_column: str | int = "y"
    log_response: bool = False
    drop_rows_with_missing_response: bool = True
    predictor_columns: tuple[str, ...] | None = None
    delimiter: str = ","


def _parse_cell(cell: str) -> float | None:
    """Float value, or None for a missing marker, or raise ValueError."""
    text = cell.strip()
    if text in MISSING_MARKERS:
        return None
    return float(text)


def _resolve_response(header: list[str], ref: str | int) -> int:
    if isinstance(ref, int):
        if not 0 <= ref < len(header):
            raise MissingColumn(f"response column index {ref} out of range")
        return ref
    if ref in header:
        return header.index(ref)
    if ref.isdigit() and int(ref) < len(header):
        return int(ref)
    raise MissingColumn(f"response column {ref!r} not found in header {header}")


def _reject_duplicates(names: list[str], what: str) -> None:
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise DuplicateColumn(f"{what} names {duplicates} more than once")


def ingest_csv(path, cfg: IngestConfig) -> Dataset:
    """Read a delimited text file with a header row into a Dataset."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=cfg.delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise TooFewRows(f"{path}: file is empty") from None
        rows = [row for row in reader if any(cell.strip() for cell in row)]

    _reject_duplicates(header, f"{path}: header")

    if not rows:
        raise TooFewRows(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise NonNumericCell(
                f"row {i + 1} has {len(row)} cells, header has {len(header)}",
                row=i,
            )

    resp_idx = _resolve_response(header, cfg.response_column)

    # Response first: parse, drop missing if configured.
    y_vals: list[float] = []
    kept_rows: list[list[str]] = []
    for i, row in enumerate(rows):
        try:
            val = _parse_cell(row[resp_idx])
        except ValueError:
            raise NonNumericCell(
                f"non-numeric response {row[resp_idx]!r} at row {i + 1}",
                row=i,
                column=header[resp_idx],
            ) from None
        if val is None:
            if cfg.drop_rows_with_missing_response:
                continue
            raise NonNumericCell(
                f"missing response at row {i + 1} and dropping is disabled",
                row=i,
                column=header[resp_idx],
            )
        y_vals.append(val)
        kept_rows.append(row)

    if not kept_rows:
        raise TooFewRows(f"{path}: every row has a missing response")

    if cfg.log_response:
        for i, val in enumerate(y_vals):
            if val <= 0:
                raise NonNumericCell(
                    f"cannot log-transform nonpositive response {val!r}",
                    row=i,
                    column=header[resp_idx],
                )
        y_vals = [math.log(v) for v in y_vals]

    if cfg.predictor_columns is not None:
        pred_names = list(cfg.predictor_columns)
        _reject_duplicates(pred_names, "predictor list")
        for name in pred_names:
            if name not in header:
                raise MissingColumn(f"predictor column {name!r} not found")
        pred_idx = [header.index(name) for name in pred_names]
        x_vals = []
        for i, row in enumerate(kept_rows):
            parsed = []
            for name, c in zip(pred_names, pred_idx):
                try:
                    val = _parse_cell(row[c])
                except ValueError:
                    val = None
                if val is None:
                    raise NonNumericCell(
                        f"non-numeric predictor cell {row[c]!r} at row {i + 1}, "
                        f"column {name!r}",
                        row=i,
                        column=name,
                    )
                parsed.append(val)
            x_vals.append(parsed)
    else:
        # All columns except the response that are numeric in every kept row,
        # each parsed once.
        pred_names = []
        columns = []
        for c, name in enumerate(header):
            if c == resp_idx:
                continue
            try:
                column = [_parse_cell(row[c]) for row in kept_rows]
            except ValueError:
                continue
            if None not in column:
                pred_names.append(name)
                columns.append(column)
        x_vals = list(zip(*columns))

    if len(pred_names) < 2:
        raise MissingColumn(
            f"need at least 2 numeric predictor columns, resolved {pred_names}"
        )

    try:
        return Dataset(y=y_vals, x=x_vals, names=tuple(pred_names))
    except InsufficientData as exc:
        raise TooFewRows(f"{path}: {exc}") from exc


def write_dataset_csv(path, d: Dataset) -> None:
    """Full-precision CSV, response column ``y`` first, that round-trips
    bit-exactly through ingest_csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["y", *d.names]) + "\n")
        for i in range(d.n):
            cells = [f"{d.y[i]:.17g}"] + [f"{v:.17g}" for v in d.x[i]]
            fh.write(",".join(cells) + "\n")
