"""CSV ingestion into datasets.

One column parser reads the response and every predictor: a cell is a
finite number, a missing marker (MISSING_MARKERS, with ``nan``) or bad.  The
reader is strict: a bad or missing predictor cell raises with its row and
column, the first such row winning (ties in predictor-list order), and only
rows whose response is missing can be dropped (when configured).  A header
or predictor list that names a column twice, and a predictor list that names
the response column, are rejected, and a leading UTF-8
byte order mark is not part of the first column name.  Without an explicit
predictor list, every other column that is numeric in all retained rows is
used, and the resolved list travels with the dataset so runs are auditable.
Every cell fault counts rows the same way: its ``row`` is the 0-based index
among the non-blank data rows, and its message says "at row N", 1-based,
whether or not rows with a missing response were dropped before it.  A file
the reader cannot read, a byte that is not UTF-8 or a cell over csv's field
limit, raises NonNumericCell naming the file and the reader's reason, with
the line where csv knows it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateColumn,
    InsufficientData,
    InvalidArgument,
    MissingColumn,
    NonNumericCell,
    TooFewRows,
    is_integer,
)
from .moments import Dataset

#: cell contents treated as a missing value
MISSING_MARKERS = frozenset({"", "NA", "NaN", "nan", "N/A", "null"})


@dataclass(frozen=True)
class IngestConfig:
    """How :func:`ingest_csv` reads a file.  ``response_column`` is a column
    name or an integer index (``errors.is_integer``); a name made of digits
    that the header lacks also reads as an index.  ``predictor_columns`` is a
    sequence of names, or None for every other column that is numeric.
    ``log_response`` and ``drop_rows_with_missing_response`` are bools, a
    Python or a numpy one; any other value, 0, 1 and "no" included, is
    rejected rather than read by its truth value."""

    response_column: str | int = "y"
    log_response: bool = False
    drop_rows_with_missing_response: bool = True
    predictor_columns: tuple[str, ...] | None = None
    delimiter: str = ","

    def __post_init__(self):
        if not (isinstance(self.response_column, str) or is_integer(self.response_column)):
            raise InvalidArgument(f"response_column {self.response_column!r} is not a str or int")
        for name in ("log_response", "drop_rows_with_missing_response"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise InvalidArgument(f"{name} must be a bool, got {getattr(self, name)!r}")
        if isinstance(self.predictor_columns, str):
            raise InvalidArgument(f"predictor_columns {self.predictor_columns!r} must not be a str")
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise InvalidArgument(f"delimiter must be one character, got {self.delimiter!r}")


def _parse_column(cells) -> tuple[np.ndarray, int | None]:
    """A column's cells as float64, NaN for a missing marker, up to the first
    cell that is neither a finite number nor a missing marker, and that cell's
    index (None when every cell parsed).

    A column of finite numbers is read by one conversion, which calls
    ``float`` on every cell as the classifier below does; any other column is
    walked cell by cell, and only that walk tells a missing marker from a bad
    cell.
    """
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values, None
    parsed: list[float] = []
    for i, cell in enumerate(cells):
        text = cell.strip()
        if text in MISSING_MARKERS:
            parsed.append(math.nan)
            continue
        try:
            value = float(text)
        except ValueError:
            return np.array(parsed), i
        if not math.isfinite(value):
            return np.array(parsed), i
        parsed.append(value)
    return np.array(parsed), None


def _resolve_response(header: list[str], ref: str | int) -> int:
    if is_integer(ref):
        if not 0 <= ref < len(header):
            raise MissingColumn(f"response column index {ref} out of range")
        return int(ref)
    if ref in header:
        return header.index(ref)
    if ref.isdecimal() and int(ref) < len(header):
        return int(ref)
    raise MissingColumn(f"response column {ref!r} not found in header {header}")


def _repeated(names: list[str]) -> list[str]:
    return sorted({name for name in names if names.count(name) > 1})


def _reject_duplicates(names: list[str], what: str) -> None:
    duplicates = _repeated(names)
    if duplicates:
        raise DuplicateColumn(f"{what} names {duplicates} more than once")


def ingest_csv(path, cfg: IngestConfig) -> Dataset:
    """Read a delimited text file with a header row into a Dataset."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=cfg.delimiter)
        try:
            header = next(reader, None)
            rows = [row for row in reader if any(cell.strip() for cell in row)]
        except UnicodeDecodeError as exc:  # decoded ahead of csv, so no line is known
            bad = exc.object[exc.start : exc.end]
            raise NonNumericCell(f"{path}: not UTF-8 text: {exc.reason} {bad!r}") from None
        except csv.Error as exc:
            raise NonNumericCell(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise TooFewRows(f"{path}: file is empty")
    header = [h.strip() for h in header]

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

    # Response first: a missing marker and a non-numeric cell compete in row
    # order, and rows with a missing response are dropped if configured.
    # ``kept`` maps the remaining rows to their data row numbers, which every
    # cell fault reports.
    resp_name = header[resp_idx]
    y, text_row = _parse_column([row[resp_idx] for row in rows])
    missing = np.flatnonzero(np.isnan(y))
    if missing.size and not cfg.drop_rows_with_missing_response:
        i = int(missing[0])
        raise NonNumericCell(
            f"missing response at row {i + 1} and dropping is disabled", row=i, column=resp_name
        )
    if text_row is not None:
        raise NonNumericCell(
            f"non-numeric response {rows[text_row][resp_idx]!r} at row {text_row + 1}",
            row=text_row,
            column=resp_name,
        )
    kept = np.flatnonzero(~np.isnan(y))
    if not kept.size:
        raise TooFewRows(f"{path}: every row has a missing response")
    if missing.size:
        rows = [rows[i] for i in kept]
        y = y[kept]

    if cfg.log_response:
        nonpositive = np.flatnonzero(y <= 0)
        if nonpositive.size:
            i = int(kept[nonpositive[0]])
            raise NonNumericCell(
                f"cannot log-transform nonpositive response {float(y[nonpositive[0]])!r} "
                f"at row {i + 1}",
                row=i,
                column=resp_name,
            )
        y = np.array([math.log(v) for v in y.tolist()])

    # Predictors: the kept rows are transposed once and each candidate column
    # parsed once.  An explicit list must be numeric in every kept row;
    # otherwise the columns that are become the list.
    if cfg.predictor_columns is not None:
        candidates = list(cfg.predictor_columns)
        _reject_duplicates(candidates, "predictor list")
        if resp_name in candidates:
            raise DuplicateColumn(f"predictor list names the response column {resp_name!r}")
    else:
        candidates = [name for c, name in enumerate(header) if c != resp_idx]
    cells = list(zip(*rows))
    del rows  # the row lists go before the columns are converted and x is built
    pred_names, columns, bad = [], [], []
    for name in candidates:
        if name not in header:
            raise MissingColumn(f"predictor column {name!r} not found")
        c = header.index(name)
        column, text_row = _parse_column(cells[c])
        missing = np.flatnonzero(np.isnan(column))
        i = int(missing[0]) if missing.size else text_row
        if i is None:
            pred_names.append(name)
            columns.append(column)
        else:
            bad.append((int(kept[i]), name, cells[c][i]))
    del cells
    if cfg.predictor_columns is not None and bad:
        i, name, cell = min(bad, key=lambda b: b[0])  # the first row; ties in list order
        raise NonNumericCell(
            f"non-numeric predictor cell {cell!r} at row {i + 1}, column {name!r}",
            row=i,
            column=name,
        )

    if len(pred_names) < 2:
        raise MissingColumn(
            f"need at least 2 numeric predictor columns, resolved {pred_names}"
        )

    try:
        # stacked C-ordered: BLAS rounds products of an F-ordered x differently
        return Dataset(y=y, x=np.stack(columns, axis=1), names=tuple(pred_names))
    except InsufficientData as exc:
        raise TooFewRows(f"{path}: {exc}") from exc


def write_dataset_csv(path, d: Dataset) -> None:
    """Full-precision CSV, response column ``y`` first, that round-trips
    bit-exactly through ingest_csv.  The header is written through ``csv``,
    which quotes only a name that holds a comma, a quote or a line break.
    Names that ingest_csv would not read back raise InvalidArgument: a name
    with edge whitespace, which it strips, and a name that repeats or is
    ``y``, which make a header it rejects as a DuplicateColumn."""
    edged = [name for name in d.names if name != name.strip()]
    if edged:
        raise InvalidArgument(f"column names {edged} have leading or trailing whitespace")
    header = ["y", *d.names]
    repeated = _repeated(header)
    if repeated:
        raise InvalidArgument(f"column names {repeated} repeat in the header {header}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for i in range(d.n):
            cells = [f"{d.y[i]:.17g}"] + [f"{v:.17g}" for v in d.x[i]]
            fh.write(",".join(cells) + "\n")
