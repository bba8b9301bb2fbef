import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phdinfluence import Dataset, IngestConfig, SimSpec, ingest_csv, simulate, write_dataset_csv
from phdinfluence.errors import (
    DuplicateColumn,
    InvalidArgument,
    MissingColumn,
    NonNumericCell,
    PhdError,
    TooFewRows,
)
from phdinfluence.ingest import MISSING_MARKERS


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TOY = """name,Salary,AtBat,Hits
alice,1000,300,93
bob,NA,250,70
carol,2500,410,120
dave,800,120,40
eve,1500,500,150
"""


def test_missing_response_rows_dropped(tmp_path):
    path = write(tmp_path, TOY)
    cfg = IngestConfig(response_column="Salary")
    d = ingest_csv(path, cfg)
    assert d.n == 4  # bob dropped
    assert d.names == ("AtBat", "Hits")  # name column is not numeric


def test_auto_resolution_skips_a_missing_marker_and_a_text_cell(tmp_path):
    vals = np.random.default_rng(3).standard_normal((8, 6))
    cells = [[repr(v) for v in row] for row in vals.tolist()]
    cells[5][2] = "NA"
    cells[2][4] = "abc"
    cells[1][3] = f"  {cells[1][3]} "
    text = "y,a,with_na,b,with_text,c\n" + "".join(",".join(row) + "\n" for row in cells)
    d = ingest_csv(write(tmp_path, text), IngestConfig(response_column="y"))
    assert d.names == ("a", "b", "c")
    assert d.y.tobytes() == vals[:, 0].tobytes()
    assert d.x.tobytes() == np.ascontiguousarray(vals[:, [1, 3, 5]]).tobytes()


def test_missing_response_error_when_keeping(tmp_path):
    path = write(tmp_path, TOY)
    cfg = IngestConfig(response_column="Salary",
                       drop_rows_with_missing_response=False)
    with pytest.raises(NonNumericCell):
        ingest_csv(path, cfg)


def test_log_response(tmp_path):
    path = write(tmp_path, TOY)
    cfg = IngestConfig(response_column="Salary", log_response=True)
    d = ingest_csv(path, cfg)
    assert d.y[0] == pytest.approx(math.log(1000.0), abs=1e-12)
    assert d.y[0] == pytest.approx(6.907755, abs=1e-6)


def test_explicit_predictors_reject_non_numeric(tmp_path):
    path = write(tmp_path, TOY)
    cfg = IngestConfig(response_column="Salary",
                       predictor_columns=("name", "AtBat"))
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(path, cfg)
    assert err.value.column == "name"


def test_missing_column(tmp_path):
    path = write(tmp_path, TOY)
    with pytest.raises(MissingColumn):
        ingest_csv(path, IngestConfig(response_column="Wage"))
    with pytest.raises(MissingColumn):
        ingest_csv(
            path,
            IngestConfig(response_column="Salary", predictor_columns=("Nope", "Hits")),
        )


def test_too_few_rows(tmp_path):
    path = write(tmp_path, "y,x1,x2\n1,2,3\n2,3,4\n")
    with pytest.raises(TooFewRows):
        ingest_csv(path, IngestConfig(response_column="y"))


def test_response_by_index(tmp_path):
    path = write(tmp_path, TOY)
    d = ingest_csv(path, IngestConfig(response_column=1))
    assert d.n == 4


def test_alternative_delimiter(tmp_path):
    text = TOY.replace(",", ";")
    path = write(tmp_path, text)
    d = ingest_csv(path, IngestConfig(response_column="Salary", delimiter=";"))
    assert d.n == 4


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_delimiter_must_be_one_character(delimiter):
    with pytest.raises(InvalidArgument):
        IngestConfig(delimiter=delimiter)


@pytest.mark.parametrize(
    "fields, accepted",
    [
        ({"response_column": np.int64(1)}, True),
        ({"response_column": True}, False),  # would read column 1
        ({"response_column": np.int64(0), "predictor_columns": "ab"}, False),  # columns a and b
        ({"response_column": 1.0}, False),
        ({"response_column": None}, False),
        ({"response_column": 1, "log_response": np.True_}, True),
        # a non-empty string or a nonzero int is true: each would log-transform
        ({"log_response": "no"}, False),
        ({"log_response": "False"}, False),
        ({"log_response": 1}, False),
        ({"drop_rows_with_missing_response": "no"}, False),
        ({"drop_rows_with_missing_response": 0}, False),
    ],
    ids=["numpy-integer", "bool", "bare-string-predictors", "float", "none", "numpy-bool-log",
         "log-no", "log-False-string", "log-one", "drop-no", "drop-zero"],
)
def test_ingest_config_checks_its_field_types(tmp_path, fields, accepted):
    if not accepted:
        with pytest.raises(InvalidArgument):
            IngestConfig(**fields)
        return
    d = ingest_csv(write(tmp_path, TOY), IngestConfig(**fields))
    assert d.names == ("AtBat", "Hits")
    want = np.array([1000.0, 2500.0, 800.0, 1500.0])
    assert d.y.tolist() == (np.log(want) if fields.get("log_response") else want).tolist()


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_a_non_finite_number_is_a_bad_cell(tmp_path, cell):
    rows = [f"{i},{i * i % 7},{cell if i == 1 else i % 3},{i % 4}\n" for i in range(6)]
    path = write(tmp_path, "y,a,b,c\n" + "".join(rows))
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(path, IngestConfig(response_column="y", predictor_columns=("a", "b")))
    assert (err.value.row, err.value.column) == (1, "b")
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(path, IngestConfig(response_column="b"))
    assert (err.value.row, err.value.column) == (1, "b")
    # auto-detection drops the column, as it drops a text column
    assert ingest_csv(path, IngestConfig(response_column="y")).names == ("a", "c")


def test_round_trip_is_bit_exact(tmp_path):
    d = simulate(SimSpec(n=120, p=4, seed=99, sigma=0.5))
    path = tmp_path / "sim.csv"
    write_dataset_csv(path, d)
    back = ingest_csv(path, IngestConfig(response_column="y"))
    assert back.n == d.n and back.p == d.p
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.x, d.x)
    assert back.names == d.names


def test_writer_rejects_names_that_the_reader_would_strip(tmp_path):
    # ingest_csv strips header cells, so (' a', 'b ') would read back as ('a', 'b')
    d = simulate(SimSpec(n=20, p=2, seed=1))
    path = tmp_path / "edged.csv"
    with pytest.raises(InvalidArgument):
        write_dataset_csv(path, Dataset(y=d.y, x=d.x, names=(" a", "b ")))
    assert not path.exists()


@pytest.mark.parametrize("names", [("a", "a", "c"), ("a", "y", "c")])
def test_writer_rejects_names_that_make_a_header_the_reader_rejects(tmp_path, names):
    # the header is y followed by the names: a repeat, or a predictor named
    # y, would read back as a DuplicateColumn
    d = simulate(SimSpec(n=20, p=3, seed=1))
    path = tmp_path / "repeated.csv"
    with pytest.raises(InvalidArgument):
        write_dataset_csv(path, Dataset(y=d.y, x=d.x, names=names))
    assert not path.exists()


SMALL = "y,a,b\n1,2,3\n2,3,5\n3,5,4\n4,1,1\n5,8,2\n"


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + SMALL.encode())
    d = ingest_csv(path, IngestConfig(response_column="y"))
    plain = ingest_csv(write(tmp_path, SMALL), IngestConfig(response_column="y"))
    assert d.names == plain.names == ("a", "b")
    assert np.array_equal(d.y, plain.y) and np.array_equal(d.x, plain.x)


def test_duplicate_header_names_are_a_data_error(tmp_path):
    path = write(tmp_path, SMALL.replace("y,a,b", "y,a,a"))
    with pytest.raises(DuplicateColumn, match="'a'") as err:
        ingest_csv(path, IngestConfig(response_column="y"))
    assert err.value.exit_code == 3


def test_duplicate_predictor_names_are_a_data_error(tmp_path):
    path = write(tmp_path, SMALL)
    with pytest.raises(DuplicateColumn, match="'a'"):
        ingest_csv(path, IngestConfig(response_column="y", predictor_columns=("a", "a")))


@pytest.mark.parametrize("response", ["y", 0, "0"])
def test_a_predictor_list_that_names_the_response_is_a_data_error(tmp_path, response):
    # by name or by index, y would be regressed on itself
    path = write(tmp_path, SMALL)
    with pytest.raises(DuplicateColumn, match="'y'") as err:
        ingest_csv(path, IngestConfig(response_column=response, predictor_columns=("y", "a", "b")))
    assert err.value.exit_code == 3


# ----------------------------------------------------------------------
# spec: a grid of cell kinds in the response and predictor columns
# ----------------------------------------------------------------------

_NUMBER = st.floats(-2.0, 50.0, allow_nan=False).flatmap(
    lambda v: st.sampled_from([repr(v), f"  {v!r} ", f"\t{v!r}\t", f"\u2003{v!r}\u2003"]))
# "+nan" and "1_000" pass a bulk float conversion: the first must still end
# as a bad cell, the second as a number
_ODD_CELL = st.sampled_from(
    sorted(MISSING_MARKERS) + ["abc", "1.2.3", "inf", "-inf", "1e999", "+nan", "1_000"])


def _spec_outcome(path, header, rows, resp, predictors, drop, log):
    """What ingest_csv must return or raise for a grid of cells, derived from
    the documented rules alone: (error type, row, column, message) or
    (names, y, x)."""
    def number(cell):
        text = cell.strip()
        if text in MISSING_MARKERS:
            return None
        try:
            value = float(text)
        except ValueError:
            return "text"
        return value if math.isfinite(value) else "text"

    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        return (TooFewRows, None, None, f"{path}: no data rows")
    c_resp = header.index(resp)
    # a fault's row is its index among the non-blank data rows, dropped or not
    kept, y = [], []
    for i, row in enumerate(rows):
        v = number(row[c_resp])
        if v == "text":
            return (NonNumericCell, i, resp, f"non-numeric response {row[c_resp]!r} at row {i + 1}")
        if v is None:
            if drop:
                continue
            return (NonNumericCell, i, resp,
                    f"missing response at row {i + 1} and dropping is disabled")
        kept.append((i, row))
        y.append(v)
    if not kept:
        return (TooFewRows, None, None, f"{path}: every row has a missing response")
    if log:
        for (i, _), v in zip(kept, y):
            if v <= 0:
                return (NonNumericCell, i, resp,
                        f"cannot log-transform nonpositive response {v!r} at row {i + 1}")
        y = [math.log(v) for v in y]
    if predictors is None:
        names = [name for c, name in enumerate(header) if c != c_resp
                 and all(isinstance(number(row[c]), float) for _, row in kept)]
    else:
        names = list(predictors)
        for i, row in kept:
            for name in names:
                cell = row[header.index(name)]
                if not isinstance(number(cell), float):
                    return (NonNumericCell, i, name,
                            f"non-numeric predictor cell {cell!r} at row {i + 1}, column {name!r}")
    if len(names) < 2:
        return (MissingColumn, None, None,
                f"need at least 2 numeric predictor columns, resolved {names}")
    if len(kept) < len(names) + 2:
        return (TooFewRows, None, None, f"{path}: need n >= p + 2 observations, "
                f"got n={len(kept)}, p={len(names)}")
    x = [[number(row[header.index(name)]) for name in names] for _, row in kept]
    return (tuple(names), np.array(y).tobytes(), np.array(x).tobytes())


@st.composite
def _cell_grid(draw):
    """Numbers everywhere but for a few missing markers and text cells."""
    n_pred = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(n_pred)]
    header.insert(draw(st.integers(0, n_pred)), "y")
    rows = draw(st.lists(st.lists(_NUMBER, min_size=n_pred + 1, max_size=n_pred + 1),
                         min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n_pred))] = draw(_ODD_CELL)
    predictors = None
    if draw(st.booleans()):
        predictors = tuple(draw(st.permutations([h for h in header if h != "y"])))
        predictors = predictors[: draw(st.integers(1, len(predictors)))]
    return header, rows, predictors, draw(st.booleans()), draw(st.booleans())


_TIES = [["1.5", "2", "3"], ["2.5", "NA", "abc"], ["3.5", "x", "4"], ["4", "5", "6"]]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cell_grid())
@example((["y", "c0", "c1"], _TIES, ("c1", "c0"), False, False))  # a tie goes to list order
@example((["y", "c0", "c1"], [_TIES[0], _TIES[2], _TIES[1]], ("c1", "c0"), True, False))
def test_spec_cell_grid_resolves_or_raises_at_the_first_offending_cell(tmp_path, grid):
    header, rows, predictors, drop, log = grid
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    path = write(tmp_path, text)
    cfg = IngestConfig(response_column="y", log_response=log,
                       drop_rows_with_missing_response=drop, predictor_columns=predictors)
    want = _spec_outcome(path, header, rows, "y", predictors, drop, log)
    if isinstance(want[0], tuple):
        d = ingest_csv(path, cfg)
        assert (d.names, d.y.tobytes(), d.x.tobytes()) == want
        return
    kind, row, column, message = want
    with pytest.raises(PhdError) as err:
        ingest_csv(path, cfg)
    assert type(err.value) is kind
    assert str(err.value) == message
    if kind is NonNumericCell:
        assert (err.value.row, err.value.column) == (row, column)


def test_a_cell_fault_counts_every_non_blank_data_row(tmp_path):
    # data row 2 has a missing response and is dropped; the fault at data row
    # 4 still reports row 4, as a response fault there would
    text = "y,a,b\n1,2,3\nNA,3,5\n\n3,5,4\n4,abc,1\n5,8,2\n6,1,7\n"
    path = write(tmp_path, text)
    with pytest.raises(NonNumericCell, match="at row 4, column 'a'") as err:
        ingest_csv(path, IngestConfig(response_column="y", predictor_columns=("a", "b")))
    assert (err.value.row, err.value.column) == (3, "a")
    path = write(tmp_path, text.replace("4,abc,1", "-4,9,1"))
    with pytest.raises(NonNumericCell, match=r"response -4\.0 at row 4$") as err:
        ingest_csv(path, IngestConfig(response_column="y", log_response=True))
    assert (err.value.row, err.value.column) == (3, "y")


def test_x_is_c_ordered_and_equals_a_cell_by_cell_build(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-8, 8, 6)
    pads = [" {} ", "\t{}", "{} ", "{}"]
    cells = [[pads[(i + c) % 4].format(repr(v)) for c, v in enumerate(row)]
             for i, row in enumerate(vals.tolist())]
    text = "y,a,b,c,d,e\n" + "".join(",".join(row) + "\n" for row in cells)
    d = ingest_csv(write(tmp_path, text), IngestConfig(response_column="y"))
    want = np.array([[float(cell.strip()) for cell in row[1:]] for row in cells])
    assert d.x.flags["C_CONTIGUOUS"]
    assert d.x.tobytes() == want.tobytes()
    assert d.y.tobytes() == np.array([float(row[0].strip()) for row in cells]).tobytes()
