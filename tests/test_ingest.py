import math

import numpy as np
import pytest

from phdinfluence import IngestConfig, SimSpec, ingest_csv, simulate, write_dataset_csv
from phdinfluence.errors import DuplicateColumn, MissingColumn, NonNumericCell, TooFewRows


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
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


def test_round_trip_is_bit_exact(tmp_path):
    d = simulate(SimSpec(model="cosine_index", n=120, p=4, seed=99, sigma=0.5))
    path = tmp_path / "sim.csv"
    write_dataset_csv(path, d)
    back = ingest_csv(path, IngestConfig(response_column="y"))
    assert back.n == d.n and back.p == d.p
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.x, d.x)
    assert back.names == d.names


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
