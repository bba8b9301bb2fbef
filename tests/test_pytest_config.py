"""The test configuration in pyproject.toml."""

from pathlib import Path

from conftest import run_python

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports libcst, whose imports warn; under
    # filterwarnings = ["error"] that warning would be an INTERNALERROR that
    # stops the run before the second test
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_THEN_PASSING)
    proc = run_python(
        ["-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(path)],
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
