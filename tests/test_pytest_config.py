"""The test configuration in pyproject.toml and conftest.py."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import HYPOTHESIS_HOME, run_python

CHECKOUT = Path(__file__).resolve().parent.parent
PYPROJECT = CHECKOUT / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def _hypothesis_tree() -> dict[str, int]:
    """Every path under the checkout's .hypothesis, with its mtime (empty when
    the directory is absent)."""
    root = CHECKOUT / ".hypothesis"
    return {str(path.relative_to(root)): path.stat().st_mtime_ns for path in root.rglob("*")}


def test_an_in_process_hypothesis_test_writes_nothing_into_the_checkout():
    # a failing example is saved to the default database, which conftest
    # points at a per-session directory instead of .hypothesis in the
    # working directory
    before = _hypothesis_tree()

    @given(st.integers())
    def fails(x):
        assert x < 10

    with pytest.raises(AssertionError):
        fails()
    assert _hypothesis_tree() == before
    assert any(path.is_file() for path in (HYPOTHESIS_HOME / "examples").rglob("*"))


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports libcst, whose imports warn; under
    # filterwarnings = ["error"] that warning would be an INTERNALERROR that
    # stops the run before the second test
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_THEN_PASSING)
    before = _hypothesis_tree()
    # hypothesis writes the failure's patch under .hypothesis in the working
    # directory: the child runs in tmp_path, so the checkout gets none
    proc = run_python(
        ["-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(path)],
        timeout=120,
        cwd=tmp_path,
    )
    assert _hypothesis_tree() == before
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
