"""The repository's pytest settings keep a failing test readable."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_test_shows_its_example(tmp_path):
    # filterwarnings = error must not turn the deprecation warning hypothesis
    # raises while it reports an example into an internal error
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
