import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, database=None)
@given(st.integers(0, 10))
def test_small(x):
    assert x < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # under the project's filterwarnings the hypothesis plugin's own
    # DeprecationWarning while it reports must not end the run in an
    # INTERNALERROR that hides the falsifying example
    (tmp_path / "test_tiny.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(tmp_path / "test_tiny.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text
    assert "INTERNALERROR" not in text
