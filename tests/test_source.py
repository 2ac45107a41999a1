"""Guards on the package source itself: what importing it costs, and
the oldest grammar it must parse under."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_pulls_no_heavy_modules():
    # pytest itself imports these, so the check needs a fresh interpreter;
    # -S keeps site (and what it preloads) out of the picture
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import kummerws.cli; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_source_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    files = sorted((SRC / "kummerws").glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
