"""Every Python file of the project parses under the grammar of its declared Python floor.

The floor is ``requires-python`` in ``pyproject.toml``, read with a regex since
``tomllib`` is not in every Python it allows.  ``ast.parse(..., feature_version=...)``
checks grammar only: it does not check that the standard-library or NumPy APIs the
code calls exist at the floors, nor does it run anything under that Python.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src", "tests", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_at_the_declared_python_floor(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=declared_floor())
