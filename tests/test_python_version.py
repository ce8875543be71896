"""Every source and test file parses as the oldest Python that
`pyproject.toml` promises (`requires-python`)."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The (major, minor) of `requires-python = ">=X.Y"`.
OLDEST = tuple(
    int(n)
    for n in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
        re.M,
    ).groups()
)

FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_file_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_the_check_refuses_newer_syntax():
    # `except*` came with Python 3.11.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
