"""The threshold registry: config.py is the only module that defines one."""

import ast
from pathlib import Path

import pytest

import orbitframes
from orbitframes.config import max_truncation

PACKAGE = Path(orbitframes.__file__).parent

#: Modules allowed to hold threshold-sized literals: the registry itself, and
#: the acceptance battery, whose pass criteria are local like a test's.
EXEMPT = {"config.py", "acceptance.py"}


def threshold_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of every float literal below 1e-5 or above 1e5 in size."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and (0.0 < abs(node.value) < 1e-5 or abs(node.value) > 1e5)
    ]


def test_no_threshold_literal_outside_registry():
    hits = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in EXEMPT
        for line, value in threshold_literals(path.read_text(encoding="utf-8"))
    ]
    assert hits == [], "thresholds belong in config.py:\n" + "\n".join(hits)


@pytest.mark.parametrize(
    "raw, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")],
)
def test_ceiling_variable_is_checked(raw, message, monkeypatch):
    monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", raw)
    with pytest.raises(ValueError, match=f"ORBITFRAMES_MAX_TRUNC {message}"):
        max_truncation()
