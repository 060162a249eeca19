"""The package's sources against its declared Python floor.

``pyproject.toml`` says ``requires-python = ">=3.10"``, while the suite may
run on a newer interpreter, so a newer-only construct would pass every other
test.  These checks read the sources instead of running them: the package's,
and the suite's own, since the suite is what checks a 3.10 install.  One
more reads the benchmark's replay, so that no package name it calls can be
deleted under it."""

import ast
import importlib
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "musum").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))


def test_every_module_is_checked():
    names = {p.name for p in _SOURCES}
    assert {"cli.py", "primes.py", "semigroup.py", "sums.py", "test_sources.py"} <= names


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    # operator.call is new in 3.11: neither imported by name nor reached as
    # an attribute of the module.
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            assert "call" not in {alias.name for alias in node.names}, node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "call":
            assert not (isinstance(node.value, ast.Name) and node.value.id == "operator"), node.lineno


_PACKAGE_MODULES = ("cli", "experiments", "primes", "semigroup", "sums", "zeta")


def _replay_names():
    """(module, name) for each package name the benchmark's replay reaches:
    the attributes of the package modules it imports and the names it
    imports from the package."""
    tree = ast.parse((_ROOT / "perfbench" / "replay.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("musum"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in _PACKAGE_MODULES):
            yield f"musum.{node.value.id}", node.attr


def test_replay_reaches_only_names_the_package_has():
    # Importing a submodule makes it an attribute of the package, as the
    # replay's own `from musum import ...` does.
    for module in _PACKAGE_MODULES:
        importlib.import_module(f"musum.{module}")
    names = set(_replay_names())
    assert ("musum.semigroup", "count_members_outside") in names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
