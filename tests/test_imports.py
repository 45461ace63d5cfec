"""The package modules and the acceptance gate use only public names of other lcuout modules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "lcuout").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """``module.name`` for every private lcuout module or name that ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "lcuout" and any(map(_private, a.name.split(".")))]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level == 0 and module.split(".")[0] != "lcuout":
                continue
            parts = (node.module or "").split(".")
            found += [f"{module}.{a.name}" for a in node.names if _private(a.name) or any(map(_private, parts))]
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


def test_detector_sees_private_imports():
    source = (
        "from . import __version__\n"
        "from .circuit import CircuitSpec\n"
        "from numpy import _private_ok\n"
        "def f():\n"
        "    from .trapdoor import _hidden\n"
        "from lcuout.recovery import _helper, sweep\n"
        "import lcuout._internal\n"
    )
    assert sorted(private_imports(source)) == [".trapdoor._hidden", "lcuout._internal", "lcuout.recovery._helper"]
