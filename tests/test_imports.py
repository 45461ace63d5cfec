"""The package modules and the acceptance gate use only public names of other lcuout modules,
only the tests use the dense circuit oracle, no package module imports a name it does not use,
every top-level function and class is used by package code or else read by the benchmark or the
acceptance gate, every memo is small and bounded,
every record compares by identity, and every source file parses under the grammar of the oldest
supported Python."""

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


DENSE_ORACLE = {"circuit_unitary"}


def dense_oracle_uses(source: str) -> list[str]:
    """Every import or reference of the dense (2KN)^2 circuit builders in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in DENSE_ORACLE]
        elif isinstance(node, ast.Name) and node.id in DENSE_ORACLE:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_ORACLE:
            found.append(node.attr)
    return found


# circuit.py defines the oracle
PRODUCTION = [p for p in sorted((ROOT / "src" / "lcuout").glob("*.py")) if p.name != "circuit.py"]


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_dense_circuit_oracle_stays_out_of_production(path):
    assert dense_oracle_uses(path.read_text()) == []


def test_detector_sees_dense_oracle_uses():
    source = (
        "from .circuit import CircuitSpec, circuit_unitary\n"
        "import lcuout.circuit\n"
        "def f(spec):\n"
        "    return lcuout.circuit.circuit_unitary(spec) @ apply_circuit(spec, v)\n"
    )
    assert dense_oracle_uses(source) == ["circuit_unitary", "circuit_unitary"]


# what only the stack classes may know of a stack's form: its dense array and the names of its forms
STACK_FORMS = {"dense", "dense_unitaries", "Monomial", "Reflectors"}


def stack_form_uses(source: str) -> list[str]:
    """Every import, name or attribute of ``source`` that is one of ``STACK_FORMS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in STACK_FORMS]
        elif isinstance(node, ast.Name) and node.id in STACK_FORMS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in STACK_FORMS:
            found.append(node.attr)
    return found


@pytest.mark.parametrize("name", ["structure.py", "trapdoor.py"])
def test_structure_and_trapdoor_read_the_unitaries_only_through_the_stack_interface(name):
    # verify reads the two Gram matrices of the spec's stack and the cipher its involution residuals, whatever
    # form holds the unitaries; which form that is, and its dense array, stay behind the stack classes
    assert stack_form_uses((ROOT / "src" / "lcuout" / name).read_text()) == []


def test_detector_sees_stack_form_uses():
    source = (
        "from .circuit import CircuitSpec, Monomial\n"
        "from .linalg import Reflectors as R, UnitaryStack\n"
        "def f(spec: CircuitSpec, us: UnitaryStack):\n"
        "    dense = spec.unitaries.dense\n"
        "    return isinstance(us, Monomial), spec.dense_unitaries, us.trace_gram(), dense\n"
    )
    assert sorted(stack_form_uses(source)) == ["Monomial", "Monomial", "Reflectors", "dense", "dense", "dense",
                                               "dense_unitaries"]


def export_mismatches(source: str) -> list[str]:
    """For a module that declares ``__all__``: each public top-level function or class it leaves out
    (``unlisted``) and each entry that no top-level definition, import or assignment binds (``unbound``)."""
    tree = ast.parse(source)
    listed, bound, public = None, set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            public += [] if node.name.startswith("_") else [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
            bound |= names
    if listed is None:
        return []
    return [f"unlisted {n}" for n in public if n not in listed] + [f"unbound {n}" for n in listed if n not in bound]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lcuout").glob("*.py")), ids=lambda p: p.name)
def test_all_lists_every_public_definition_and_only_bound_names(path):
    assert export_mismatches(path.read_text()) == []


def test_detector_sees_export_mismatches():
    source = (
        "from .circuit import row_matrix as rows\n"
        "import numpy as np\n"
        "__all__ = ['Listed', 'listed', 'rows', 'LIMIT', 'gone']\n"
        "LIMIT = 3\n"
        "class Listed: pass\n"
        "def listed(): pass\n"
        "def unlisted(): pass\n"
        "class Unlisted: pass\n"
        "def _private(): pass\n"
        "def outer():\n"
        "    def inner(): pass\n"
    )
    assert export_mismatches(source) == ["unlisted unlisted", "unlisted Unlisted", "unlisted outer", "unbound gone"]
    assert export_mismatches("def public(): pass\n") == []


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but neither references nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lcuout").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .circuit import CircuitSpec, output_states\n"
        "from .outputs import extract_target as target, matrix_to_csv\n"
        "__all__ = ['CircuitSpec']\n"
        "def f(x: np.ndarray):\n"
        "    return target(x)\n"
    )
    assert unused_imports(source) == ["json", "os", "output_states", "matrix_to_csv"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every top-level function or class of ``sources`` (module name -> source)
    that no source references outside the definition itself; an import or an ``__all__`` entry is
    not a reference, a name or an attribute is."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = set(map(id, ast.walk(node)))
                if not any(name == node.name and ref not in own for name, ref in refs):
                    found.append(f"{module}.{node.name}")
    return found


# public names that package code does not call, each with the reason it stays
UNREFERENCED = {
    "circuit.circuit_unitary": "the dense (2KN)^2 oracle that the benchmark tracer patches and acceptance criterion 02 "
                               "checks apply_circuit against",
    "outputs.output_matrix": "a spec's Phi, which the tests and the benchmark check trapdoor eval's amplitudes against",
}

# the readers outside the package that keep an UNREFERENCED name public: the benchmark and the acceptance gate
OUTSIDE_READERS = [ROOT / "bench" / "tracing.py", ROOT / "bench" / "workloads.py",
                   ROOT / "tests" / "test_acceptance.py"]


def test_every_top_level_definition_is_used_by_package_code():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "lcuout").glob("*.py"))}
    assert sorted(unreferenced_definitions(sources)) == sorted(UNREFERENCED)


def names_read(source: str) -> set[str]:
    """Every identifier ``source`` names, imports or reads as an attribute, and every string constant it holds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_unreferenced_name_has_a_reader_outside_the_package():
    # a name no package code calls is public only while the benchmark or the acceptance gate reads it; once none
    # does, it moves to tests/helpers.py
    read = set().union(*(names_read(path.read_text()) for path in OUTSIDE_READERS))
    assert sorted(name for name in UNREFERENCED if name.split(".")[1] not in read) == []


def test_detector_sees_names_read():
    source = (
        "import lcuout.circuit\n"
        "from lcuout.outputs import output_matrix as om\n"
        "PATCHED = ('circuit_unitary',)\n"
        "# random_instance\n"
        "def f(spec):\n"
        "    return lcuout.circuit.row_matrix(spec)\n"
    )
    assert {"circuit", "output_matrix", "circuit_unitary", "row_matrix", "spec"} <= names_read(source)
    assert "random_instance" not in names_read(source)


def test_detector_sees_unreferenced_definitions():
    sources = {
        "a": (
            "from .b import helper\n"
            "__all__ = ['unused', 'recursive']\n"
            "def unused():\n"
            "    return helper()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Used:\n"
            "    pass\n"
        ),
        "b": (
            "import a\n"
            "def helper() -> 'a.Used':\n"
            "    return a.Used()\n"
        ),
    }
    assert unreferenced_definitions(sources) == ["a.unused", "a.recursive"]


def svd_references(source: str) -> list[str]:
    """Every ``svd`` that ``source`` imports or references, as a name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] == "svd"]
        elif isinstance(node, ast.Name) and node.id == "svd":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "svd":
            found.append(ast.unparse(node))
    return sorted(found)


def test_structure_takes_no_svd():
    # the singular-multiset check bounds the singular values instead of computing them; the rank
    # check reaches linalg.svd only through numerical_rank
    assert svd_references((ROOT / "src" / "lcuout" / "structure.py").read_text()) == []


def test_detector_sees_svd_references():
    source = (
        "import numpy as np\n"
        "from .linalg import numerical_rank, svd\n"
        "def f(a):\n"
        "    return np.linalg.svd(a, compute_uv=False), numerical_rank(a), np.linalg.norm(a, 2)\n"
    )
    assert svd_references(source) == ["np.linalg.svd", "svd"]


MAX_MEMO_ENTRIES = 4


def unbounded_memos(source: str) -> list[str]:
    """Every ``lru_cache`` or ``cache``, named bare or as ``functools.<name>``, in ``source`` that is not
    called with a literal integer ``maxsize`` of at most ``MAX_MEMO_ENTRIES``: a bare ``lru_cache`` holds
    128 entries and ``cache`` any number."""
    def memo(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")) or (
            isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
            and ast.unparse(node.value) == "functools")

    tree, bounded = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) and ast.unparse(node.func).endswith("lru_cache"):
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int and size.value <= MAX_MEMO_ENTRIES:
                bounded.add(id(node.func))
    return sorted(ast.unparse(node) for node in ast.walk(tree) if memo(node) and id(node) not in bounded)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lcuout").glob("*.py")), ids=lambda p: p.name)
def test_memos_are_bounded(path):
    # a module memo lives as long as the process, so it keeps at most a few entries
    assert unbounded_memos(path.read_text()) == []


def test_detector_sees_unbounded_memos():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def a(): pass\n"
        "@lru_cache(4, typed=True)\n"
        "def b(): pass\n"
        "@functools.lru_cache\n"
        "def c(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def d(): pass\n"
        "@lru_cache(maxsize=5)\n"
        "def e(): pass\n"
        "@cache\n"
        "def f(): pass\n"
        "g = functools.cache(len)\n"
        "SIZE = 1\n"
        "h = lru_cache(maxsize=SIZE)(len)\n"
        "class K:\n"
        "    @cached_property\n"
        "    def i(self): pass\n"
    )
    assert unbounded_memos(source) == sorted([
        "functools.lru_cache", "lru_cache", "lru_cache", "cache", "functools.cache", "lru_cache"
    ])


def value_equality(source: str) -> list[str]:
    """Every ``dataclass`` decorator in ``source``, named bare or as an attribute, that does not pass a
    literal ``eq=False``, and every class that defines or assigns ``__eq__``: records compare by identity."""
    def dataclass_name(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "dataclass") or (
            isinstance(node, ast.Attribute) and node.attr == "dataclass")

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            if dataclass_name(call.func if call else dec):
                eq = next((k.value for k in call.keywords if k.arg == "eq"), None) if call else None
                if not (isinstance(eq, ast.Constant) and eq.value is False):
                    found.append(f"{node.name}: @{ast.unparse(dec)}")
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                names = {t.id for t in ast.walk(item) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
            else:
                continue
            if "__eq__" in names:
                found.append(f"{node.name}.__eq__")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lcuout").glob("*.py")), ids=lambda p: p.name)
def test_records_compare_by_identity(path):
    # a generated or hand-written __eq__ would compare the arrays a record holds, and a field-wise == of arrays
    # raises; identity is one rule for every record
    assert value_equality(path.read_text()) == []


def test_detector_sees_value_equality():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A: pass\n"
        "@dataclass(frozen=True)\n"
        "class B: pass\n"
        "@dataclasses.dataclass(frozen=True, eq=True)\n"
        "class C: pass\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class D:\n"
        "    def __eq__(self, other): return True\n"
        "@dataclass(eq=False)\n"
        "class E:\n"
        "    __eq__ = object.__eq__\n"
        "class F:\n"
        "    @dataclass(eq=False)\n"
        "    class G: pass\n"
        "    def __ne__(self, other): return False\n"
    )
    assert value_equality(source) == [
        "A: @dataclass", "B: @dataclass(frozen=True)", "C: @dataclasses.dataclass(frozen=True, eq=True)",
        "D.__eq__", "E.__eq__",
    ]


# pyproject.toml's requires-python
OLDEST_PYTHON = (3, 10)
SOURCES = sorted(
    path for folder in ("src/lcuout", "tests", "bench") for path in (ROOT / folder).glob("*.py")
)


def oldest_python_syntax_error(source: str) -> str | None:
    """The error that parsing ``source`` with the grammar of ``OLDEST_PYTHON`` gives, or None."""
    try:
        ast.parse(source, feature_version=OLDEST_PYTHON)
    except SyntaxError as exc:
        return exc.msg
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_under_the_oldest_supported_python(path):
    assert oldest_python_syntax_error(path.read_text()) is None


def test_detector_sees_syntax_newer_than_the_oldest_supported_python():
    source = (
        "try:\n"
        "    pass\n"
        "except* ValueError:\n"
        "    pass\n"
    )
    assert "only supported in Python 3.11" in oldest_python_syntax_error(source)
    assert oldest_python_syntax_error("match x:\n    case 1:\n        pass\n") is None
