"""What importing the package costs, checked two ways.

Statically, no module of the package imports a name it never uses.  No
pyflakes or ruff is assumed, so this walks each module's syntax tree.
``__init__.py`` is exempt because its imports are the package's re-exports.
The same walk checks that only ``tt.py`` reads a tensor's ``_memo`` or
``_forms``, so their layout is known in one module, and that only
``properties._record`` builds a ``BoundCheck`` or an ``InheritanceRecord``,
so one routine decides every verdict.

In a fresh interpreter, the package, its command line and the dense oracle
load neither scipy nor ``urllib.request``, and a run that writes its
artifacts loads neither of them nor ``numpy.ma``; only a call of
``oracle.cur_reconstruct_check`` brings scipy in.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttinherit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ are used by being exported
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom x import a, b\n__all__ = ['b']\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reads(source: str, names=("_memo", "_forms")) -> list[str]:
    """Attributes in ``names`` that the module reads or writes, with lines."""
    return [
        f"{n.attr} (line {n.lineno})"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in names
    ]


def test_private_reads_flags_the_attribute_not_the_name():
    source = "_memo = 1\nx = t._memo[0]\ny = getattr(t, '_forms')\nz = t.memo\n"
    assert private_reads(source) == ["_memo (line 2)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tt.py"), ids=lambda p: p.name
)
def test_only_tt_reads_the_tensor_memo(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def constructor_calls(source: str, names=("BoundCheck", "InheritanceRecord")) -> list[str]:
    """Calls of the names in ``names``, each as "function calls name" with
    the innermost function that makes it ("<module>" outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.append(f"{where} calls {name}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_constructor_calls_names_the_innermost_function():
    source = (
        "x = BoundCheck(1)\n"
        "def f():\n"
        "    def g():\n"
        "        return p.InheritanceRecord(BoundCheck)\n"
        "    return [BoundCheck(2)]\n"
    )
    assert constructor_calls(source) == [
        "<module> calls BoundCheck", "g calls InheritanceRecord", "f calls BoundCheck"
    ]


def test_only_record_builds_checks_and_records():
    found = [
        f"{path.name}: {call}"
        for path in sorted(SRC.glob("*.py"))
        for call in constructor_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == [
        "properties.py: _record calls BoundCheck",
        "properties.py: _record calls InheritanceRecord",
    ]


def test_the_run_path_imports_neither_scipy_nor_urllib(tmp_path):
    code = (
        "import sys, ttinherit, ttinherit.cli\n"
        "def loaded():\n"
        "    mods = ('concurrent.futures', 'numpy.ma', 'scipy', 'urllib.request')\n"
        "    return sorted(m for m in mods if m in sys.modules)\n"
        "print(loaded())\n"
        "config = ttinherit.desk_preset(trials=1, output_dir=sys.argv[1])\n"
        "ttinherit.run_experiment(config, write=True)\n"
        "print(loaded())\n"
        "import ttinherit.oracle\n"
        "print('scipy' in sys.modules)\n"
        "t = ttinherit.TTTensor([[[[1.0], [2.0]]], [[[3.0], [4.0]]]])\n"
        "ttinherit.oracle.cur_reconstruct_check(t, ttinherit.IndexSet([1, 2], 2))\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "False", "True"]
