"""What importing the package costs, checked two ways.

Statically, no module of the package imports a name it never uses.  No
pyflakes or ruff is assumed, so this walks each module's syntax tree.
``__init__.py`` is exempt because its imports are the package's re-exports.

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
