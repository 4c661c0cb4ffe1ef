"""Every name a library module imports is used in it.

No linter runs over this repository, so this is what stops a deletion from
leaving an orphan import behind. `__init__.py` is skipped: its imports are
the package's re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "oos_ase")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def _dotted(node):
    """'a.b.c' for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unused_imports(source):
    """(line, name) of each import in source whose name is never used. A
    plain `import a.b` counts as used only where a.b itself is used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node)
        if name:
            parts = name.split(".")
            used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nimport scipy.linalg\n"
              "import scipy.sparse\nfrom .errors import A, B\n"
              "np.zeros(A)\nscipy.linalg.eigh\n")
    assert unused_imports(source) == [(1, "os"), (4, "scipy.sparse"), (5, "B")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []
