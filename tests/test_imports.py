"""Every name a library module imports is used in it, every public function
it defines has a caller in the program, no module reads another's private
names, every dataclass that holds arrays compares by identity, every
dataclass that validates is frozen, and every name the benchmark traces
exists.

No linter runs over this repository, so this is what stops a deletion from
leaving an orphan import behind, and a test from being a function's only
user. `__init__.py` is skipped: its imports are the package's re-exports.
"""

import ast
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "oos_ase")
SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
ACCEPTANCE = os.path.join(os.path.dirname(__file__), "test_acceptance.py")
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


# Public functions no program code calls, each kept for a stated reason.
UNCALLED = {
    "oos.likelihood": "criterion 8's derivative oracle",
    "linalg.lstsq": "criterion 4's generic solver",
    "linalg.EigenPairs.residuals": "the acceptance suite's eigenpair check",
}


def uncalled_functions(sources):
    """Qualified names of the public module-level functions and public
    methods in sources ({module: source}) that no Name or Attribute in any
    of the sources refers to, outside the function's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for module, tree in trees.items():
        defs = [(module, node) for node in tree.body]
        defs += [(f"{module}.{node.name}", item) for node in tree.body
                 if isinstance(node, ast.ClassDef) for item in node.body]
        for owner, node in defs:
            if not isinstance(node, ast.FunctionDef) or node.name[0] == "_":
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and ref not in own
                       for name, ref in refs):
                found.append(f"{owner}.{node.name}")
    return sorted(found)


def test_uncalled_functions_are_found():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def recursive(k):\n    return recursive(k - 1)\n"
              "def _private():\n    pass\n"
              "class C:\n"
              "    def __init__(self):\n        self.m()\n"
              "    def m(self):\n        pass\n"
              "    def orphan(self):\n        pass\n"),
        "b": "from .a import used\nused()\n",
    }
    assert uncalled_functions(sources) == ["a.C.orphan", "a.recursive"]


def test_every_public_function_has_a_program_caller():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module[:-3]] = fh.read()
    assert uncalled_functions(sources) == sorted(UNCALLED)


def test_uncalled_functions_are_used_by_the_acceptance_suite():
    """An UNCALLED entry is kept for a paper claim, so the acceptance
    suite must use it; a function only other tests call is deleted."""
    with open(ACCEPTANCE) as fh:
        tree = ast.parse(fh.read())
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert {name.rsplit(".", 1)[1] for name in UNCALLED} <= used


def _dataclass_flags(node):
    """{keyword: constant} of the @dataclass decorator of the class node
    (an empty dict for a bare @dataclass), None if it has none."""
    for deco in node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        if _dotted(call.func if call else deco) in ("dataclass",
                                                     "dataclasses.dataclass"):
            return {k.arg: getattr(k.value, "value", None)
                    for k in (call.keywords if call else ())}
    return None


def _dataclasses(source):
    """(class node, its @dataclass flags) of each dataclass in source."""
    return [(node, flags) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and (flags := _dataclass_flags(node)) is not None]


def array_dataclasses_with_eq(source):
    """Names of the @dataclass classes in source that have a field whose
    annotation names np.ndarray and do not pass eq=False. Their generated
    __eq__ compares the arrays of two instances as a tuple, which raises
    ValueError (an array's truth value is ambiguous), and eq=True without
    frozen=True also sets __hash__ to None."""
    return sorted(node.name for node, flags in _dataclasses(source)
                  if flags.get("eq") is not False
                  and any(isinstance(item, ast.AnnAssign)
                          and "np.ndarray" in ast.unparse(item.annotation)
                          for item in node.body))


def test_array_dataclasses_with_eq_are_found():
    source = ("import dataclasses\nimport numpy as np\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n"
              "@dataclass(frozen=True)\nclass B:\n    x: np.ndarray | None\n"
              "@dataclass(frozen=True, eq=False)\nclass C:\n    x: np.ndarray\n"
              "@dataclass\nclass D:\n    x: float\n"
              "@dataclasses.dataclass(eq=True)\nclass E:\n"
              "    n: int\n    x: list[np.ndarray]\n")
    assert array_dataclasses_with_eq(source) == ["A", "B", "E"]


@pytest.mark.parametrize("module", MODULES)
def test_array_dataclasses_compare_by_identity(module):
    with open(os.path.join(SRC, module)) as fh:
        assert array_dataclasses_with_eq(fh.read()) == []


def mutable_validating_dataclasses(source):
    """Names of the @dataclass classes in source that define __post_init__
    and do not pass frozen=True. Their checks run once, at construction,
    so a field set afterwards skips every one of them."""
    return sorted(node.name for node, flags in _dataclasses(source)
                  if flags.get("frozen") is not True
                  and any(isinstance(item, ast.FunctionDef)
                          and item.name == "__post_init__"
                          for item in node.body))


def test_mutable_validating_dataclasses_are_found():
    source = ("import dataclasses\n"
              "@dataclass\nclass A:\n    x: int\n"
              "    def __post_init__(self):\n        pass\n"
              "@dataclass(eq=False)\nclass B:\n    x: int\n"
              "    def __post_init__(self):\n        pass\n"
              "@dataclass(frozen=True, eq=False)\nclass C:\n    x: int\n"
              "    def __post_init__(self):\n        pass\n"
              "@dataclass\nclass D:\n    x: int\n"
              "@dataclasses.dataclass(frozen=False)\nclass E:\n    x: int\n"
              "    def __post_init__(self):\n        pass\n"
              "class F:\n    def __post_init__(self):\n        pass\n")
    assert mutable_validating_dataclasses(source) == ["A", "B", "E"]


@pytest.mark.parametrize("module", MODULES)
def test_validating_dataclasses_are_frozen(module):
    with open(os.path.join(SRC, module)) as fh:
        assert mutable_validating_dataclasses(fh.read()) == []


def _private(name):
    return name[0] == "_" and not (name[:2] == "__" == name[-2:])


def private_reads(source):
    """(line, expression) of each read in source of another module's
    private name: `x._name` where x is not self or cls and the module
    defines no `_name` of its own (an instance method may read another
    instance's private state, as __eq__ does), and `from .m import _name`.
    Dunders are public."""
    tree = ast.parse(source)
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"from {'.' * node.level}{node.module or ''}"
                       f" import {a.name}")
                      for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and node.attr not in own
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_private_reads_are_found():
    source = ("from .a import _f, g\nfrom . import _m\nimport b\n"
              "class C:\n"
              "    def __init__(self):\n        self._x = 1\n"
              "    def __eq__(self, other):\n        return other._x\n"
              "    @classmethod\n    def make(cls):\n        return cls._y\n"
              "def _own():\n    pass\n"
              "b._hidden()\nb.c._deep\nb.__name__\nb._own\ng(self._z)\n")
    assert private_reads(source) == [
        (1, "from .a import _f"), (2, "from . import _m"),
        (14, "b._hidden"), (15, "b.c._deep")]


@pytest.mark.parametrize("module", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_module_reads_another_modules_private_names(module):
    with open(os.path.join(SRC, module)) as fh:
        assert private_reads(fh.read()) == []


@pytest.mark.skipif(not os.path.exists(SPANS), reason="no bench/ checkout")
def test_traced_names_exist():
    """Each (owner, attribute) of bench/spans.py TARGETS resolves on the
    library: the tracer looks every one up by name when it installs."""
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [_dotted(t) for t in node.targets] == ["TARGETS"])
    assert targets.elts
    for entry in targets.elts:
        module, *path = _dotted(entry.elts[0]).split(".")
        owner = importlib.import_module(f"oos_ase.{module}")
        for part in path:
            owner = getattr(owner, part)
        assert hasattr(owner, entry.elts[1].value), ast.unparse(entry)
