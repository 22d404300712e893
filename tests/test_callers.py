"""Every module-level function and class in src/mmadapt, and every method
and property of its classes, must have a caller in the library or the
benchmark (perfbench/), outside its own definition.

A reference to a function or class is a bare name, an imported name, an
attribute of an imported `mmadapt` module, or a string constant equal to
the name (the benchmark wraps names given as strings). A reference to a
method or property is an attribute of that name on any object, or an equal
string constant. Methods are matched by name alone, since the type behind
`x.step` is not known statically. A name collision (`Rng.split` called,
another class's `split` not) can therefore only hide an uncalled method,
never flag a called one. Dunder methods are called by Python itself and
are skipped. Tests do not count: a helper that only the tests use belongs
in tests/references.py.

`KEEP` holds the names that stay without a caller, each mapped to the
ROADMAP item that will call it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmadapt"

KEEP = {
    "metrics.wer": "item 1",
    "metrics.language_confusion": "item 1",
    "decode.flag_degeneration": "item 1",
    "trainer.run_stage": "item 1",
    "trainer.AdamW.state_dict": "item 5",
    "trainer.AdamW.load_state_dict": "item 5",
    "sampler.BatchSchedule.to_manifest_lines": "item 5",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names under which `tree` binds a module of the package."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "mmadapt" or (node.level and node.module is None)):
            aliases |= {a.asname or a.name for a in node.names}
    return aliases


def _references(node: ast.AST, aliases: set[str]):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _attribute_names(node: ast.AST) -> Counter:
    """How often each attribute name and string constant occurs in `node`."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    )


def _methods(tree: ast.Module):
    """(class, method) for each method and property of each module-level
    class in `tree`, dunders aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield stmt, item


def unreferenced(library: dict[str, str], callers=()) -> list[str]:
    """`module.name` of each module-level function or class, and
    `module.Class.name` of each method or property, defined in `library`
    (module name -> source) that no source in `library` or `callers`
    references outside that definition's own body."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    referenced = set()
    attributes = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        aliases = _module_aliases(tree)
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, _DEFS) else None
            referenced |= {name for name in _references(stmt, aliases) if name != own}
        attributes += _attribute_names(tree)
    functions = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, _DEFS) and stmt.name not in referenced
    ]
    methods = [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in trees.items()
        for cls, method in _methods(tree)
        if attributes[method.name] == _attribute_names(method)[method.name]
    ]
    return sorted(functions + methods)


def test_every_library_function_and_class_has_a_caller():
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced(library, callers) == sorted(KEEP)


def test_guard_flags_a_name_used_only_by_itself_and_honours_every_reference_kind():
    library = {
        "ops": (
            "def used(): return helper(), Box()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Lonely:\n    def make(self): return Lonely()\n"
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def by_string(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.size = self.measure()\n"
            "    def measure(self): return 1\n"
            "    def walk(self): return self.walk()\n"
            "    @property\n    def label(self): return 'box'\n"
            "    def wrapped(self): pass\n"
            "    def split(self): pass\n"
        ),
    }
    assert unreferenced(library) == sorted([
        "ops.Lonely", "ops.Lonely.make", "ops.by_attribute", "ops.by_string", "ops.imported", "ops.recursive",
        "ops.used", "ops.Box.walk", "ops.Box.label", "ops.Box.wrapped", "ops.Box.split",
    ])
    callers = [
        "from mmadapt.ops import imported, used\n",
        "from mmadapt import ops as o\no.by_attribute()\nother.recursive()\nprint(box.label)\n",
        "WRAPPED = ('by_string', 'Lonely is a class', 'wrapped')\n",
        "rng.split('x')\n",  # another class's `split`: the collision hides `Box.split`
    ]
    assert unreferenced(library, callers) == ["ops.Box.walk", "ops.Lonely", "ops.Lonely.make", "ops.recursive"]
