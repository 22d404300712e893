"""Every module-level function and class in src/mmadapt must have a caller
in the library or the benchmark (perfbench/), outside its own definition.

A reference is a bare name, an imported name, an attribute of an imported
`mmadapt` module, or a string constant equal to the name (the benchmark
wraps names given as strings). Tests do not count: a helper that only the
tests use belongs in tests/references.py. Methods are out of scope, since
method names collide across classes (`Corpus.split`, `Rng.split`).

`KEEP` holds the names that stay without a caller, each mapped to the
ROADMAP item that will call it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmadapt"

KEEP = {
    "metrics.wer": "item 1",
    "metrics.language_confusion": "item 1",
    "decode.flag_degeneration": "item 1",
    "trainer.run_stage": "item 1",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def unreferenced(library: dict[str, str], callers=()) -> list[str]:
    """`module.name` of each module-level function or class defined in
    `library` (module name -> source) that no source in `library` or
    `callers` references outside that definition's own body."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    referenced = set()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        aliases = _module_aliases(tree)
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, _DEFS) else None
            referenced |= {name for name in _references(stmt, aliases) if name != own}
    return sorted(
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, _DEFS) and stmt.name not in referenced
    )


def test_every_library_function_and_class_has_a_caller():
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced(library, callers) == sorted(KEEP)


def test_guard_flags_a_name_used_only_by_itself_and_honours_every_reference_kind():
    library = {
        "ops": (
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Lonely:\n    def make(self): return Lonely()\n"
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def by_string(): pass\n"
        ),
    }
    assert unreferenced(library) == ["ops.Lonely", "ops.by_attribute", "ops.by_string", "ops.imported", "ops.recursive", "ops.used"]
    callers = [
        "from mmadapt.ops import imported, used\n",
        "from mmadapt import ops as o\no.by_attribute()\nother.recursive()\n",
        "WRAPPED = ('by_string', 'Lonely is a class')\n",
    ]
    assert unreferenced(library, callers) == ["ops.Lonely", "ops.recursive"]
