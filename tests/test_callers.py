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

Every field of a `*Config` or `StagePlan` class must be set somewhere in
the library, the benchmark or the tests: by a keyword of that name in a
call of the class or of `replace`, by position in a call of the class, or
by a string key of a dict `**`-splatted into such a call (written there or
assigned to the name splatted there, `**` inside it followed too). A
keyword of any other call does not count, even one a helper forwards: a
field that shares a parameter's name would pass unseen. A field nothing
sets is a constant dressed as a setting. Tests count here, because only
they shrink the models today.
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


def _splatted_keys(node: ast.AST, dicts: dict[str, list[ast.Dict]], seen=()) -> set[str]:
    """String keys of the dict `node` spells or names, following `**` inside it."""
    if isinstance(node, ast.Name) and node.id not in seen:
        return set().union(*(_splatted_keys(d, dicts, (*seen, node.id)) for d in dicts.get(node.id, [])))
    if not isinstance(node, ast.Dict):
        return set()
    keys = {k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    for k, v in zip(node.keys, node.values):
        if k is None:
            keys |= _splatted_keys(v, dicts, seen)
    return keys


def unset_fields(library: dict[str, str], callers=()) -> list[str]:
    """`module.Class.field` of each field of a config class defined in
    `library` that no source in `library` or `callers` sets."""
    configs = {
        stmt.name: (module, [item.target.id for item in stmt.body if isinstance(item, ast.AnnAssign)])
        for module, source in library.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.ClassDef) and (stmt.name.endswith("Config") or stmt.name == "StagePlan")
    }
    set_names = set()
    for tree in map(ast.parse, [*library.values(), *callers]):
        dicts: dict[str, list[ast.Dict]] = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Dict):
                for target in n.targets:
                    if isinstance(target, ast.Name):
                        dicts.setdefault(target.id, []).append(n.value)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            cls = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            if cls not in configs and cls != "replace":
                continue
            for k in n.keywords:
                set_names |= {k.arg} if k.arg is not None else _splatted_keys(k.value, dicts)
            if cls in configs:
                known = next((i for i, a in enumerate(n.args) if isinstance(a, ast.Starred)), len(n.args))
                set_names |= {f"{cls}.{f}" for f in configs[cls][1][:known]}
    return sorted(
        f"{module}.{cls}.{f}"
        for cls, (module, fields) in configs.items()
        for f in fields
        if f not in set_names and f"{cls}.{f}" not in set_names
    )


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


def test_every_config_field_is_set_by_some_caller():
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for d in ("perfbench", "tests") for path in sorted((ROOT / d).glob("*.py"))]
    assert unset_fields(library, callers) == []


def test_field_guard_flags_a_field_only_read_and_honours_every_way_to_set_one():
    library = {
        "cfg": (
            "@dataclass(frozen=True)\n"
            "class RunConfig:\n"
            "    size: int = 16\n"
            "    width: int = 2\n"
            "    depth: int = 3\n"
            "    rate: float = 0.1\n"
            "    mode: str = 'fast'\n"
            "    n_symbols: int = 16\n"
            "    def __post_init__(self):\n"
            "        if self.rate <= 0: raise ValueError('rate must be positive')\n"
            "@dataclass\n"
            "class StagePlan:\n"
            "    stage: str\n"
            "    steps: int = 1\n"
            "@dataclass\n"
            "class Record:\n"
            "    unread: int = 0\n"  # not a config: never checked
        ),
    }
    assert unset_fields(library) == [
        "cfg.RunConfig.depth", "cfg.RunConfig.mode", "cfg.RunConfig.n_symbols", "cfg.RunConfig.rate",
        "cfg.RunConfig.size", "cfg.RunConfig.width", "cfg.StagePlan.stage", "cfg.StagePlan.steps",
    ]
    callers = [
        "from mmadapt.cfg import RunConfig\nRunConfig(32, *rest)\n",  # `size` by position; the rest unknown
        "from mmadapt import cfg\ncfg.StagePlan('A')\n",  # by position through the module
        "config = dataclasses.replace(config, width=4)\n",  # a keyword of `replace`
        "COMMON = {'depth': 5}\nRunConfig(**{**COMMON, **kw})\n",  # a key splatted into the class, by name
        "print(config.rate, RunConfig.mode)\nRecord(1, 2)\n",  # reads, and another class's positions
        # Neither a keyword of another call (a helper forwarding it, or a
        # function's own parameter), nor a key splatted elsewhere, nor a loose string.
        "build(mode='slow')\nbuild_vocab(n_symbols=16)\nDEFAULTS = {'steps': 2}\nrun(**DEFAULTS)\nprint('rate')\n",
    ]
    assert unset_fields(library, callers) == [
        "cfg.RunConfig.mode", "cfg.RunConfig.n_symbols", "cfg.RunConfig.rate", "cfg.StagePlan.steps",
    ]
