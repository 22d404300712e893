"""Every name a module in src/mmadapt imports must be used in that module.
The one exception is a name that the benchmark wraps on that module
(whatever `perfbench.layers.install` replaces), imported on a line marked
`# noqa: F401`: the module binds it only so that the wrapper has a
binding to replace. Installing the wrappers at import raises
`MissingNameError` if a module no longer binds a name the benchmark needs."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmadapt"
sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def _wrapped_names() -> dict[str, frozenset[str]]:
    """Module stem -> the names `perfbench.layers.install` wraps on it."""
    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    finally:
        tracer.uninstall()
    wrapped: dict[str, set[str]] = {}
    for owner, attr in patched:
        if not isinstance(owner, type):
            wrapped.setdefault(owner.__name__.rsplit(".", 1)[-1], set()).add(attr)
    return {stem: frozenset(names) for stem, names in wrapped.items()}


WRAPPED = _wrapped_names()


def unused_imports(source: str, wrapped: frozenset[str] = frozenset()) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never loads, except a
    name in `wrapped` whose import line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (name in wrapped and "noqa: F401" in lines[alias.lineno - 1]):
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(), WRAPPED.get(path.stem, frozenset())) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads  # noqa: F401\nprint(loads)\n"
    assert unused_imports(source) == [(1, "os"), (2, "sys"), (3, "dumps")]
    assert unused_imports(source, frozenset({"sys", "loads"})) == [(1, "os"), (3, "dumps")]
    assert unused_imports(source.replace("  # noqa: F401", ""), frozenset({"sys"})) == [(1, "os"), (2, "sys"), (3, "dumps")]


def test_wrapped_names_include_what_the_benchmark_wraps_by_name():
    assert {"splice_prompt", "batch_loss", "stack", "tslice"} <= WRAPPED["trainer"]
    assert {"splice_prompt", "concat"} <= WRAPPED["decode"]
