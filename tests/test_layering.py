"""Import layering: ``repro.core`` is the bottom of the stack.

Every import statement under ``src/repro/core`` — module level, inside a
function, or under ``TYPE_CHECKING`` — may name only the packages below.
"""

import ast
from pathlib import Path

import repro.core

CORE = Path(repro.core.__file__).parent
ALLOWED = ("repro.core", "repro.errors", "repro.obs", "repro.schema")


def _repro_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:  # relative: resolve against repro.core[.sub]
                base = ("repro", *path.relative_to(CORE.parent).parts[:-1])
                parts = [*base[: len(base) - node.level + 1], *parts]
            names = [".".join(parts)]
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield node.lineno, name


def test_core_never_imports_upward():
    files = sorted(CORE.rglob("*.py"))
    assert files
    upward = [
        f"{path.relative_to(CORE.parent)}:{lineno} imports {name}"
        for path in files
        for lineno, name in _repro_imports(path)
        if not any(name == a or name.startswith(a + ".") for a in ALLOWED)
    ]
    assert not upward, "\n".join(upward)
