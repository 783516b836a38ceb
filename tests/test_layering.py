"""Import layering: each package may import only the packages in its row.

Every import statement under ``src/repro/<package>`` — module level,
inside a function, or under ``TYPE_CHECKING`` — may name only the
packages its row of :data:`ALLOWED` lists.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: package -> the ``repro`` packages its modules may import.
ALLOWED = {
    "core": ("repro.core", "repro.errors", "repro.obs", "repro.schema"),
    "net": ("repro.net", "repro.errors", "repro.obs"),
}


def _repro_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:  # relative: resolve against the module's package
                base = ("repro", *path.relative_to(SRC).parts[:-1])
                parts = [*base[: len(base) - node.level + 1], *parts]
            names = [".".join(parts)]
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield node.lineno, name


@pytest.mark.parametrize("package", sorted(ALLOWED))
def test_package_imports_only_its_row(package):
    allowed = ALLOWED[package]
    files = sorted((SRC / package).rglob("*.py"))
    assert files
    outside = [
        f"{path.relative_to(SRC)}:{lineno} imports {name}"
        for path in files
        for lineno, name in _repro_imports(path)
        if not any(name == a or name.startswith(a + ".") for a in allowed)
    ]
    assert not outside, "\n".join(outside)
