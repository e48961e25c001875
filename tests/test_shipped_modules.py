"""Every module under ``src/repro`` is imported by code that runs.

What runs is the rest of ``src/`` and the scripts in ``bench/``,
``benchmarks/``, ``examples/`` and ``tools/``. A module that only its
own tests import is a capability nothing uses: it goes, or it moves
under ``tests/`` as a test helper. A package ``__init__`` that
re-exports a module does not count as a use; a script that imports a
name through the package does, and counts for the module the name
comes from. ``__main__.py`` is what ``python -m repro`` runs, so it
needs no importer.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "bench", "benchmarks", "examples", "tools")


def _modules(src: Path) -> dict[str, Path]:
    """``{dotted name: file}`` for every ``*.py`` under ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _imports(path: Path, name: str) -> list[tuple[str, list[str]]]:
    """``(module, names)`` for every import statement in ``path``.

    ``names`` is empty for ``import a.b``; a relative import is resolved
    against ``name``, the dotted name of the module ``path`` holds.
    """
    package = name.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append((module, [alias.name for alias in node.names]))
    return found


def unimported_modules(root: Path) -> list[str]:
    """The modules under ``root/src/repro`` that no running code imports."""
    src = root / "src"
    modules = _modules(src)
    reexports: dict[str, dict[str, str]] = {}
    for name, path in modules.items():
        if path.name == "__init__.py":
            reexports[name] = {
                alias: module
                for module, aliases in _imports(path, name)
                for alias in aliases
            }

    used: set[str] = set()

    def use(module: str, names: list[str]) -> None:
        used.add(module)
        for alias in names:
            if f"{module}.{alias}" in modules:
                used.add(f"{module}.{alias}")
            elif alias in reexports.get(module, {}):
                use(reexports[module][alias], [alias])

    for top in USERS:
        for path in sorted((root / top).rglob("*.py")):
            if path.name == "__init__.py" and top == "src":
                continue
            name = ".".join(path.relative_to(root / top).with_suffix("").parts)
            for module, names in _imports(path, name):
                use(module, names)

    return sorted(
        name
        for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py") and name not in used
    )


def test_every_module_in_src_is_imported_by_code_that_runs():
    unused = unimported_modules(ROOT)
    assert unused == [], (
        "imported by nothing but tests (move under tests/ or delete): "
        + ", ".join(unused)
    )


def test_a_reexport_is_no_use_but_a_name_through_the_package_is(tmp_path):
    def write(relative: str, text: str) -> None:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    write("src/repro/__init__.py", "")
    write("src/repro/pkg/__init__.py", "from .used import a\nfrom .idle import b\n")
    write("src/repro/pkg/used.py", "a = 1\n")
    write("src/repro/pkg/idle.py", "b = 2\n")
    write("src/repro/pkg/direct.py", "")
    write("src/repro/__main__.py", "from .cli import main\n")
    write("src/repro/cli.py", "from . import pkg\n")
    write("tools/script.py", "from repro.pkg import a\nimport repro.pkg.direct\n")
    write("tests/test_idle.py", "from repro.pkg.idle import b\n")
    assert unimported_modules(tmp_path) == ["repro.pkg.idle"]
