"""Which modules of the package may import what: only the CLI names and
writes artifacts, so it alone imports csv and datetime, and no library
module imports the CLI."""

import ast
from pathlib import Path

import pytest

import robsyn

PACKAGE = Path(robsyn.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a source file imports, relative imports
    resolved within the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "robsyn" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names.add(module)
            if node.level and node.module is None:
                names.update(f"robsyn.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_writes_artifacts(path):
    imported = imported_modules(path)
    assert "robsyn.cli" not in imported
    if path.name != "cli.py":
        assert not {name.split(".")[0] for name in imported} & {"csv", "datetime"}


def test_the_guard_reads_the_imports():
    cli = imported_modules(PACKAGE / "cli.py")
    assert {"csv", "datetime", "robsyn.network", "robsyn.verification"} <= cli
