"""The names that README.md's Python example and the CI workflow's inline
scripts import from robsyn exist.  Those scripts run only in CI; this test
fails locally when an export they use is removed."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", ".github/workflows/tier1.yml")

# from robsyn[.module] import a, b   or   from robsyn[.module] import (a,\n b)
_IMPORT = re.compile(r"from (robsyn(?:\.\w+)*) import (\([^)]*\)|[^\n]*)")


def imported_names(document: str) -> list[tuple[str, str]]:
    """(module, name) of each name the document imports from robsyn."""
    found = []
    for module, names in _IMPORT.findall((ROOT / document).read_text()):
        found += [(module, name.strip()) for name in names.strip("()").split(",") if name.strip()]
    return found


@pytest.mark.parametrize("document", DOCUMENTS)
def test_documents_import_from_robsyn(document):
    # the pattern still finds the imports it is meant to check
    assert imported_names(document)


@pytest.mark.parametrize(
    "module, name",
    sorted({pair for document in DOCUMENTS for pair in imported_names(document)}),
    ids=lambda value: value,
)
def test_documented_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
