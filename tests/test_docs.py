"""The README's package-layout table names only what the package has."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents) per row of the README's
    "Package layout" table."""
    section = README.read_text().split("## Package layout\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", line)
        if match:
            rows.append((match[1], re.findall(r"`([^`]+)`", match[2])))
    return rows


@pytest.mark.parametrize("module,names", layout_rows(),
                         ids=[module for module, _ in layout_rows()])
def test_named_attributes_exist(module, names):
    """Each backticked name in a row is an attribute of that row's module;
    the `surrokit.cli` row names the command, `surrokit`, which is not."""
    if module == "surrokit.cli":
        names = [name for name in names if name != "surrokit"]
    mod = importlib.import_module(module)
    assert [name for name in names if not hasattr(mod, name)] == []
