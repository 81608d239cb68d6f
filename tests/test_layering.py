"""Each rule lives in one place: checkers in ``net`` and ``records``, records above ``net``."""

import ast
from pathlib import Path

import pytest

import spmlab

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(Path(spmlab.__file__).parent.glob("*.py"))}


def package_imports(tree) -> set:
    """The spmlab modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "spmlab":
                continue
            parts = (node.module or "").split(".")
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                found.add(inner[0])
            else:  # from . import losses
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("spmlab."))
    return found


def test_check_functions_live_in_net_and_records():
    defined = {name: [node.name for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
               for name, tree in SOURCES.items()}
    assert {name for name, checks in defined.items() if checks} == {"net", "records"}


@pytest.mark.parametrize("module, allowed", [("net", set()), ("records", {"net"})])
def test_net_and_records_import_only_below_them(module, allowed):
    assert package_imports(SOURCES[module]) == allowed


def test_package_imports_reads_every_form():
    tree = ast.parse("from . import losses\nfrom .net import Mlp\n"
                     "from spmlab.data import x\nimport spmlab.cli\nimport numpy\n")
    assert package_imports(tree) == {"losses", "net", "data", "cli"}
