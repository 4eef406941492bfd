"""Module boundaries: no module reaches into a sibling's private names."""

import ast
from pathlib import Path

import tabmtl

PACKAGE = Path(tabmtl.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: Path) -> list[str]:
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("tabmtl."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        if source in MODULES:
            found += [f"{path.stem} imports {source}.{a.name}" for a in node.names
                      if _private(a.name)]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [f for path in sorted(PACKAGE.glob("*.py")) for f in _private_imports(path)]
    assert found == []


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .network import _backprop, forward\nfrom .train import __doc__\n")
    assert _private_imports(probe) == ["probe imports network._backprop"]
