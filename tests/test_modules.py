"""Module boundaries: no module reaches into a sibling's private names, each
module-level constant is assigned in one module only, one function parses
JSON and one writes it indented."""

import ast
from collections import defaultdict
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


def _constants(path: Path) -> set[str]:
    """The UPPER_CASE names a module assigns at its top level."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names |={n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and n.id.isupper()}
    return names


def _assigned_twice(paths: list[Path]) -> dict[str, list[str]]:
    owners = defaultdict(list)
    for path in paths:
        for name in _constants(path):
            owners[name].append(path.stem)
    return {name: stems for name, stems in sorted(owners.items()) if len(stems) > 1}


def test_no_constant_is_assigned_in_two_modules():
    # a copy must be imported from its one definition, so the two cannot drift
    assert _assigned_twice(sorted(PACKAGE.glob("*.py"))) == {}


def test_the_check_sees_a_constant_assigned_twice(tmp_path):
    (tmp_path / "a.py").write_text("KIND = 'x'\nA, (B, _c) = 1, (2, 3)\nlower = 1\n")
    (tmp_path / "b.py").write_text("from .a import KIND\nB: int = 2\nlower = 1\n")
    assert _assigned_twice([tmp_path / "a.py", tmp_path / "b.py"]) == {"B": ["a", "b"]}


def _uses(path: Path, match) -> list[str]:
    """Where a module has a node that ``match`` accepts: the qualified name of the
    enclosing function or class, or the module's name at its top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if match(child):
                found.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def _json_loads_uses(path: Path) -> list[str]:
    """Where a module uses ``json.loads``."""
    return _uses(path, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "loads"
        and isinstance(node.value, ast.Name) and node.value.id == "json") or (
        isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(a.name == "loads" for a in node.names)))


def _indented_dumps_uses(path: Path) -> list[str]:
    """Where a module calls ``json.dumps`` (or a bare ``dumps``) with an ``indent``."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        dumps = (isinstance(f, ast.Attribute) and f.attr == "dumps"
                 and isinstance(f.value, ast.Name) and f.value.id == "json") or (
                 isinstance(f, ast.Name) and f.id == "dumps")
        return dumps and any(k.arg == "indent" for k in node.keywords)

    return _uses(path, match)


def test_json_loads_is_used_in_one_function():
    # every JSON file is read through it, so each names its file on any fault
    uses = {use for path in sorted(PACKAGE.glob("*.py")) for use in _json_loads_uses(path)}
    assert uses == {"dataset.read_json"}


def test_the_check_sees_every_json_loads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom json import dumps, loads\nDOC = json.loads('1')\n"
                     "class Doc:\n    def read(s):\n        def inner():\n"
                     "            return json.loads(s)\n        return inner, json.dumps(s)\n")
    assert _json_loads_uses(probe) == ["probe", "probe", "probe.Doc.read.inner"]


def test_indented_json_is_written_in_one_function():
    # every JSON file but model.json is written through it, in one format
    uses = {use for path in sorted(PACKAGE.glob("*.py")) for use in _indented_dumps_uses(path)}
    assert uses == {"dataset.write_json"}


def test_the_check_sees_every_indented_dumps(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom json import dumps\nTEXT = json.dumps(1, indent=2)\n"
                     "class Doc:\n    def write(s):\n        def inner():\n"
                     "            return dumps(s, indent=None)\n"
                     "        return inner, json.dumps(s), json.loads(s)\n")
    assert _indented_dumps_uses(probe) == ["probe", "probe.Doc.write.inner"]
