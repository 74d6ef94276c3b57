"""The package's public names: every export resolves, none is listed twice;
and the package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import codedcache


def test_all_names_resolve_once():
    names = codedcache.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(codedcache, name)] == []


def test_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(codedcache.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
