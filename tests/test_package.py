"""The package's public names: every export resolves, none is listed twice;
the package imports nothing outside the standard library, and the CLI
module leaves the costly stdlib modules it does not need unimported."""

import ast
import pathlib
import subprocess
import sys
import types

import codedcache


def test_all_names_resolve_once():
    names = codedcache.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(codedcache, name)] == []


def test_all_lists_every_public_attribute():
    """A deleted function cannot survive as a stale import or export."""
    public = {name for name, value in vars(codedcache).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(codedcache.__all__) == public


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


def test_cli_import_leaves_out_dataclasses_inspect_and_hashlib():
    """dataclasses (which imports inspect) and hashlib cost every CLI
    process about 18 ms of import; only --digest needs hashlib."""
    src = str(pathlib.Path(codedcache.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import codedcache.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
