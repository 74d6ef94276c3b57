"""The README's "Library use" example runs and prints what its comments say.

Each line of the example that prints ends in a `# ...` comment holding the
expected output line, so an API change cannot leave the README stale.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library use"
    return match.group(1)


def test_readme_library_example_prints_its_comments():
    code = library_example()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.lstrip().startswith("print(") and "#" in line]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
