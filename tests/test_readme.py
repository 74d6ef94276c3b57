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


def search_example():
    """The `codedcache search` command and its output block from README."""
    section = README.read_text(encoding="utf-8").split("\n### search\n", 1)[1]
    command, output = re.findall(r"```(?:sh)?\n(.*?)```", section, re.DOTALL)[:2]
    argv = command.split()
    assert argv[:2] == ["codedcache", "search"]
    return argv[1:], output.splitlines()


def test_readme_search_example_prints_its_table(tmp_path, monkeypatch):
    """Every line of the README's search output, bar the `...` elisions,
    appears in the command's output, in order."""
    from codedcache import cli

    argv, expected = search_example()
    monkeypatch.chdir(tmp_path)  # the example writes table.csv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    lines = iter(out.getvalue().splitlines())
    for want in expected:
        if want.strip() != "...":
            assert any(line == want for line in lines), want


def sh_blocks(heading):
    """The ```sh blocks under a README `### heading`, before the next one."""
    section = README.read_text(encoding="utf-8").split(f"\n### {heading}\n", 1)[1]
    section = section.split("\n### ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, re.DOTALL)


def test_readme_simulate_examples_exit_0(tmp_path, monkeypatch):
    """Every `codedcache simulate` line of the README runs on the scheme
    files that the README's own `construct` lines write."""
    from codedcache import cli

    simulate = [line.split() for block in sh_blocks("simulate")
                for line in block.splitlines()
                if line.startswith("codedcache simulate")]
    files = {argv[2] for argv in simulate}
    assert files == {"c84.json", "c95.json"}
    construct = [line.split() for block in sh_blocks("construct")
                 for line in block.splitlines()
                 if line.startswith("codedcache construct")
                 and line.split()[-1] in files]
    assert len(construct) == len(files)
    monkeypatch.chdir(tmp_path)
    for argv in construct + simulate:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, " ".join(argv)


def test_readme_construct_and_verify_examples_exit_0(tmp_path, monkeypatch):
    """Every `codedcache construct` and `codedcache verify` line of the
    README exits 0, run in order, so each verify finds its scheme file."""
    from codedcache import cli

    lines = [line.split("#", 1)[0].split()
             for heading in ("construct", "verify") for block in sh_blocks(heading)
             for line in block.splitlines()
             if line.startswith(("codedcache construct", "codedcache verify"))]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, " ".join(argv)
