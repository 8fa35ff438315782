"""README's examples, run: each printed line must match the comment the
README shows for it, so a rename or a changed output cannot leave the docs
stale."""

import re
import shlex
from pathlib import Path
from types import ModuleType

import torusglue
from torusglue.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language after a heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    return match.group(1)


def _cli_examples() -> dict[str, list[str]]:
    """Each command line followed by full-line comments: its expected stdout."""
    examples: dict[str, list[str]] = {}
    command = None
    for line in _block("## Command line", "sh").splitlines():
        if line.startswith("# ") and command is not None:
            examples[command].append(line[2:])
        elif line.startswith("torusglue ") and "#" not in line:
            command = line
            examples[command] = []
        else:
            command = None
    return {c: out for c, out in examples.items() if out}


def test_library_example_prints_what_readme_says(capsys):
    code = _block("## Library", "python")
    expected = [
        line.split("# ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(") and "# " in line
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 5


def test_package_root_exports_exactly_the_library_example_imports():
    # every other name is imported from its module, so a deletion never has
    # to edit the root as well
    code = _block("## Library", "python")
    imported = re.search(r"from torusglue import \((.*?)\)", code, re.DOTALL).group(1)
    readme_names = {name.strip() for name in imported.split(",") if name.strip()}
    exports = {
        name
        for name, value in vars(torusglue).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(readme_names) == 10
    assert exports == readme_names


def test_cli_examples_print_what_readme_says(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = _cli_examples()
    assert sorted(examples) == [
        "torusglue homology tests/data/homology_example.json",
        "torusglue surgery 2 3",
    ]
    for command, expected in examples.items():
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command
