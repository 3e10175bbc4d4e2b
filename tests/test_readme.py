"""The README's examples run as written."""

import shlex
from pathlib import Path

from sumprod.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    # The first ```lang block after the "## heading" line.
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_lines_exit_zero(capsys):
    lines = [shlex.split(ln, comments=True) for ln in _block("CLI", "sh").splitlines()]
    lines = [argv for argv in lines if argv]
    assert len(lines) == 10 and all(argv[0] == "sumprod" for argv in lines)
    for argv in lines:
        assert run(argv[1:]) == 0, argv
        capsys.readouterr()


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
