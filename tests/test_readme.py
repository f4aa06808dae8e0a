"""Every ``kstruve`` line of the README's CLI block runs as documented.

Each line runs through ``cli.main`` in an empty directory and must exit 0
(``validate`` may also exit 4, adjudication disagreement), so the README
and the command line cannot drift apart.
"""

import shlex
from pathlib import Path

import pytest

from kstruve.cli import EXIT_DISAGREE, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kstruve ")]


def test_every_subcommand_has_an_example():
    commands = {shlex.split(line)[1] for line in _cli_lines()}
    assert commands == {"eval", "solve", "validate", "figures", "sweep"}


@pytest.mark.parametrize("line", _cli_lines())
def test_example_runs(line, tmp_path, monkeypatch):
    argv = shlex.split(line)[1:]
    monkeypatch.chdir(tmp_path)
    allowed = (EXIT_OK, EXIT_DISAGREE) if argv[0] == "validate" else (EXIT_OK,)
    assert main(argv) in allowed
