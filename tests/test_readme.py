"""README's Quickstart, run as written: its scenario JSON and its two
``skillscope`` commands go through ``cli.main``, and ``report/`` must hold
every file the paragraph after the block names."""

import re
import shlex
from pathlib import Path

from skillscope.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> tuple[str, list[list[str]], str]:
    """The scenario JSON, each ``skillscope`` command's arguments, and the
    paragraph that follows the block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1]
    block, after = section.split("```sh\n", 1)[1].split("```\n", 1)
    scenario = block.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("skillscope ")]
    return scenario, commands, after.strip().split("\n\n", 1)[0]


def test_quickstart_runs_and_writes_the_files_it_names(tmp_path, monkeypatch, capsys):
    scenario, commands, paragraph = quickstart()
    assert [c[0] for c in commands] == ["synth", "report"]
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(scenario)
    Path("seeds.txt").write_text("ml\n")
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    named = re.findall(r"`([\w.]+\.(?:csv|json))`", paragraph)
    assert "skills.csv" in named and "provenance.json" in named
    missing = [name for name in named if not (tmp_path / "report" / name).is_file()]
    assert not missing, missing
