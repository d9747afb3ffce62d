"""README's Library and Command line examples run as written."""

import re
import shlex
from pathlib import Path

from wgherald.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(section: str, lang: str) -> str:
    """The first `lang` code block under the README heading `## section`."""
    body = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    body = body.split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("Library", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.yaml").write_text(fenced("Command line", "yaml"), encoding="utf-8")
    lines = fenced("Command line", "sh").splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "wgherald", line
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
