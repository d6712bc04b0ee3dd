"""The README's examples run as written: its Python block, and each ``spinboost`` line
of its CLI block through ``cli.main``, with ``--out`` under a temporary directory."""

import re
import shlex
from pathlib import Path

import pytest

from spinboost import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("spinboost ")]


def test_python_example(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-8  # as its comment says


def test_every_command_is_a_cli_example():
    assert sorted(argv[0] for argv in COMMANDS) == sorted(cli._build_parser()[1])


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_cli_example(argv, tmp_path, capsys):
    # a later --out overrides the README's
    out = tmp_path / (argv[argv.index("--out") + 1] if "--out" in argv else "out.txt")
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == "" and out.stat().st_size > 0
