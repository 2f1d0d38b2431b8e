"""The README's command-line examples, run as written.

The instance block is saved as `demo.txt` byte for byte, each example's
command line goes through `cli.main`, and stdout must equal the block that
the README prints under it.  Reports are pure functions of the instance
bytes and flags, so any drift in them shows up here.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from couponprobe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)


def _block(prefix: str) -> str:
    matches = [b for b in BLOCKS if b.startswith(prefix)]
    assert len(matches) == 1, f"expected one README block starting {prefix!r}"
    return matches[0]


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_readme_example_output(command, tmp_path, monkeypatch, capsys) -> None:
    (tmp_path / "demo.txt").write_text(_block("# five users"))
    monkeypatch.chdir(tmp_path)
    prompt, expected = _block(f"$ couponprobe {command} ").split("\n", 1)
    assert main(shlex.split(prompt)[2:]) == 0
    assert capsys.readouterr().out == expected
