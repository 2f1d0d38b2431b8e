"""The README's command-line examples, run as written.

Each instance block is saved byte for byte under the file name the examples
use, every `$ couponprobe ...` block's command line goes through `cli.main`,
and stdout must equal the block that the README prints under it.  Reports
are pure functions of the instance bytes and flags, so any drift in them
shows up here.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from couponprobe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)
# file name -> first line of the README block that holds it
INSTANCE_FILES = {"demo.txt": "# five users", "tiny.txt": "# three users"}
EXAMPLES = [b for b in BLOCKS if b.startswith("$ couponprobe ")]


def _block(prefix: str) -> str:
    matches = [b for b in BLOCKS if b.startswith(prefix)]
    assert len(matches) == 1, f"expected one README block starting {prefix!r}"
    return matches[0]


@pytest.mark.parametrize("example", EXAMPLES, ids=[b.split()[2] for b in EXAMPLES])
def test_readme_example_output(example, tmp_path, monkeypatch, capsys) -> None:
    for name, first_line in INSTANCE_FILES.items():
        (tmp_path / name).write_text(_block(first_line))
    monkeypatch.chdir(tmp_path)
    prompt, expected = example.split("\n", 1)
    assert main(shlex.split(prompt)[2:]) == 0
    assert capsys.readouterr().out == expected
