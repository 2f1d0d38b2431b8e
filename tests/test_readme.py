"""The README's command-line examples, run as written, and its library map.

Each instance block is saved byte for byte under the file name the examples
use, every `$ couponprobe ...` block's command line goes through `cli.main`,
and stdout must equal the block that the README prints under it.  Reports
are pure functions of the instance bytes and flags, so any drift in them
shows up here.  Every code name in the library map's table must still name
package code, so a deletion cannot leave the map stale.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import couponprobe
from couponprobe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)
# file name -> first line of the README block that holds it
INSTANCE_FILES = {"demo.txt": "# five users", "tiny.txt": "# three users"}
EXAMPLES = [b for b in BLOCKS if b.startswith("$ couponprobe ")]
PACKAGE = {name: importlib.import_module(f"couponprobe.{name}")
           for _, name, _ in pkgutil.iter_modules(couponprobe.__path__)}
CLASSES = {obj for module in PACKAGE.values() for obj in vars(module).values()
           if inspect.isclass(obj) and obj.__module__.startswith("couponprobe.")}
MAP_ROWS = [line for line in README.read_text().split("## Library map", 1)[1].split("\n## ", 1)[0].splitlines()
            if line.startswith("|")]
# a backticked name with a dot or an underscore: `model.check_steps`, `run_block`
CODE_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+|[a-z][a-z0-9]*(?:_[a-z0-9]+)+")


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


def names_package_code(name: str) -> bool:
    """Whether name is a package module, an attribute of one, or an
    attribute (a method, say) of a package class; a dotted name is looked up
    from the module or class its first part names."""
    head, *path = name.split(".")
    if not path:
        return head in PACKAGE or any(hasattr(owner, head) for owner in (*PACKAGE.values(), *CLASSES))
    owners = [PACKAGE[head]] if head in PACKAGE else [c for c in CLASSES if c.__name__ == head]
    for owner in owners:
        try:
            functools.reduce(getattr, path, owner)
        except AttributeError:
            continue
        return True
    return False


def test_code_name_checker() -> None:
    for name in ("instance_io", "check_steps", "run_block", "model.check_steps", "Alg1Policy.run_block"):
        assert names_package_code(name), name
    for name in ("no_such_name", "model.no_such_name", "Alg1Policy.no_such_name", "no_module.check_steps"):
        assert not names_package_code(name), name


def test_library_map_names_package_code() -> None:
    names = {span for row in MAP_ROWS for span in re.findall(r"`([^`]+)`", row) if CODE_NAME.fullmatch(span)}
    assert {"run_block", "check_steps", "instance_io"} <= names
    assert sorted(name for name in names if not names_package_code(name)) == []
