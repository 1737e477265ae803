"""The README's library example runs as written against the package's
exports, and its flag list names exactly the CLI's options."""

import argparse
import math
import re
from pathlib import Path

from wamcyl.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))


def test_flag_list_names_every_cli_option():
    flags = README.read_text().split("\nFlags:\n", 1)[1].split("\nExit codes:", 1)[0]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--")} - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", flags)) == options
