"""The README's library tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from riordan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_exit_0():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    examples = [line for block in blocks for line in block.splitlines()
                if line.startswith("riordan ")]
    assert examples
    for line in examples:
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) == 0, line
