"""README's examples run as written, so a renamed flag, preset or function
shows up here."""

import re
import shlex
from pathlib import Path

from votepower.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def cli_examples():
    """Each ``votepower`` command of the shell blocks, continuation lines
    joined and comments dropped, as an argument list."""
    examples = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["votepower"]:
                examples.append(argv[1:])
    return examples


def test_cli_examples_exit_0():
    examples = cli_examples()
    assert examples
    failed = [argv for argv in examples if main(argv) != 0]
    assert failed == []


def test_library_example_runs(capsys):
    (block,) = code_blocks("python")
    exec(block, {})
    assert capsys.readouterr().out.startswith("p_A,beta_A,")
