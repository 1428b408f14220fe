import ast
import json
import re
import shlex
from pathlib import Path

from sfb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_documented():
    # every line of the README's python block runs; a line ending in a
    # comment that holds a literal must evaluate to that literal
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    env = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if comment.strip():
            assert eval(code, env) == ast.literal_eval(comment.strip()), line
            checked += 1
        else:
            exec(code, env)
    assert checked == 6


def cli_examples():
    """(argv, stdout JSON, exit code or None) of every README example
    whose shown output is complete: a blank-line separated group that
    opens with one '$ sfb' line and holds no '...'."""
    blocks = re.findall(r"```\n(.*?)```", README.read_text(), re.S)
    for group in "\n".join(blocks).split("\n\n"):
        command, *shown = group.strip().splitlines()
        if not command.startswith("$ sfb ") or "..." in group:
            continue
        output, _, code = "\n".join(shown).partition("# exit ")
        yield shlex.split(command[len("$ sfb "):]), json.loads(output), (
            int(code) if code else None
        )


def test_readme_cli_examples_run_as_documented(capsys):
    ran = 0
    for argv, expected, code in cli_examples():
        status = main(argv)
        assert json.loads(capsys.readouterr().out) == expected, argv
        if code is not None:
            assert status == code, argv
        ran += 1
    # lambda twice, normalize, geometric "e_r", cobordant twice, subst
    assert ran == 7
