import ast
import re
from pathlib import Path

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
    assert checked == 3
