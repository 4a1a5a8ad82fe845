"""The README's Library example runs as written, and every line it comments
with ``# True`` or ``# False`` evaluates to that value."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
VERDICT = re.compile(r"#\s*(True|False)\b")


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_verdict_comments_hold():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        marked = VERDICT.search(lines[statement.end_lineno - 1])
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                         namespace)
            if marked:
                assert value is (marked.group(1) == "True"), lines[statement.lineno - 1]
                checked.append(statement.lineno)
        else:
            assert not marked, lines[statement.lineno - 1]
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert len(checked) == len(VERDICT.findall(source)) > 0
