"""The README's Library examples run as written, in order and in one namespace,
and every expression whose line ends in a comment evaluates to the literal
that comment starts with (``# True``, ``# 12``, ``# (True, [])``).  Every
backticked ``loopexp.<module>.<name>`` resolves, and every ``loopexp`` line
of the Command line block parses."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from loopexp.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
# A comment after code on the same line.
RESULT = re.compile(r"^\s*[^\s#][^#]*#\s*(.*?)\s*$")


def library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


def expected_result(comment: str):
    """The literal a result comment starts with: its longest prefix, cut at a
    comma, that parses (``False, with witnesses`` gives ``False``)."""
    parts = comment.split(",")
    for end in range(len(parts), 0, -1):
        try:
            return ast.literal_eval(",".join(parts[:end]))
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"result comment {comment!r} starts with no literal")


def test_library_blocks_are_found():
    assert len(library_blocks()) == 2


def test_library_example_verdict_comments_hold():
    namespace: dict = {}
    checked = marked = 0
    for source in library_blocks():
        lines = source.splitlines()
        marked += sum(1 for line in lines if RESULT.match(line))
        for statement in ast.parse(source).body:
            line = lines[statement.end_lineno - 1]
            result = RESULT.match(line)
            if isinstance(statement, ast.Expr):
                value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                             namespace)
                if result:
                    expected = expected_result(result.group(1))
                    assert type(value) is type(expected) and value == expected, line
                    checked += 1
            else:
                assert not result, line
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert checked == marked > 0


def test_named_objects_exist():
    names = re.findall(r"`loopexp\.(\w+)\.([\w.]+)`", README.read_text(encoding="utf-8"))
    assert len(names) >= 9
    for module, path in names:
        value = importlib.import_module(f"loopexp.{module}")
        for attribute in path.split("."):
            value = getattr(value, attribute)


def test_command_line_examples_parse():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("loopexp ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
