"""Report text: ``json.dumps(report, sort_keys=True, indent=2)``, with the
top-level fields that arrive pre-rendered spliced in as chunks.

The two largest fields, the ``mc`` report's ``series`` and the ``expand``
report's ``constants``, are rendered by their producers from one text per
monomial or label, with the list helpers here, and handed in as a
:class:`Fragment`.  :func:`report_chunks` renders every other top-level field
on its own with ``json.dumps`` and joins the fields in key order, so no
rendered text is ever searched: a string value may hold anything.  A fragment
anywhere but a top-level field is not JSON-serializable and raises
``TypeError`` before anything is written.
"""

from __future__ import annotations

import json

# NEWLINE[d]: a line break and the indent of depth d.
NEWLINE = ["\n" + "  " * depth for depth in range(10)]


class Fragment:
    """Pre-rendered text of one top-level report field: ``chunks`` concatenate to
    its ``json.dumps(sort_keys=True, indent=2)`` text, indented for depth 1."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: list[str]) -> None:
        self.chunks = chunks


def listed(texts: list[str], depth: int) -> str:
    """The text of a list at ``depth`` whose items, at depth + 1, have ``texts``."""
    if not texts:
        return "[]"
    inner = NEWLINE[depth + 1]
    return "[" + inner + ("," + inner).join(texts) + NEWLINE[depth] + "]"


def ints(values, depth: int) -> str:
    """The text of a list of ints at ``depth``."""
    return listed([*map(str, values)], depth)


def report_chunks(report: dict) -> list[str]:
    """Chunks whose concatenation is ``json.dumps(report, sort_keys=True,
    indent=2)``, each :class:`Fragment` field standing for its text."""
    chunks: list[str] = []
    separator = "{" + NEWLINE[1]
    for key in sorted(report):
        value = report[key]
        head = separator + json.dumps(key) + ": "
        if type(value) is Fragment:
            chunks.append(head)
            chunks.extend(value.chunks)
        else:
            # JSON text holds no raw newline, so each break re-indents by one level.
            text = json.dumps(value, sort_keys=True, indent=2)
            chunks.append(head + text.replace("\n", NEWLINE[1]))
        separator = "," + NEWLINE[1]
    chunks.append(NEWLINE[0] + "}" if chunks else "{}")
    return chunks
