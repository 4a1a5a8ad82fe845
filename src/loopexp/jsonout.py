"""The report writer's JSON text: ``json.dumps(value, sort_keys=True, indent=2)``
byte for byte, rendered as a list of chunks.

Python's own encoder takes its pure-Python path whenever an indent is set,
which made it the slowest stage of a large ``mc`` report.  This one handles
only what reports hold: dicts with str keys, lists and tuples, str, int, bool
and None; anything else raises ``TypeError``.  Strings go through the C
``encode_basestring_ascii``, and the text of a flat int list, such as a
label or a monomial factor, is rendered once per depth and values.

A value whose producer can write its text faster than this walk, such as the
``mc`` report's series, may be handed in pre-rendered as a :class:`Fragment`:
its chunks are spliced in as they are.  Indentation depends on depth, so a
fragment states the depth it was rendered for, and one placed at any other
depth raises ``ValueError`` before anything is written.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

# Text of a scalar by exact type; subclasses of str and int take the
# isinstance branches below, as they do in json.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}
_INT_ONLY = {int}


class Fragment:
    """Pre-rendered text of one value: ``chunks`` concatenate to its
    ``json.dumps(sort_keys=True, indent=2)`` text when it sits at ``depth``."""

    __slots__ = ("depth", "chunks")

    def __init__(self, depth: int, chunks: list[str]) -> None:
        self.depth = depth
        self.chunks = chunks


def json_chunks(value) -> list[str]:
    """Chunks whose concatenation is ``json.dumps(value, sort_keys=True, indent=2)``."""
    chunks: list[str] = []
    append = chunks.append
    newlines = ["\n"]  # newlines[d]: a line break and the indent of depth d
    flat_ints: dict[tuple, str] = {}
    scalar = _SCALARS.get

    def emit(head: str, value, depth: int) -> None:
        """Append ``head`` and then the text of ``value``, which sits at ``depth``."""
        render = scalar(type(value))
        if render is not None:
            append(head + render(value))
            return
        if len(newlines) < depth + 2:
            newlines.append(newlines[-1] + "  ")
        close, inner = newlines[depth], newlines[depth + 1]
        if isinstance(value, dict):
            if not value:
                append(head + "{}")
                return
            separator = head + "{" + inner
            for key in sorted(value):  # a non-str key fails in encode_basestring_ascii
                emit(separator + encode_basestring_ascii(key) + ": ", value[key], depth + 1)
                separator = "," + inner
            append(close + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append(head + "[]")
                return
            if type(value[0]) is int and {*map(type, value)} == _INT_ONLY:
                key = (depth, *value)
                text = flat_ints.get(key)
                if text is None:
                    items = ("," + inner).join(map(int.__repr__, value))
                    text = flat_ints[key] = "[" + inner + items + close + "]"
                append(head + text)
                return
            separator = head + "[" + inner
            for item in value:
                emit(separator, item, depth + 1)
                separator = "," + inner
            append(close + "]")
        elif type(value) is Fragment:
            if value.depth != depth:
                raise ValueError(f"a fragment rendered for depth {value.depth} "
                                 f"sits at depth {depth}")
            append(head)
            chunks.extend(value.chunks)
        elif isinstance(value, str):
            append(head + encode_basestring_ascii(value))
        elif isinstance(value, int):
            append(head + int.__repr__(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    emit("", value, 0)
    return chunks
