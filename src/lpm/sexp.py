"""Minimal S-expression reader/writer for the theory and proof formats."""

from __future__ import annotations

import re


class SexpError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


Sexp = "str | int | list"

# One token after any run of whitespace and `;` line comments; the group
# that matched names its kind.  Integers are exactly `-?[0-9]+`, any other
# atom is a symbol.
_ATOM_END = r"(?![^ \t\r\n();])"
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|;[^\n]*)*(?:"
    r"(?P<open>\()|(?P<close>\))"
    rf"|(?P<int>-?[0-9]+{_ATOM_END})|(?P<symbol>[^ \t\r\n();]+)"
    r"|(?P<end>\Z))"
)


def loads(text: str) -> list:
    """Read every toplevel S-expression in `text`."""
    items: list = []
    open_lists: list[tuple[list, int]] = []  # enclosing list, offset of its "("
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind == "symbol":
            items.append(m.group(kind))
        elif kind == "int":
            items.append(int(m.group(kind)))
        elif kind == "open":
            open_lists.append((items, pos - 1))
            items = []
        elif kind == "close":
            if not open_lists:
                raise _error("unexpected ')'", text, pos - 1)
            outer, _ = open_lists.pop()
            outer.append(items)
            items = outer
        elif open_lists:
            raise _error("unterminated list", text, open_lists[-1][1])
        else:
            return items


def loads_one(text: str) -> object:
    items = loads(text)
    if len(items) != 1:
        raise SexpError(f"expected one expression, found {len(items)}", 1, 1)
    return items[0]


def _error(message: str, text: str, offset: int) -> SexpError:
    """Every character counts as one column, tab and CR included."""
    return SexpError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def dumps(x: object) -> str:
    if isinstance(x, list):
        return "(" + " ".join(dumps(e) for e in x) + ")"
    return str(x)


def dumps_pretty(x: object, indent: int = 0) -> str:
    """Readable multi-line form: toplevel list items on their own lines."""
    if not isinstance(x, list):
        return str(x)
    flat = dumps(x)
    if len(flat) <= 76 - indent:
        return flat
    pad = " " * (indent + 2)
    head = dumps(x[0]) if x else ""
    lines = [dumps_pretty(e, indent + 2) for e in x[1:]]
    return "(" + head + "\n" + "\n".join(pad + s for s in lines) + ")"
