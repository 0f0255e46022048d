"""Minimal S-expression reader/writer for the theory and proof formats.

`loads` hash-conses what it reads within one call: atoms of the same text
are one object, and so are lists whose children are the same objects.
The lists it returns are shared, so no consumer may mutate them.
"""

from __future__ import annotations

import re
from itertools import islice


class SexpError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


Sexp = "str | int | list"

# Whitespace and `;` line comments, then an atom, a parenthesis or, at the
# end of the text, "".  An atom that is exactly `-?[0-9]+` is an integer,
# any other a symbol.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*([()]|[^ \t\r\n();]+|\Z)")
_INT_RE = re.compile(r"-?[0-9]+")


def loads(text: str) -> list:
    """Read every toplevel S-expression in `text`, hash-consed."""
    items: list = []
    open_lists: list[tuple[list, int]] = []  # enclosing list, index of its "("
    atoms: dict[str, object] = {}
    lists: dict[tuple[int, ...], list] = {}  # the ids of a list's children -> the list
    for i, tok in enumerate(_TOKEN_RE.findall(text)):
        if tok == "(":
            open_lists.append((items, i))
            items = []
        elif tok == ")":
            if not open_lists:
                raise _error("unexpected ')'", text, i)
            outer, _ = open_lists.pop()
            outer.append(lists.setdefault(tuple(map(id, items)), items))
            items = outer
        elif tok:
            atom = atoms.get(tok)
            if atom is None:
                atom = atoms[tok] = int(tok) if _INT_RE.fullmatch(tok) else tok
            items.append(atom)
    if open_lists:
        raise _error("unterminated list", text, open_lists[-1][1])
    return items


def loads_one(text: str) -> object:
    items = loads(text)
    if len(items) != 1:
        raise SexpError(f"expected one expression, found {len(items)}", 1, 1)
    return items[0]


def _error(message: str, text: str, index: int) -> SexpError:
    """The error at the `index`-th match of `_TOKEN_RE`."""
    return SexpError(message, *_line_col(text, next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)))


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """Every character counts as one column, tab and CR included."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def position_of(text: str, target: object) -> tuple[int, int]:
    """The line and column of the first occurrence of `target`, a part of
    what `loads(text)` read, by reading `text` again; (0, 0) if none."""
    items: list = []
    open_lists: list[tuple[list, int]] = []  # enclosing list, offset of its "("
    for m in _TOKEN_RE.finditer(text):
        tok, offset = m.group(1), m.start(1)
        if tok == "(":
            open_lists.append((items, offset))
            items = []
            continue
        if tok == ")":
            (items, offset), x = open_lists.pop(), items
        else:  # an atom, or "" at the end of the text, which is no atom
            x = int(tok) if _INT_RE.fullmatch(tok) else tok
        if type(x) is type(target) and x == target:
            return _line_col(text, offset)
        items.append(x)
    return 0, 0


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
