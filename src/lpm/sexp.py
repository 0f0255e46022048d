"""Minimal S-expression reader/writer for the theory and proof formats.

`loads` hash-conses what it reads within one call: atoms of the same text
are one object, and so are lists whose children are the same objects.
The lists it returns are shared, so no consumer may mutate them.

Reading costs in proportion to the distinct lines of the text.  A token
never spans a line, so each line acts on the reader's state in a fixed
way: it adds atoms and the lists it completes to the open list, closes
some lists opened on earlier lines, and opens some that later lines
close.  `loads` reads a line it meets for the first time token by token,
together with the other new lines next to it.  The second time it meets
the line's text, with or without indentation, it records that action,
and from then on it replays the action without reading the line.  A
`.llpx` restates formulas at every proof node, so most of its lines are
repeats.  An error is placed by reading the text again token by token.

`dumps_pretty` computes each list's flat width once, children first, and
then lays the tree out from an explicit stack, so its time follows the
size of the tree and of the text it writes.  Only what it writes flat,
at most 76 columns, goes through the recursive `dumps`.
"""

from __future__ import annotations

import re
from typing import Iterable


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
    open_lists: list[list] = []  # the enclosing lists, innermost last
    atoms: dict[str, object] = {}
    lists: dict[tuple[int, ...], list] = {}  # the ids of a list's children -> the list
    actions: dict[str, tuple] = {}  # a line's text -> what it does, see `_line_action`
    seen: set[str] = set()  # the texts, without indentation, of the lines met once
    unread: list[str] = []  # lines met once since the last replayed line
    for line in text.split("\n"):
        action = actions.get(line)
        if action is None:
            # only " \t\r" are whitespace to the tokenizer; str.lstrip() would strip more
            key = line.lstrip(" \t\r")
            action = actions.get(key)
            if action is None:
                if key not in seen:
                    seen.add(key)
                    unread.append(line)
                    continue
                action = actions[key] = _line_action(key, atoms, lists)
            actions[line] = action
        if unread:
            items, stray = _read(_TOKEN_RE.findall("\n".join(unread)), items, open_lists, atoms, lists)
            if stray:
                raise _error(text)
            unread = []
        before, closes, opens = action
        items += before
        for after in closes:
            if not open_lists:
                raise _error(text)
            outer = open_lists.pop()
            outer.append(lists.setdefault(tuple(map(id, items)), items))
            items = outer
            items += after
        for after in opens:
            open_lists.append(items)
            items = after.copy()
    items, stray = _read(_TOKEN_RE.findall("\n".join(unread)), items, open_lists, atoms, lists)
    if stray or open_lists:
        raise _error(text)
    return items


def _read(tokens: Iterable[str], items: list, open_lists: list[list], atoms: dict, lists: dict) -> tuple[list, bool]:
    """Read `tokens` into `items`, the innermost open list, until they run
    out or a `)` closes none of `open_lists`; returns the open list then,
    and whether such a `)` stopped it."""
    for tok in tokens:
        if tok == "(":
            open_lists.append(items)
            items = []
        elif tok == ")":
            if not open_lists:
                return items, True
            outer = open_lists.pop()
            outer.append(lists.setdefault(tuple(map(id, items)), items))
            items = outer
        elif tok:
            atom = atoms.get(tok)
            if atom is None:
                atom = atoms[tok] = int(tok) if _INT_RE.fullmatch(tok) else tok
            items.append(atom)
    return items, False


def _line_action(line: str, atoms: dict, lists: dict) -> tuple[list, list, list]:
    """What `line` does to the reader.  Once the lists it completes are
    read, a line is `A0 ) A1 ... ) Ak ( B1 ... ( Bm`, where each A and B is
    a run of atoms and completed lists.  Returns A0, [A1, ..., Ak] and
    [B1, ..., Bm]: templates the reader copies, never lists it returns."""
    tokens = iter(_TOKEN_RE.findall(line))
    open_here: list[list] = []  # the enclosing runs of the lists opened on this line
    run, stray = _read(tokens, [], open_here, atoms, lists)
    runs = [run]
    while stray:
        run, stray = _read(tokens, [], open_here, atoms, lists)
        runs.append(run)
    if open_here:
        open_here.append(runs.pop())
        runs.append(open_here.pop(0))
    return runs[0], runs[1:], open_here


def loads_one(text: str) -> object:
    items = loads(text)
    if len(items) != 1:
        raise SexpError(f"expected one expression, found {len(items)}", 1, 1)
    return items[0]


def _error(text: str) -> SexpError:
    """The error `loads` met in `text`, placed by reading it again token by
    token: the first `)` that closes nothing, else the innermost `(` that
    is never closed."""
    open_at: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok == "(":
            open_at.append(m.start(1))
        elif tok == ")":
            if not open_at:
                return SexpError("unexpected ')'", *_line_col(text, m.start(1)))
            open_at.pop()
    return SexpError("unterminated list", *_line_col(text, open_at[-1]))


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


def dumps_prefix(x: object) -> str:
    """`dumps(x)`, or its first 80 characters and "…" when it is longer."""
    text = dumps(x)
    return text if len(text) <= 80 else text[:80] + "…"


def dumps_pretty(x: object, indent: int = 0) -> str:
    """Readable multi-line form: a list that fits in 76 columns is written
    flat, any other as its head, then its other items on their own lines."""
    width = _flat_widths(x) if isinstance(x, list) else {}
    out: list[str] = []
    todo = [(iter((x,)), "", indent)]  # items left to write, with their line break and indent
    while todo:
        items, pad, indent = todo[-1]
        for y in items:
            out.append(pad)
            if not isinstance(y, list) or width[id(y)] <= 76 - indent:
                out.append(dumps(y))
                continue
            out.append(("(" + dumps(y[0])) if y else "(")
            if len(y) < 2:
                out.append("\n")
            todo.append((iter(y[1:]), "\n" + " " * (indent + 2), indent + 2))
            break
        else:
            todo.pop()
            out.append(")")
    out.pop()  # the `)` of the list around `x`, which has none
    return "".join(out)


def _flat_widths(x: list) -> dict[int, int]:
    """`len(dumps(y))` for each list `y` in `x`, by id, each computed once
    from its children's."""
    order = [x]  # each list after the one it is in; the loop reads what it appends
    for y in order:
        order += [e for e in y if isinstance(e, list)]
    width: dict[int, int] = {}
    for y in reversed(order):
        w = max(len(y), 1) + 1  # the parentheses and the spaces between items
        for e in y:
            w += width[id(e)] if isinstance(e, list) else len(str(e))
        width[id(y)] = w
    return width
