"""Parser for the `.dk` proof-script surface syntax.

Entries are declarations `c : A.`, definitions `def c : A := t.`, rewrite
rules `[x : T, ...] lhs --> rhs.`, and check commands `#ASSERT t : A.`.
Terms use `x : A -> B` for products, `x : A => t` for abstractions, bare
`A -> B` for non-dependent products, and juxtaposition for application.
Comments `(; ... ;)` nest; one between entries is kept as a `Comment`
entry, one inside an entry is dropped.  Positions are 1-based lines and
columns, and every character counts as one column, tab and CR included.

The parser resolves identifiers on the fly: binders become de Bruijn
indices, rule-context variables become free variables, and everything
else becomes a constant (optionally module-qualified, `logic.prf`).  A
compound term with no loose index, free variable or bare constant reads the
same anywhere: the reader remembers a parenthesised one by its text, and
reads a later `(` whose text starts with that text as the same term.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

from .record import Record
from .terms import (
    KIND,
    TYPE,
    App,
    Const,
    FVar,
    KTerm,
    Lam,
    Pi,
    Var,
)


class DkSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected


# ---------------------------------------------------------------------------
# Entries


class Entry(Record):
    _loose = ("line", "col")  # shown, not compared


class Decl(Entry):
    name: str
    type: KTerm
    line: int = 0
    col: int = 0


class Def(Entry):
    name: str
    type: KTerm
    body: KTerm
    line: int = 0
    col: int = 0


class Rule(Entry):
    ctx: tuple[tuple[str, KTerm], ...]
    lhs: KTerm
    rhs: KTerm
    line: int = 0
    col: int = 0


class AssertType(Entry):
    term: KTerm
    type: KTerm
    line: int = 0
    col: int = 0


class Comment(Entry):
    text: str
    line: int = 0
    col: int = 0


# ---------------------------------------------------------------------------
# Lexer

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_IDENT_RE = re.compile(_IDENT)
_KEYWORDS = ("Type", "Kind", "def")
_SYMBOLS = frozenset(_KEYWORDS + ("#ASSERT", "-->", "->", "=>", ":=", ":", ".", "(", ")", "[", "]", ","))
# a token not in `_FIXED` is an identifier; "" ends the input
_FIXED = _SYMBOLS | {""}

# One token and the whitespace after it.  A parenthesis, the commonest, is
# tried first; no longer token starts with one once comments are cut out.
# A keyword is never qualified, so `Type.x` is `Type`, `.`, `x`; any other
# identifier may carry one module prefix, `mod.id`.  A one-character symbol
# is matched as a character, like a stray one; a command as `#` and an
# identifier, like an unknown one.
_TOKEN_RE = re.compile(
    rf"(?:[()]|(?:{'|'.join(_KEYWORDS)})(?![A-Za-z0-9_'])|{_IDENT}(?:\.{_IDENT})?|#(?:{_IDENT})?|-->|->|=>|:=|[^ \t\r\n])"
    r"[ \t\r\n]*"
)
_SPACE_RE = re.compile(r"[ \t\r\n]*")
_SPAN_KEY = 32  # a shorter parenthesised term is not worth remembering
_COMMENT_DELIM_RE = re.compile(r"\(;|;\)")


# ---------------------------------------------------------------------------
# Parser


class _Scope(list):
    """Binder names, innermost last, beside the levels of each name's
    binders (outermost 0), so that neither `in` nor finding a name's
    innermost binder scans the list."""

    def __init__(self, names: Sequence[str] = ()):
        super().__init__()
        self.levels: dict[str, list[int]] = {}
        for name in names:
            self.push(name)

    def __contains__(self, name: object) -> bool:
        return bool(self.levels.get(name))

    def push(self, name: str) -> None:
        self.levels.setdefault(name, []).append(len(self))
        self.append(name)

    def drop(self) -> None:
        self.levels[self.pop()].pop()


class _Parser:
    """One parse.  Tokens are strings and a token that is not in `_FIXED`
    is an identifier.  The terms built are hash-consed in `table`, keyed
    by class, display name or index and the identities of the children,
    so equal subterms with equal names are one object."""

    def __init__(self, text: str):
        self.text = text
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        self.tokens, self.offsets, self.comments = self.lex(text)
        self.pos = 0
        self.scope = _Scope()
        self.table: dict[tuple, KTerm] = {}
        # closed parenthesised terms by text prefix: start, end, token count, term
        self.spans: dict[str, tuple[int, int, int, KTerm]] = {}

    def where(self, offset: int) -> tuple[int, int]:
        k = bisect_left(self.newlines, offset)
        return k + 1, offset - (self.newlines[k - 1] if k else -1)

    def lex(self, text: str) -> tuple[list[str], list[int], dict[int, list[Comment]]]:
        """The tokens of `text`, ending with "", the offset of each, and the
        comments keyed by the index of the token each one comes before."""
        tokens: list[str] = []
        offsets: list[int] = []
        comments: dict[int, list[Comment]] = {}
        pos = 0
        while True:
            # one scan up to the next comment; the matches tile the stretch,
            # so the running sum of their lengths gives each token's offset
            opener = text.find("(;", pos)
            end = len(text) if opener < 0 else opener
            pos = _SPACE_RE.match(text, pos).end()
            found = _TOKEN_RE.findall(text, pos, end)
            words = list(map(str.rstrip, found))
            starts = list(accumulate(map(len, found), initial=pos))
            bad = [w for w in set(words) - _SYMBOLS if not _IDENT_RE.match(w)]
            if bad:
                i = min(map(words.index, bad))
                word = words[i]
                message = f"unknown command {word}" if word[:1] == "#" else f"stray character {text[starts[i]]!r}"
                raise DkSyntaxError(message, *self.where(starts[i]))
            tokens += words
            offsets += starts  # its last entry is `end`
            if opener < 0:
                tokens.append("")
                return tokens, offsets, comments
            offsets.pop()
            depth, pos = 1, opener + 2
            while depth:
                d = _COMMENT_DELIM_RE.search(text, pos)
                if d is None:
                    raise DkSyntaxError("unterminated comment", *self.where(opener))
                depth += 1 if d.group() == "(;" else -1
                pos = d.end()
            comment = Comment(text[opener + 2 : pos - 2].strip(), *self.where(opener))
            comments.setdefault(len(tokens), []).append(comment)

    def error(self, message: str, i: int, expected: tuple[str, ...] = ()) -> DkSyntaxError:
        return DkSyntaxError(message, *self.where(self.offsets[i]), expected)

    def unexpected(self, i: int, expected: str) -> DkSyntaxError:
        return self.error(f"unexpected {self.tokens[i] or 'end of input'!r}", i, (expected,))

    def expect(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.unexpected(self.pos, tok or "EOF")
        self.pos += 1

    def ident(self, unqualified: bool = False) -> str:
        tok = self.tokens[self.pos]
        if tok in _FIXED:
            raise self.unexpected(self.pos, "IDENT")
        if unqualified and "." in tok:
            raise self.error(f"qualified name {tok!r} not allowed here", self.pos)
        self.pos += 1
        return tok

    # -- entries

    def entries(self) -> list[Entry]:
        # comments inside an entry are never looked up, so they are dropped
        out: list[Entry] = []
        while True:
            out += self.comments.get(self.pos, ())
            if self.tokens[self.pos] == "":
                return out
            out.append(self.entry())

    def entry(self) -> Entry:
        start = self.pos
        tok = self.tokens[start]
        line, col = self.where(self.offsets[start])
        if tok == "def":
            self.pos += 1
            name = self.ident()
            self.expect(":")
            ty = self.term(())
            self.expect(":=")
            body = self.term(())
            self.expect(".")
            return Def(name, ty, body, line, col)
        if tok == "[":
            self.pos += 1
            ctx: list[tuple[str, KTerm]] = []
            delta: list[str] = []
            if self.tokens[self.pos] != "]":
                while True:
                    name = self.ident(unqualified=True)
                    self.expect(":")
                    ctx.append((name, self.term(tuple(delta))))
                    delta.append(name)
                    if self.tokens[self.pos] != ",":
                        break
                    self.pos += 1
            self.expect("]")
            lhs = self.term(tuple(delta))
            self.expect("-->")
            rhs = self.term(tuple(delta))
            self.expect(".")
            return Rule(tuple(ctx), lhs, rhs, line, col)
        if tok == "#ASSERT":
            self.pos += 1
            term = self.arrow(())
            self.expect(":")
            ty = self.term(())
            self.expect(".")
            return AssertType(term, ty, line, col)
        if tok not in _FIXED:
            self.pos += 1
            self.expect(":")
            ty = self.term(())
            self.expect(".")
            return Decl(tok, ty, line, col)
        raise self.error(
            f"unexpected {tok or 'end of input'!r}", start, ("declaration", "def", "rewrite rule", "#ASSERT")
        )

    # -- terms; `delta` holds the rule-context variables in force, and a
    #    term is looked up in `table` before it is built

    def term(self, delta: tuple[str, ...]) -> KTerm:
        tokens, i = self.tokens, self.pos
        name = tokens[i]
        if name not in _FIXED and "." not in name and tokens[i + 1] == ":":
            self.pos = i + 2
            dom = self.app(delta)
            former = {"->": Pi, "=>": Lam}.get(tokens[self.pos])
            if former is None:
                raise self.error(f"unexpected {tokens[self.pos]!r} after binder", self.pos, ("->", "=>"))
            self.pos += 1
            return self.binder(former, name, dom, delta)
        return self.arrow(delta)

    def binder(self, former: type, name: str, dom: KTerm, delta: tuple[str, ...]) -> KTerm:
        self.scope.push(name)
        body = self.term(delta)
        self.scope.drop()
        key = (former, name, id(dom), id(body))
        return self.table.get(key) or self.table.setdefault(key, former(name, dom, body))

    def arrow(self, delta: tuple[str, ...]) -> KTerm:
        left = self.app(delta)
        if self.tokens[self.pos] == "->":
            self.pos += 1
            return self.binder(Pi, "", left, delta)
        return left

    def app(self, delta: tuple[str, ...]) -> KTerm:
        tokens, table = self.tokens, self.table
        t = self.atom(delta)
        while (tok := tokens[self.pos]) not in _FIXED or tok in ("Type", "Kind", "("):
            a = self.atom(delta)
            key = (App, id(t), id(a))
            t = table.get(key) or table.setdefault(key, App(t, a))
        return t

    def atom(self, delta: tuple[str, ...]) -> KTerm:
        i = self.pos
        tok = self.tokens[i]
        self.pos = i + 1
        if tok not in _FIXED:
            key = self.leaf(tok, delta)
            return self.table.get(key) or self.table.setdefault(key, key[0](*key[1:]))
        if tok == "Type":
            return TYPE
        if tok == "Kind":
            return KIND
        if tok == "(":
            # equal text through `)` is equal tokens, and a closed term reads alike anywhere
            text, start = self.text, self.offsets[i]
            seen = self.spans.get(key := text[start : start + _SPAN_KEY])
            if seen and text.startswith(text[seen[0] : seen[1]], start):
                self.pos = i + seen[2]
                return seen[3]
            t = self.term(delta)
            self.expect(")")
            end = self.offsets[self.pos - 1] + 1
            if t.lbr == 0 and not (t.has_fvar or t.has_bare_const) and end - start >= _SPAN_KEY:
                self.spans[key] = (start, end, self.pos - i, t)
            return t
        raise self.unexpected(i, "term")

    def leaf(self, name: str, delta: tuple[str, ...]) -> tuple:
        """The class and the fields of what `name` stands for."""
        if "." not in name:
            if levels := self.scope.levels.get(name):
                return (Var, len(self.scope) - 1 - levels[-1], name)
            if name in delta:
                return (FVar, name)
        return (Const, name)


def parse_file(text: str) -> list[Entry]:
    """Parse a whole `.dk` source text into entries."""
    return _Parser(text).entries()


def parse_term(text: str, delta: tuple[str, ...] = ()) -> KTerm:
    """Parse a single term (testing convenience)."""
    p = _Parser(text)
    t = p.term(delta)
    p.expect("")
    return t


def __getattr__(name: str):  # the printer is `dkprint`; the benchmark's set-up still uses these names
    if name in ("print_term", "print_entry", "print_file"):
        from . import dkprint
        return getattr(dkprint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
