"""Parser and printer for the `.dk` proof-script surface syntax.

Entries are declarations `c : A.`, definitions `def c : A := t.`, rewrite
rules `[x : T, ...] lhs --> rhs.`, and check commands `#ASSERT t : A.`.
Terms use `x : A -> B` for products, `x : A => t` for abstractions, bare
`A -> B` for non-dependent products, and juxtaposition for application.
Comments `(; ... ;)` nest; one between entries is kept as a `Comment`
entry, one inside an entry is dropped.  Positions are 1-based lines and
columns, and every character counts as one column, tab and CR included.

The parser resolves identifiers on the fly: binders become de Bruijn
indices, rule-context variables become free variables, and everything
else becomes a constant (optionally module-qualified, `logic.prf`).
Printing is canonical: `parse(print(e))` is structurally `e`, and
printing a reparsed entry reproduces the text byte for byte.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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
    Sort,
    Var,
    uses_binder,
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

# One token after optional whitespace; the group that matched names its
# kind.  A keyword is never qualified, so `Type.x` is `Type`, `.`, `x`;
# any other identifier may carry one module prefix, `mod.id`.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    rf"(?P<keyword>(?:{'|'.join(_KEYWORDS)})(?![A-Za-z0-9_']))"
    rf"|(?P<IDENT>{_IDENT}(?:\.{_IDENT})?)"
    r"|(?P<comment>\(;)"
    r"|(?P<symbol>-->|->|=>|:=|[:.()\[\],])"
    rf"|(?P<command>#(?:{_IDENT})?)"
    r"|(?P<EOF>\Z)"
    r"|(?P<stray>.))"
)
_COMMENT_DELIM_RE = re.compile(r"\(;|;\)")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> tuple[list[Token], dict[int, list[Comment]]]:
    """The tokens of `text`, ending with `EOF`, and its comments keyed by
    the index of the token each one comes before."""
    tokens: list[Token] = []
    comments: dict[int, list[Comment]] = {}
    match = _TOKEN_RE.match
    pos = last = line_start = 0
    line = 1
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        # only whitespace and comments span lines, and both lie between
        # the previous token's start and this one's
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", last, start) + 1
        last = start
        col = start - line_start + 1
        word = m.group(kind)
        pos = m.end()
        if kind == "IDENT":
            tokens.append(Token("IDENT", word, line, col))
        elif kind == "comment":
            depth = 1
            while depth:
                d = _COMMENT_DELIM_RE.search(text, pos)
                if d is None:
                    raise DkSyntaxError("unterminated comment", line, col)
                depth += 1 if d.group() == "(;" else -1
                pos = d.end()
            comments.setdefault(len(tokens), []).append(Comment(text[start + 2 : pos - 2].strip(), line, col))
        elif kind == "EOF":
            tokens.append(Token("EOF", "", line, col))
            return tokens, comments
        elif kind == "stray":
            raise DkSyntaxError(f"stray character {word!r}", line, col)
        elif kind == "command" and word != "#ASSERT":
            raise DkSyntaxError(f"unknown command {word}", line, col)
        else:  # a symbol, a keyword or `#ASSERT` is its own kind
            tokens.append(Token(word, word, line, col))


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.comments = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise DkSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col, (kind,))
        return tok

    # -- entries

    def entries(self) -> list[Entry]:
        # comments inside an entry are never looked up, so they are dropped
        out: list[Entry] = []
        while True:
            out += self.comments.get(self.pos, ())
            if self.peek().kind == "EOF":
                return out
            out.append(self.entry())

    def entry(self) -> Entry:
        tok = self.peek()
        if tok.kind == "def":
            self.next()
            name = self.ident_token().text
            self.expect(":")
            ty = self.term([], ())
            self.expect(":=")
            body = self.term([], ())
            self.expect(".")
            return Def(name, ty, body, tok.line, tok.col)
        if tok.kind == "[":
            self.next()
            ctx: list[tuple[str, KTerm]] = []
            delta: list[str] = []
            if self.peek().kind != "]":
                while True:
                    name = self.ident_token(unqualified=True).text
                    self.expect(":")
                    ctx.append((name, self.term([], tuple(delta))))
                    delta.append(name)
                    if self.peek().kind != ",":
                        break
                    self.next()
            self.expect("]")
            lhs = self.term([], tuple(delta))
            self.expect("-->")
            rhs = self.term([], tuple(delta))
            self.expect(".")
            return Rule(tuple(ctx), lhs, rhs, tok.line, tok.col)
        if tok.kind == "#ASSERT":
            self.next()
            term = self.arrow([], ())
            self.expect(":")
            ty = self.term([], ())
            self.expect(".")
            return AssertType(term, ty, tok.line, tok.col)
        if tok.kind == "IDENT":
            name = self.next().text
            self.expect(":")
            ty = self.term([], ())
            self.expect(".")
            return Decl(name, ty, tok.line, tok.col)
        raise DkSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col,
            ("declaration", "def", "rewrite rule", "#ASSERT"),
        )

    def ident_token(self, unqualified: bool = False) -> Token:
        tok = self.expect("IDENT")
        if unqualified and "." in tok.text:
            raise DkSyntaxError(f"qualified name {tok.text!r} not allowed here", tok.line, tok.col)
        return tok

    # -- terms; `scope` is the binder stack (innermost last), `delta` the
    #    rule-context variables in force

    def term(self, scope: list[str], delta: tuple[str, ...]) -> KTerm:
        tok = self.peek()
        if tok.kind == "IDENT" and "." not in tok.text and self.tokens[self.pos + 1].kind == ":":
            name = self.next().text
            self.next()  # ':'
            dom = self.app(scope, delta)
            arrow_tok = self.next()
            former = {"->": Pi, "=>": Lam}.get(arrow_tok.kind)
            if former is None:
                raise DkSyntaxError(
                    f"unexpected {arrow_tok.text!r} after binder", arrow_tok.line, arrow_tok.col, ("->", "=>")
                )
            return former(name, dom, self.term(scope + [name], delta))
        return self.arrow(scope, delta)

    def arrow(self, scope: list[str], delta: tuple[str, ...]) -> KTerm:
        left = self.app(scope, delta)
        if self.peek().kind == "->":
            self.next()
            right = self.term(scope + [""], delta)
            return Pi("", left, right)
        return left

    def app(self, scope: list[str], delta: tuple[str, ...]) -> KTerm:
        t = self.atom(scope, delta)
        while self.peek().kind in ("IDENT", "Type", "Kind", "("):
            t = App(t, self.atom(scope, delta))
        return t

    def atom(self, scope: list[str], delta: tuple[str, ...]) -> KTerm:
        tok = self.next()
        if tok.kind == "Type":
            return TYPE
        if tok.kind == "Kind":
            return KIND
        if tok.kind == "IDENT":
            return self.resolve(tok.text, scope, delta)
        if tok.kind == "(":
            t = self.term(scope, delta)
            self.expect(")")
            return t
        raise DkSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col, ("term",))

    def resolve(self, name: str, scope: list[str], delta: tuple[str, ...]) -> KTerm:
        if "." not in name:
            for i, binder in enumerate(reversed(scope)):
                if binder == name:
                    return Var(i, name)
            if name in delta:
                return FVar(name)
        return Const(name)


def parse_file(text: str) -> list[Entry]:
    """Parse a whole `.dk` source text into entries."""
    return _Parser(text).entries()


def parse_term(text: str, delta: tuple[str, ...] = ()) -> KTerm:
    """Parse a single term (testing convenience)."""
    p = _Parser(text)
    t = p.term([], delta)
    p.expect("EOF")
    return t


# ---------------------------------------------------------------------------
# Printer

_PREC_TERM = 0
_PREC_ARROW = 1
_PREC_APP = 2
_PREC_ATOM = 3


def print_term(t: KTerm, scope: tuple[str, ...] = (), prec: int = _PREC_TERM) -> str:
    match t:
        case Sort(name=n):
            return n
        case Const(name=n):
            return n
        case FVar(name=n):
            return n
        case Var(index=i):
            if i < len(scope):
                return scope[-1 - i]
            return f"#{i}"
        case App(fn=f, arg=a):
            s = f"{print_term(f, scope, _PREC_APP)} {print_term(a, scope, _PREC_ATOM)}"
            return f"({s})" if prec > _PREC_APP else s
        case Lam(name=n, annot=ty, body=b):
            name = _binder_name(n, b, scope)
            s = f"{name} : {print_term(ty, scope, _PREC_APP)} => {print_term(b, scope + (name,), _PREC_TERM)}"
            return f"({s})" if prec > _PREC_TERM else s
        case Pi(name=n, domain=d, codomain=c):
            if uses_binder(c):
                name = _binder_name(n, c, scope)
                s = f"{name} : {print_term(d, scope, _PREC_APP)} -> {print_term(c, scope + (name,), _PREC_TERM)}"
                return f"({s})" if prec > _PREC_TERM else s
            s = f"{print_term(d, scope, _PREC_APP)} -> {print_term(c, scope + ('',), _PREC_TERM)}"
            return f"({s})" if prec > _PREC_ARROW else s
    raise TypeError(f"not a printable term: {t!r}")


def _binder_name(hint: str, body: KTerm, scope: tuple[str, ...]) -> str:
    """Pick a display name that reparses to the same structure.

    The name must not capture a free variable, an unqualified constant,
    or a reference to an outer binder occurring in the body.
    """
    base = hint if hint and _IDENT_RE.fullmatch(hint) and hint not in _KEYWORDS else "x"
    avoid = _captured_names(body, scope)
    name = base
    while name in avoid:
        name += "'"
    return name


def _captured_names(body: KTerm, scope: tuple[str, ...]) -> set[str]:
    out: set[str] = set()

    def walk(t: KTerm, depth: int) -> None:
        # a subtree with no free variable, no bare constant and no index
        # past the binders between it and `body` adds no name
        if t.lbr <= depth + 1 and not (t.has_fvar or t.has_bare_const):
            return
        match t:
            case Var(index=i):
                if i > depth and (i - depth) <= len(scope):
                    out.add(scope[-(i - depth)])
            case FVar(name=n):
                out.add(n)
            case Const(name=n):
                if "." not in n:
                    out.add(n)
            case App(fn=f, arg=a):
                walk(f, depth)
                walk(a, depth)
            case Lam(annot=ty, body=b) | Pi(domain=ty, codomain=b):
                walk(ty, depth)
                walk(b, depth + 1)
            case _:
                pass

    walk(body, 0)
    return out


def print_entry(e: Entry) -> str:
    match e:
        case Decl(name=n, type=ty):
            return f"{n} : {print_term(ty)}."
        case Def(name=n, type=ty, body=b):
            return f"def {n} : {print_term(ty)} := {print_term(b)}."
        case Rule(ctx=ctx, lhs=lhs, rhs=rhs):
            delta = ", ".join(f"{x} : {print_term(ty)}" for x, ty in ctx)
            return f"[{delta}] {print_term(lhs, prec=_PREC_ARROW)} --> {print_term(rhs)}."
        case AssertType(term=t, type=ty):
            return f"#ASSERT {print_term(t, prec=_PREC_ARROW)} : {print_term(ty)}."
        case Comment(text=text):
            return f"(; {text} ;)"
    raise TypeError(f"not a printable entry: {e!r}")


def print_file(entries: list[Entry]) -> str:
    """Canonical text of a `.dk` file, one entry per line."""
    return "".join(print_entry(e) + "\n" for e in entries)
