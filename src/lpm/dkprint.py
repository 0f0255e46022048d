"""Printer for the `.dk` surface syntax, outside the trusted base: `lpm check`
loads it only to word a rejection (`describe`, when the error is read), and
`lpm translate` compares each file it prints, read back, with the entries
printed.

Printing is canonical: `parse(print(e))` is structurally `e`, and
printing a reparsed entry reproduces the text byte for byte.  A compound
term with no loose index, free variable or bare constant prints the same
under any binders: a file is emitted as one list of pieces, and a later
occurrence of such a term copies the span of its first.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Callable, Sequence

from . import kernel
from .dkparse import _IDENT_RE, _KEYWORDS, AssertType, Comment, Decl, Def, Entry, Rule, _Scope
from .terms import App, Const, FVar, KTerm, Lam, Pi, Sort, Var


def uses_binder(body: KTerm, depth: int = 0) -> bool:
    """True when `body` references the binder at index `depth`."""
    if body.lbr <= depth:
        return False
    match body:
        case Var(index=i):
            return i == depth
        case App(fn=f, arg=a):
            return uses_binder(f, depth) or uses_binder(a, depth)
        case Lam(annot=ty, body=b) | Pi(domain=ty, codomain=b):
            return uses_binder(ty, depth) or uses_binder(b, depth + 1)


_PREC_TERM = 0
_PREC_ARROW = 1
_PREC_APP = 2
_PREC_ATOM = 3


def print_term(t: KTerm, scope: tuple[str, ...] = (), prec: int = _PREC_TERM) -> str:
    out: list[str] = []
    _emit(t, _Scope(scope), prec, out, {})
    return "".join(out)


def _emit(t: KTerm, scope: _Scope, prec: int, out: list[str], spans: dict) -> None:
    """Append the pieces of `t`'s text under the binder names `scope` to
    `out`; `spans` keeps where those of each closed compound term lie, by `(id, prec)`."""
    cls = t.__class__
    if cls is Const or cls is Sort or cls is FVar:
        return out.append(t.name)
    if cls is Var:
        return out.append(scope[-1 - t.index] if t.index < len(scope) else f"#{t.index}")
    key = (id(t), prec) if t.lbr == 0 and not (t.has_fvar or t.has_bare_const) else None
    if key in spans:
        start, end = spans[key]
        return out.extend(out[start:end])
    start = len(out)
    # every compound term prints as `[name : ]left sep right`
    if cls is App:
        bar, head, left, sep, right, bound, right_prec = _PREC_APP, "", t.fn, " ", t.arg, None, _PREC_ATOM
    elif cls is Lam or cls is Pi:
        left, right = (t.annot, t.body) if cls is Lam else (t.domain, t.codomain)
        if cls is Lam or uses_binder(right):
            name = _binder_name(t.name, right, scope)
            bar, head, sep, bound = _PREC_TERM, f"{name} : ", " => " if cls is Lam else " -> ", name
        else:
            bar, head, sep, bound = _PREC_ARROW, "", " -> ", ""
        right_prec = _PREC_TERM
    else:
        raise TypeError(f"not a printable term: {t!r}")
    if prec > bar or head:
        out.append("(" + head if prec > bar else head)
    _emit(left, scope, _PREC_APP, out, spans)
    out.append(sep)
    if bound is not None:
        scope.push(bound)
    _emit(right, scope, right_prec, out, spans)
    if bound is not None:
        scope.drop()
    if prec > bar:
        out.append(")")
    if key:
        spans[key] = (start, len(out))


def _binder_name(hint: str, body: KTerm, scope: Sequence[str]) -> str:
    """Pick a display name that reparses to the same structure.

    The name must not capture a free variable, an unqualified constant,
    or a reference to an outer binder occurring in the body.
    """
    name = hint if hint and _IDENT_RE.fullmatch(hint) and hint not in _KEYWORDS else "x"
    # only an outer binder's name, a free variable or a bare constant can be captured
    if name in scope or body.has_fvar or body.has_bare_const:
        avoid = _captured_names(body, scope)
        while name in avoid:
            name += "'"
    return name


def _captured_names(body: KTerm, scope: Sequence[str]) -> set[str]:
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

    walk(body, 0)
    return out


def describe(e: Exception) -> str:
    """A kernel or signature error's message, worded when read: each term in a `{}` slot printed under
    the enclosing binders' names primed apart (a closed term under none), a type mismatch's sides
    normalized within 10,000 of its steps."""
    if len(e.args) < 2:
        return Exception.__str__(e)
    text, *parts, binders = e.args
    for i, t in enumerate(parts if isinstance(e, kernel.TypeMismatch) and e.sig is not None else ()):
        with suppress(kernel.FuelExhausted):  # a side whose normal form is out of reach shows as compared
            parts[i] = kernel.normalize(e.sig, t, kernel.Fuel(min(e.steps, 10_000)))
    names: dict[str, None] = {}  # ordered, with constant-time lookups
    # a closed term prints the same under any binders, so it is printed under none
    if any(isinstance(p, KTerm) and p.lbr for p in parts):
        for n, _ in binders:
            n = n or "x"
            while n in names:
                n += "'"
            names[n] = None
    return text.format(*(print_term(p, tuple(names) if p.lbr else ()) if isinstance(p, KTerm) else p for p in parts))


def print_entry(e: Entry, show: Callable[..., str] = print_term) -> str:
    """The text of `e`, each term as `show(term, prec=...)` prints it."""
    match e:
        case Decl(name=n, type=ty):
            return f"{n} : {show(ty)}."
        case Def(name=n, type=ty, body=b):
            return f"def {n} : {show(ty)} := {show(b)}."
        case Rule(ctx=ctx, lhs=lhs, rhs=rhs):
            delta = ", ".join(f"{x} : {show(ty)}" for x, ty in ctx)
            return f"[{delta}] {show(lhs, prec=_PREC_ARROW)} --> {show(rhs)}."
        case AssertType(term=t, type=ty):
            return f"#ASSERT {show(t, prec=_PREC_ARROW)} : {show(ty)}."
        case Comment(text=text):
            return f"(; {text} ;)"
    raise TypeError(f"not a printable entry: {e!r}")


def print_file(entries: list[Entry]) -> str:
    """Canonical text of a `.dk` file, one entry per line."""
    out: list[str] = []
    spans: dict[tuple[int, int], tuple[int, int]] = {}

    def show(t: KTerm, prec: int = _PREC_TERM) -> str:
        start = len(out)
        _emit(t, _Scope(), prec, out, spans)
        return "".join(out[start:])

    return "".join(print_entry(e, show) + "\n" for e in entries)
