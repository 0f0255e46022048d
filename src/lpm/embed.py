"""Embedding of the polymorphic logic into the kernel.

`prelude` produces the `logic` module: the four primitive type formers,
the twelve connective/quantifier/equality constants, and (in shallow
mode) the rewrite rules that unfold `prf` onto impredicative encodings.
The module is the packaged text `prelude/logic.dk`, parsed once per
process; deep mode keeps only its declarations.
The `translate_*` functions map logic-level types, terms, formulas,
contexts, and whole theories onto kernel entries.  `translate_formula`
follows `tff.CONNECTIVES`, the one place a connective and its `logic`
constant are defined.

Symbol naming is ASCII and module-qualified: logic constants live under
`logic.`, theory symbols under the theory's own name, so generated
preludes and user theories cannot collide.  The normative mapping from
the usual mathematical notation is in docs/symbols.md.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

from . import kernel, signature, tff
from .dkparse import Comment, Decl, Entry, Rule, parse_file
from .terms import (
    App,
    Const,
    FVar,
    KTerm,
    Lam,
    Pi,
    abstract,
    app,
    arrow,
    fresh_name,
    pi,
)

PROP = Const("logic.Prop")
PRF = Const("logic.prf")
TYPE_C = Const("logic.type")
TERM = Const("logic.term")
FALSE = Const("logic.False")
NOT = Const("logic.not")
FORALL = Const("logic.forall")
EXISTS = Const("logic.exists")
_HEADS = {row.cls: Const(row.const) for row in tff.CONNECTIVES if row.const is not None}


def prf(t: KTerm) -> KTerm:
    return App(PRF, t)


def term(t: KTerm) -> KTerm:
    return App(TERM, t)


def neg(t: KTerm) -> KTerm:
    return App(NOT, t)


_MODULE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*$")


def qualify(module: str, name: str) -> str:
    if not _MODULE_RE.match(module) or not _MODULE_RE.match(name):
        raise ValueError(f"bad symbol name {module}.{name}")
    return f"{module}.{name}"


@functools.cache
def _packaged(name: str) -> tuple[Entry, ...]:
    """The entries of `prelude/<name>.dk`, comments dropped; parsed once per process."""
    text = (Path(__file__).parent / "prelude" / f"{name}.dk").read_text(encoding="utf-8")
    return tuple(e for e in parse_file(text) if not isinstance(e, Comment))


def packaged_prelude(name: str, mode: str) -> list[Entry]:
    """A fresh list of the packaged module `name` in `mode`: the whole file
    in shallow mode, only its declarations in deep mode."""
    if mode not in ("deep", "shallow"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "deep":
        return [e for e in _packaged(name) if isinstance(e, Decl)]
    return list(_packaged(name))


def prelude(mode: str = "shallow") -> list[Entry]:
    """The `logic` module: primitive declarations plus, in shallow mode,
    the rewrite rules giving the connectives computational meaning."""
    return packaged_prelude("logic", mode)


# ---------------------------------------------------------------------------
# Translation functions

Env = Mapping[str, KTerm]


def translate_type(ty: tff.TffType, module: str = "", env: Optional[Env] = None) -> KTerm:
    """Type variables map to themselves, constructors to curried applications."""
    return _translate(ty, module, env or {})


def translate_term(e: tff.TffTerm, module: str = "", env: Optional[Env] = None) -> KTerm:
    """Function applications take their type arguments first, then terms."""
    return _translate(e, module, env or {})


def translate_formula(phi: tff.TffFormula, module: str = "", env: Optional[Env] = None) -> KTerm:
    """The row's `logic` constant (a predicate's own symbol) applied to the
    translated fields; a bound variable and the body after it become one
    abstraction."""
    return _translate(phi, module, env or {})


def _translate(x: object, module: str, env: Env) -> KTerm:
    """A formula, term or type, following its `tff` row: the row's head
    applied to the translated fields.  A row without a constant has its
    head symbol, or its variable, as first field; a variable is looked up
    in `env`, unbound ones map to themselves."""
    row = tff.row_of(x)
    head = _HEADS.get(row.cls)
    if head is None:
        name, kind = row.fields[0]
        v = getattr(x, name)
        if kind is not tff.SYMBOL:
            return env.get(v, FVar(v))
        head = Const(qualify(module, v)) if module else Const(v)
    return app(head, *translate_fields(row.fields, x, module, env))


def translate_fields(fields: Iterable[tuple[str, tff.FieldKind]], x: object, module: str, env: Env) -> list[KTerm]:
    """The kernel arguments of the named fields of `x`, given with their
    kinds, in order: one per formula, type or term and per item of a list.
    A bound variable and the formula after it give one abstraction, over
    the latest type field (over `type` for a type variable); names give
    none."""
    args: list[KTerm] = []
    bound = kty = None
    for name, kind in fields:
        v = getattr(x, name)
        if kind is tff.FORMULA:
            if bound is None:
                args.append(_translate(v, module, env))
            else:
                annot = TYPE_C if bound_kind is tff.BOUND_TY else term(kty)
                args.append(bind(Lam, bound, annot, env, lambda env: _translate(v, module, env)))
        elif kind is tff.TY:
            kty = _translate(v, module, env)
            args.append(kty)
        elif kind is tff.TERM:
            args.append(_translate(v, module, env))
        elif kind is tff.TYS or kind is tff.ARGS or kind is tff.TERMS:
            for y in v:
                args.append(_translate(y, module, env))
        elif kind is tff.BOUND or kind is tff.BOUND_TY:
            bound, bound_kind = v, kind
    return args


def bind(
    former: Callable[[str, KTerm, KTerm], KTerm],
    name: str,
    annot: KTerm,
    env: Env,
    body: Callable[[Env], KTerm],
) -> KTerm:
    """`former` (`Lam` or `Pi`) binding `name : annot` over `body(env)`,
    which sees `name` as a fresh variable."""
    u = fresh_name(name)
    return former(name, annot, abstract(body({**env, name: FVar(u)}), u))


def translate_context(ctx: tff.TffContext, module: str = "") -> list[tuple[str, KTerm]]:
    """Type variables become `type` bindings, term variables `term`-typed
    ones; each name stays free in the types after it."""
    return [(a, TYPE_C) for a in ctx.tvars] + [(x, term(translate_type(ty, module))) for x, ty in ctx.vars]


def _scheme(
    module: str,
    tvars: tuple[str, ...],
    arg_types: tuple[tff.TffType, ...],
    result: Callable[[Env], KTerm],
) -> KTerm:
    """`forall tvars. term t1 -> ... -> term tn -> result` as a kernel type."""

    def under(i: int, env: Env) -> KTerm:
        if i < len(tvars):
            return bind(Pi, tvars[i], TYPE_C, env, lambda env: under(i + 1, env))
        return arrow(*(term(translate_type(t, module, env)) for t in arg_types), result(env))

    return under(0, {})


def theory_entries(thy: tff.TffTheory, module: Optional[str] = None) -> list[Entry]:
    """Kernel entries for one theory (without the logic prelude)."""
    module = module or thy.name
    entries: list[Entry] = []
    for item in thy.items:
        match item:
            case tff.TypeCons(name=n, arity=m):
                entries.append(Decl(qualify(module, n), arrow(*([TYPE_C] * m), TYPE_C)))
            case tff.FunDecl(name=n, tvars=tvs, arg_types=args, result=res):
                ty = _scheme(module, tvs, args, lambda env: term(translate_type(res, module, env)))
                entries.append(Decl(qualify(module, n), ty))
            case tff.PredDecl(name=n, tvars=tvs, arg_types=args):
                ty = _scheme(module, tvs, args, lambda env: PROP)
                entries.append(Decl(qualify(module, n), ty))
            case tff.Axiom(name=n, formula=phi):
                entries.append(Decl(qualify(module, n), prf(translate_formula(phi, module))))
            case tff.TermRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r) | tff.PropRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
                kctx = translate_context(tff.TffContext(tvs, ctx), module)
                entries.append(Rule(tuple(kctx), _translate(l, module, {}), _translate(r, module, {})))
            case tff.ExtDecl(name=n):
                entries.append(ext_declaration(n, module))
    return entries


def translate_theory(
    thy: tff.TffTheory,
    module: Optional[str] = None,
    mode: str = "shallow",
    fuel: Optional[kernel.Fuel] = None,
) -> signature.Signature:
    """Signature holding the logic prelude followed by the theory."""
    entries = prelude(mode) + theory_entries(thy, module)
    return signature.install_entries(signature.EMPTY, entries, fuel)


# ---------------------------------------------------------------------------
# Extension deduction rules (constants declared alongside a theory)


class UnknownExtension(Exception):
    def __init__(self, name: str):
        super().__init__(f"unregistered extension rule {name!r}")
        self.name = name


def _bool_case_type(module: str, on_notforall: bool) -> KTerm:
    boolc = Const(qualify(module, "bool"))
    true_c = Const(qualify(module, "true"))
    false_c = Const(qualify(module, "false"))

    def branch(p: KTerm, value: KTerm) -> KTerm:
        hyp = neg(App(p, value)) if on_notforall else App(p, value)
        return arrow(prf(hyp), prf(FALSE))

    def concl(p: KTerm) -> KTerm:
        if on_notforall:
            return neg(app(FORALL, boolc, p))
        return app(EXISTS, boolc, p)

    return pi(
        "P",
        arrow(term(boolc), PROP),
        lambda p: arrow(branch(p, true_c), branch(p, false_c), prf(concl(p)), prf(FALSE)),
    )


# name -> (constant basename, kernel type builder given the theory module)
EXT_CONSTANTS: dict[str, tuple[str, Callable[[str], KTerm]]] = {
    "bool-case-notforall": ("R_bool_case_nf", lambda m: _bool_case_type(m, True)),
    "bool-case-exists": ("R_bool_case_ex", lambda m: _bool_case_type(m, False)),
}


def ext_declaration(name: str, module: str) -> Decl:
    try:
        basename, mk_type = EXT_CONSTANTS[name]
    except KeyError:
        raise UnknownExtension(name) from None
    return Decl(qualify(module, basename), mk_type(module))


def ext_constant(name: str, module: str) -> Const:
    basename, _ = EXT_CONSTANTS[name]
    return Const(qualify(module, basename))
