"""Embedding of the polymorphic logic into the kernel.

`prelude` produces the `logic` module: the four primitive type formers,
the twelve connective/quantifier/equality constants, and (in shallow
mode) the rewrite rules that unfold `prf` onto impredicative encodings.
The module is the packaged text `prelude/logic.dk`, parsed once per
process; deep mode keeps only its declarations.
The `translate_*` functions map logic-level types, terms, formulas,
contexts, and whole theories onto kernel entries.

Symbol naming is ASCII and module-qualified: logic constants live under
`logic.`, theory symbols under the theory's own name, so generated
preludes and user theories cannot collide.  The normative mapping from
the usual mathematical notation is in docs/symbols.md.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, Mapping, Optional

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
TRUE = Const("logic.True")
FALSE = Const("logic.False")
NOT = Const("logic.not")
AND = Const("logic.and")
OR = Const("logic.or")
IMP = Const("logic.imp")
EQV = Const("logic.eqv")
FORALL = Const("logic.forall")
FORALLTYPE = Const("logic.foralltype")
EXISTS = Const("logic.exists")
EXISTSTYPE = Const("logic.existstype")
EQ = Const("logic.eq")


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
    env = env or {}
    match ty:
        case tff.TVar(name=a):
            return env.get(a, FVar(a))
        case tff.TCons(name=c, args=args):
            head = Const(qualify(module, c)) if module else Const(c)
            return app(head, *(translate_type(a, module, env) for a in args))
    raise TypeError(ty)


def translate_term(e: tff.TffTerm, module: str = "", env: Optional[Env] = None) -> KTerm:
    """Function applications take their type arguments first, then terms."""
    env = env or {}
    match e:
        case tff.Var(name=x):
            return env.get(x, FVar(x))
        case tff.Fun(name=f, ty_args=tys, args=args):
            head = Const(qualify(module, f)) if module else Const(f)
            return app(
                head,
                *(translate_type(t, module, env) for t in tys),
                *(translate_term(a, module, env) for a in args),
            )
    raise TypeError(e)


def translate_formula(phi: tff.TffFormula, module: str = "", env: Optional[Env] = None) -> KTerm:
    """Structural map onto the logic constants; quantifiers become
    constants applied to abstractions."""
    env = env or {}

    def go(phi: tff.TffFormula, env: Env) -> KTerm:
        match phi:
            case tff.Top():
                return TRUE
            case tff.Bottom():
                return FALSE
            case tff.Not(body=b):
                return neg(go(b, env))
            case tff.And(lhs=l, rhs=r):
                return app(AND, go(l, env), go(r, env))
            case tff.Or(lhs=l, rhs=r):
                return app(OR, go(l, env), go(r, env))
            case tff.Implies(lhs=l, rhs=r):
                return app(IMP, go(l, env), go(r, env))
            case tff.Iff(lhs=l, rhs=r):
                return app(EQV, go(l, env), go(r, env))
            case tff.Eq(ty=ty, lhs=l, rhs=r):
                return app(
                    EQ,
                    translate_type(ty, module, env),
                    translate_term(l, module, env),
                    translate_term(r, module, env),
                )
            case tff.Pred(name=p, ty_args=tys, args=args):
                head = Const(qualify(module, p)) if module else Const(p)
                return app(
                    head,
                    *(translate_type(t, module, env) for t in tys),
                    *(translate_term(a, module, env) for a in args),
                )
            case tff.Forall(var=x, ty=ty, body=b) | tff.Exists(var=x, ty=ty, body=b):
                head = FORALL if isinstance(phi, tff.Forall) else EXISTS
                kty = translate_type(ty, module, env)
                u = fresh_name(x)
                body = go(b, {**env, x: FVar(u)})
                return app(head, kty, Lam(x, term(kty), abstract(body, u)))
            case tff.ForallType(tvar=a, body=b) | tff.ExistsType(tvar=a, body=b):
                head = FORALLTYPE if isinstance(phi, tff.ForallType) else EXISTSTYPE
                u = fresh_name(a)
                body = go(b, {**env, a: FVar(u)})
                return App(head, Lam(a, TYPE_C, abstract(body, u)))
        raise TypeError(phi)

    return go(phi, env)


def translate_context(ctx: tff.TffContext, module: str = "") -> list[tuple[str, KTerm]]:
    """Type variables become `type` bindings, term variables `term`-typed ones."""
    env: dict[str, KTerm] = {}
    out: list[tuple[str, KTerm]] = []
    for a in ctx.tvars:
        env[a] = FVar(a)
        out.append((a, TYPE_C))
    for x, ty in ctx.vars:
        env[x] = FVar(x)
        out.append((x, term(translate_type(ty, module, env))))
    return out


def _scheme(
    module: str,
    tvars: tuple[str, ...],
    arg_types: tuple[tff.TffType, ...],
    result: Callable[[Env], KTerm],
) -> KTerm:
    """`forall tvars. term t1 -> ... -> term tn -> result` as a kernel type."""
    env: dict[str, KTerm] = {}
    opened: list[tuple[str, str]] = []
    for a in tvars:
        u = fresh_name(a)
        env[a] = FVar(u)
        opened.append((a, u))
    body = arrow(*(term(translate_type(t, module, env)) for t in arg_types), result(env))
    for a, u in reversed(opened):
        body = Pi(a, TYPE_C, abstract(body, u))
    return body


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
            case tff.TermRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
                kctx = translate_context(tff.TffContext(tvs, ctx), module)
                env = {x: FVar(x) for x, _ in kctx}
                entries.append(Rule(tuple(kctx), translate_term(l, module, env), translate_term(r, module, env)))
            case tff.PropRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
                kctx = translate_context(tff.TffContext(tvs, ctx), module)
                env = {x: FVar(x) for x, _ in kctx}
                entries.append(Rule(tuple(kctx), translate_formula(l, module, env), translate_formula(r, module, env)))
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
