"""Embedding of the polymorphic logic into the kernel.

`prelude` produces the `logic` module: the four primitive type formers,
the twelve connective/quantifier/equality constants, and (in shallow
mode) the rewrite rules that unfold `prf` onto impredicative encodings.
The module is the packaged text `prelude/logic.dk`, parsed once per
process; deep mode keeps only its declarations.
`translate` maps logic-level types, terms and formulas onto kernel terms,
`translate_context` contexts, and `theory_entries` a whole theory onto
kernel entries; an `Env` gives each bound name its binder's level.
`translate` follows `tff.CONNECTIVES`, the one place a connective and
its `logic` constant are defined.  `EXT_RULES` is the one registry of
extension deduction rules: one row per rule gives its constant, its
kernel type and its shape.

Symbol naming is ASCII and module-qualified: logic constants live under
`logic.`, theory symbols under the theory's own name, so generated
preludes and user theories cannot collide.  `qualify` only joins the two
names: `tff.wf_theory` has already checked that the theory name and
every symbol are `.dk` identifiers.  The normative mapping from the usual
mathematical notation is in docs/symbols.md.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import tff
from .dkparse import Comment, Decl, Entry, Rule, parse_file
from .record import values as field_values
from .terms import App, Const, FVar, KTerm, Lam, Pi, Var, app, arrow

PROP = Const("logic.Prop")
PRF = Const("logic.prf")
TYPE_C = Const("logic.type")
TERM = Const("logic.term")
FALSE = Const("logic.False")
NOT = Const("logic.not")
FORALL = Const("logic.forall")
EXISTS = Const("logic.exists")
_HEADS = {row.cls: Const(row.const) for row in tff.CONNECTIVES if row.const is not None}


def plain(kinds: Iterable[tff.FieldKind]) -> bool:
    """Whether fields of these kinds are each one formula, term or type,
    so each translates to one kernel argument (`translate_all`)."""
    return all(k in (tff.FORMULA, tff.TY, tff.TERM) for k in kinds)


# the connectives with plain fields: their constant applied to each
# field's translation
_DIRECT = frozenset(row.cls for row in tff.CONNECTIVES if row.const is not None and plain(row.kinds))
# predicates, functions and type constructors: their symbol applied to the
# translation of each item of their lists
_APPLIED = frozenset(cls for cls, row in tff.ROWS.items()
                     if row.kinds[:1] == (tff.SYMBOL,) and all(k in (tff.TYS, tff.ARGS) for k in row.kinds[1:]))


def prf(t: KTerm) -> KTerm:
    return App(PRF, t)


def term(t: KTerm) -> KTerm:
    return App(TERM, t)


def neg(t: KTerm) -> KTerm:
    return App(NOT, t)


def qualify(module: str, name: str) -> str:
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

# bound names -> the levels of their binders, outermost 0: under `depth`
# binders a name bound at `level` is the index `depth - level - 1`
Env = Mapping[str, int]


class Memo(dict):
    """The translations of the nodes one caller translates, each entry
    holding its node, so no id names two nodes while the memo lives.

    Under no binder a node is keyed by its id.  Under binders its
    translation depends on the indices its free names take, so it is
    keyed by its id and those indices; `free` gives the names free in a
    node."""

    def __init__(self, free: Callable[[object], Iterable[str]]):
        super().__init__()
        self.free = free

    def key(self, x: object, env: Env, depth: int) -> object:
        """The key of `x` under the binders of a non-empty `env`."""
        indices = tuple(-1 if (level := env.get(v)) is None else depth - level - 1 for v in self.free(x))
        return (id(x), indices) if any(i >= 0 for i in indices) else id(x)


def translate(
    x: object, module: str = "", env: Optional[Env] = None, depth: int = 0, memo: Optional[Memo] = None
) -> KTerm:
    """A formula, term or type, following its `tff` row: the row's `logic`
    constant applied to the translated fields.  A row without a constant
    has its head symbol, or its variable, as first field: a predicate,
    function or type constructor becomes its symbol, qualified by `module`,
    applied to its type arguments, then its terms; a variable bound in
    `env` becomes its index under `depth` binders, and unbound ones map to
    themselves.  A bound variable and the body after it become one
    abstraction.  With `memo`, a node translates to one shared term however
    often it is met where its free names have the same indices."""
    return translate_all((x,), module, {} if env is None else env, depth, memo)[0]


def translate_all(xs: Iterable[object], module: str, env: Env, depth: int, memo: Optional[Memo] = None) -> list[KTerm]:
    """The translation of each of `xs` under the same binders, as `translate` gives it."""
    out = []
    for x in xs:
        key = None if memo is None else id(x) if not env else memo.key(x, env, depth)
        if key is not None and (hit := memo.get(key)) is not None:
            out.append(hit[1])
            continue
        if x.__class__ in _DIRECT:
            t, args = _HEADS[x.__class__], translate_all(field_values(x), module, env, depth, memo)
        elif x.__class__ in _APPLIED:
            name, *lists = field_values(x)
            t = Const(qualify(module, name) if module else name)
            args = translate_all([y for items in lists for y in items], module, env, depth, memo)
        else:  # a variable or a binder
            row = tff.row_of(x)
            t = _HEADS.get(row.cls)
            if t is None:
                v = getattr(x, row.fields[0][0])
                level = env.get(v)
                out.append(FVar(v) if level is None else Var(depth - level - 1, v))
                continue
            args = translate_fields(row.fields, x, module, env, depth, memo)
        for a in args:
            t = App(t, a)
        if key is not None:
            memo[key] = (x, t)
        out.append(t)
    return out


def translate_fields(
    fields: Iterable[tuple[str, tff.FieldKind]], x: object, module: str, env: Env, depth: int,
    memo: Optional[Memo] = None,
) -> list[KTerm]:
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
                args.append(translate(v, module, env, depth, memo))
            else:
                annot = TYPE_C if bound_kind is tff.BOUND_TY else term(kty)
                args.append(Lam(bound, annot, translate(v, module, {**env, bound: depth}, depth + 1, memo)))
        elif kind is tff.TY:
            kty = translate(v, module, env, depth, memo)
            args.append(kty)
        elif kind is tff.TERM:
            args.append(translate(v, module, env, depth, memo))
        elif kind is tff.TYS or kind is tff.ARGS or kind is tff.TERMS:
            for y in v:
                args.append(translate(y, module, env, depth, memo))
        elif kind is tff.BOUND or kind is tff.BOUND_TY:
            bound, bound_kind = v, kind
    return args


def translate_context(ctx: tff.TffContext, module: str = "") -> list[tuple[str, KTerm]]:
    """Type variables become `type` bindings, term variables `term`-typed
    ones; each name stays free in the types after it."""
    return [(a, TYPE_C) for a in ctx.tvars] + [(x, term(translate(ty, module))) for x, ty in ctx.vars]


def _scheme(
    module: str, tvars: tuple[str, ...], arg_types: tuple[tff.TffType, ...], result: Optional[tff.TffType]
) -> KTerm:
    """`forall tvars. term t1 -> ... -> term tn -> term result` as a kernel type, `Prop` for no `result`."""
    env, depth = {a: level for level, a in enumerate(tvars)}, len(tvars)
    ty = arrow(*(term(translate(t, module, env, depth)) for t in arg_types),
               PROP if result is None else term(translate(result, module, env, depth)))
    for a in reversed(tvars):
        ty = Pi(a, TYPE_C, ty)
    return ty


def theory_entries(thy: tff.TffTheory) -> list[Entry]:
    """Kernel entries for one theory (without the logic prelude)."""
    module = thy.name
    entries: list[Entry] = []
    for item in thy.items:
        match item:
            case tff.TypeCons(name=n, arity=m):
                entries.append(Decl(qualify(module, n), arrow(*([TYPE_C] * m), TYPE_C)))
            case tff.FunDecl(name=n, tvars=tvs, arg_types=args, result=res):
                entries.append(Decl(qualify(module, n), _scheme(module, tvs, args, res)))
            case tff.PredDecl(name=n, tvars=tvs, arg_types=args):
                entries.append(Decl(qualify(module, n), _scheme(module, tvs, args, None)))
            case tff.Axiom(name=n, formula=phi):
                entries.append(Decl(qualify(module, n), prf(translate(phi, module))))
            case tff.TermRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r) | tff.PropRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
                kctx = translate_context(tff.TffContext(tvs, ctx), module)
                entries.append(Rule(tuple(kctx), translate(l, module), translate(r, module)))
            case tff.ExtDecl(name=n):
                entries.append(ext_declaration(n, module))
    return entries


# ---------------------------------------------------------------------------
# Extension deduction rules (constants declared alongside a theory)


class UnknownExtension(Exception):
    def __init__(self, name: str):
        super().__init__(f"unregistered extension rule {name!r}")
        self.name = name


def _bool_case_type(module: str, on_notforall: bool) -> KTerm:
    """Refuting `P true` and `P false` refutes `exists bool P`; with `not`s, `not (forall bool P)`."""
    boolc, p = Const(qualify(module, "bool")), Var(0, "P")
    hyps = [App(p, Const(qualify(module, b))) for b in ("true", "false")]
    if on_notforall:
        hyps, concl = [neg(h) for h in hyps], neg(app(FORALL, boolc, p))
    else:
        concl = app(EXISTS, boolc, p)
    refutations = [arrow(prf(h), prf(FALSE)) for h in hyps]
    return Pi("P", arrow(term(boolc), PROP), arrow(*refutations, prf(concl), prf(FALSE)))


class ExtRule(NamedTuple):
    """One registered extension deduction rule: the basename of its
    constant in the theory module, its kernel type given that module, and
    the numbers of its `abs` arguments and of its premises."""

    const: str
    type: Callable[[str], KTerm]
    n_abs: int
    n_premises: int


EXT_RULES: dict[str, ExtRule] = {
    "bool-case-notforall": ExtRule("R_bool_case_nf", lambda m: _bool_case_type(m, True), 1, 2),
    "bool-case-exists": ExtRule("R_bool_case_ex", lambda m: _bool_case_type(m, False), 1, 2),
}


def ext_declaration(name: str, module: str) -> Decl:
    try:
        rule = EXT_RULES[name]
    except KeyError:
        raise UnknownExtension(name) from None
    return Decl(qualify(module, rule.const), rule.type(module))
