"""Polymorphic first-order logic with rewrite rules: syntax and checking.

The logic has rank-1 polymorphic type constructors, function and
predicate symbols with explicit type arguments, primitive typed
equality, term and type quantifiers, and two kinds of rewrite rules:
term rules between terms of a common type and proposition rules whose
left-hand side is an atomic formula.

Theories are read from `.tffx` files (an S-expression schema, see
docs/format-tffx.md) and checked by `wf_theory` before translation.

`CONNECTIVES` is the one place a connective is defined: one row per
formula class gives its `.tffx` tag, the kind of each field and the
`logic` constant it embeds to.  Well-formedness, free variables,
substitution, the `.tffx` reader and writer, and `embed.translate` are
all derived from the row.  Terms and types have rows in the same
lookup (`row_of`), so one free-name walk, one substitution walk and one
embedding cover every node.  `ITEMS` does the same for theory items: one
row per item class gives its `.tffx` tag and field kinds, from which the
item reader and writer follow.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Optional, TypeVar, Union

from . import dkparse, sexp
from .record import Record, values as field_values

# ---------------------------------------------------------------------------
# Syntax: `Record`s, hashed once, at construction, so no dict walks them


class TVar(Record):
    name: str

    def __str__(self) -> str:
        return self.name


class TCons(Record):
    name: str
    args: tuple["TffType", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


TffType = Union[TVar, TCons]


class Var(Record):
    name: str


class Fun(Record):
    name: str
    ty_args: tuple[TffType, ...] = ()
    args: tuple["TffTerm", ...] = ()


TffTerm = Union[Var, Fun]


class TffFormula(Record):
    """A formula: an instance of one of the classes in `CONNECTIVES`."""


class Top(TffFormula):
    pass


class Bottom(TffFormula):
    pass


class Not(TffFormula):
    body: TffFormula


class And(TffFormula):
    lhs: TffFormula
    rhs: TffFormula


class Or(TffFormula):
    lhs: TffFormula
    rhs: TffFormula


class Implies(TffFormula):
    lhs: TffFormula
    rhs: TffFormula


class Iff(TffFormula):
    lhs: TffFormula
    rhs: TffFormula


class Eq(TffFormula):
    ty: TffType
    lhs: TffTerm
    rhs: TffTerm


class Pred(TffFormula):
    name: str
    ty_args: tuple[TffType, ...] = ()
    args: tuple[TffTerm, ...] = ()


class Forall(TffFormula):
    var: str
    ty: TffType
    body: TffFormula


class Exists(TffFormula):
    var: str
    ty: TffType
    body: TffFormula


class ForallType(TffFormula):
    tvar: str
    body: TffFormula


class ExistsType(TffFormula):
    tvar: str
    body: TffFormula


# ---------------------------------------------------------------------------
# Theories


class TypeCons(Record):
    name: str
    arity: int


class FunDecl(Record):
    name: str
    tvars: tuple[str, ...]
    arg_types: tuple[TffType, ...]
    result: TffType


class PredDecl(Record):
    name: str
    tvars: tuple[str, ...]
    arg_types: tuple[TffType, ...]


class Axiom(Record):
    name: str
    formula: TffFormula


class TermRule(Record):
    tvars: tuple[str, ...]
    ctx: tuple[tuple[str, TffType], ...]
    lhs: TffTerm
    rhs: TffTerm


class PropRule(Record):
    tvars: tuple[str, ...]
    ctx: tuple[tuple[str, TffType], ...]
    lhs: TffFormula
    rhs: TffFormula


class ExtDecl(Record):
    """Reference to a registered extension deduction rule of the theory."""

    name: str


TheoryItem = Union[TypeCons, FunDecl, PredDecl, Axiom, TermRule, PropRule, ExtDecl]


class TffTheory(Record):
    name: str
    items: tuple[TheoryItem, ...]


class TffContext(Record):
    """Term variables in order plus the type variables in scope."""

    tvars: tuple[str, ...] = ()
    vars: tuple[tuple[str, TffType], ...] = ()

    def lookup(self, name: str) -> Optional[TffType]:
        for x, ty in reversed(self.vars):
            if x == name:
                return ty
        return None

    def bind(self, name: str, ty: TffType) -> "TffContext":
        return TffContext(self.tvars, self.vars + ((name, ty),))

    def bind_tvar(self, name: str) -> "TffContext":
        return TffContext(self.tvars + (name,), self.vars)


# ---------------------------------------------------------------------------
# Errors


class TffError(Exception):
    pass


class UnknownConstructor(TffError):
    pass


class ArityMismatch(TffError):
    pass


class UnboundTypeVariable(TffError):
    pass


class UnknownSymbol(TffError):
    pass


class ArgTypeMismatch(TffError):
    pass


class EqTypeMismatch(TffError):
    pass


class NonAtomicLhs(TffError):
    pass


class DuplicateSymbol(TffError):
    pass


class RuleViolation(TffError):
    pass


class TheoryItemError(TffError):
    """Failure of one theory item, with its position."""

    def __init__(self, index: int, item: TheoryItem, cause: TffError):
        super().__init__(f"item {index} ({type(item).__name__}): {cause}")
        self.index = index
        self.item = item
        self.cause = cause


# ---------------------------------------------------------------------------
# S-expression syntax of types and terms (.tffx)


class FormatError(TffError):
    """A well-formed S-expression that is not the expected form; `sx` is the
    one it is about, if any, and `read_text` places it at `line`:`col`."""

    def __init__(self, message: str, sx: object = None):
        super().__init__(message)
        self.message, self.sx, self.line, self.col = message, sx, 0, 0

    def within(self, form: list) -> FormatError:
        """This error, moved to `form` if it is about an atom: `loads` shares an atom's occurrences."""
        if not isinstance(self.sx, list):
            self.sx = form
        return self


_Read = TypeVar("_Read")


def read_text(text: str, read: Callable[[object], _Read]) -> _Read:
    """`read` of the one S-expression in `text`.  A `FormatError` gets the
    position of the first occurrence of its S-expression, looked up only
    then: `loads` shares equal lists, so their positions are not kept."""
    sx = sexp.loads_one(text)
    try:
        return read(sx)
    except FormatError as e:
        if e.sx is not None:
            e.line, e.col = sexp.position_of(text, e.sx)
        raise


def _expect_len(sx: list, n: int) -> None:
    if len(sx) != n:
        raise FormatError(f"{sx[0]} expects {n - 1} fields: {sexp.dumps_prefix(sx)}", sx)


def _symbol(x: object) -> str:
    if not isinstance(x, str):
        raise FormatError(f"expected a symbol, found {sexp.dumps_prefix(x)}", x)
    return x


def _int(x: object) -> int:
    if not isinstance(x, int):
        raise FormatError(f"expected an integer, found {sexp.dumps_prefix(x)}", x)
    return x


def _list(x: object) -> list:
    if not isinstance(x, list):
        raise FormatError(f"expected a list, found {sexp.dumps_prefix(x)}", x)
    return x


def type_from_sexp(sx: object, tvars: AbstractSet[str], cons: set[str]) -> TffType:
    """A bare symbol is a type variable when one of that name is in scope
    (`tvars`), else a constructor when one of that name is declared, else
    a type variable."""
    if isinstance(sx, str):
        if sx in tvars or sx not in cons:
            return TVar(sx)
        return TCons(sx, ())
    if isinstance(sx, list) and sx and isinstance(sx[0], str):
        return TCons(sx[0], tuple(type_from_sexp(a, tvars, cons) for a in sx[1:]))
    raise FormatError(f"bad type {sexp.dumps_prefix(sx)}", sx)


def term_from_sexp(sx: object, cons: set[str], tvars: frozenset[str] = frozenset()) -> TffTerm:
    if isinstance(sx, str):
        return Var(sx)
    if isinstance(sx, list) and len(sx) >= 2 and isinstance(sx[0], str) and isinstance(sx[1], list):
        ty_args = tuple(type_from_sexp(t, tvars, cons) for t in sx[1])
        args = tuple(term_from_sexp(a, cons, tvars) for a in sx[2:])
        return Fun(sx[0], ty_args, args)
    raise FormatError(f"bad term {sexp.dumps_prefix(sx)}", sx)


def type_to_sexp(ty: TffType, cons: set[str], tvars: frozenset[str] = frozenset()) -> object:
    """A nullary constructor is written bare unless a type variable in scope shadows it."""
    match ty:
        case TVar(name=a):
            return a
        case TCons(name=c, args=args):
            if not args and c in cons and c not in tvars:
                return c
            return [c] + [type_to_sexp(a, cons, tvars) for a in args]
    raise TypeError(ty)


def term_to_sexp(e: TffTerm, cons: set[str], tvars: frozenset[str] = frozenset()) -> object:
    match e:
        case Var(name=x):
            return x
        case Fun(name=f, ty_args=tys, args=args):
            return [f, [type_to_sexp(t, cons, tvars) for t in tys]] + [term_to_sexp(a, cons, tvars) for a in args]
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Field kinds and connectives

_Row = TypeVar("_Row")


class FieldKind(Record):
    """What a field of a formula, theory item, rule or extension argument
    holds, and how `.tffx`/`.llpx` read and write it.

    `read(sx, cons, tvars)` and `write(value, cons, tvars)` are given the
    declared type constructors and the type variables in scope.  Each kind
    has its own name, and code tells kinds apart with `is`.
    """

    name: str
    read: Callable[[object, set[str], frozenset[str]], object]
    write: Callable[[object, set[str], frozenset[str]], object]


def symbol_kind(name: str) -> FieldKind:
    return FieldKind(name, lambda sx, cons, tvars: _symbol(sx), lambda v, cons, tvars: v)


def list_kind(name: str, item: FieldKind) -> FieldKind:
    return FieldKind(
        name,
        lambda sx, cons, tvars: tuple([item.read(x, cons, tvars) for x in _list(sx)]),
        lambda v, cons, tvars: [item.write(x, cons, tvars) for x in v],
    )


def read_fields(kinds: Iterable[FieldKind], sxs: list, cons: Constructors, tvars: frozenset[str], form: list) -> list:
    """One value per kind from `sxs`, the fields of `form`; a bound type
    variable is in scope in the field after it, the names of a `TVARS`
    field in every later field.  An error about an atom in a field is
    placed at `form`."""
    out = []
    scope = tvars
    try:
        for kind, sx in zip(kinds, sxs):
            v = kind.read(sx, cons, scope)
            if kind is TVARS:
                tvars = tvars | frozenset(v)
            scope = tvars | {v} if kind is BOUND_TY else tvars
            out.append(v)
    except FormatError as e:
        raise e.within(form)
    return out


def write_fields(kinds: Iterable[FieldKind], values: Iterable, cons: set[str], tvars: frozenset[str]) -> list:
    """The S-expressions of `values`, scoped as `read_fields` reads them."""
    out = []
    scope = tvars
    for kind, v in zip(kinds, values):
        out.append(kind.write(v, cons, scope))
        if kind is TVARS:
            tvars = tvars | frozenset(v)
        scope = tvars | {v} if kind is BOUND_TY else tvars
    return out


def tagged_row(sx: object, rows: Mapping[str, _Row], what: str) -> _Row:
    """The row of the tag of a `(TAG field ...)` form of a `what`."""
    if not (isinstance(sx, list) and sx and isinstance(sx[0], str)):
        raise FormatError(f"bad {what} {sexp.dumps_prefix(sx)}", sx)
    row = rows.get(sx[0])
    if row is None:
        raise FormatError(f"unknown {what} tag {sx[0]!r}", sx)
    return row


class Constructors(set):
    """The declared type constructors of one `.tffx`/`.llpx` read call, and
    the call's formula memo: `formula_from_sexp` reads each pair of a
    hash-consed S-expression (see `sexp.loads`) and type variables in
    scope once, so equal formulas of one call are one object.  The memo
    keys by `id` and holds each S-expression it keys, so no id names two
    lists while it lives; it goes with its read call."""

    __slots__ = ("memo",)

    def __init__(self, names: Iterable[str] = ()):
        super().__init__(names)
        self.memo: dict[tuple[int, frozenset[str]], tuple[object, TffFormula]] = {}


def formula_from_sexp(sx: object, cons: Constructors, tvars: frozenset[str] = frozenset()) -> TffFormula:
    key = (id(sx), tvars)
    hit = cons.memo.get(key)
    if hit is None:
        hit = cons.memo[key] = (sx, _formula_from_sexp(sx, cons, tvars))
    return hit[1]


def _formula_from_sexp(sx: object, cons: Constructors, tvars: frozenset[str]) -> TffFormula:
    row = tagged_row(sx, _CONNECTIVE_BY_TAG, "formula")
    n = len(row.kinds)
    if row.cls in _TRAILING:
        if len(sx) < n:
            raise FormatError(f"{row.tag} expects at least {n - 1} fields: {sexp.dumps_prefix(sx)}", sx)
        fields = [*sx[1:n], sx[n:]]
    else:
        _expect_len(sx, n + 1)
        fields = sx[1:]
    return row.cls(*read_fields(row.kinds, fields, cons, tvars, sx))


def formula_to_sexp(phi: TffFormula, cons: set[str], tvars: frozenset[str] = frozenset()) -> object:
    row = row_of(phi)
    out = [row.tag, *write_fields(row.kinds, field_values(phi), cons, tvars)]
    if row.cls in _TRAILING:
        out += out.pop()
    return out


FORMULA = FieldKind("formula", formula_from_sexp, formula_to_sexp)
TY = FieldKind("type", lambda sx, cons, tvars: type_from_sexp(sx, tvars, cons), type_to_sexp)
TERM = FieldKind("term", term_from_sexp, term_to_sexp)
SYMBOL = symbol_kind("symbol")
BOUND = symbol_kind("bound variable")  # of the type in the row's type field
BOUND_TY = symbol_kind("bound type variable")
VARIABLE = symbol_kind("variable")
VARIABLE_TY = symbol_kind("type variable")
TYS = list_kind("types", TY)
TERMS = list_kind("terms", TERM)
ARGS = list_kind("trailing terms", TERM)  # spliced into the enclosing form
INT = FieldKind("integer", lambda sx, cons, tvars: _int(sx), lambda v, cons, tvars: v)
TVARS = list_kind("type variables", SYMBOL)  # in scope in every later field


def _binding_from_sexp(sx: object, cons: set[str], tvars: frozenset[str]) -> tuple[str, TffType]:
    b = _list(sx)
    if len(b) != 2:
        raise FormatError(f"bad context binding {sexp.dumps_prefix(sx)}, expected (NAME TYPE)", sx)
    return _symbol(b[0]), TY.read(b[1], cons, tvars)


CONTEXT = list_kind("context", FieldKind(
    "binding", _binding_from_sexp, lambda v, cons, tvars: [v[0], TY.write(v[1], cons, tvars)]))


class Connective(NamedTuple):
    """One formula class: the only place its syntax and embedding are defined.

    `kinds` gives the kind of each record field, in field order, and
    `fields` pairs them with the field names.  A bound variable scopes
    over the formula field after it.  `const` is the `logic` constant the
    embedding applies to the translated fields; `Pred` has none, its head
    is its own symbol.  Terms and types have rows too, without a tag or a
    constant: a variable is its own translation, an application's head
    is its symbol.  Theory items have rows without a constant (`ITEMS`).
    """

    cls: type
    tag: Optional[str]
    const: Optional[str]
    kinds: tuple[FieldKind, ...]
    fields: tuple[tuple[str, FieldKind], ...]


def _connective(cls: type, tag: Optional[str], const: Optional[str], *kinds: FieldKind) -> Connective:
    names = cls.__match_args__
    if len(names) != len(kinds):
        raise TypeError(f"{cls.__name__} has {len(names)} fields, {len(kinds)} kinds given")
    return Connective(cls, tag, const, kinds, tuple(zip(names, kinds)))


CONNECTIVES: tuple[Connective, ...] = (
    _connective(Top, "top", "logic.True"),
    _connective(Bottom, "bot", "logic.False"),
    _connective(Not, "not", "logic.not", FORMULA),
    _connective(And, "and", "logic.and", FORMULA, FORMULA),
    _connective(Or, "or", "logic.or", FORMULA, FORMULA),
    _connective(Implies, "imp", "logic.imp", FORMULA, FORMULA),
    _connective(Iff, "iff", "logic.eqv", FORMULA, FORMULA),
    _connective(Eq, "eq", "logic.eq", TY, TERM, TERM),
    _connective(Pred, "pred", None, SYMBOL, TYS, ARGS),
    _connective(Forall, "forall", "logic.forall", BOUND, TY, FORMULA),
    _connective(Exists, "exists", "logic.exists", BOUND, TY, FORMULA),
    _connective(ForallType, "foralltype", "logic.foralltype", BOUND_TY, FORMULA),
    _connective(ExistsType, "existstype", "logic.existstype", BOUND_TY, FORMULA),
)
# every formula, term and type class -> its row
ROWS = {row.cls: row for row in CONNECTIVES + (
    _connective(TVar, None, None, VARIABLE_TY),
    _connective(TCons, None, None, SYMBOL, TYS),
    _connective(Var, None, None, VARIABLE),
    _connective(Fun, None, None, SYMBOL, TYS, ARGS),
)}
_CONNECTIVE_BY_TAG = {row.tag: row for row in CONNECTIVES}
# a trailing-list field's items are the last elements of the `.tffx` form
_TRAILING = frozenset(row.cls for row in CONNECTIVES if row.kinds[-1:] == (ARGS,))
# atomic formulas are those whose fields hold terms: equalities and
# predicate applications
_ATOMIC = frozenset(row.cls for row in CONNECTIVES if TERM in row.kinds or ARGS in row.kinds)


# one row per theory item class: its `.tffx` tag and field kinds
ITEMS: tuple[Connective, ...] = (
    _connective(TypeCons, "type", None, SYMBOL, INT),
    _connective(FunDecl, "fun", None, SYMBOL, TVARS, TYS, TY),
    _connective(PredDecl, "pred", None, SYMBOL, TVARS, TYS),
    _connective(Axiom, "axiom", None, SYMBOL, FORMULA),
    _connective(TermRule, "term-rule", None, TVARS, CONTEXT, TERM, TERM),
    _connective(PropRule, "prop-rule", None, TVARS, CONTEXT, FORMULA, FORMULA),
    _connective(ExtDecl, "ext", None, SYMBOL),
)
_ITEM_OF = {row.cls: row for row in ITEMS}
_ITEM_BY_TAG = {row.tag: row for row in ITEMS}


def row_of(x: object) -> Connective:
    """The row of a formula's, term's or type's class."""
    try:
        return ROWS[type(x)]
    except KeyError:
        raise TypeError(x) from None


# ---------------------------------------------------------------------------
# Symbol table accumulated while checking a theory


class Table:
    def __init__(self) -> None:
        self.type_cons: dict[str, int] = {}
        self.funs: dict[str, FunDecl] = {}
        self.preds: dict[str, PredDecl] = {}
        self.axioms: dict[str, TffFormula] = {}
        self.exts: list[str] = []

    def declare(self, name: str) -> None:
        _check_ident("symbol", name)
        if name in self.type_cons or name in self.funs or name in self.preds or name in self.axioms:
            raise DuplicateSymbol(f"symbol {name} declared twice")


# ---------------------------------------------------------------------------
# Well-formedness


def wf_type(tbl: Table, tvars: Iterable[str], ty: TffType) -> None:
    """Check arities of constructors and scoping of type variables."""
    tvars = set(tvars)
    stack = [ty]
    while stack:
        match stack.pop():
            case TVar(name=a):
                if a not in tvars:
                    raise UnboundTypeVariable(f"type variable {a} is not in scope")
            case TCons(name=c, args=args):
                arity = tbl.type_cons.get(c)
                if arity is None:
                    raise UnknownConstructor(f"unknown type constructor {c}")
                if arity != len(args):
                    raise ArityMismatch(f"constructor {c} expects {arity} arguments, got {len(args)}")
                stack += args


def infer_term(tbl: Table, ctx: TffContext, e: TffTerm) -> TffType:
    """Instantiate the declared scheme of the head symbol and check arguments."""
    match e:
        case Var(name=x):
            ty = ctx.lookup(x)
            if ty is None:
                raise UnknownSymbol(f"unbound term variable {x}")
            return ty
        case Fun(name=f, ty_args=ty_args, args=args):
            decl = tbl.funs.get(f)
            if decl is None:
                raise UnknownSymbol(f"unknown function symbol {f}")
            return _check_application(tbl, ctx, decl.tvars, decl.arg_types, ty_args, args, f, decl.result)
    raise TypeError(e)


def _check_application(
    tbl: Table,
    ctx: TffContext,
    tvars: tuple[str, ...],
    arg_types: tuple[TffType, ...],
    ty_args: tuple[TffType, ...],
    args: tuple[TffTerm, ...],
    name: str,
    result: Optional[TffType],
) -> Optional[TffType]:
    if len(ty_args) != len(tvars):
        raise ArityMismatch(f"{name} expects {len(tvars)} type arguments, got {len(ty_args)}")
    if len(args) != len(arg_types):
        raise ArityMismatch(f"{name} expects {len(arg_types)} arguments, got {len(args)}")
    for ty in ty_args:
        wf_type(tbl, ctx.tvars, ty)
    mapping = dict(zip(tvars, ty_args))
    for i, (arg, decl_ty) in enumerate(zip(args, arg_types)):
        expected = subst_type(decl_ty, mapping)
        actual = infer_term(tbl, ctx, arg)
        if actual != expected:
            raise ArgTypeMismatch(f"argument {i + 1} of {name}: expected {expected}, found {actual}")
    return subst_type(result, mapping) if result is not None else None


def wf_formula(tbl: Table, ctx: TffContext, phi: TffFormula) -> None:
    """Check `phi` in `ctx`; a subformula met twice under the same binders,
    as one object, is checked once."""
    _wf_formula(tbl, ctx, phi, set())


def _wf_formula(tbl: Table, ctx: TffContext, phi: TffFormula, seen: set[int]) -> None:
    # `seen`: the ids of the subformulas already checked in `ctx`, all parts
    # of the formula the check started from
    if id(phi) in seen:
        return
    seen.add(id(phi))
    row = row_of(phi)
    if row.cls is Pred:
        decl = tbl.preds.get(phi.name)
        if decl is None:
            raise UnknownSymbol(f"unknown predicate symbol {phi.name}")
        _check_application(tbl, ctx, decl.tvars, decl.arg_types, phi.ty_args, phi.args, phi.name, None)
        return
    term_types = []
    bound = ty = None
    for name, kind in row.fields:
        v = getattr(phi, name)
        if kind is FORMULA:
            if bound is None:
                _wf_formula(tbl, ctx, v, seen)
            else:
                _wf_formula(tbl, ctx.bind(bound, ty), v, set())
        elif kind is TY:
            wf_type(tbl, ctx.tvars, v)
            ty = v
        elif kind is TERM:
            term_types.append(infer_term(tbl, ctx, v))
        elif kind is BOUND:
            bound = v
        elif kind is BOUND_TY:
            ctx, seen = ctx.bind_tvar(v), set()
    if row.cls is Eq and (term_types[0] != phi.ty or term_types[1] != phi.ty):
        raise EqTypeMismatch(f"equality at {phi.ty} applied to terms of types {term_types[0]} and {term_types[1]}")


def wf_theory(thy: TffTheory) -> Table:
    """Check every item against the prefix theory before it.

    Returns the symbol table; raises `TheoryItemError` for the first
    failing item.  Symbol names are unique across all namespaces so the
    kernel embedding stays injective.
    """
    wf_theory_name(thy.name)
    tbl = Table()
    for index, item in enumerate(thy.items):
        try:
            _wf_item(tbl, item)
        except TffError as e:
            raise TheoryItemError(index, item, e) from e
    return tbl


def wf_theory_name(name: str) -> None:
    """A theory name is a `.dk` identifier that is not one of lpm's own modules."""
    _check_ident("theory name", name)
    if name in ("cert", "logic", "rules"):
        raise TffError(f"theory name {name!r} is reserved: lpm's own modules are cert, logic and rules")


def _wf_item(tbl: Table, item: TheoryItem) -> None:
    match item:
        case TypeCons(name=n, arity=m):
            tbl.declare(n)
            if m < 0:
                raise ArityMismatch("negative arity")
            tbl.type_cons[n] = m
        case FunDecl(name=n, tvars=tvs, arg_types=args, result=res):
            tbl.declare(n)
            _check_scheme_tvars(tvs)
            for ty in args + (res,):
                wf_type(tbl, tvs, ty)
            tbl.funs[n] = item
        case PredDecl(name=n, tvars=tvs, arg_types=args):
            tbl.declare(n)
            _check_scheme_tvars(tvs)
            for ty in args:
                wf_type(tbl, tvs, ty)
            tbl.preds[n] = item
        case Axiom(name=n, formula=phi):
            tbl.declare(n)
            wf_formula(tbl, TffContext(), phi)
            tbl.axioms[n] = phi
        case TermRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
            context = _rule_context(tbl, tvs, ctx)
            lt = infer_term(tbl, context, l)
            rt = infer_term(tbl, context, r)
            if lt != rt:
                raise RuleViolation(f"rule sides have types {lt} and {rt}")
            _check_rule_names("variables", term_vars(l), term_vars(r), {x for x, _ in ctx})
            _check_rule_names("type variables", term_tvars(l), term_tvars(r), set(tvs))
        case PropRule(tvars=tvs, ctx=ctx, lhs=l, rhs=r):
            if type(l) not in _ATOMIC:
                raise NonAtomicLhs(f"proposition rule left-hand side must be atomic, found {type(l).__name__}")
            context = _rule_context(tbl, tvs, ctx)
            wf_formula(tbl, context, l)
            wf_formula(tbl, context, r)
            _check_rule_names("variables", formula_vars(l), formula_vars(r), {x for x, _ in ctx})
            _check_rule_names("type variables", formula_tvars(l), formula_tvars(r), set(tvs))
        case ExtDecl(name=n):
            if n in tbl.exts:
                raise DuplicateSymbol(f"extension rule {n} registered twice")
            tbl.exts.append(n)
        case _:
            raise TffError(f"unknown theory item {item!r}")


def _check_scheme_tvars(tvs: tuple[str, ...]) -> None:
    if len(set(tvs)) != len(tvs):
        raise DuplicateSymbol("duplicate type variables in scheme")


def _check_ident(what: str, name: str) -> None:
    if not dkparse._IDENT_RE.fullmatch(name) or name in dkparse._KEYWORDS:
        raise TffError(f"{what} {name!r} is not a .dk identifier")


def _rule_context(tbl: Table, tvs: tuple[str, ...], ctx: tuple[tuple[str, TffType], ...]) -> TffContext:
    _check_scheme_tvars(tvs)
    for a in tvs:
        _check_ident("type variable", a)
    out = TffContext(tvars=tvs)
    for x, ty in ctx:
        _check_ident("context variable", x)
        if out.lookup(x) is not None:
            raise DuplicateSymbol(f"duplicate context variable {x}")
        wf_type(tbl, tvs, ty)
        out = out.bind(x, ty)
    return out


def _check_rule_names(what: str, lhs: frozenset[str], rhs: frozenset[str], bound: set[str]) -> None:
    if not lhs <= bound:
        raise RuleViolation(f"left-hand side {what} {sorted(lhs - bound)} not in the context")
    if not rhs <= lhs:
        raise RuleViolation(f"right-hand side {what} {sorted(rhs - lhs)} not on the left")


# ---------------------------------------------------------------------------
# Free variables and substitution


class _Namespace(NamedTuple):
    """Term or type variables, or both: the kinds of their occurrences and
    of their binders, the kinds whose values cannot mention them, and the
    class of an occurrence."""

    occurrence: tuple[FieldKind, ...]
    binder: tuple[FieldKind, ...]
    skip: tuple[FieldKind, ...]
    var: Optional[type]


_TERM_VARS = _Namespace((VARIABLE,), (BOUND,), (TY, TYS), Var)
_TYPE_VARS = _Namespace((VARIABLE_TY,), (BOUND_TY,), (), TVar)
# names as `embed.translate` binds them: a binder of either kind hides both
_NAMES = _Namespace((VARIABLE, VARIABLE_TY), (BOUND, BOUND_TY), (), None)
_BOUND_BY = {BOUND: _TERM_VARS, BOUND_TY: _TYPE_VARS}
_NODES = (FORMULA, TY, TERM)
_LISTS = (TYS, ARGS)


# a node's id -> the node and its free variables of one namespace
FreeMemo = dict[int, tuple[object, frozenset[str]]]


def _free(x: object, ns: _Namespace, memo: Optional[FreeMemo] = None) -> frozenset[str]:
    """The free variables of `ns` in a formula, term or type; with `memo`,
    each node's are computed once."""
    if memo is not None and (hit := memo.get(id(x))) is not None:
        return hit[1]
    out: frozenset[str] = frozenset()
    bound = None
    for name, kind in row_of(x).fields:
        v = getattr(x, name)
        if kind in ns.occurrence:
            out = frozenset((v,))
            break
        if kind in ns.binder:
            bound = v
        elif kind in ns.skip:
            continue
        elif kind is FORMULA and bound is not None:
            out |= _free(v, ns, memo) - {bound}
        elif kind in _NODES:
            out |= _free(v, ns, memo)
        elif kind in _LISTS:
            for y in v:
                out |= _free(y, ns, memo)
    if memo is not None:
        memo[id(x)] = (x, out)
    return out


def _subst(x: object, mapping: Mapping[str, object], ns: _Namespace, memo: Optional[FreeMemo] = None) -> object:
    """`x` with the free variables of `ns` in `mapping` replaced; `memo`,
    if given, holds free variables of `ns` computed before."""
    if not mapping:
        return x
    row = row_of(x)
    values: list = []
    bound = None
    for name, kind in row.fields:
        v = getattr(x, name)
        if kind in ns.occurrence:
            return mapping.get(v, x)
        if kind in _BOUND_BY:
            bound, binder = len(values), kind
        elif kind in ns.skip:
            pass
        elif kind is FORMULA and bound is not None:
            values[bound], v, inner = _avoid_capture(values[bound], binder, v, mapping, ns, memo)
            v = _subst(v, inner, ns, memo)
        elif kind in _NODES:
            v = _subst(v, mapping, ns, memo)
        elif kind in _LISTS:
            v = tuple(_subst(y, mapping, ns, memo) for y in v)
        values.append(v)
    return row.cls(*values)


def _avoid_capture(
    x: str, binder: FieldKind, body: TffFormula, mapping: Mapping[str, object], ns: _Namespace,
    memo: Optional[FreeMemo] = None,
) -> tuple[str, TffFormula, Mapping[str, object]]:
    """The binder name, body and mapping with which to substitute under
    binder `x` of kind `binder`.

    A binder of the substituted names shadows them.  When a value mentions
    `x`, the binder becomes the first `x'k` (k = 0, 1, ...) that is free
    neither in the body nor in the values, so the result depends only on
    the arguments.
    """
    free = _free(body, ns, memo)
    shadowed = x if binder in ns.binder else None
    mapping = {k: v for k, v in mapping.items() if k != shadowed and k in free}
    if not mapping:
        return x, body, mapping
    renaming = _BOUND_BY[binder]
    value_names: frozenset[str] = frozenset()
    for v in mapping.values():
        value_names |= _free(v, renaming)
    if x in value_names:
        taken = _free(body, renaming) | value_names
        fresh = next(f"{x}'{k}" for k in itertools.count() if f"{x}'{k}" not in taken)
        body = _subst(body, {x: renaming.var(fresh)}, renaming)
        x = fresh
    return x, body, mapping


def type_tvars(ty: TffType) -> frozenset[str]:
    return _free(ty, _TYPE_VARS)


def term_vars(e: TffTerm) -> frozenset[str]:
    return _free(e, _TERM_VARS)


def term_tvars(e: TffTerm) -> frozenset[str]:
    return _free(e, _TYPE_VARS)


def formula_vars(phi: TffFormula, memo: Optional[FreeMemo] = None) -> frozenset[str]:
    return _free(phi, _TERM_VARS, memo)


def formula_tvars(phi: TffFormula, memo: Optional[FreeMemo] = None) -> frozenset[str]:
    return _free(phi, _TYPE_VARS, memo)


def free_names(x: object, memo: Optional[FreeMemo] = None) -> frozenset[str]:
    """The names free in a formula, term or type, term and type variables
    alike, as `embed.translate` looks them up in its `Env`."""
    return _free(x, _NAMES, memo)


def subst_type(ty: TffType, mapping: Mapping[str, TffType]) -> TffType:
    return _subst(ty, mapping, _TYPE_VARS)


def subst_formula(phi: TffFormula, mapping: Mapping[str, TffTerm], memo: Optional[FreeMemo] = None) -> TffFormula:
    """Capture-avoiding substitution of term variables in a formula; `memo`
    is one `formula_vars` has filled, or None."""
    return _subst(phi, mapping, _TERM_VARS, memo)


def subst_type_in_formula(phi: TffFormula, mapping: Mapping[str, TffType],
                          memo: Optional[FreeMemo] = None) -> TffFormula:
    """Capture-avoiding substitution of type variables in a formula; `memo`
    is one `formula_tvars` has filled, or None."""
    return _subst(phi, mapping, _TYPE_VARS, memo)


# ---------------------------------------------------------------------------
# Theories in .tffx


def theory_from_sexp(sx: object) -> TffTheory:
    if not (isinstance(sx, list) and len(sx) >= 2 and sx[0] == "theory" and isinstance(sx[1], str)):
        raise FormatError("expected (theory NAME item ...)", sx)
    cons = Constructors()
    items: list[TheoryItem] = []
    try:
        for raw in sx[2:]:
            item = _item_from_sexp(raw, cons)
            if isinstance(item, TypeCons):
                cons.add(item.name)
                cons.memo.clear()  # a bare `name` now reads as the constructor
            items.append(item)
    except FormatError as e:
        raise e.within(sx)
    return TffTheory(sx[1], tuple(items))


def parse_theory(text: str) -> TffTheory:
    """Read a `.tffx` theory file."""
    return read_text(text, theory_from_sexp)


def _item_from_sexp(sx: object, cons: Constructors) -> TheoryItem:
    row = tagged_row(sx, _ITEM_BY_TAG, "theory item")
    _expect_len(sx, len(row.kinds) + 1)
    return row.cls(*read_fields(row.kinds, sx[1:], cons, frozenset(), sx))


def theory_to_sexp(thy: TffTheory) -> list:
    cons = {item.name for item in thy.items if isinstance(item, TypeCons)}
    out: list = ["theory", thy.name]
    for item in thy.items:
        row = _ITEM_OF[type(item)]
        out.append([row.tag, *write_fields(row.kinds, field_values(item), cons, frozenset())])
    return out


def print_theory(thy: TffTheory) -> str:
    body = theory_to_sexp(thy)
    lines = [f"(theory {thy.name}"]
    for item in body[2:]:
        lines.append("  " + sexp.dumps(item))
    return "\n".join(lines) + ")\n"
