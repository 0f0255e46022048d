"""Sequent-style proof trees and their compilation to kernel terms.

A proof tree refutes a set of hypotheses: every node concludes a sequent
`Gamma, [C1], ..., [Cp] |- bot`, where the bracketed formulas are the
hypotheses the rule consumes, written as they appear in the sequent (the
kernel's conversion bridges the gap between a written hypothesis and the
shape the rule expects).  Each premise introduces new hypotheses, and
existential-style rules introduce fresh eigenvariables.

`RULES` is the one place a rule's syntax is defined: one row per rule
gives its `.llpx` tag, its kernel constant, the kind of each field, and
the hypotheses it consumes and introduces.  The `.llpx` reader and
writer, the eigenvariables, the witness-closedness checks and the kernel
arguments are all derived from the row.  At import each row becomes a
compile plan (`_PLANS`): its `rules` constant, its kernel fields and
whether it has witness or fresh fields, so compiling a node reads them
instead of deriving them again.

`rules_prelude` produces the `rules` module, the packaged text
`prelude/rules.dk`: one constant per inference rule, declared abstractly
in deep mode (the file's `R_` declarations) and given rewrite
definitions in shallow mode, where the law of excluded middle is the
only axiom.
`check_certificate` compiles a tree against a theory and runs the kernel
over the result; `certificate_entries` is the one translator entry.  As
in the kernel, names are bound by level and no frame holds a node path:
a `CertificateError` collects its path as it leaves each frame.  A
`pred` or `fun` congruence node is compiled as the chain of `Subst`
steps it stands for, which `_decompose` builds where the translator
reaches the node.  An extension rule node takes `(abs X TY F)` arguments
only, and its shape and constant are registered in `embed.EXT_RULES`.

A certificate costs what its own nodes cost.  The theory is checked once
per theory value (`checked_theory`).  Each translator interns the
formulas it meets and builds (`_Interner`): the rows build their
formulas through it, so equal formulas are one object and a node's
consumed hypothesis is the very object its parent bound.  Its tables are
then keyed by id, each holding the objects it keys, and go with the
translator: the hypotheses in scope, the kernel term of each formula
(keyed also by the indices of the eigenvariables it mentions, so a
formula is embedded once per binder depth), each hypothesis type, and
each formula's free variables.  Freshness reads counts of the free
variables of the hypotheses in scope, kept as they are bound and
unbound, instead of rescanning the sequent.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import embed, kernel, sexp, signature, tff
from .dkparse import Def, Entry
from .embed import FALSE, TYPE_C, prf, term
from .record import Record, values as field_values
from .terms import App, Const, KTerm, Lam, Var, arrow
from .tff import BOUND, BOUND_TY, FORMULA, SYMBOL, TERM, TERMS, TY, TYS

# ---------------------------------------------------------------------------
# Rules


class Bot(Record):
    pass


class NotTop(Record):
    pass


class Ax(Record):
    p: tff.TffFormula


class Cut(Record):
    p: tff.TffFormula


class Neq(Record):
    ty: tff.TffType
    t: tff.TffTerm


class Sym(Record):
    ty: tff.TffType
    t: tff.TffTerm
    u: tff.TffTerm


class NotNot(Record):
    p: tff.TffFormula


class And(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class Or(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class Imp(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class Iff(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class NotAnd(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class NotOr(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class NotImp(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class NotIff(Record):
    p: tff.TffFormula
    q: tff.TffFormula


class Exists(Record):
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    const: str  # fresh constant bound in the premise


class Forall(Record):
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    witness: tff.TffTerm  # closed instantiation


class NotExists(Record):
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    witness: tff.TffTerm


class NotForall(Record):
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    const: str


class ExistsType(Record):
    tvar: str
    body: tff.TffFormula
    fresh_type: str


class ForallType(Record):
    tvar: str
    body: tff.TffFormula
    witness: tff.TffType


class NotExistsType(Record):
    tvar: str
    body: tff.TffFormula
    witness: tff.TffType


class NotForallType(Record):
    tvar: str
    body: tff.TffFormula
    fresh_type: str


class Pred(Record):
    name: str
    ty_args: tuple[tff.TffType, ...]
    lhs_args: tuple[tff.TffTerm, ...]
    rhs_args: tuple[tff.TffTerm, ...]
    eq_types: tuple[tff.TffType, ...]


class Fun(Record):
    name: str
    ty_args: tuple[tff.TffType, ...]
    lhs_args: tuple[tff.TffTerm, ...]
    rhs_args: tuple[tff.TffTerm, ...]
    eq_types: tuple[tff.TffType, ...]
    result_ty: tff.TffType


class Subst(Record):
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    t: tff.TffTerm
    u: tff.TffTerm


class AbsArg(Record):
    """Predicate abstraction argument `lambda var : ty. body`."""

    var: str
    ty: tff.TffType
    body: tff.TffFormula


class Ext(Record):
    name: str
    args: tuple[AbsArg, ...]
    conclusions: tuple[tff.TffFormula, ...]
    hyp_blocks: tuple[tuple[tff.TffFormula, ...], ...]


LLRule = Union[
    Bot, NotTop, Ax, Cut, Neq, Sym, NotNot, And, Or, Imp, Iff, NotAnd, NotOr,
    NotImp, NotIff, Exists, Forall, NotExists, NotForall, ExistsType,
    ForallType, NotExistsType, NotForallType, Pred, Fun, Subst, Ext,
]


class LLProof(Record):
    rule: LLRule
    premises: tuple["LLProof", ...] = ()
    # Consumed hypotheses as written in the sequent, when they differ
    # from the shapes implied by the rule parameters (congruence).
    concls: Optional[tuple[tff.TffFormula, ...]] = None


class CertificateError(Exception):
    """Rejection of a certificate, localized to a proof-tree node: as in
    `kernel.KernelError`, each translator frame the error leaves through
    appends to `trail` the written index of the premise it came from."""

    def __init__(self, message: str):
        super().__init__(message)
        self.trail: list[int] = []

    @property
    def path(self) -> tuple[int, ...]:
        return tuple(reversed(self.trail))

    def __str__(self) -> str:
        return f"at node {list(self.path)}: {self.args[0]}"


class MissingHypothesis(CertificateError):
    pass


class FreshnessViolation(CertificateError):
    pass


class UnregisteredExtRule(CertificateError):
    pass


# ---------------------------------------------------------------------------
# Rule schemas: one row per rule


def _neq(f: _Interner, ty: tff.TffType, t: tff.TffTerm, u: tff.TffTerm) -> tff.TffFormula:
    return f.Not(f.Eq(ty, t, u))


def _inst(f: _Interner, body: tff.TffFormula, var: str, value: tff.TffTerm) -> tff.TffFormula:
    return f.canon(tff.subst_formula(body, {var: value}, f.vars))


def _inst_ty(f: _Interner, body: tff.TffFormula, tvar: str, value: tff.TffType) -> tff.TffFormula:
    return f.canon(tff.subst_type_in_formula(body, {tvar: value}, f.tvars))


WITNESS = tff.FieldKind("closed witness term", tff.TERM.read, tff.TERM.write)
WITNESS_TY = tff.FieldKind("closed witness type", tff.TY.read, tff.TY.write)
FRESH = tff.symbol_kind("fresh constant")
FRESH_TY = tff.symbol_kind("fresh type")
FORMULAS = tff.list_kind("formulas", FORMULA)


# the one extension argument, `(abs X TY F)`, keyed by its `.llpx` tag
_ABS_KINDS = {"abs": (SYMBOL, TY, FORMULA)}


def _abs_from_sexp(sx: object, cons: tff.Constructors, tvars: frozenset[str]) -> AbsArg:
    kinds = tff.tagged_row(sx, _ABS_KINDS, "extension argument")
    if len(sx) != 1 + len(kinds):
        raise tff.FormatError(f"extension argument {sx[0]} expects {len(kinds)} fields", sx)
    return AbsArg(*tff.read_fields(kinds, sx[1:], cons, tvars, sx))


def _abs_to_sexp(arg: AbsArg, cons: set[str], tvars: frozenset[str]) -> list:
    return ["abs", *tff.write_fields(_ABS_KINDS["abs"], field_values(arg), cons, tvars)]


EXT_ARGS = tff.list_kind(
    "extension arguments", tff.FieldKind("extension argument", _abs_from_sexp, _abs_to_sexp))
BLOCKS = tff.list_kind("hypothesis blocks", FORMULAS)


class RuleSchema(NamedTuple):
    """One inference rule: the only place its syntax is defined.

    `kinds` gives the kind of each record field, in field order.  The
    kernel arguments of a rule are its fields as `embed.translate_fields`
    translates them, a witness as the term or type it holds.
    `consumes` maps a rule to the hypotheses its node consumes by default,
    and `blocks` to the hypotheses each premise introduces, in binding
    order; both build their formulas through the `_Interner` they are
    given.  `const` names the rule's constant in the `rules`
    module; `Pred` and `Fun` have none (they are compiled as their `Subst`
    chains), nor has `Ext` (its constant belongs to the theory).
    """

    cls: type
    tag: str
    const: Optional[str]
    kinds: tuple[tff.FieldKind, ...]
    consumes: Callable[[LLRule, _Interner], Sequence[tff.TffFormula]]
    blocks: Callable[[LLRule, _Interner], Sequence[Sequence[tff.TffFormula]]]


def _closes(rule: LLRule, f: _Interner) -> list:
    return []


def _eq_blocks(rule: Union[Pred, Fun], f: _Interner) -> list[list[tff.TffFormula]]:
    return [[_neq(f, ty, t, u)] for ty, t, u in zip(rule.eq_types, rule.lhs_args, rule.rhs_args)]


RULES: tuple[RuleSchema, ...] = (
    RuleSchema(Bot, "bot", "R_bot", (), lambda r, f: [f.Bottom()], _closes),
    RuleSchema(NotTop, "nottop", "R_nottop", (), lambda r, f: [f.Not(f.Top())], _closes),
    RuleSchema(Ax, "ax", "R_Ax", (FORMULA,), lambda r, f: [r.p, f.Not(r.p)], _closes),
    RuleSchema(Cut, "cut", "R_Cut", (FORMULA,), lambda r, f: [],
               lambda r, f: [[r.p], [f.Not(r.p)]]),
    RuleSchema(Neq, "neq", "R_neq", (TY, TERM), lambda r, f: [_neq(f, r.ty, r.t, r.t)], _closes),
    RuleSchema(Sym, "sym", "R_Sym", (TY, TERM, TERM),
               lambda r, f: [f.Eq(r.ty, r.t, r.u), _neq(f, r.ty, r.u, r.t)], _closes),
    RuleSchema(NotNot, "notnot", "R_notnot", (FORMULA,), lambda r, f: [f.Not(f.Not(r.p))],
               lambda r, f: [[r.p]]),
    RuleSchema(And, "and", "R_and", (FORMULA, FORMULA), lambda r, f: [f.And(r.p, r.q)],
               lambda r, f: [[r.p, r.q]]),
    RuleSchema(Or, "or", "R_or", (FORMULA, FORMULA), lambda r, f: [f.Or(r.p, r.q)],
               lambda r, f: [[r.p], [r.q]]),
    RuleSchema(Imp, "imp", "R_imp", (FORMULA, FORMULA), lambda r, f: [f.Implies(r.p, r.q)],
               lambda r, f: [[f.Not(r.p)], [r.q]]),
    RuleSchema(Iff, "iff", "R_eqv", (FORMULA, FORMULA), lambda r, f: [f.Iff(r.p, r.q)],
               lambda r, f: [[f.Not(r.p), f.Not(r.q)], [r.p, r.q]]),
    RuleSchema(NotAnd, "notand", "R_notand", (FORMULA, FORMULA), lambda r, f: [f.Not(f.And(r.p, r.q))],
               lambda r, f: [[f.Not(r.p)], [f.Not(r.q)]]),
    RuleSchema(NotOr, "notor", "R_notor", (FORMULA, FORMULA), lambda r, f: [f.Not(f.Or(r.p, r.q))],
               lambda r, f: [[f.Not(r.p), f.Not(r.q)]]),
    RuleSchema(NotImp, "notimp", "R_notimp", (FORMULA, FORMULA), lambda r, f: [f.Not(f.Implies(r.p, r.q))],
               lambda r, f: [[r.p, f.Not(r.q)]]),
    RuleSchema(NotIff, "notiff", "R_noteqv", (FORMULA, FORMULA), lambda r, f: [f.Not(f.Iff(r.p, r.q))],
               lambda r, f: [[f.Not(r.p), r.q], [r.p, f.Not(r.q)]]),
    RuleSchema(Exists, "exists", "R_exists", (TY, BOUND, FORMULA, FRESH),
               lambda r, f: [f.Exists(r.var, r.ty, r.body)],
               lambda r, f: [[_inst(f, r.body, r.var, f.Var(r.const))]]),
    RuleSchema(Forall, "forall", "R_forall", (TY, BOUND, FORMULA, WITNESS),
               lambda r, f: [f.Forall(r.var, r.ty, r.body)],
               lambda r, f: [[_inst(f, r.body, r.var, r.witness)]]),
    RuleSchema(NotExists, "notexists", "R_notexists", (TY, BOUND, FORMULA, WITNESS),
               lambda r, f: [f.Not(f.Exists(r.var, r.ty, r.body))],
               lambda r, f: [[f.Not(_inst(f, r.body, r.var, r.witness))]]),
    RuleSchema(NotForall, "notforall", "R_notforall", (TY, BOUND, FORMULA, FRESH),
               lambda r, f: [f.Not(f.Forall(r.var, r.ty, r.body))],
               lambda r, f: [[f.Not(_inst(f, r.body, r.var, f.Var(r.const)))]]),
    RuleSchema(ExistsType, "existstype", "R_existstype", (BOUND_TY, FORMULA, FRESH_TY),
               lambda r, f: [f.ExistsType(r.tvar, r.body)],
               lambda r, f: [[_inst_ty(f, r.body, r.tvar, f.TVar(r.fresh_type))]]),
    RuleSchema(ForallType, "foralltype", "R_foralltype", (BOUND_TY, FORMULA, WITNESS_TY),
               lambda r, f: [f.ForallType(r.tvar, r.body)],
               lambda r, f: [[_inst_ty(f, r.body, r.tvar, r.witness)]]),
    RuleSchema(NotExistsType, "notexiststype", "R_notexiststype", (BOUND_TY, FORMULA, WITNESS_TY),
               lambda r, f: [f.Not(f.ExistsType(r.tvar, r.body))],
               lambda r, f: [[f.Not(_inst_ty(f, r.body, r.tvar, r.witness))]]),
    RuleSchema(NotForallType, "notforalltype", "R_notforalltype", (BOUND_TY, FORMULA, FRESH_TY),
               lambda r, f: [f.Not(f.ForallType(r.tvar, r.body))],
               lambda r, f: [[f.Not(_inst_ty(f, r.body, r.tvar, f.TVar(r.fresh_type)))]]),
    RuleSchema(Pred, "pred", None, (SYMBOL, TYS, TERMS, TERMS, TYS),
               lambda r, f: [f.Pred(r.name, r.ty_args, r.lhs_args), f.Not(f.Pred(r.name, r.ty_args, r.rhs_args))],
               _eq_blocks),
    RuleSchema(Fun, "fun", None, (SYMBOL, TYS, TERMS, TERMS, TYS, TY),
               lambda r, f: [_neq(f, r.result_ty, f.Fun(r.name, r.ty_args, r.lhs_args),
                                  f.Fun(r.name, r.ty_args, r.rhs_args))],
               _eq_blocks),
    RuleSchema(Subst, "subst", "R_Subst", (TY, BOUND, FORMULA, TERM, TERM),
               lambda r, f: [_inst(f, r.body, r.var, r.t)],
               lambda r, f: [[_neq(f, r.ty, r.t, r.u)], [_inst(f, r.body, r.var, r.u)]]),
    RuleSchema(Ext, "ext", None, (SYMBOL, EXT_ARGS, FORMULAS, BLOCKS),
               lambda r, f: r.conclusions, lambda r, f: r.hyp_blocks),
)
_SCHEMA = {row.cls: row for row in RULES}
_SCHEMA_BY_TAG = {row.tag: row for row in RULES}


# ---------------------------------------------------------------------------
# Formula builders: one object per formula


class _Interner:
    """Builds each formula once per translator: one method per `tff` row,
    named after its class, and `canon`, which a row applies to a formula
    it did not build (a substitution's result).  Structurally equal
    formulas are one object, so the translator's tables key them by id.

    `shared` maps each formula met to the first one equal to it; a record
    is hashed once, when it is built, so finding it walks no tree.
    `built` maps a negation or binary connective and the ids of its
    operands to the shared formula made of them, with the operands, so a
    formula built at many proof nodes is constructed once.  `vars`,
    `tvars` and `names` keep the free term variables, type variables and
    both of each formula, term and type met, by id."""

    def __init__(self) -> None:
        self.shared: dict[object, object] = {}
        self.built: dict[tuple, tuple] = {}
        self.vars: tff.FreeMemo = {}
        self.tvars: tff.FreeMemo = {}
        self.names: tff.FreeMemo = {}

    def canon(self, x: object) -> object:
        return self.shared.setdefault(x, x)


def _interned(cls: type) -> Callable:
    """The `_Interner` method that builds a `cls` node: a negation or a
    binary connective is found by the ids of its operands, others by value."""
    kinds = tff.ROWS[cls].kinds
    if kinds == (FORMULA,):
        def build(self: _Interner, a: object) -> object:
            hit = self.built.get((cls, id(a)))
            if hit is None:
                node = cls(a)
                hit = self.built[cls, id(a)] = (self.shared.setdefault(node, node), a)
            return hit[0]
    elif kinds == (FORMULA, FORMULA):
        def build(self: _Interner, a: object, b: object) -> object:
            hit = self.built.get((cls, id(a), id(b)))
            if hit is None:
                node = cls(a, b)
                hit = self.built[cls, id(a), id(b)] = (self.shared.setdefault(node, node), a, b)
            return hit[0]
    else:
        def build(self: _Interner, *values: object) -> object:
            node = cls(*values)
            return self.shared.setdefault(node, node)
    return build


for _cls in tff.ROWS:
    setattr(_Interner, _cls.__name__, _interned(_cls))


class _Plan(NamedTuple):
    """A `RULES` row as `_Translator.translate` compiles it: its `rules`
    constant, if it has one, its fields, named, with the kinds they are
    translated as (a witness as the term or type it holds), whether those
    are `embed.plain`, whether it has witness or fresh fields, and its
    `consumes` and `blocks`."""

    head: Optional[Const]
    fields: tuple[tuple[str, tff.FieldKind], ...]
    plain: bool
    witnessed: bool
    fresh: bool
    consumes: Callable[[LLRule, _Interner], Sequence[tff.TffFormula]]
    blocks: Callable[[LLRule, _Interner], Sequence[Sequence[tff.TffFormula]]]


_WITNESSED = {WITNESS: TERM, WITNESS_TY: TY}
_PLANS = {row.cls: _Plan(row.const and Const(f"rules.{row.const}"),
                         tuple((f, _WITNESSED.get(k, k)) for f, k in zip(row.cls.__match_args__, row.kinds)),
                         embed.plain(_WITNESSED.get(k, k) for k in row.kinds),
                         any(k in _WITNESSED for k in row.kinds), any(k in (FRESH, FRESH_TY) for k in row.kinds),
                         row.consumes, row.blocks) for row in RULES}


def _eigenvars(rule: LLRule) -> list[tuple[str, Optional[tff.TffType]]]:
    """Eigenvariables a node binds in its premise, with their types.

    A fresh constant takes the type in the rule's type field; a `None`
    type marks a fresh type.
    """
    out: list[tuple[str, Optional[tff.TffType]]] = []
    ty = None
    for kind, v in zip(_SCHEMA[type(rule)].kinds, field_values(rule)):
        if kind is TY:
            ty = v
        elif kind is FRESH:
            out.append((v, ty))
        elif kind is FRESH_TY:
            out.append((v, None))
    return out


def _consumed(p: LLProof, f: Optional[_Interner] = None) -> tuple[tff.TffFormula, ...]:
    """A node's consumed hypotheses, built by `f` or a new `_Interner`,
    checking that a `(concl ...)` override lists as many formulas as the
    rule consumes."""
    default = tuple(_PLANS[p.rule.__class__].consumes(p.rule, f or _Interner()))
    if p.concls is None:
        return default
    if len(p.concls) != len(default):
        raise CertificateError(
            f"rule {type(p.rule).__name__} consumes {len(default)} hypotheses, "
            f"but its conclusion override lists {len(p.concls)}")
    return p.concls


def rules_prelude(mode: str = "shallow") -> list[Entry]:
    """The `rules` module, `prelude/rules.dk`.

    Deep mode declares every inference-rule constant abstractly: it keeps
    the file's declarations but `rules.ExMid`, which only the definitions
    use.  Shallow mode instead derives them: the law of excluded middle
    is declared as the sole axiom, double-negation elimination and
    contraposition are defined from it, and every rule constant is given
    a rewrite definition.
    """
    entries = embed.packaged_prelude("rules", mode)
    if mode == "deep":
        return [e for e in entries if e.name != "rules.ExMid"]
    return entries


# ---------------------------------------------------------------------------
# Pred/Fun elimination


def _decompose(p: LLProof) -> LLProof:
    """The Subst chain a Pred/Fun node stands for; other nodes are
    returned as they are.

    An n-ary predicate node becomes n Subst steps closed by an axiom
    step on the fully rewritten atom; an n-ary function node becomes n
    Subst steps on the disequality closed by a reflexivity refutation.
    Step k takes the node's premise k as its premise 0 and step k + 1 as
    its premise 1.
    """
    match p.rule:
        case Pred(name=pn, ty_args=tys, lhs_args=ts, rhs_args=us, eq_types=eq_tys):
            _check_arities(ts, us, eq_tys, p.premises)
            concls = _consumed(p)
            atom = lambda args: tff.Pred(pn, tys, tuple(args))
            core = LLProof(Ax(atom(us)), (), (atom(us), concls[1]))
            tree = _subst_chain(atom, ts, us, eq_tys, p.premises, core)
            return LLProof(tree.rule, tree.premises, (concls[0],) if ts else (concls[0], concls[1]))
        case Fun(name=fn, ty_args=tys, lhs_args=ts, rhs_args=us, eq_types=eq_tys, result_ty=res):
            _check_arities(ts, us, eq_tys, p.premises)
            f = _Interner()
            concls = _consumed(p, f)
            atom = lambda args: _neq(f, res, tff.Fun(fn, tys, tuple(args)), tff.Fun(fn, tys, us))
            core = LLProof(Neq(res, tff.Fun(fn, tys, us)), (), (atom(us),))
            tree = _subst_chain(atom, ts, us, eq_tys, p.premises, core)
            return LLProof(tree.rule, tree.premises, (concls[0],))
        case _:
            return p


def _check_arities(ts, us, eq_tys, premises) -> None:
    if not (len(ts) == len(us) == len(eq_tys)):
        raise CertificateError(f"term lists of lengths {len(ts)}/{len(us)}/{len(eq_tys)} disagree")
    if len(premises) != len(ts):
        raise CertificateError(f"{len(ts)} argument pairs need {len(ts)} premises, got {len(premises)}")


def _subst_chain(atom, ts, us, eq_tys, premises, core: LLProof) -> LLProof:
    """Right-nested Subst chain rewriting ts into us inside `atom`."""
    if not ts:
        return core
    used: set[str] = set()
    for e in (*ts, *us):
        used |= tff.term_vars(e)

    def fresh_var(base: str = "z") -> str:
        name = base
        while name in used:
            name += "'"
        used.add(name)
        return name

    def build(i: int) -> LLProof:
        if i == len(ts):
            return core
        z = fresh_var()
        mixed = list(us[:i]) + [tff.Var(z)] + list(ts[i + 1 :])
        rule = Subst(eq_tys[i], z, atom(mixed), ts[i], us[i])
        return LLProof(rule, (premises[i], build(i + 1)))

    return build(0)


# ---------------------------------------------------------------------------
# Proof translation


class _Layout(NamedTuple):
    """Where a node's premises sit in its compiled term.

    The term is the rule constant applied to `nargs` arguments; argument
    `first + i` is the continuation for premise `i`, a nest of
    `binders[i]` lambdas around the term that `premises[i]` lays out.
    `written[i]` is what premise `i` adds to a path: its written index, or
    nothing for the next step of a Subst chain, the same written node.
    """

    nargs: int
    first: int
    binders: tuple[int, ...]
    written: tuple[tuple[int, ...], ...]
    premises: tuple["_Layout", ...]

    def node_at(self, position: tuple[int, ...]) -> tuple[int, ...]:
        """The path of the written node whose own application holds
        `position` of the term, relative to this layout's node.

        `position` lists child indices (0: function or binder domain,
        1: argument or binder body), as `kernel.KernelError.position`.
        """
        node, i, path = self, 0, []
        while True:
            # k function steps down the spine, then an argument step,
            # select argument nargs - 1 - k
            k = 0
            while i < len(position) and position[i] == 0 and k < node.nargs:
                i, k = i + 1, k + 1
            j = node.nargs - 1 - k - node.first
            if i == len(position) or not 0 <= j < len(node.binders):
                return tuple(path)
            n = node.binders[j]
            if position[i + 1 : i + 1 + n] != (1,) * n:
                return tuple(path)
            path += node.written[j]
            node, i = node.premises[j], i + 1 + n


class _Translator:
    def __init__(self, module: str, tbl: tff.Table, axioms: Mapping[tff.TffFormula, str], sig: signature.Signature,
                 fuel: Optional[kernel.Fuel] = None):
        self.tbl = tbl
        self.module = module
        self.sig = sig
        self.steps = fuel.max_rewrite_steps if fuel else kernel.DEFAULT_REWRITE_STEPS  # per conversion
        self.counter = 0
        # binders around the term being compiled; each hypothesis and
        # eigenvariable records the level of its binder, so a use at this
        # depth is the index `depth - level - 1`
        self.depth = 0
        # one object per structure: the tables below key a formula by id
        self.formulas = _Interner()
        # the hypotheses in scope, each bound as (formula, name, level),
        # and by formula id: the formula, then its bindings, innermost last
        self.env_formulas: list[tuple[tff.TffFormula, str, int]] = []
        self.env: dict[int, list] = {}
        # eigenvariables in scope -> their levels
        self.kenv: dict[str, int] = {}
        # the embedding of each formula, term and type met, keyed by id and
        # by the indices of the eigenvariables it mentions
        self.memo = embed.Memo(functools.partial(tff.free_names, memo=self.formulas.names))
        # the id of an embedded formula -> its hypothesis type, which holds it
        self.htypes: dict[int, KTerm] = {}
        # from the first freshness check on: how many hypotheses in scope
        # each free term and type variable occurs in
        self.occurs: Optional[tuple[dict[str, int], dict[str, int]]] = None
        # each axiom formula -> the name of its first declaration
        self.axioms = axioms
        # set by `certificate_entries`: the layout of the refutation
        self.layout: Optional[_Layout] = None

    # -- environment -------------------------------------------------

    def push_hyp(self, phi: tff.TffFormula) -> tuple[str, KTerm]:
        """Bind a hypothesis `phi` at the current depth: its name and type."""
        name = f"h{self.counter}"
        self.counter += 1
        phi = self.formulas.canon(phi)
        kphi = self.kterm(phi)
        ktype = self.htypes.get(id(kphi))
        if ktype is None:
            ktype = self.htypes[id(kphi)] = prf(kphi)
        binding = (phi, name, self.depth)
        stack = self.env.get(id(phi))
        if stack is None:
            stack = self.env[id(phi)] = [phi]
        stack.append(binding)
        self.env_formulas.append(binding)
        if self.occurs is not None:
            self.count(phi, 1)
        self.depth += 1
        return name, ktype

    def count(self, phi: tff.TffFormula, step: int) -> None:
        """Count the free variables of `phi` as occurring in `step` more hypotheses."""
        f = self.formulas
        for names, free in zip(self.occurs, (tff.formula_vars(phi, f.vars), tff.formula_tvars(phi, f.tvars))):
            for v in free:
                names[v] = names.get(v, 0) + step

    def var(self, name: str, level: int) -> Var:
        return Var(self.depth - level - 1, name)

    def kterm(self, x: object) -> KTerm:
        """A formula, term or type, with the eigenvariables in scope bound."""
        return embed.translate_all((x,), self.module, self.kenv, self.depth, self.memo)[0]

    def lookup(self, phi: tff.TffFormula) -> KTerm:
        """A consumed hypothesis `phi` that no hypothesis in scope is."""
        if (axiom := self.axioms.get(phi)) is not None:
            return Const(embed.qualify(self.module, axiom))
        # a bracketed hypothesis stands for any congruent formula, so a
        # structural miss falls back to conversion against the sequent
        want = self.kterm(phi)
        for candidate, name, level in reversed(self.env_formulas):
            have = self.kterm(candidate)
            try:
                if kernel.convertible(self.sig, have, want, kernel.Fuel(self.steps)):
                    return self.var(name, level)
            except kernel.FuelExhausted:
                continue
        for name, f in self.tbl.axioms.items():
            try:
                if kernel.convertible(self.sig, self.kterm(f), want, kernel.Fuel(self.steps)):
                    return Const(embed.qualify(self.module, name))
            except kernel.FuelExhausted:
                continue
        raise MissingHypothesis(f"hypothesis {phi} is not available in the sequent")

    # -- freshness and closedness side conditions ----------------------

    def check_fresh(self, name: str, ty: Optional[tff.TffType]) -> None:
        """An eigenvariable is new: a constant of type `ty`, or a type if None."""
        if self.occurs is None:
            self.occurs = ({}, {})
            for phi, *_ in self.env_formulas:
                self.count(phi, 1)
        if ty is None:
            what, clash, occurs = "type", "constructor", self.occurs[1]
            taken = name in self.tbl.type_cons
        else:
            what, clash, occurs = "constant", "symbol", self.occurs[0]
            taken = name in self.tbl.funs or name in self.tbl.preds or name in self.tbl.type_cons
        if name in self.kenv:
            raise FreshnessViolation(f"{what} {name} was already introduced")
        if taken:
            raise FreshnessViolation(f"{what} {name} collides with a theory {clash}")
        if occurs.get(name):
            raise FreshnessViolation(f"{what} {name} occurs in the conclusion sequent")

    def check_witnesses(self, rule: LLRule) -> None:
        """Witness fields may mention only eigenvariables in scope."""
        for kind, v in zip(_SCHEMA[type(rule)].kinds, field_values(rule)):
            if kind is WITNESS:
                stray = tff.term_vars(v) - set(self.kenv)
                if stray:
                    raise CertificateError(f"witness term mentions unbound variables {sorted(stray)}")
            elif kind is WITNESS_TY:
                stray = tff.type_tvars(v) - set(self.kenv)
                if stray:
                    raise CertificateError(f"witness type mentions unbound type variables {sorted(stray)}")

    # -- the Fig-style node compilation --------------------------------

    def ext_args(self, rule: Ext) -> tuple[Const, list[KTerm]]:
        spec = embed.EXT_RULES.get(rule.name)
        if spec is None or rule.name not in self.tbl.exts:
            raise UnregisteredExtRule(f"extension rule {rule.name!r} is not registered for this theory")
        if len(rule.args) != spec.n_abs:
            raise CertificateError(f"extension rule {rule.name} expects {spec.n_abs} arguments")
        kargs = [Lam(a.var, term(self.kterm(a.ty)),
                     embed.translate(a.body, self.module, {**self.kenv, a.var: self.depth}, self.depth + 1))
                 for a in rule.args]
        if len(rule.hyp_blocks) != spec.n_premises:
            raise CertificateError(f"extension rule {rule.name} expects {spec.n_premises} premises")
        return Const(embed.qualify(self.module, spec.const)), kargs

    def translate(self, p: LLProof, step: Optional[int] = None) -> tuple[KTerm, _Layout]:
        """Compile `p`, a written node or, with `step` set, that step of the
        Subst chain of a Pred/Fun node, from its row's plan.  Errors and
        layouts name the node as written."""
        if p.rule.__class__ is Pred or p.rule.__class__ is Fun:
            p, step = _decompose(p), 0
        rule = p.rule
        plan = _PLANS[rule.__class__]
        f = self.formulas
        consumed = plan.consumes(rule, f) if p.concls is None else _consumed(p, f)
        if plan.head is None:
            t, kargs = self.ext_args(rule)
        else:
            if plan.witnessed:
                self.check_witnesses(rule)
            t = plan.head
            if plan.plain:
                kargs = embed.translate_all(field_values(rule), self.module, self.kenv, self.depth, self.memo)
            else:
                kargs = embed.translate_fields(plan.fields, rule, self.module, self.kenv, self.depth, self.memo)
        for a in kargs:
            t = App(t, a)
        blocks = plan.blocks(rule, f)
        if len(p.premises) != len(blocks):
            raise CertificateError(f"rule {type(rule).__name__} expects {len(blocks)} premises, got {len(p.premises)}")

        eigen = _eigenvars(rule) if plan.fresh else ()
        # of each premise: what it adds to a path, its binders and its layout
        written, counts, layouts = [], [], []
        env, hyps, shared = self.env, self.env_formulas, f.shared
        for i, (premise, block) in enumerate(zip(p.premises, blocks)):
            # chain step k: premise 0 is the written node's premise k, and
            # premise 1 the next step of the same written node
            at = (i,) if step is None else ((step,), ())[i]
            # the continuation binds the eigenvariables, then the block's
            # hypotheses, each typed at the depth of its own binder
            binders: list[tuple[str, KTerm]] = []
            for name, ty in eigen:
                self.check_fresh(name, ty)
                annot = TYPE_C if ty is None else term(self.kterm(ty))
                self.kenv[name] = self.depth
                self.depth += 1
                binders.append((name, annot))
            for phi in block:
                binders.append(self.push_hyp(phi))
            try:
                body, layout = self.translate(premise, None if at else step + 1)
            except CertificateError as e:
                e.trail += at
                raise
            for _ in block:
                phi = hyps.pop()[0]
                env[id(phi)].pop()
                if self.occurs is not None:
                    self.count(phi, -1)
            for name, _ in eigen:
                del self.kenv[name]
            self.depth -= len(binders)
            for name, annot in reversed(binders):
                body = Lam(name, annot, body)
            t = App(t, body)
            written.append(at)
            counts.append(len(binders))
            layouts.append(layout)

        # a consumed hypothesis is the one its parent bound, or one equal
        # to it, which the intern table names
        for phi in consumed:
            stack = env.get(id(phi))
            if stack is None:
                stack = env.get(id(shared.get(phi)), ())
            if len(stack) > 1:
                _, name, level = stack[-1]
                t = App(t, Var(self.depth - level - 1, name))
            else:
                t = App(t, self.lookup(phi))
        return t, _Layout(len(kargs) + len(blocks) + len(consumed), len(kargs), tuple(counts), tuple(written),
                          tuple(layouts))


# ---------------------------------------------------------------------------
# Certificate checking


class Verdict(Record):
    accepted: bool
    error: Optional[str] = None
    path: Optional[tuple[int, ...]] = None
    entries: Sequence[Entry] = ()
    __hash__ = None

    def __bool__(self) -> bool:
        return self.accepted


def certificate_entries(thy: tff.TffTheory, goal: tff.TffFormula, proof: LLProof, sig: signature.Signature,
                        fuel: Optional[kernel.Fuel] = None) -> tuple[list[Entry], _Translator]:
    """The `cert` module: the goal constant with its proof definition.  A
    hypothesis not in the sequent as written is found by conversion in `sig`."""
    tbl, axioms = checked_theory(thy)
    tff.wf_formula(tbl, tff.TffContext(), goal)
    tr = _Translator(thy.name, tbl, axioms, sig, fuel)
    name, ktype = tr.push_hyp(tr.formulas.Not(tr.formulas.canon(goal)))
    body, tr.layout = tr.translate(proof)
    return [Def("cert.goal", arrow(ktype, prf(FALSE)), Lam(name, ktype, body))], tr


@functools.lru_cache(maxsize=16)
def checked_theory(thy: tff.TffTheory) -> tuple[tff.Table, dict[tff.TffFormula, str]]:
    """`tff.wf_theory(thy)` and the theory's axiom index: each axiom
    formula -> the name of its first declaration.

    A theory value is checked once while it is among the last 16 checked
    in this process, so many certificates against one theory pay for it
    once; every caller shares the result, and none may change it."""
    tbl = tff.wf_theory(thy)
    return tbl, {f: n for n, f in reversed(tbl.axioms.items())}


def check_certificate(
    thy: tff.TffTheory,
    goal: tff.TffFormula,
    proof: LLProof,
    mode: str = "shallow",
    fuel: Optional[kernel.Fuel] = None,
    sig: Optional[signature.Signature] = None,
) -> Verdict:
    """Compile the tree and run the kernel over the resulting definition.

    `sig` may carry a pre-installed logic+rules+theory signature for the
    same mode to avoid rebuilding it across many certificates.
    """
    try:
        if sig is None:
            sig = base_signature(thy, mode, fuel)
    except kernel.FuelExhausted:
        raise
    except (kernel.KernelError, signature.SignatureError, tff.TffError, embed.UnknownExtension) as e:
        return Verdict(False, error=str(e))
    try:
        entries, tr = certificate_entries(thy, goal, proof, sig=sig, fuel=fuel)
    except CertificateError as e:
        return Verdict(False, error=str(e), path=e.path)
    except (tff.TffError, embed.UnknownExtension) as e:
        return Verdict(False, error=str(e))
    try:
        signature.install_entries(sig, entries, fuel)
    except kernel.FuelExhausted:
        raise
    except (kernel.KernelError, signature.SignatureError) as e:
        return Verdict(False, error=str(e), path=failure_path(tr, e), entries=entries)
    return Verdict(True, entries=entries)


def base_signature(
    thy: tff.TffTheory, mode: str = "shallow", fuel: Optional[kernel.Fuel] = None
) -> signature.Signature:
    """logic + rules + theory, ready for certificate checking.

    The theory's name is checked first, so a theory named like one of
    lpm's modules is rejected for its name, not for a name it collides on.
    The preludes of each mode are checked once per process (`_preludes`);
    `fuel` is charged the rewrite steps that check spent, one step at a
    time, so a smaller budget runs out where the check would."""
    tff.wf_theory_name(thy.name)
    sig, steps = _preludes(mode)
    if fuel is not None:
        for _ in range(steps):
            fuel.step()
    return signature.install_entries(sig, embed.theory_entries(thy), fuel)


@functools.cache
def _preludes(mode: str) -> tuple[signature.Signature, int]:
    """logic + rules of `mode`, checked, and the rewrite steps checking them took."""
    fuel = kernel.Fuel()
    sig = signature.install_entries(signature.EMPTY, embed.prelude(mode) + rules_prelude(mode), fuel)
    return sig, fuel.max_rewrite_steps - fuel.steps_left


def failure_path(tr: _Translator, err: Exception) -> Optional[tuple[int, ...]]:
    """The proof node at which the kernel rejected the `cert.goal` body.

    `err` is the error from installing the entries `certificate_entries`
    returned with `tr`, or a printed and re-parsed copy of them: the
    kernel's position is mapped through the translator's layout, so
    finding the node costs no further check.  With several faulty nodes
    this is the first whose own application the kernel rejects, in the
    kernel's order (the spine left to right, premise 0 before premise 1).
    None when the failure is not inside the refutation's term.
    """
    if not (isinstance(err, signature.IllTypedSide) and err.side == "right"
            and isinstance(err.cause, kernel.KernelError)):
        return None
    position = err.cause.position
    # the body is `\h0 : prf (not goal) => refutation`
    if position[:1] != (1,):
        return None
    return tr.layout.node_at(position[1:])


# ---------------------------------------------------------------------------
# Proof interchange format (.llpx)


def proof_from_sexp(sx: object, cons: tff.Constructors) -> LLProof:
    """The proof tree `sx` stands for, read from an explicit stack, so its
    depth is not bounded by the recursion limit.  An error about an atom
    premise is placed at the node that lists it."""
    # each frame: a node's form, rule, override, premise forms and the
    # premises read so far
    stack = [_proof_node(sx, cons)]
    while True:
        form, rule, concls, forms, premises = stack[-1]
        if len(premises) < len(forms):
            try:
                stack.append(_proof_node(forms[len(premises)], cons))
            except tff.FormatError as e:
                raise e.within(form)
            continue
        stack.pop()
        node = LLProof(rule, tuple(premises), concls)
        if not stack:
            return node
        stack[-1][4].append(node)


def _proof_node(sx: object, cons: tff.Constructors) -> tuple:
    """The frame of `proof_from_sexp` for one node: `(TAG field ... [(concl F ...)] premise ...)`."""
    row = tff.tagged_row(sx, _SCHEMA_BY_TAG, "proof node")
    count = len(row.kinds)
    if len(sx) < 1 + count:
        raise tff.FormatError(f"rule {row.tag} expects {count} fields", sx)
    rest = sx[1 + count :]
    concls = None
    if rest and isinstance(rest[0], list) and rest[0] and rest[0][0] == "concl":
        concls = tuple(tff.read_fields([FORMULA] * (len(rest[0]) - 1), rest[0][1:], cons, frozenset(), rest[0]))
        rest = rest[1:]
    rule = row.cls(*tff.read_fields(row.kinds, sx[1 : 1 + count], cons, frozenset(), sx))
    return sx, rule, concls, rest, []


def proof_to_sexp(p: LLProof, cons: set[str]) -> list:
    """The S-expression of a proof tree, written from an explicit stack."""
    root: list = []
    todo = [(p, root)]  # nodes left to write, each with the list it goes in
    while todo:
        q, into = todo.pop()
        row = _SCHEMA[type(q.rule)]
        out = [row.tag, *tff.write_fields(row.kinds, field_values(q.rule), cons, frozenset())]
        if q.concls is not None:
            out.append(["concl", *FORMULAS.write(q.concls, cons, frozenset())])
        into.append(out)
        todo += [(r, out) for r in reversed(q.premises)]
    return root[0]


def parse_proof(text: str, thy: tff.TffTheory) -> tuple[tff.TffFormula, LLProof]:
    """Read a `.llpx` file: (proof (theory NAME) (goal F) TREE)."""
    return tff.read_text(text, lambda sx: _proof_file_from_sexp(sx, thy))


def _proof_file_from_sexp(sx: object, thy: tff.TffTheory) -> tuple[tff.TffFormula, LLProof]:
    if not (isinstance(sx, list) and len(sx) == 4 and sx[0] == "proof"):
        raise tff.FormatError("expected (proof (theory NAME) (goal F) TREE)", sx)
    theory_ref = sx[1]
    if not (isinstance(theory_ref, list) and len(theory_ref) == 2 and theory_ref[0] == "theory"):
        raise tff.FormatError("expected (theory NAME)", theory_ref)
    if theory_ref[1] != thy.name:
        raise tff.FormatError(f"proof references theory {theory_ref[1]!r}, got {thy.name!r}", theory_ref)
    goal_sx = sx[2]
    if not (isinstance(goal_sx, list) and len(goal_sx) == 2 and goal_sx[0] == "goal"):
        raise tff.FormatError("expected (goal FORMULA)", goal_sx)
    cons = tff.Constructors(item.name for item in thy.items if isinstance(item, tff.TypeCons))
    goal, = tff.read_fields((FORMULA,), goal_sx[1:], cons, frozenset(), goal_sx)
    tree = proof_from_sexp(sx[3], cons)
    return goal, tree


def print_proof(thy: tff.TffTheory, goal: tff.TffFormula, proof: LLProof) -> str:
    cons = {item.name for item in thy.items if isinstance(item, tff.TypeCons)}
    body = [
        "proof",
        ["theory", thy.name],
        ["goal", tff.formula_to_sexp(goal, cons)],
        proof_to_sexp(proof, cons),
    ]
    return sexp.dumps_pretty(body) + "\n"
