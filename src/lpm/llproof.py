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
arguments are all derived from the row.

`rules_prelude` produces the `rules` module, the packaged text
`prelude/rules.dk`: one constant per inference rule, declared abstractly
in deep mode (the file's `R_` declarations) and given rewrite
definitions in shallow mode, where the law of excluded middle is the
only axiom.
`check_certificate` compiles a tree against a theory and runs the kernel
over the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import embed, kernel, sexp, signature, tff
from .dkparse import Def, Entry
from .embed import FALSE, TYPE_C, prf, term
from .terms import Const, FVar, KTerm, Lam, abstract, app, arrow, fresh_name
from .tff import BOUND, BOUND_TY, FORMULA, SYMBOL, TERM, TERMS, TY, TYS

# ---------------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class NotTop:
    pass


@dataclass(frozen=True)
class Ax:
    p: tff.TffFormula


@dataclass(frozen=True)
class Cut:
    p: tff.TffFormula


@dataclass(frozen=True)
class Neq:
    ty: tff.TffType
    t: tff.TffTerm


@dataclass(frozen=True)
class Sym:
    ty: tff.TffType
    t: tff.TffTerm
    u: tff.TffTerm


@dataclass(frozen=True)
class NotNot:
    p: tff.TffFormula


@dataclass(frozen=True)
class And:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class Or:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class Imp:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class Iff:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class NotAnd:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class NotOr:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class NotImp:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class NotIff:
    p: tff.TffFormula
    q: tff.TffFormula


@dataclass(frozen=True)
class Exists:
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    const: str  # fresh constant bound in the premise


@dataclass(frozen=True)
class Forall:
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    witness: tff.TffTerm  # closed instantiation


@dataclass(frozen=True)
class NotExists:
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    witness: tff.TffTerm


@dataclass(frozen=True)
class NotForall:
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    const: str


@dataclass(frozen=True)
class ExistsType:
    tvar: str
    body: tff.TffFormula
    fresh_type: str


@dataclass(frozen=True)
class ForallType:
    tvar: str
    body: tff.TffFormula
    witness: tff.TffType


@dataclass(frozen=True)
class NotExistsType:
    tvar: str
    body: tff.TffFormula
    witness: tff.TffType


@dataclass(frozen=True)
class NotForallType:
    tvar: str
    body: tff.TffFormula
    fresh_type: str


@dataclass(frozen=True)
class Pred:
    name: str
    ty_args: tuple[tff.TffType, ...]
    lhs_args: tuple[tff.TffTerm, ...]
    rhs_args: tuple[tff.TffTerm, ...]
    eq_types: tuple[tff.TffType, ...]


@dataclass(frozen=True)
class Fun:
    name: str
    ty_args: tuple[tff.TffType, ...]
    lhs_args: tuple[tff.TffTerm, ...]
    rhs_args: tuple[tff.TffTerm, ...]
    eq_types: tuple[tff.TffType, ...]
    result_ty: tff.TffType


@dataclass(frozen=True)
class Subst:
    ty: tff.TffType
    var: str
    body: tff.TffFormula
    t: tff.TffTerm
    u: tff.TffTerm


@dataclass(frozen=True)
class AbsArg:
    """Predicate abstraction argument `lambda var : ty. body`."""

    var: str
    ty: tff.TffType
    body: tff.TffFormula


@dataclass(frozen=True)
class FormulaArg:
    formula: tff.TffFormula


@dataclass(frozen=True)
class TermArg:
    term: tff.TffTerm


@dataclass(frozen=True)
class TypeArg:
    ty: tff.TffType


ExtArg = Union[AbsArg, FormulaArg, TermArg, TypeArg]


@dataclass(frozen=True)
class Ext:
    name: str
    args: tuple[ExtArg, ...]
    conclusions: tuple[tff.TffFormula, ...]
    hyp_blocks: tuple[tuple[tff.TffFormula, ...], ...]


LLRule = Union[
    Bot, NotTop, Ax, Cut, Neq, Sym, NotNot, And, Or, Imp, Iff, NotAnd, NotOr,
    NotImp, NotIff, Exists, Forall, NotExists, NotForall, ExistsType,
    ForallType, NotExistsType, NotForallType, Pred, Fun, Subst, Ext,
]


@dataclass(frozen=True)
class LLSequent:
    """Hypotheses refuted by a proof; the succedent is always bottom."""

    hypotheses: tuple[tff.TffFormula, ...]


@dataclass(frozen=True)
class LLProof:
    rule: LLRule
    premises: tuple["LLProof", ...] = ()
    # Consumed hypotheses as written in the sequent, when they differ
    # from the shapes implied by the rule parameters (congruence).
    concls: Optional[tuple[tff.TffFormula, ...]] = None
    # Path of the written node this one was made from, set by
    # `eliminate_pred_fun`; rejections are reported there.
    origin: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    def conclusion_hyps(self) -> tuple[tff.TffFormula, ...]:
        return self.concls if self.concls is not None else tuple(_SCHEMA[type(self.rule)].consumes(self.rule))

    def conclusion(self, ambient: tuple[tff.TffFormula, ...] = ()) -> LLSequent:
        return LLSequent(tuple(ambient) + self.conclusion_hyps())


class CertificateError(Exception):
    """Rejection of a certificate, localized to a proof-tree node."""

    def __init__(self, path: tuple[int, ...], message: str):
        super().__init__(f"at node {list(path)}: {message}")
        self.path = path
        self.reason = message


class MissingHypothesis(CertificateError):
    pass


class FreshnessViolation(CertificateError):
    pass


class UnregisteredExtRule(CertificateError):
    pass


# ---------------------------------------------------------------------------
# Rule schemas: one row per rule


def _neq(ty: tff.TffType, t: tff.TffTerm, u: tff.TffTerm) -> tff.TffFormula:
    return tff.Not(tff.Eq(ty, t, u))


def _inst(body: tff.TffFormula, var: str, value: tff.TffTerm) -> tff.TffFormula:
    return tff.subst_formula(body, {var: value})


def _inst_ty(body: tff.TffFormula, tvar: str, value: tff.TffType) -> tff.TffFormula:
    return tff.subst_type_in_formula(body, {tvar: value})


WITNESS = tff.FieldKind("closed witness term", tff.TERM.read, tff.TERM.write)
WITNESS_TY = tff.FieldKind("closed witness type", tff.TY.read, tff.TY.write)
FRESH = tff.symbol_kind("fresh constant")
FRESH_TY = tff.symbol_kind("fresh type")
FORMULAS = tff.list_kind("formulas", FORMULA)


def _values(x: object) -> tuple:
    """The field values of a rule or extension argument, in field order."""
    return tuple(getattr(x, f.name) for f in fields(x))


class ExtArgSchema(NamedTuple):
    """One kind of extension argument: its class, field kinds and kernel
    argument."""

    cls: type
    kinds: tuple[tff.FieldKind, ...]
    karg: Callable[["_Translator", ExtArg], KTerm]


# keyed by `.llpx` tag, which is also the kind name `ExtRuleSpec.arg_kinds` uses
EXT_ARG_KINDS: dict[str, ExtArgSchema] = {
    "abs": ExtArgSchema(AbsArg, (SYMBOL, TY, FORMULA),
                        lambda tr, a: tr.abstraction(a.var, term(tr.ktype(a.ty)), a.body)),
    "fm": ExtArgSchema(FormulaArg, (FORMULA,), lambda tr, a: tr.formula(a.formula)),
    "tm": ExtArgSchema(TermArg, (TERM,), lambda tr, a: tr.kterm(a.term)),
    "ty": ExtArgSchema(TypeArg, (TY,), lambda tr, a: tr.ktype(a.ty)),
}
_EXT_ARG_TAGS = {schema.cls: tag for tag, schema in EXT_ARG_KINDS.items()}


def _ext_arg_from_sexp(sx: object, cons: set[str], tvars: frozenset[str]) -> ExtArg:
    schema = tff.tagged_row(sx, EXT_ARG_KINDS, "extension argument")
    if len(sx) != 1 + len(schema.kinds):
        raise tff.FormatError(f"extension argument {sx[0]} expects {len(schema.kinds)} fields")
    return schema.cls(*tff.read_fields(schema.kinds, sx[1:], cons, tvars))


def _ext_arg_to_sexp(arg: ExtArg, cons: set[str], tvars: frozenset[str]) -> list:
    tag = _EXT_ARG_TAGS[type(arg)]
    return [tag, *tff.write_fields(EXT_ARG_KINDS[tag].kinds, _values(arg), cons, tvars)]


EXT_ARGS = tff.list_kind(
    "extension arguments", tff.FieldKind("extension argument", _ext_arg_from_sexp, _ext_arg_to_sexp))
BLOCKS = tff.list_kind("hypothesis blocks", FORMULAS)


class RuleSchema(NamedTuple):
    """One inference rule: the only place its syntax is defined.

    `kinds` gives the kind of each dataclass field, in field order.  The
    kernel arguments of a rule are its fields as `embed.translate_fields`
    translates them, a witness as the term or type it holds.
    `consumes` maps a rule to the hypotheses its node consumes by default,
    and `blocks` to the hypotheses each premise introduces, in binding
    order.  `const` names the rule's constant in the `rules` module; `Pred`
    and `Fun` have none (they are eliminated before translation), nor has
    `Ext` (its constant belongs to the theory).
    """

    cls: type
    tag: str
    const: Optional[str]
    kinds: tuple[tff.FieldKind, ...]
    consumes: Callable[[LLRule], Sequence[tff.TffFormula]]
    blocks: Callable[[LLRule], Sequence[Sequence[tff.TffFormula]]]


def _closes(rule: LLRule) -> list:
    return []


def _eq_blocks(rule: Union[Pred, Fun]) -> list[list[tff.TffFormula]]:
    return [[_neq(ty, t, u)] for ty, t, u in zip(rule.eq_types, rule.lhs_args, rule.rhs_args)]


RULES: tuple[RuleSchema, ...] = (
    RuleSchema(Bot, "bot", "R_bot", (), lambda r: [tff.Bottom()], _closes),
    RuleSchema(NotTop, "nottop", "R_nottop", (), lambda r: [tff.Not(tff.Top())], _closes),
    RuleSchema(Ax, "ax", "R_Ax", (FORMULA,), lambda r: [r.p, tff.Not(r.p)], _closes),
    RuleSchema(Cut, "cut", "R_Cut", (FORMULA,), lambda r: [],
               lambda r: [[r.p], [tff.Not(r.p)]]),
    RuleSchema(Neq, "neq", "R_neq", (TY, TERM), lambda r: [_neq(r.ty, r.t, r.t)], _closes),
    RuleSchema(Sym, "sym", "R_Sym", (TY, TERM, TERM),
               lambda r: [tff.Eq(r.ty, r.t, r.u), _neq(r.ty, r.u, r.t)], _closes),
    RuleSchema(NotNot, "notnot", "R_notnot", (FORMULA,), lambda r: [tff.Not(tff.Not(r.p))],
               lambda r: [[r.p]]),
    RuleSchema(And, "and", "R_and", (FORMULA, FORMULA), lambda r: [tff.And(r.p, r.q)],
               lambda r: [[r.p, r.q]]),
    RuleSchema(Or, "or", "R_or", (FORMULA, FORMULA), lambda r: [tff.Or(r.p, r.q)],
               lambda r: [[r.p], [r.q]]),
    RuleSchema(Imp, "imp", "R_imp", (FORMULA, FORMULA), lambda r: [tff.Implies(r.p, r.q)],
               lambda r: [[tff.Not(r.p)], [r.q]]),
    RuleSchema(Iff, "iff", "R_eqv", (FORMULA, FORMULA), lambda r: [tff.Iff(r.p, r.q)],
               lambda r: [[tff.Not(r.p), tff.Not(r.q)], [r.p, r.q]]),
    RuleSchema(NotAnd, "notand", "R_notand", (FORMULA, FORMULA), lambda r: [tff.Not(tff.And(r.p, r.q))],
               lambda r: [[tff.Not(r.p)], [tff.Not(r.q)]]),
    RuleSchema(NotOr, "notor", "R_notor", (FORMULA, FORMULA), lambda r: [tff.Not(tff.Or(r.p, r.q))],
               lambda r: [[tff.Not(r.p), tff.Not(r.q)]]),
    RuleSchema(NotImp, "notimp", "R_notimp", (FORMULA, FORMULA), lambda r: [tff.Not(tff.Implies(r.p, r.q))],
               lambda r: [[r.p, tff.Not(r.q)]]),
    RuleSchema(NotIff, "notiff", "R_noteqv", (FORMULA, FORMULA), lambda r: [tff.Not(tff.Iff(r.p, r.q))],
               lambda r: [[tff.Not(r.p), r.q], [r.p, tff.Not(r.q)]]),
    RuleSchema(Exists, "exists", "R_exists", (TY, BOUND, FORMULA, FRESH),
               lambda r: [tff.Exists(r.var, r.ty, r.body)],
               lambda r: [[_inst(r.body, r.var, tff.Var(r.const))]]),
    RuleSchema(Forall, "forall", "R_forall", (TY, BOUND, FORMULA, WITNESS),
               lambda r: [tff.Forall(r.var, r.ty, r.body)],
               lambda r: [[_inst(r.body, r.var, r.witness)]]),
    RuleSchema(NotExists, "notexists", "R_notexists", (TY, BOUND, FORMULA, WITNESS),
               lambda r: [tff.Not(tff.Exists(r.var, r.ty, r.body))],
               lambda r: [[tff.Not(_inst(r.body, r.var, r.witness))]]),
    RuleSchema(NotForall, "notforall", "R_notforall", (TY, BOUND, FORMULA, FRESH),
               lambda r: [tff.Not(tff.Forall(r.var, r.ty, r.body))],
               lambda r: [[tff.Not(_inst(r.body, r.var, tff.Var(r.const)))]]),
    RuleSchema(ExistsType, "existstype", "R_existstype", (BOUND_TY, FORMULA, FRESH_TY),
               lambda r: [tff.ExistsType(r.tvar, r.body)],
               lambda r: [[_inst_ty(r.body, r.tvar, tff.TVar(r.fresh_type))]]),
    RuleSchema(ForallType, "foralltype", "R_foralltype", (BOUND_TY, FORMULA, WITNESS_TY),
               lambda r: [tff.ForallType(r.tvar, r.body)],
               lambda r: [[_inst_ty(r.body, r.tvar, r.witness)]]),
    RuleSchema(NotExistsType, "notexiststype", "R_notexiststype", (BOUND_TY, FORMULA, WITNESS_TY),
               lambda r: [tff.Not(tff.ExistsType(r.tvar, r.body))],
               lambda r: [[tff.Not(_inst_ty(r.body, r.tvar, r.witness))]]),
    RuleSchema(NotForallType, "notforalltype", "R_notforalltype", (BOUND_TY, FORMULA, FRESH_TY),
               lambda r: [tff.Not(tff.ForallType(r.tvar, r.body))],
               lambda r: [[tff.Not(_inst_ty(r.body, r.tvar, tff.TVar(r.fresh_type)))]]),
    RuleSchema(Pred, "pred", None, (SYMBOL, TYS, TERMS, TERMS, TYS),
               lambda r: [tff.Pred(r.name, r.ty_args, r.lhs_args), tff.Not(tff.Pred(r.name, r.ty_args, r.rhs_args))],
               _eq_blocks),
    RuleSchema(Fun, "fun", None, (SYMBOL, TYS, TERMS, TERMS, TYS, TY),
               lambda r: [_neq(r.result_ty, tff.Fun(r.name, r.ty_args, r.lhs_args),
                               tff.Fun(r.name, r.ty_args, r.rhs_args))],
               _eq_blocks),
    RuleSchema(Subst, "subst", "R_Subst", (TY, BOUND, FORMULA, TERM, TERM),
               lambda r: [_inst(r.body, r.var, r.t)],
               lambda r: [[_neq(r.ty, r.t, r.u)], [_inst(r.body, r.var, r.u)]]),
    RuleSchema(Ext, "ext", None, (SYMBOL, EXT_ARGS, FORMULAS, BLOCKS),
               lambda r: r.conclusions, lambda r: r.hyp_blocks),
)
_SCHEMA = {row.cls: row for row in RULES}
_SCHEMA_BY_TAG = {row.tag: row for row in RULES}
# each rule's fields, named, with the kinds they are translated as: a
# witness as the term or type it holds
_WITNESSED = {WITNESS: TERM, WITNESS_TY: TY}
_KERNEL_FIELDS = {
    row.cls: tuple((f.name, _WITNESSED.get(k, k)) for f, k in zip(fields(row.cls), row.kinds)) for row in RULES
}


def _eigenvars(rule: LLRule) -> list[tuple[str, Optional[tff.TffType]]]:
    """Eigenvariables a node binds in its premise, with their types.

    A fresh constant takes the type in the rule's type field; a `None`
    type marks a fresh type.
    """
    out: list[tuple[str, Optional[tff.TffType]]] = []
    ty = None
    for kind, v in zip(_SCHEMA[type(rule)].kinds, _values(rule)):
        if kind is TY:
            ty = v
        elif kind is FRESH:
            out.append((v, ty))
        elif kind is FRESH_TY:
            out.append((v, None))
    return out


def _consumed(p: LLProof, path: tuple[int, ...]) -> tuple[tff.TffFormula, ...]:
    """A node's consumed hypotheses, checking that a `(concl ...)` override
    lists as many formulas as the rule consumes."""
    default = tuple(_SCHEMA[type(p.rule)].consumes(p.rule))
    if p.concls is None:
        return default
    if len(p.concls) != len(default):
        raise CertificateError(
            path, f"rule {type(p.rule).__name__} consumes {len(default)} hypotheses, "
                  f"but its conclusion override lists {len(p.concls)}")
    return p.concls


# ---------------------------------------------------------------------------
# Extension rule registry


class ExtRuleSpec(NamedTuple):
    """Shape of a registered extension deduction rule: the kinds of its
    arguments (keys of `EXT_ARG_KINDS`) and its number of premises.  The
    rule's constant and its type are registered in `embed.EXT_CONSTANTS`.
    """

    arg_kinds: tuple[str, ...]
    n_premises: int


EXT_REGISTRY: dict[str, ExtRuleSpec] = {
    "bool-case-notforall": ExtRuleSpec(("abs",), 2),
    "bool-case-exists": ExtRuleSpec(("abs",), 2),
}


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


def eliminate_pred_fun(p: LLProof, path: tuple[int, ...] = ()) -> LLProof:
    """Decompose every Pred/Fun node into a chain of Subst steps.

    An n-ary predicate node becomes n Subst steps closed by an axiom
    step on the fully rewritten atom; an n-ary function node becomes n
    Subst steps on the disequality closed by a reflexivity refutation.
    All other nodes are preserved.  `path` locates `p` in the whole tree,
    for error reports; every node of the result records as its `origin`
    the path of the written node it comes from.
    """
    premises = tuple(eliminate_pred_fun(q, path + (i,)) for i, q in enumerate(p.premises))
    match p.rule:
        case Pred(name=pn, ty_args=tys, lhs_args=ts, rhs_args=us, eq_types=eq_tys):
            _check_arities(ts, us, eq_tys, premises, path)
            concls = _consumed(p, path)
            atom = lambda args: tff.Pred(pn, tys, tuple(args))
            core = LLProof(Ax(atom(us)), (), (atom(us), concls[1]), path)
            tree = _subst_chain(atom, ts, us, eq_tys, premises, core)
            return LLProof(tree.rule, tree.premises, (concls[0],) if ts else (concls[0], concls[1]), path)
        case Fun(name=fn, ty_args=tys, lhs_args=ts, rhs_args=us, eq_types=eq_tys, result_ty=res):
            _check_arities(ts, us, eq_tys, premises, path)
            concls = _consumed(p, path)
            atom = lambda args: _neq(res, tff.Fun(fn, tys, tuple(args)), tff.Fun(fn, tys, us))
            core = LLProof(Neq(res, tff.Fun(fn, tys, us)), (), (atom(us),), path)
            tree = _subst_chain(atom, ts, us, eq_tys, premises, core)
            return LLProof(tree.rule, tree.premises, (concls[0],), path)
        case _:
            return LLProof(p.rule, premises, p.concls, path)


def _check_arities(ts, us, eq_tys, premises, path: tuple[int, ...]) -> None:
    if not (len(ts) == len(us) == len(eq_tys)):
        raise CertificateError(path, f"term lists of lengths {len(ts)}/{len(us)}/{len(eq_tys)} disagree")
    if len(premises) != len(ts):
        raise CertificateError(path, f"{len(ts)} argument pairs need {len(ts)} premises, got {len(premises)}")


def _subst_chain(atom, ts, us, eq_tys, premises, core: LLProof) -> LLProof:
    """Right-nested Subst chain rewriting ts into us inside `atom`; its
    nodes come from the same written node as `core`."""
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
        return LLProof(rule, (premises[i], build(i + 1)), None, core.origin)

    return build(0)


# ---------------------------------------------------------------------------
# Sequent and proof translation


def translate_sequent(s: LLSequent, module: str = "", start: int = 0) -> list[tuple[str, KTerm]]:
    """One `prf`-typed context variable per hypothesis, in order."""
    return [
        (f"h{start + i}", prf(embed.translate_formula(phi, module)))
        for i, phi in enumerate(s.hypotheses)
    ]


class _Layout(NamedTuple):
    """Where a node's premises sit in its compiled term.

    The term is the rule constant applied to `nargs` arguments; argument
    `first + i` is the continuation for premise `i`, a nest of
    `binders[i]` lambdas around the term that `premises[i]` lays out.
    """

    at: tuple[int, ...]
    nargs: int
    first: int
    binders: tuple[int, ...]
    premises: tuple["_Layout", ...]

    def node_at(self, position: tuple[int, ...]) -> tuple[int, ...]:
        """The node whose own application holds `position` of the term.

        `position` lists child indices (0: function or binder domain,
        1: argument or binder body), as `kernel.KernelError.position`.
        """
        node, i = self, 0
        while True:
            # k function steps down the spine, then an argument step,
            # select argument nargs - 1 - k
            k = 0
            while i < len(position) and position[i] == 0 and k < node.nargs:
                i, k = i + 1, k + 1
            if i == len(position) or k == node.nargs:
                return node.at
            j = node.nargs - 1 - k - node.first
            if not 0 <= j < len(node.binders):
                return node.at
            n = node.binders[j]
            if position[i + 1 : i + 1 + n] != (1,) * n:
                return node.at
            node, i = node.premises[j], i + 1 + n


class _Translator:
    def __init__(
        self,
        thy: tff.TffTheory,
        tbl: tff.Table,
        module: str,
        sig: Optional[signature.Signature] = None,
        fuel: Optional[kernel.Fuel] = None,
    ):
        self.thy = thy
        self.tbl = tbl
        self.module = module
        self.sig = sig
        self.fuel = fuel
        self.counter = 0
        # formula -> stack of hypothesis variable names (innermost last)
        self.env: dict[tff.TffFormula, list[str]] = {}
        self.env_formulas: list[tuple[tff.TffFormula, str]] = []
        # eigenvariables in scope -> their kernel variables
        self.kenv: dict[str, KTerm] = {}
        # set by `certificate_entries`: the layout of the refutation
        self.layout: Optional[_Layout] = None

    # -- environment -------------------------------------------------

    def push_hyp(self, phi: tff.TffFormula) -> tuple[str, KTerm]:
        name = f"h{self.counter}"
        self.counter += 1
        ktype = prf(self.formula(phi))
        self.env.setdefault(phi, []).append(name)
        self.env_formulas.append((phi, name))
        return name, ktype

    def pop_hyp(self, phi: tff.TffFormula, name: str) -> None:
        self.env[phi].pop()
        self.env_formulas.pop()

    def lookup(self, phi: tff.TffFormula, path: tuple[int, ...]) -> KTerm:
        stack = self.env.get(phi)
        if stack:
            return FVar(stack[-1])
        axiom = next((n for n, f in self.tbl.axioms.items() if f == phi), None)
        if axiom is not None:
            return Const(embed.qualify(self.module, axiom))
        # a bracketed hypothesis stands for any congruent formula, so a
        # structural miss falls back to conversion against the sequent
        if self.sig is not None:
            want = self.formula(phi)
            for candidate, name in reversed(self.env_formulas):
                have = self.formula(candidate)
                try:
                    if kernel.convertible(self.sig, have, want, self._fresh_fuel()):
                        return FVar(name)
                except kernel.FuelExhausted:
                    continue
            for name, f in self.tbl.axioms.items():
                try:
                    if kernel.convertible(self.sig, self.formula(f), want, self._fresh_fuel()):
                        return Const(embed.qualify(self.module, name))
                except kernel.FuelExhausted:
                    continue
        raise MissingHypothesis(path, f"hypothesis {phi} is not available in the sequent")

    def _fresh_fuel(self) -> kernel.Fuel:
        budget = self.fuel or kernel.Fuel()
        return kernel.Fuel(budget.max_rewrite_steps, budget.max_conversion_depth)

    # -- formula/term/type translation under the eigenvariable scope --

    def formula(self, phi: tff.TffFormula) -> KTerm:
        return embed.translate_formula(phi, self.module, self.kenv)

    def ktype(self, ty: tff.TffType) -> KTerm:
        return embed.translate_type(ty, self.module, self.kenv)

    def kterm(self, e: tff.TffTerm) -> KTerm:
        return embed.translate_term(e, self.module, self.kenv)

    def abstraction(self, var: str, annot: KTerm, body: tff.TffFormula) -> KTerm:
        """`\\var : annot => body`, with `var` bound in the translated body."""
        return embed.bind(Lam, var, annot, self.kenv, lambda env: embed.translate_formula(body, self.module, env))

    # -- freshness and closedness side conditions ----------------------

    def check_fresh_const(self, name: str, path: tuple[int, ...]) -> None:
        if name in self.kenv:
            raise FreshnessViolation(path, f"constant {name} was already introduced")
        if name in self.tbl.funs or name in self.tbl.preds or name in self.tbl.type_cons:
            raise FreshnessViolation(path, f"constant {name} collides with a theory symbol")
        for phi, _ in self.env_formulas:
            if name in tff.formula_vars(phi):
                raise FreshnessViolation(path, f"constant {name} occurs in the conclusion sequent")

    def check_fresh_type(self, name: str, path: tuple[int, ...]) -> None:
        if name in self.kenv:
            raise FreshnessViolation(path, f"type {name} was already introduced")
        if name in self.tbl.type_cons:
            raise FreshnessViolation(path, f"type {name} collides with a theory constructor")
        for phi, _ in self.env_formulas:
            if name in tff.formula_tvars(phi):
                raise FreshnessViolation(path, f"type {name} occurs in the conclusion sequent")

    def check_witnesses(self, rule: LLRule, path: tuple[int, ...]) -> None:
        """Witness fields may mention only eigenvariables in scope."""
        for kind, v in zip(_SCHEMA[type(rule)].kinds, _values(rule)):
            if kind is WITNESS:
                stray = tff.term_vars(v) - set(self.kenv)
                if stray:
                    raise CertificateError(path, f"witness term mentions unbound variables {sorted(stray)}")
            elif kind is WITNESS_TY:
                stray = tff.type_tvars(v) - set(self.kenv)
                if stray:
                    raise CertificateError(path, f"witness type mentions unbound type variables {sorted(stray)}")

    # -- the Fig-style node compilation --------------------------------

    def rule_args(self, rule: LLRule, path: tuple[int, ...]) -> tuple[Const, list[KTerm]]:
        if isinstance(rule, Ext):
            return self.ext_args(rule, path)
        self.check_witnesses(rule, path)
        kargs = embed.translate_fields(_KERNEL_FIELDS[type(rule)], rule, self.module, self.kenv)
        return Const(f"rules.{_SCHEMA[type(rule)].const}"), kargs

    def ext_args(self, rule: Ext, path: tuple[int, ...]) -> tuple[Const, list[KTerm]]:
        spec = EXT_REGISTRY.get(rule.name)
        if spec is None or rule.name not in self.tbl.exts:
            raise UnregisteredExtRule(path, f"extension rule {rule.name!r} is not registered for this theory")
        if len(rule.args) != len(spec.arg_kinds):
            raise CertificateError(path, f"extension rule {rule.name} expects {len(spec.arg_kinds)} arguments")
        kargs = []
        for kind, arg in zip(spec.arg_kinds, rule.args):
            schema = EXT_ARG_KINDS[kind]
            if not isinstance(arg, schema.cls):
                raise CertificateError(path, f"extension argument {arg!r} does not fit kind {kind!r}")
            kargs.append(schema.karg(self, arg))
        if len(rule.hyp_blocks) != spec.n_premises:
            raise CertificateError(path, f"extension rule {rule.name} expects {spec.n_premises} premises")
        return embed.ext_constant(rule.name, self.module), kargs

    def translate(self, p: LLProof, path: tuple[int, ...] = ()) -> tuple[KTerm, _Layout]:
        """Compile `p`, found at `path` of the tree being translated.

        Errors and layouts name the node as written: `p.origin` when
        Pred/Fun elimination recorded one, else `path`.
        """
        at = path if p.origin is None else p.origin
        rule = p.rule
        if isinstance(rule, (Pred, Fun)):
            raise CertificateError(at, "Pred/Fun nodes must be eliminated before translation")
        consumed_hyps = _consumed(p, at)
        head, kargs = self.rule_args(rule, at)
        blocks = _SCHEMA[type(rule)].blocks(rule)
        if len(p.premises) != len(blocks):
            raise CertificateError(
                at, f"rule {type(rule).__name__} expects {len(blocks)} premises, got {len(p.premises)}")

        eigen = _eigenvars(rule)
        continuations: list[KTerm] = []
        layouts: list[_Layout] = []
        for i, (premise, block) in enumerate(zip(p.premises, blocks)):
            opened: list[tuple[str, str, KTerm]] = []
            for name, ty in eigen:
                if ty is None:
                    self.check_fresh_type(name, at)
                    annot = TYPE_C
                else:
                    self.check_fresh_const(name, at)
                    annot = term(self.ktype(ty))
                u = fresh_name(name)
                self.kenv[name] = FVar(u)
                opened.append((name, u, annot))
            bound: list[tuple[tff.TffFormula, str, KTerm]] = []
            for phi in block:
                name, ktype = self.push_hyp(phi)
                bound.append((phi, name, ktype))
            body, layout = self.translate(premise, path + (i,))
            for phi, name, ktype in reversed(bound):
                self.pop_hyp(phi, name)
                body = Lam(name, ktype, abstract(body, name))
            for name, u, annot in reversed(opened):
                del self.kenv[name]
                body = Lam(name, annot, abstract(body, u))
            continuations.append(body)
            layouts.append(layout)

        consumed = [self.lookup(phi, at) for phi in consumed_hyps]
        args = [*kargs, *continuations, *consumed]
        binders = tuple(len(eigen) + len(block) for block in blocks)
        return app(head, *args), _Layout(at, len(args), len(kargs), binders, tuple(layouts))


def translate_proof(
    p: LLProof,
    hyp_env: dict[tff.TffFormula, str],
    thy: tff.TffTheory,
    module: Optional[str] = None,
    sig: Optional[signature.Signature] = None,
) -> KTerm:
    """Compile an eliminated proof tree against pre-bound hypotheses."""
    tbl = tff.table_of(thy)
    tr = _Translator(thy, tbl, module or thy.name, sig)
    for phi, name in hyp_env.items():
        tr.env.setdefault(phi, []).append(name)
        tr.env_formulas.append((phi, name))
        tr.counter = max(tr.counter, _hyp_index(name) + 1)
    return tr.translate(p)[0]


def _hyp_index(name: str) -> int:
    return int(name[1:]) if name[1:].isdigit() else 0


# ---------------------------------------------------------------------------
# Certificate checking


@dataclass
class Verdict:
    accepted: bool
    error: Optional[str] = None
    path: Optional[tuple[int, ...]] = None
    entries: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.accepted


def certificate_entries(
    thy: tff.TffTheory,
    goal: tff.TffFormula,
    proof: LLProof,
    module: Optional[str] = None,
    sig: Optional[signature.Signature] = None,
    fuel: Optional[kernel.Fuel] = None,
) -> tuple[list[Entry], _Translator]:
    """The `cert` module: the goal constant with its proof definition."""
    module = module or thy.name
    tbl = tff.wf_theory(thy)
    tff.wf_formula(tbl, tff.TffContext(), goal)
    proof = eliminate_pred_fun(proof)
    tr = _Translator(thy, tbl, module, sig, fuel)
    neg_goal = tff.Not(goal)
    name, ktype = tr.push_hyp(neg_goal)
    body, tr.layout = tr.translate(proof)
    cert_type = arrow(ktype, prf(FALSE))
    cert_body = Lam(name, ktype, abstract(body, name))
    return [Def("cert.goal", cert_type, cert_body)], tr


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
    """logic + rules + theory, ready for certificate checking."""
    entries = embed.prelude(mode) + rules_prelude(mode) + embed.theory_entries(thy)
    return signature.install_entries(signature.EMPTY, entries, fuel)


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


def proof_from_sexp(sx: object, cons: set[str]) -> LLProof:
    row = tff.tagged_row(sx, _SCHEMA_BY_TAG, "proof node")
    count = len(row.kinds)
    if len(sx) < 1 + count:
        raise tff.FormatError(f"rule {row.tag} expects {count} fields")
    # `(TAG field ... [(concl F ...)] premise ...)`
    rest = sx[1 + count :]
    concls = None
    if rest and isinstance(rest[0], list) and rest[0] and rest[0][0] == "concl":
        concls = FORMULAS.read(rest[0][1:], cons, frozenset())
        rest = rest[1:]
    rule = row.cls(*tff.read_fields(row.kinds, sx[1 : 1 + count], cons, frozenset()))
    premises = tuple(proof_from_sexp(p, cons) for p in rest)
    return LLProof(rule, premises, concls)


def proof_to_sexp(p: LLProof, cons: set[str]) -> list:
    row = _SCHEMA[type(p.rule)]
    out = [row.tag, *tff.write_fields(row.kinds, _values(p.rule), cons, frozenset())]
    if p.concls is not None:
        out.append(["concl", *FORMULAS.write(p.concls, cons, frozenset())])
    out += [proof_to_sexp(q, cons) for q in p.premises]
    return out


def parse_proof(text: str, thy: tff.TffTheory) -> tuple[tff.TffFormula, LLProof]:
    """Read a `.llpx` file: (proof (theory NAME) (goal F) TREE)."""
    sx = sexp.loads_one(text)
    if not (isinstance(sx, list) and len(sx) == 4 and sx[0] == "proof"):
        raise tff.FormatError("expected (proof (theory NAME) (goal F) TREE)")
    theory_ref = sx[1]
    if not (isinstance(theory_ref, list) and len(theory_ref) == 2 and theory_ref[0] == "theory"):
        raise tff.FormatError("expected (theory NAME)")
    if theory_ref[1] != thy.name:
        raise tff.FormatError(f"proof references theory {theory_ref[1]!r}, got {thy.name!r}")
    goal_sx = sx[2]
    if not (isinstance(goal_sx, list) and len(goal_sx) == 2 and goal_sx[0] == "goal"):
        raise tff.FormatError("expected (goal FORMULA)")
    cons = {item.name for item in thy.items if isinstance(item, tff.TypeCons)}
    goal = tff.formula_from_sexp(goal_sx[1], cons)
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
