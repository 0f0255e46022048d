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
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    order.  `const` names the rule's constant in the `rules` module; `Pred`
    and `Fun` have none (they are compiled as their `Subst` chains), nor
    has `Ext` (its constant belongs to the theory).
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


class _Plan(NamedTuple):
    """A `RULES` row as `_Translator.translate` compiles it: its `rules`
    constant, if it has one, its fields, named, with the kinds they are
    translated as (a witness as the term or type it holds), whether it has
    witness or fresh fields, and its `consumes` and `blocks`."""

    head: Optional[Const]
    fields: tuple[tuple[str, tff.FieldKind], ...]
    witnessed: bool
    fresh: bool
    consumes: Callable[[LLRule], Sequence[tff.TffFormula]]
    blocks: Callable[[LLRule], Sequence[Sequence[tff.TffFormula]]]


_WITNESSED = {WITNESS: TERM, WITNESS_TY: TY}
_PLANS = {row.cls: _Plan(row.const and Const(f"rules.{row.const}"),
                         tuple((f, _WITNESSED.get(k, k)) for f, k in zip(row.cls.__match_args__, row.kinds)),
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


def _consumed(p: LLProof) -> tuple[tff.TffFormula, ...]:
    """A node's consumed hypotheses, checking that a `(concl ...)` override
    lists as many formulas as the rule consumes."""
    default = tuple(_PLANS[p.rule.__class__].consumes(p.rule))
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
            concls = _consumed(p)
            atom = lambda args: _neq(res, tff.Fun(fn, tys, tuple(args)), tff.Fun(fn, tys, us))
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
    def __init__(self, thy: tff.TffTheory, tbl: tff.Table, sig: signature.Signature,
                 fuel: Optional[kernel.Fuel] = None):
        self.tbl = tbl
        self.module = thy.name
        self.sig = sig
        self.steps = fuel.max_rewrite_steps if fuel else kernel.DEFAULT_REWRITE_STEPS  # per conversion
        self.counter = 0
        # binders around the term being compiled; each hypothesis and
        # eigenvariable records the level of its binder, so a use at this
        # depth is the index `depth - level - 1`
        self.depth = 0
        # formula -> stack of (hypothesis name, level), innermost last
        self.env: dict[tff.TffFormula, list[tuple[str, int]]] = {}
        self.env_formulas: list[tuple[tff.TffFormula, str, int]] = []
        # eigenvariables in scope -> their levels
        self.kenv: dict[str, int] = {}
        # the embedding of each formula, term and type met with no
        # eigenvariable in scope: equal formulas share one kernel term
        self.memo: embed.Memo = {}
        # each axiom formula -> the name of its first declaration
        self.axioms = {f: n for n, f in reversed(tbl.axioms.items())}
        # set by `certificate_entries`: the layout of the refutation
        self.layout: Optional[_Layout] = None

    # -- environment -------------------------------------------------

    def push_hyp(self, phi: tff.TffFormula) -> tuple[str, KTerm]:
        """Bind a hypothesis `phi` at the current depth: its name and type."""
        name = f"h{self.counter}"
        self.counter += 1
        ktype = prf(self.kterm(phi))
        self.env.setdefault(phi, []).append((name, self.depth))
        self.env_formulas.append((phi, name, self.depth))
        self.depth += 1
        return name, ktype

    def var(self, name: str, level: int) -> Var:
        return Var(self.depth - level - 1, name)

    def kterm(self, x: object) -> KTerm:
        """A formula, term or type, with the eigenvariables in scope bound."""
        return embed.translate(x, self.module, self.kenv, self.depth, self.memo)

    def lookup(self, phi: tff.TffFormula) -> KTerm:
        stack = self.env.get(phi)
        if stack:
            return self.var(*stack[-1])
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
        if ty is None:
            what, clash, occurs = "type", "constructor", tff.formula_tvars
            taken = name in self.tbl.type_cons
        else:
            what, clash, occurs = "constant", "symbol", tff.formula_vars
            taken = name in self.tbl.funs or name in self.tbl.preds or name in self.tbl.type_cons
        if name in self.kenv:
            raise FreshnessViolation(f"{what} {name} was already introduced")
        if taken:
            raise FreshnessViolation(f"{what} {name} collides with a theory {clash}")
        if any(name in occurs(phi) for phi, *_ in self.env_formulas):
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
        consumed = plan.consumes(rule) if p.concls is None else _consumed(p)
        if plan.head is None:
            t, kargs = self.ext_args(rule)
        else:
            if plan.witnessed:
                self.check_witnesses(rule)
            t = plan.head
            kargs = embed.translate_fields(plan.fields, rule, self.module, self.kenv, self.depth, self.memo)
        for a in kargs:
            t = App(t, a)
        blocks = plan.blocks(rule)
        if len(p.premises) != len(blocks):
            raise CertificateError(f"rule {type(rule).__name__} expects {len(blocks)} premises, got {len(p.premises)}")

        eigen = _eigenvars(rule) if plan.fresh else ()
        # chain step k: premise 0 is the written node's premise k, and
        # premise 1 the next step of the same written node
        written = tuple((i,) for i in range(len(blocks))) if step is None else ((step,), ())[: len(blocks)]
        env, hyps = self.env, self.env_formulas
        layouts: list[_Layout] = []
        for premise, block, at in zip(p.premises, blocks, written):
            # the continuation binds the eigenvariables, then the block's
            # hypotheses, each typed at the depth of its own binder
            binders: list[tuple[str, KTerm]] = []
            for name, ty in eigen:
                self.check_fresh(name, ty)
                annot = TYPE_C if ty is None else term(self.kterm(ty))
                self.kenv[name] = self.depth
                self.depth += 1
                binders.append((name, annot))
            binders += [self.push_hyp(phi) for phi in block]
            try:
                body, layout = self.translate(premise, None if at else step + 1)
            except CertificateError as e:
                e.trail += at
                raise
            for phi in block:
                env[phi].pop()
            del hyps[len(hyps) - len(block) :]
            for name, _ in eigen:
                del self.kenv[name]
            self.depth -= len(binders)
            for name, annot in reversed(binders):
                body = Lam(name, annot, body)
            t = App(t, body)
            layouts.append(layout)

        for phi in consumed:
            stack = env.get(phi)
            t = App(t, Var(self.depth - stack[-1][1] - 1, stack[-1][0]) if stack else self.lookup(phi))
        binders = tuple(len(eigen) + len(block) for block in blocks)
        return t, _Layout(len(kargs) + len(blocks) + len(consumed), len(kargs), binders, written, tuple(layouts))


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
    tbl = tff.wf_theory(thy)
    tff.wf_formula(tbl, tff.TffContext(), goal)
    tr = _Translator(thy, tbl, sig, fuel)
    name, ktype = tr.push_hyp(tff.Not(goal))
    body, tr.layout = tr.translate(proof)
    return [Def("cert.goal", arrow(ktype, prf(FALSE)), Lam(name, ktype, body))], tr


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
    row = tff.tagged_row(sx, _SCHEMA_BY_TAG, "proof node")
    count = len(row.kinds)
    if len(sx) < 1 + count:
        raise tff.FormatError(f"rule {row.tag} expects {count} fields", sx)
    # `(TAG field ... [(concl F ...)] premise ...)`
    rest = sx[1 + count :]
    concls = None
    if rest and isinstance(rest[0], list) and rest[0] and rest[0][0] == "concl":
        concls = tuple(tff.read_fields([FORMULA] * (len(rest[0]) - 1), rest[0][1:], cons, frozenset(), rest[0]))
        rest = rest[1:]
    rule = row.cls(*tff.read_fields(row.kinds, sx[1 : 1 + count], cons, frozenset(), sx))
    try:
        premises = tuple(proof_from_sexp(p, cons) for p in rest)
    except tff.FormatError as e:
        raise e.within(sx)
    return LLProof(rule, premises, concls)


def proof_to_sexp(p: LLProof, cons: set[str]) -> list:
    row = _SCHEMA[type(p.rule)]
    out = [row.tag, *tff.write_fields(row.kinds, field_values(p.rule), cons, frozenset())]
    if p.concls is not None:
        out.append(["concl", *FORMULAS.write(p.concls, cons, frozenset())])
    out += [proof_to_sexp(q, cons) for q in p.premises]
    return out


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
