"""Seeded random generator for small well-formed theories and formulas.

Used to exercise the translation-correctness properties: every theory it
returns passes `wf_theory` by construction, and the companion generators
produce well-formed types, terms of a given type, and closed formulas
over that theory.
"""

from __future__ import annotations

import random
from typing import Optional

from lpm import tff
from lpm.tff import (
    And,
    Axiom,
    Bottom,
    Eq,
    Exists,
    ExistsType,
    Forall,
    ForallType,
    Fun,
    FunDecl,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredDecl,
    PropRule,
    TCons,
    TffContext,
    TffTheory,
    TermRule,
    Top,
    TVar,
    TypeCons,
    Var,
)


def random_type(
    rng: random.Random, tbl: tff.Table, tvars: tuple[str, ...], depth: int = 2
) -> Optional[tff.TffType]:
    """A well-formed type over `tvars`, or None if none exists."""
    candidates = [(n, m) for n, m in sorted(tbl.type_cons.items()) if m == 0 or depth > 0]
    options = (["tvar"] if tvars else []) + (["cons"] if candidates else [])
    if not options:
        return None
    if rng.choice(options) == "tvar":
        return TVar(rng.choice(tvars))
    name, arity = rng.choice(candidates)
    args = []
    for _ in range(arity):
        arg = random_type(rng, tbl, tvars, depth - 1)
        if arg is None:
            return TVar(rng.choice(tvars)) if tvars else None
        args.append(arg)
    return TCons(name, tuple(args))


def _unify_scheme(pattern: tff.TffType, ty: tff.TffType, out: dict) -> bool:
    """Bind the scheme's type variables in `pattern` to match `ty`."""
    match pattern:
        case TVar(name=a):
            if a in out:
                return out[a] == ty
            out[a] = ty
            return True
        case TCons(name=c, args=args):
            return (
                isinstance(ty, TCons)
                and ty.name == c
                and len(ty.args) == len(args)
                and all(_unify_scheme(p, t, out) for p, t in zip(args, ty.args))
            )
    return False


def random_term(
    rng: random.Random,
    tbl: tff.Table,
    ctx: TffContext,
    ty: tff.TffType,
    depth: int = 2,
) -> Optional[tff.TffTerm]:
    """A term of exactly `ty` in `ctx`, or None when none can be built."""
    vars_of_ty = [x for x, t in ctx.vars if t == ty]
    builders = []
    for name in sorted(tbl.funs):
        decl = tbl.funs[name]
        binding: dict = {}
        if not _unify_scheme(decl.result, ty, binding):
            continue
        if decl.arg_types and depth <= 0:
            continue
        builders.append((decl, binding))
    choices = (["var"] * 3 if vars_of_ty else []) + (["fun"] if builders else [])
    rng.shuffle(choices)
    for choice in choices:
        if choice == "var":
            return Var(rng.choice(vars_of_ty))
        decl, binding = rng.choice(builders)
        binding = dict(binding)
        ok = True
        for a in decl.tvars:
            if a not in binding:
                inst = random_type(rng, tbl, ctx.tvars, depth=1)
                if inst is None:
                    ok = False
                    break
                binding[a] = inst
        if not ok:
            continue
        args = []
        for arg_ty in decl.arg_types:
            arg = random_term(rng, tbl, ctx, tff.subst_type(arg_ty, binding), depth - 1)
            if arg is None:
                ok = False
                break
            args.append(arg)
        if ok:
            ty_args = tuple(binding[a] for a in decl.tvars)
            return Fun(decl.name, ty_args, tuple(args))
    return None


def random_formula(
    rng: random.Random,
    tbl: tff.Table,
    ctx: TffContext,
    depth: int = 3,
) -> tff.TffFormula:
    atoms = ["top", "bot", "eq", "pred"]
    if depth <= 0:
        kinds = atoms
    else:
        kinds = atoms + ["not", "and", "or", "imp", "iff", "forall", "exists", "foralltype", "existstype"]
    for _ in range(8):
        kind = rng.choice(kinds)
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bottom()
        if kind == "eq":
            ty = random_type(rng, tbl, ctx.tvars, depth=1)
            if ty is None:
                continue
            a = random_term(rng, tbl, ctx, ty)
            b = random_term(rng, tbl, ctx, ty)
            if a is not None and b is not None:
                return Eq(ty, a, b)
            continue
        if kind == "pred":
            if not tbl.preds:
                continue
            decl = tbl.preds[rng.choice(sorted(tbl.preds))]
            binding = {a: random_type(rng, tbl, ctx.tvars, depth=1) for a in decl.tvars}
            if any(v is None for v in binding.values()):
                continue
            args = []
            ok = True
            for arg_ty in decl.arg_types:
                arg = random_term(rng, tbl, ctx, tff.subst_type(arg_ty, binding))
                if arg is None:
                    ok = False
                    break
                args.append(arg)
            if not ok:
                continue
            return Pred(decl.name, tuple(binding[a] for a in decl.tvars), tuple(args))
        if kind == "not":
            return Not(random_formula(rng, tbl, ctx, depth - 1))
        if kind in ("and", "or", "imp", "iff"):
            cls = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
            return cls(random_formula(rng, tbl, ctx, depth - 1), random_formula(rng, tbl, ctx, depth - 1))
        if kind in ("forall", "exists"):
            ty = random_type(rng, tbl, ctx.tvars, depth=1)
            if ty is None:
                continue
            x = f"v{len(ctx.vars)}"
            cls = Forall if kind == "forall" else Exists
            return cls(x, ty, random_formula(rng, tbl, ctx.bind(x, ty), depth - 1))
        if kind in ("foralltype", "existstype"):
            a = f"tv{len(ctx.tvars)}"
            cls = ForallType if kind == "foralltype" else ExistsType
            return cls(a, random_formula(rng, tbl, ctx.bind_tvar(a), depth - 1))
    return Top()


def random_theory(seed: int) -> TffTheory:
    rng = random.Random(seed)
    items: list = [TypeCons("base", 0)]
    tbl = tff.Table()
    tbl.type_cons["base"] = 0
    for i in range(rng.randint(0, 2)):
        name = f"T{i}"
        arity = rng.randint(0, 2)
        items.append(TypeCons(name, arity))
        tbl.type_cons[name] = arity

    for i in range(rng.randint(2, 4)):
        name = f"f{i}"
        tvars = tuple(f"a{j}" for j in range(rng.randint(0, 2)))
        n_args = rng.randint(0, 3)
        arg_types = tuple(random_type(rng, tbl, tvars) for _ in range(n_args))
        # keep every scheme variable inhabitable: results built over args
        result = rng.choice([random_type(rng, tbl, tvars)] + [TVar(a) for a in tvars])
        used = set()
        for t in arg_types + (result,):
            used |= tff.type_tvars(t)
        tvars = tuple(a for a in tvars if a in used)
        decl = FunDecl(name, tvars, arg_types, result)
        items.append(decl)
        tbl.funs[name] = decl

    for i in range(rng.randint(1, 2)):
        name = f"P{i}"
        tvars = tuple(f"a{j}" for j in range(rng.randint(0, 1)))
        arg_types = tuple(random_type(rng, tbl, tvars) for _ in range(rng.randint(0, 2)))
        used = set()
        for t in arg_types:
            used |= tff.type_tvars(t)
        tvars = tuple(a for a in tvars if a in used)
        decl = PredDecl(name, tvars, arg_types)
        items.append(decl)
        tbl.preds[name] = decl

    for i in range(rng.randint(0, 2)):
        items.append(Axiom(f"ax{i}", random_formula(rng, tbl, TffContext(), depth=2)))

    items += _random_rules(rng, tbl)
    thy = TffTheory(f"rnd{seed}", tuple(items))
    tff.wf_theory(thy)
    return thy


def _term_symbols(e: tff.TffTerm) -> frozenset[str]:
    match e:
        case Var():
            return frozenset()
        case Fun(name=f, args=args):
            out = frozenset((f,))
            for a in args:
                out |= _term_symbols(a)
            return out
    raise TypeError(e)


def _formula_symbols(phi: tff.TffFormula) -> frozenset[str]:
    match phi:
        case tff.Top() | tff.Bottom():
            return frozenset()
        case tff.Not(body=b):
            return _formula_symbols(b)
        case tff.And(lhs=a, rhs=b) | tff.Or(lhs=a, rhs=b) | tff.Implies(lhs=a, rhs=b) | tff.Iff(lhs=a, rhs=b):
            return _formula_symbols(a) | _formula_symbols(b)
        case tff.Eq(lhs=a, rhs=b):
            return _term_symbols(a) | _term_symbols(b)
        case tff.Pred(name=p, args=args):
            out = frozenset((p,))
            for a in args:
                out |= _term_symbols(a)
            return out
        case tff.Forall(body=b) | tff.Exists(body=b) | tff.ForallType(body=b) | tff.ExistsType(body=b):
            return _formula_symbols(b)
    raise TypeError(phi)


def _random_rules(rng: random.Random, tbl: tff.Table) -> list:
    # at most one term and one proposition rule, never mentioning their
    # own head on the right, so the generated system always terminates
    out: list = []
    for decl in list(tbl.funs.values()):
        if not decl.arg_types or rng.random() < 0.5:
            continue
        tvars = decl.tvars
        ctx_vars = tuple((f"x{j}", ty) for j, ty in enumerate(decl.arg_types))
        ctx = TffContext(tvars, ctx_vars)
        lhs = Fun(decl.name, tuple(TVar(a) for a in tvars), tuple(Var(x) for x, _ in ctx_vars))
        rhs = random_term(rng, tbl, ctx, decl.result, depth=1)
        if rhs is None or rhs == lhs or decl.name in _term_symbols(rhs):
            continue
        if not (tff.term_vars(rhs) <= tff.term_vars(lhs) and tff.term_tvars(rhs) <= tff.term_tvars(lhs)):
            continue
        out.append(TermRule(tvars, ctx_vars, lhs, rhs))
        break
    for decl in list(tbl.preds.values()):
        if rng.random() < 0.5:
            continue
        tvars = decl.tvars
        ctx_vars = tuple((f"x{j}", ty) for j, ty in enumerate(decl.arg_types))
        ctx = TffContext(tvars, ctx_vars)
        lhs = Pred(decl.name, tuple(TVar(a) for a in tvars), tuple(Var(x) for x, _ in ctx_vars))
        rhs = random_formula(rng, tbl, ctx, depth=1)
        if decl.name in _formula_symbols(rhs):
            continue
        if not (tff.formula_vars(rhs) <= tff.formula_vars(lhs) and tff.formula_tvars(rhs) <= tff.formula_tvars(lhs)):
            continue
        out.append(PropRule(tvars, ctx_vars, lhs, rhs))
        break
    return out


def random_closed_types(rng: random.Random, tbl: tff.Table, count: int) -> list[tff.TffType]:
    out = [random_type(rng, tbl, (), depth=2) for _ in range(count)]
    return [t for t in out if t is not None]


def random_typed_terms(
    rng: random.Random, tbl: tff.Table, count: int
) -> list[tuple[tff.TffTerm, tff.TffType]]:
    out = []
    for _ in range(count * 4):
        if len(out) >= count:
            break
        ty = random_type(rng, tbl, (), depth=1)
        if ty is None:
            break
        t = random_term(rng, tbl, TffContext(), ty, depth=2)
        if t is not None:
            out.append((t, ty))
    return out


def random_closed_formulas(rng: random.Random, tbl: tff.Table, count: int) -> list[tff.TffFormula]:
    return [random_formula(rng, tbl, TffContext(), depth=3) for _ in range(count)]


def check_translation_bullets(thy: TffTheory, sig, seed: int, samples: int = 8) -> None:
    """The four translation-correctness properties over random instances.

    Given `sig` = logic prelude + translated theory (already installed,
    which is the first property), checks that well-formed types, typed
    terms, and well-formed formulas translate to kernel terms of the
    expected kernel types.  Types and terms are exercised both closed
    and under a type-variable scope.
    """
    from lpm import kernel
    from lpm.embed import PROP, term, translate
    from lpm.terms import Const

    tbl = tff.wf_theory(thy)
    rng = random.Random(seed)
    module = thy.name
    type_c = Const("logic.type")

    for ty in random_closed_types(rng, tbl, samples):
        kernel.check(sig, {}, translate(ty, module), type_c)
    for e, ty in random_typed_terms(rng, tbl, samples):
        kernel.check(sig, {}, translate(e, module), term(translate(ty, module)))
    for phi in random_closed_formulas(rng, tbl, samples):
        tff.wf_formula(tbl, TffContext(), phi)
        kernel.check(sig, {}, translate(phi, module), PROP)

    # scoped variants: one type variable and one term variable over it
    scope = TffContext(("al",))
    kctx = {"al": type_c}
    scoped_types = [random_type(rng, tbl, ("al",), depth=2) for _ in range(samples)]
    scoped_types = [t for t in scoped_types if t is not None]
    for ty in scoped_types:
        tff.wf_type(tbl, ("al",), ty)
        kernel.check(sig, kctx, translate(ty, module), type_c)
    if scoped_types:
        wty = scoped_types[0]
        scope2 = scope.bind("w", wty)
        kctx2 = dict(kctx)
        kctx2["w"] = term(translate(wty, module))
        for ty in scoped_types:
            e = random_term(rng, tbl, scope2, ty, depth=2)
            if e is None:
                continue
            kernel.check(sig, kctx2, translate(e, module), term(translate(ty, module)))
