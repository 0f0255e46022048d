"""Polymorphic first-order syntax: well-formedness and the .tffx format."""

import pytest

from lpm import examples, sexp, tff
from lpm.tff import (
    And,
    Bottom,
    Eq,
    Forall,
    ForallType,
    Fun,
    FunDecl,
    Iff,
    Pred,
    PredDecl,
    PropRule,
    TCons,
    TVar,
    TffContext,
    TffTheory,
    TermRule,
    TypeCons,
    Var,
    infer_term,
    wf_formula,
    wf_theory,
    wf_type,
)

BOOL = TCons("bool")
AL = TVar("al")


@pytest.fixture(scope="module")
def bool_tbl():
    return wf_theory(examples.bool_theory())


@pytest.fixture(scope="module")
def set_tbl():
    return wf_theory(examples.set_theory())


# ---------------------------------------------------------------------------
# wf_type


def test_wf_type_nullary(bool_tbl):
    wf_type(bool_tbl, (), BOOL)


def test_wf_type_applied_constructor_with_tvar(set_tbl):
    wf_type(set_tbl, ("al",), TCons("set", (AL,)))


def test_wf_type_unknown_constructor(bool_tbl):
    with pytest.raises(tff.UnknownConstructor):
        wf_type(bool_tbl, (), TCons("set", (BOOL,)))


def test_wf_type_arity_mismatch(set_tbl):
    with pytest.raises(tff.ArityMismatch):
        wf_type(set_tbl, (), TCons("set", ()))


def test_wf_type_unbound_tvar(bool_tbl):
    with pytest.raises(tff.UnboundTypeVariable):
        wf_type(bool_tbl, (), AL)


# ---------------------------------------------------------------------------
# infer_term


def test_infer_boolean_connective(bool_tbl):
    t = Fun("andb", (), (Fun("true"), Fun("false")))
    assert infer_term(bool_tbl, TffContext(), t) == BOOL


def test_infer_polymorphic_instance(bool_tbl):
    t = Fun("ifte", (BOOL,), (Fun("true"), Fun("false"), Fun("true")))
    assert infer_term(bool_tbl, TffContext(), t) == BOOL


def test_infer_set_difference(set_tbl):
    ctx = TffContext(("al",), (("s", TCons("set", (AL,))),))
    t = Fun("minus", (AL,), (Var("s"), Var("s")))
    assert infer_term(set_tbl, ctx, t) == TCons("set", (AL,))


def test_infer_errors(bool_tbl, set_tbl):
    with pytest.raises(tff.UnknownSymbol):
        infer_term(bool_tbl, TffContext(), Fun("nope"))
    with pytest.raises(tff.UnknownSymbol):
        infer_term(bool_tbl, TffContext(), Var("x"))
    with pytest.raises(tff.ArityMismatch):
        infer_term(bool_tbl, TffContext(), Fun("andb", (), (Fun("true"),)))
    with pytest.raises(tff.ArityMismatch):
        infer_term(bool_tbl, TffContext(), Fun("ifte", (), (Fun("true"), Fun("true"), Fun("true"))))
    # argument of the wrong instantiated type: minus expects sets, x : al
    with pytest.raises(tff.ArgTypeMismatch):
        infer_term(
            set_tbl,
            TffContext(("al",), (("x", AL),)),
            Fun("minus", (AL,), (Var("x"), Var("x"))),
        )


# ---------------------------------------------------------------------------
# wf_formula


def test_wf_formula_reflexivity(bool_tbl):
    phi = Forall("x", BOOL, Eq(BOOL, Var("x"), Var("x")))
    wf_formula(bool_tbl, TffContext(), phi)


def test_wf_formula_set_difference_goal(set_tbl):
    wf_formula(set_tbl, TffContext(), examples.set_diff_goal())


def test_wf_formula_eq_type_mismatch(set_tbl):
    phi = ForallType("al", Forall("s", TCons("set", (AL,)), Eq(AL, Var("s"), Var("s"))))
    with pytest.raises(tff.EqTypeMismatch):
        wf_formula(set_tbl, TffContext(), phi)


def test_wf_formula_quantifiers_extend_scope(set_tbl):
    phi = ForallType("b", Forall("x", TVar("b"), Eq(TVar("b"), Var("x"), Var("x"))))
    wf_formula(set_tbl, TffContext(), phi)
    with pytest.raises(tff.UnboundTypeVariable):
        wf_formula(set_tbl, TffContext(), Forall("x", TVar("b"), Eq(TVar("b"), Var("x"), Var("x"))))


# ---------------------------------------------------------------------------
# wf_theory


def test_wf_theory_corpus():
    for mk in (examples.bool_theory, examples.set_theory, examples.pair_theory, examples.pred_decomp_theory):
        wf_theory(mk())


def test_wf_theory_rejects_non_atomic_prop_rule_lhs():
    thy = TffTheory(
        "t",
        (
            TypeCons("b", 0),
            PredDecl("P", (), (TCons("b"),)),
            PropRule((), (("x", TCons("b")),), And(Pred("P", (), (Var("x"),)), Bottom()), Bottom()),
        ),
    )
    with pytest.raises(tff.TheoryItemError) as e:
        wf_theory(thy)
    assert isinstance(e.value.cause, tff.NonAtomicLhs)
    assert e.value.index == 2


def test_wf_theory_rejects_rule_fv_violation():
    thy = TffTheory(
        "t",
        (
            TypeCons("b", 0),
            FunDecl("f", (), (TCons("b"),), TCons("b")),
            TermRule((), (("x", TCons("b")), ("y", TCons("b"))), Fun("f", (), (Var("x"),)), Var("y")),
        ),
    )
    with pytest.raises(tff.TheoryItemError) as e:
        wf_theory(thy)
    assert isinstance(e.value.cause, tff.RuleViolation)


def test_wf_theory_rejects_mistyped_rule_sides():
    thy = TffTheory(
        "t",
        (
            TypeCons("b", 0),
            TypeCons("c", 0),
            FunDecl("f", (), (), TCons("b")),
            FunDecl("g", (), (), TCons("c")),
            TermRule((), (), Fun("f"), Fun("g")),
        ),
    )
    with pytest.raises(tff.TheoryItemError) as e:
        wf_theory(thy)
    assert isinstance(e.value.cause, tff.RuleViolation)


def test_wf_theory_rejects_duplicate_symbols():
    thy = TffTheory("t", (TypeCons("b", 0), FunDecl("b", (), (), TCons("b"))))
    with pytest.raises(tff.TheoryItemError) as e:
        wf_theory(thy)
    assert isinstance(e.value.cause, tff.DuplicateSymbol)


def test_prefix_monotonicity():
    thy = examples.set_theory()
    for k in range(len(thy.items) + 1):
        wf_theory(TffTheory(thy.name, thy.items[:k]))


def test_infer_term_deterministic_and_total_on_wf_inputs(bool_tbl):
    terms = [
        Fun("true"),
        Fun("andb", (), (Fun("true"), Fun("notb", (), (Fun("false"),)))),
        Fun("ifte", (BOOL,), (Fun("true"), Fun("false"), Fun("true"))),
    ]
    for t in terms:
        first = infer_term(bool_tbl, TffContext(), t)
        assert infer_term(bool_tbl, TffContext(), t) == first == BOOL


# ---------------------------------------------------------------------------
# substitution helpers


def test_subst_formula_avoids_quantifier_capture():
    # substituting a term mentioning x under a quantifier binding x
    phi = Forall("x", BOOL, Eq(BOOL, Var("x"), Var("y")))
    got = tff.subst_formula(phi, {"y": Var("x")})
    assert isinstance(got, Forall)
    assert got.var != "x"
    assert got.body == Eq(BOOL, Var(got.var), Var("x"))


def test_subst_type_in_formula_renames_type_binder():
    phi = ForallType("a", Forall("x", TVar("a"), Eq(TVar("a"), Var("x"), Var("x"))))
    got = tff.subst_type_in_formula(Iff(phi, Pred("Q", (TVar("b"),), ())), {"b": TVar("a")})
    assert isinstance(got, Iff)
    assert got.rhs == Pred("Q", (TVar("a"),), ())
    assert got.lhs == phi  # bound a untouched, no capture possible


# ---------------------------------------------------------------------------
# .tffx round trip


def test_theory_sexp_round_trip():
    for mk in (examples.bool_theory, examples.set_theory, examples.pair_theory, examples.pred_decomp_theory):
        thy = mk()
        assert tff.parse_theory(tff.print_theory(thy)) == thy


def test_theory_format_errors():
    with pytest.raises(tff.FormatError):
        tff.parse_theory("(not-a-theory)")
    with pytest.raises(tff.FormatError):
        tff.parse_theory("(theory t (frobnicate x))")
    with pytest.raises(sexp.SexpError):
        tff.parse_theory("(theory t")


def test_type_variables_named_like_constructors_round_trip():
    # a rule's or quantifier's type variable shadows a constructor of the
    # same name; a shadowed nullary constructor is written `(a)`
    a = TVar("a")
    thy = TffTheory("t", (
        TypeCons("a", 0),
        FunDecl("f", ("b",), (TVar("b"),), TVar("b")),
        PredDecl("P", ("b",), (TVar("b"),)),
        TermRule(("a",), (("x", a),), Fun("f", (a,), (Var("x"),)), Var("x")),
    ))
    wf_theory(thy)
    back = tff.parse_theory(tff.print_theory(thy))
    assert back == thy
    wf_theory(back)
    cons = {"a"}
    bound = ForallType("a", Forall("x", a, Pred("P", (a,), (Var("x"),))))
    shadowed = ForallType("a", Pred("P", (TCons("a"),), (Fun("c", (TCons("a"),)),)))
    for phi in (bound, shadowed):
        assert tff.formula_from_sexp(tff.formula_to_sexp(phi, cons), cons) == phi
    assert tff.formula_from_sexp(sexp.loads_one("(foralltype a (forall x a (pred P (a) x)))"), cons) == bound


def test_formula_sexp_round_trip():
    thy = examples.set_theory()
    cons = {"set"}
    goal = examples.set_diff_goal()
    assert tff.formula_from_sexp(tff.formula_to_sexp(goal, cons), cons) == goal
