"""Embedding: the logic prelude and the theory translation functions."""

import pytest

from theory_gen import check_translation_bullets, random_theory
from lpm import dkparse, embed, examples, kernel, llproof, signature, tff
from lpm.dkparse import Decl, Rule, parse_term
from lpm.embed import translate, translate_context
from lpm.terms import Const, FVar, app


def T(text, delta=()):
    return parse_term(text, delta)


# ---------------------------------------------------------------------------
# prelude


def test_prelude_declares_term_decoder():
    assert Decl("logic.term", T("logic.type -> Type")) in embed.prelude("deep")


def test_prelude_primitive_count():
    deep = embed.prelude("deep")
    assert len(deep) == 16  # four primitive types + twelve connectives
    assert all(isinstance(e, Decl) for e in deep)
    shallow = embed.prelude("shallow")
    assert shallow[:16] == deep
    rules = [e for e in shallow if isinstance(e, Rule)]
    assert len(rules) == 12  # one unfolding per connective/quantifier/equality
    # no axioms: every non-declaration entry is a rewrite rule
    assert len(shallow) == 16 + 12


def test_prelude_equality_unfolding():
    expected = dkparse.parse_file(
        "[a : logic.type, x : logic.term a, y : logic.term a] "
        "logic.prf (logic.eq a x y) --> "
        "Z : (logic.term a -> logic.Prop) -> logic.prf (Z x) -> logic.prf (Z y).\n"
    )[0]
    assert expected in embed.prelude("shallow")


def test_prelude_type_checks_from_empty_signature():
    for mode in ("deep", "shallow"):
        sig = signature.install_entries(signature.EMPTY, embed.prelude(mode))
        assert "logic.eq" in sig


def test_prelude_exists_rule_avoids_shadowing(logic_shallow):
    # prf (exists a P) must unfold to a product whose inner binder is not P
    t = T("logic.prf (logic.exists a P)", ("a", "P"))
    got = kernel.whnf(logic_shallow, t)
    expected = T(
        "Z : logic.Prop -> (x : logic.term a -> logic.prf (P x) -> logic.prf Z) -> logic.prf Z",
        ("a", "P"),
    )
    assert got == expected


# ---------------------------------------------------------------------------
# translate / translate_context


def test_translate_nullary_constructor():
    assert translate(tff.TCons("bool"), "bool") == Const("bool.bool")


def test_translate_applied_constructor():
    got = translate(tff.TCons("set", (tff.TVar("al"),)), "set")
    assert got == app(Const("set.set"), FVar("al"))


def test_translate_type_variable():
    assert translate(tff.TVar("al")) == FVar("al")


def test_translate_term_variable():
    assert translate(tff.Var("x")) == FVar("x")


def test_translate_term_type_args_first():
    e = tff.Fun("ifte", (tff.TCons("bool"),), (tff.Fun("true"), tff.Var("a"), tff.Var("b")))
    got = translate(e, "bool")
    assert got == T("bool.ifte bool.bool bool.true a b", ("a", "b"))


def test_translate_term_set_difference():
    e = tff.Fun("minus", (tff.TVar("al"),), (tff.Var("s"), tff.Var("t")))
    assert translate(e, "set") == T("set.minus al s t", ("al", "s", "t"))


def test_translate_formula_top():
    assert translate(tff.Top()) == Const("logic.True")


def test_translate_formula_type_quantifier():
    phi = tff.ForallType("al", tff.Top())
    got = translate(phi)
    assert got == T("logic.foralltype (al : logic.type => logic.True)")


def test_translate_formula_equality_carries_type():
    phi = tff.Eq(tff.TCons("bool"), tff.Var("x"), tff.Var("y"))
    assert translate(phi, "bool") == T("logic.eq bool.bool x y", ("x", "y"))


def test_translate_formula_term_quantifier_binds():
    phi = tff.Forall("x", tff.TCons("bool"), tff.Eq(tff.TCons("bool"), tff.Var("x"), tff.Var("x")))
    got = translate(phi, "bool")
    assert got == T("logic.forall bool.bool (x : logic.term bool.bool => logic.eq bool.bool x x)")


def test_translate_context():
    assert translate_context(tff.TffContext()) == []
    ctx = tff.TffContext((), (("x", tff.TCons("bool")),))
    assert translate_context(ctx, "bool") == [("x", T("logic.term bool.bool"))]
    ctx2 = tff.TffContext(("al",), (("s", tff.TCons("set", (tff.TVar("al"),))),))
    assert translate_context(ctx2, "set") == [
        ("al", Const("logic.type")),
        ("s", T("logic.term (set.set al)", ("al",))),
    ]


# ---------------------------------------------------------------------------
# translate_theory


def test_theory_entries_shapes():
    entries = embed.theory_entries(examples.bool_theory())
    assert entries[0] == Decl("bool.bool", Const("logic.type"))
    assert Decl("bool.notb", T("logic.term bool.bool -> logic.term bool.bool")) in entries
    ifte = next(e for e in entries if isinstance(e, Decl) and e.name == "bool.ifte")
    assert ifte.type == T(
        "al : logic.type -> logic.term bool.bool -> logic.term al -> logic.term al -> logic.term al"
    )


def test_theory_entries_membership_predicate():
    entries = embed.theory_entries(examples.set_theory())
    pred = next(e for e in entries if isinstance(e, Decl) and e.name == "set.in")
    assert pred.type == T(
        "al : logic.type -> logic.term al -> logic.term (set.set al) -> logic.Prop"
    )


def test_theory_entries_empty_membership_rule():
    entries = embed.theory_entries(examples.set_theory())
    rule = next(
        e for e in entries
        if isinstance(e, Rule) and e.lhs == T("set.in al x (set.empty al)", ("al", "x"))
    )
    assert rule.ctx == (("al", Const("logic.type")), ("x", T("logic.term al", ("al",))))
    assert rule.rhs == Const("logic.False")


def test_translate_theory_returns_checked_signature():
    sig = llproof.base_signature(examples.pair_theory())
    assert "pairs.fst" in sig and "logic.prf" in sig


def test_axioms_translate_to_prf_constants():
    thy = tff.TffTheory(
        "t",
        (
            tff.TypeCons("b", 0),
            tff.FunDecl("c", (), (), tff.TCons("b")),
            tff.Axiom("refl_c", tff.Eq(tff.TCons("b"), tff.Fun("c"), tff.Fun("c"))),
        ),
    )
    entries = embed.theory_entries(thy)
    assert entries[-1] == Decl("t.refl_c", T("logic.prf (logic.eq t.b t.c t.c)"))
    signature.install_entries(
        signature.install_entries(signature.EMPTY, embed.prelude("shallow")), entries
    )


def test_unknown_extension_rejected():
    thy = tff.TffTheory("t", (tff.ExtDecl("no-such-rule"),))
    with pytest.raises(embed.UnknownExtension):
        embed.theory_entries(thy)


# ---------------------------------------------------------------------------
# translation-correctness properties (corpus + a few random theories; the
# acceptance suite runs the full 200-theory sweep)


def test_correctness_bullets_bool(bool_sig):
    check_translation_bullets(examples.bool_theory(), bool_sig, seed=1)


def test_correctness_bullets_set(set_sig):
    check_translation_bullets(examples.set_theory(), set_sig, seed=2)


def test_correctness_bullets_random_theories(logic_shallow):
    for seed in range(10):
        thy = random_theory(seed)
        sig = signature.install_entries(logic_shallow, embed.theory_entries(thy))
        check_translation_bullets(thy, sig, seed)


def test_translation_commutes_with_closed_substitution():
    # substituting a closed term then translating equals translating then
    # substituting the translated term for the corresponding free variable
    from lpm.terms import substitute

    bool_ty = tff.TCons("bool")
    closed_terms = [
        tff.Fun("true"),
        tff.Fun("notb", (), (tff.Fun("true"),)),
        tff.Fun("andb", (), (tff.Fun("false"), tff.Fun("true"))),
    ]
    open_formulas = [
        tff.Eq(bool_ty, tff.Var("v"), tff.Fun("notb", (), (tff.Var("v"),))),
        tff.Forall("x", bool_ty, tff.Eq(bool_ty, tff.Var("x"), tff.Var("v"))),
        tff.Not(tff.Pred("nonzero", (), (tff.Var("v"),))),
    ]
    for closed in closed_terms:
        for psi in open_formulas:
            lhs = translate(tff.subst_formula(psi, {"v": closed}), "bool")
            rhs = substitute(translate(psi, "bool"), {"v": translate(closed, "bool")})
            assert lhs == rhs
