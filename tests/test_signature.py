"""Global context construction and its well-formedness side conditions."""

import pytest

from lpm import embed, examples, kernel, signature
from lpm.dkparse import Def, Rule, parse_term
from lpm.terms import Const, FVar, app


def T(text, delta=()):
    return parse_term(text, delta)


def test_declare_extends_persistently(logic_shallow):
    before = list(logic_shallow._types)
    extended = logic_shallow.declare("bool.bool", Const("logic.type"))
    assert list(extended._types) == before + ["bool.bool"]
    assert list(logic_shallow._types) == before
    assert extended.type_of("bool.bool") == Const("logic.type")
    assert logic_shallow.type_of("bool.bool") is None


def test_declare_rejects_duplicates(logic_shallow):
    sig = logic_shallow.declare("c", Const("logic.Prop"))
    with pytest.raises(signature.DuplicateName):
        sig.declare("c", Const("logic.Prop"))


def test_declare_rejects_non_sort_type(bool_sig):
    # true : term bool, and term bool is a Type, so x : true is fine-sorted
    # only if true itself were a sort
    with pytest.raises(signature.NotASort):
        bool_sig.declare("x", Const("bool.true"))


def test_add_rewrite_accepts_boolean_rule(bool_sig):
    sig = bool_sig.declare("b3", T("logic.term bool.bool"))
    extended = sig.add_rewrite(
        (("a", T("logic.term bool.bool")),),
        T("bool.andb b3 a", ("a",)),
        FVar("a"),
    )
    assert kernel.whnf(extended, T("bool.andb b3 bool.false")) == Const("bool.false")


def test_add_rewrite_rejects_variable_head(pair_sig):
    with pytest.raises(signature.NonPatternLhs):
        pair_sig.add_rewrite(
            (("x", T("logic.term pairs.elem")),),
            FVar("x"),
            T("pairs.fst (pairs.pair x x)", ("x",)),
        )


def test_add_rewrite_rejects_binder_in_pattern(logic_shallow):
    with pytest.raises(signature.NonPatternLhs):
        logic_shallow.add_rewrite(
            (("A", Const("logic.Prop")),),
            app(Const("logic.prf"), T("x : logic.Prop => x")),
            FVar("A"),
        )


def test_add_rewrite_rejects_free_rhs_variable(pair_sig):
    with pytest.raises(signature.FVViolation):
        pair_sig.add_rewrite(
            (("x", T("logic.term pairs.elem")),),
            T("pairs.fst (pairs.pair x x)", ("x",)),
            FVar("y"),
        )


def test_add_rewrite_rejects_ill_typed_rhs(bool_sig):
    with pytest.raises(signature.IllTypedSide):
        bool_sig.add_rewrite(
            (("a", T("logic.term bool.bool")),),
            T("bool.notb a", ("a",)),
            Const("logic.True"),
        )


def test_add_rewrite_checks_context_types(bool_sig):
    with pytest.raises(signature.NotASort):
        bool_sig.add_rewrite(
            (("a", Const("bool.true")),),
            T("bool.notb a", ("a",)),
            FVar("a"),
        )


def test_empty_signature_is_well_formed():
    assert signature.EMPTY._types == {} and signature.EMPTY._rules == {}
    assert signature.install_entries(signature.EMPTY, [])._types == {}


@pytest.mark.parametrize("make", [examples.bool_theory, examples.set_theory], ids=["bool", "set"])
def test_stepwise_install_matches_one_call(make):
    # one entry per call, as `lpm check` installs a file, builds the
    # signature one call over all the entries builds
    entries = embed.prelude("shallow") + embed.theory_entries(make())
    whole = signature.install_entries(signature.EMPTY, entries)
    stepwise = signature.EMPTY
    for entry in entries:
        stepwise = signature.install_entries(stepwise, [entry])
    assert list(stepwise._types.items()) == list(whole._types.items())
    assert list(stepwise._rules) == list(whole._rules)
    fields = lambda rules: [(r.head, r.lhs_args, r.delta, r.rhs, r.screens) for r in rules]
    for head in whole._rules:
        assert fields(stepwise.rules_for(head)) == fields(whole.rules_for(head)), head
    assert sum(map(len, whole._rules.values())) == sum(isinstance(e, (Rule, Def)) for e in entries)


def test_assert_entry_checks(logic_shallow):
    from lpm import dkparse

    entries = dkparse.parse_file("#ASSERT (Z : logic.Prop => h : logic.prf Z => h) : logic.prf logic.True.")
    signature.install_entries(logic_shallow, entries)
    bad = dkparse.parse_file("#ASSERT logic.True : logic.prf logic.True.")
    with pytest.raises(kernel.TypeMismatch):
        signature.install_entries(logic_shallow, bad)


def test_definition_installs_declaration_and_rule(logic_shallow):
    from lpm import dkparse

    entries = dkparse.parse_file("def myid : logic.Prop -> logic.Prop := x : logic.Prop => x.")
    sig = signature.install_entries(logic_shallow, entries)
    assert kernel.whnf(sig, app(Const("myid"), Const("logic.True"))) == Const("logic.True")


def test_ill_typed_definition_body_names_the_definition(logic_shallow):
    from lpm import dkparse

    entries = dkparse.parse_file("def myid : logic.Prop -> logic.Prop := x : logic.Prop => logic.prf x.")
    with pytest.raises(signature.IllTypedBody) as info:
        signature.install_entries(logic_shallow, entries)
    err = info.value
    assert isinstance(err, signature.IllTypedSide) and err.side == "right"
    assert isinstance(err.cause, kernel.KernelError)
    assert str(err).startswith("ill-typed body of definition myid: ")
