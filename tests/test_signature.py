"""Global context construction and its well-formedness side conditions."""

import pytest

from lpm import kernel, signature
from lpm.dkparse import parse_term
from lpm.terms import Const, FVar, app


def T(text, delta=()):
    return parse_term(text, delta)


def test_declare_extends_persistently(logic_shallow):
    before = len(logic_shallow)
    extended = logic_shallow.declare("bool.bool", Const("logic.type"))
    assert len(extended) == before + 1
    assert len(logic_shallow) == before
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
    assert len(signature.EMPTY) == 0
    assert signature.replay(signature.EMPTY).entries == ()


def test_replay_rederives_every_judgment(bool_sig):
    replayed = signature.replay(bool_sig)
    assert replayed.entries == bool_sig.entries
    assert replayed._types == bool_sig._types
    assert list(replayed._rules) == list(bool_sig._rules)


def test_replay_preserves_order(set_sig):
    replayed = signature.replay(set_sig)
    assert [type(e).__name__ for e in replayed.entries] == [
        type(e).__name__ for e in set_sig.entries
    ]
    assert replayed.entries == set_sig.entries


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
