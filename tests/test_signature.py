"""Global context construction and its well-formedness side conditions."""

import pytest

from references import signature_fields
from lpm import embed, examples, kernel, signature
from lpm.dkparse import Decl, Def, Rule, parse_term
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


def test_add_rewrite_extends_persistently(bool_sig):
    before = signature_fields(bool_sig)
    sig = bool_sig.declare("b3", T("logic.term bool.bool"))
    extended = sig.add_rewrite((), T("b3"), T("bool.true"))
    assert kernel.whnf(extended, T("b3")) == Const("bool.true")
    assert signature_fields(bool_sig) == before and sig.rules_for("b3") == ()


@pytest.mark.parametrize("bad_at", [None, 0, 2, 4])
def test_install_leaves_its_input_unchanged(bool_sig, bad_at):
    # an install extends a private copy of the tables in place; the
    # signature it was given stays as it was, whether an entry is rejected
    # or not, and so does what an earlier install returned
    entries = [Decl(f"c{i}", T("logic.term bool.bool")) for i in range(5)]
    if bad_at is not None:
        entries[bad_at] = Decl(f"c{bad_at}", T("bool.true"))  # not a sort
    before = signature_fields(bool_sig)
    if bad_at is None:
        sig = signature.install_entries(bool_sig, entries)
        assert [n for n, _ in signature_fields(sig)[0][-5:]] == [f"c{i}" for i in range(5)]
        again = signature.install_entries(sig, [Decl("d", T("logic.term bool.bool"))])
        assert "d" in again and "d" not in sig
    else:
        with pytest.raises(signature.NotASort):
            signature.install_entries(bool_sig, entries)
    assert signature_fields(bool_sig) == before


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


@pytest.mark.parametrize("lhs", ["f (x y)", "f (g (x y) y)", "f (x (g y y))"])
def test_rule_rejects_an_applied_pattern_variable(lhs):
    # with `f (x y) --> y` installed, `f ((z : A => c) d)` rewrote to d while
    # its beta-reduct `f c` was stuck: beta-equal terms were not convertible
    from lpm.dkparse import parse_file

    text = f"A : Type. c : A. d : A. f : A -> A. g : A -> A -> A.\n[x : A -> A, y : A] {lhs} --> y."
    with pytest.raises(signature.NonPatternLhs, match="is not first-order pattern syntax"):
        signature.install_entries(signature.EMPTY, parse_file(text))


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
    # one entry per call builds the signature one call over all the
    # entries builds
    entries = embed.prelude("shallow") + embed.theory_entries(make())
    whole = signature.install_entries(signature.EMPTY, entries)
    stepwise = signature.EMPTY
    for entry in entries:
        stepwise = signature.install_entries(stepwise, [entry])
    assert signature_fields(stepwise) == signature_fields(whole)
    assert sum(len(whole.rules_for(head)) for head in whole._rules) == sum(isinstance(e, (Rule, Def)) for e in entries)


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


def _table_entries_copied(monkeypatch, logic, n: int) -> int:
    """Type and rule table entries handed to new signatures while n
    nullary predicates `t.Pi` and n axioms `t.axi : logic.prf t.Pi` are
    installed in one call."""
    entries = [Decl(f"t.P{i}", Const("logic.Prop")) for i in range(n)]
    entries += [Decl(f"t.ax{i}", app(Const("logic.prf"), Const(f"t.P{i}"))) for i in range(n)]
    copied = []
    init = signature.Signature.__init__

    def counting_init(self, types=None, rules=None, eta=False):
        copied.append(len(types or ()) + len(rules or ()))
        init(self, types, rules, eta)

    with monkeypatch.context() as m:
        m.setattr(signature.Signature, "__init__", counting_init)
        signature.install_entries(logic, entries)
    return sum(copied)


def test_install_copies_the_tables_once_whatever_its_entries(monkeypatch, logic_shallow):
    # one copy of the input's tables per call, extended in place, so the
    # time is linear in the entries; a copy per entry handed about N^2
    # table entries to new signatures
    tables = len(logic_shallow._types) + len(logic_shallow._rules)
    small = _table_entries_copied(monkeypatch, logic_shallow, 1000)
    large = _table_entries_copied(monkeypatch, logic_shallow, 8000)
    assert small == large == tables, (small, large, tables)
