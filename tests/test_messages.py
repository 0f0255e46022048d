"""The wording of kernel and signature errors: every message `lpm check`
can give, pinned byte for byte, and the rule that a check runs no display
code (the terms an error names are printed only when it is read)."""

import json

import pytest

from lpm import cli, dkprint, kernel, signature
from lpm.dkparse import Rule, parse_file, parse_term
from lpm.terms import App, Const, FVar, Lam, Pi, Var

# name: (`.dk` text, exit code, line of the rejected entry, message), one
# input per kernel and signature error and variant
MESSAGES = {
    "not-a-function": (
        "A : Type.\n#ASSERT (x : A => x : A => x x) : A -> A -> A.\n",
        1, 2, "term x' of type A is applied but is not a function"),
    "mismatch-in-spine": (
        "A : Type.\na : A.\ndef c : A := a.\nP : A -> Type.\nf : P c -> A.\n"
        "#ASSERT (x : A => x : P x => f x) : x : A -> P x -> A.\n",
        1, 6, "type mismatch: expected P a, found P x"),
    "mismatch-in-assert": (
        "A : Type.\na : A.\nb : A.\ndef c : A := a.\nP : A -> Type.\np : P c.\n#ASSERT p : P b.\n",
        1, 7, "type mismatch: expected P b, found P a"),
    "sort-binder-domain": (
        "A : Type.\n#ASSERT (y : A => x : y => x) : A -> A.\n",
        1, 2, "binder domain y must have sort Type, has A"),
    "sort-product-codomain": (
        "A : Type.\na : A.\n#ASSERT (x : A -> a) : Type.\n",
        1, 3, "product codomain in A -> a is not a sort"),
    "unbound-identifier": (
        "A : Type.\n#ASSERT (x : A => nope x) : A -> A.\n",
        1, 2, "unbound identifier: nope"),
    "kind": (
        "A : Type.\nk : Kind.\n",
        1, 2, "Kind has no type"),
    "kind-in-a-body": (
        "A : Type.\n#ASSERT (x : A => Type) : A -> Type.\n",
        1, 2, "Kind has no type"),
    "not-a-sort": (
        "A : Type.\na : A.\nb : a.\n",
        1, 3, "type of b must be a sort, found A"),
    "lhs-head": (
        "A : Type.\n[x : A] x --> x.\n",
        1, 2, "rule left-hand side must be headed by a constant, found x"),
    "lhs-subterm": (
        "A : Type.\nf : (A -> A) -> A.\n[y : A] f (x : A => y) --> y.\n",
        1, 3, "subterm x : A => y is not first-order pattern syntax"),
    "free-variable-rhs": (
        "A : Type.\nf : A -> A.\n[x : A, y : A] f x --> y.\n",
        1, 3, "variables ['y'] violate the free-variable inclusion (right-hand side not covered by the left)"),
    "duplicate-name": (
        "A : Type.\nA : Type.\n",
        1, 2, "duplicate declaration: A"),
    "duplicate-rule-variable": (
        "A : Type.\nf : A -> A.\n[x : A, x : A] f x --> x.\n",
        1, 3, "duplicate declaration: x"),
    "ill-typed-left-side": (
        "A : Type.\nB : Type.\nb : B.\nf : A -> A.\n[] f b --> f b.\n",
        1, 5, "ill-typed rewrite rule left-hand side: type mismatch: expected A, found B"),
    "ill-typed-right-side": (
        "A : Type.\nB : Type.\nb : B.\nf : A -> A.\n[x : A] f x --> b.\n",
        1, 5, "ill-typed rewrite rule right-hand side: type mismatch: expected A, found B"),
    "ill-typed-right-side-under-binders": (
        "A : Type.\nB : A -> Type.\nf : A -> A.\ng : x : A -> B x -> A.\n[x : A] f x --> (y : A => g y x) x.\n",
        1, 5, "ill-typed rewrite rule right-hand side: type mismatch: expected B y, found A"),
    "ill-typed-body": (
        "A : Type.\nB : Type.\na : A.\nf : B -> B.\ndef y : B := x : A => f a.\n",
        1, 5, "ill-typed body of definition y: type mismatch: expected B, found A"),
    "ill-typed-body-under-binders": (
        "A : Type.\na : A.\ng : A -> A -> A.\ndef y : A -> A := x : A => x : A => g x x x.\n",
        1, 4, "ill-typed body of definition y: term g x' x' of type A is applied but is not a function"),
    "fuel-exhausted": (
        "A : Type.\na : A.\nc : A.\n[] c --> c.\nP : A -> Type.\np : P a.\n#ASSERT p : P c.\n",
        3, 7, "rewrite budget of 100000 steps exhausted"),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_check_messages_pinned(tmp_path, capsys, name):
    text, code, line, message = MESSAGES[name]
    path = tmp_path / f"{name}.dk"
    path.write_text(text)
    assert cli.main(["--json", "check", str(path)]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == code
    assert payload["diagnostics"] == [{"file": str(path), "line": line, "col": 1, "message": message}]


def test_a_mismatch_too_deep_to_show_exits_3(tmp_path, capsys):
    # each g step adds 100 nested f, so showing `P (g a)` normalized runs
    # out of stack within its 10,000 steps: wording the error fails as
    # deep input does, and CPython's text names where the stack ran out
    path = tmp_path / "deep.dk"
    path.write_text("A : Type.\na : A.\nf : A -> A.\ng : A -> A.\n[x : A] g x --> " + "f (" * 100 + "g x" + ")" * 100
                    + ".\nP : A -> Type.\np : P a.\n#ASSERT p : P (g a).\n")
    assert cli.main(["--json", "check", str(path)]) == 3
    payload = json.loads(capsys.readouterr().out)
    [diagnostic] = payload["diagnostics"]
    assert (payload["exit_code"], diagnostic["line"], diagnostic["col"]) == (3, 8, 1)
    assert diagnostic["message"].startswith("input nested too deeply (maximum recursion depth exceeded")


def test_messages_lpm_check_cannot_reach_pinned():
    # a lambda body's type outside a sort needs an ill-sorted context, and a
    # free variable of a left-hand side outside its rule's context needs a
    # rule the reader does not build
    sig = signature.install_entries(signature.EMPTY, parse_file("A : Type.\na : A.\n"))
    with pytest.raises(kernel.SortError) as e:
        kernel.infer(sig, {"y": Const("a")}, Lam("x", Const("A"), FVar("y")))
    assert str(e.value) == "lambda body type a does not live in a sort"
    ctx = {"P": Pi("x", Const("A"), Const("a")), "g": Pi("x", Const("A"), App(FVar("P"), Var(0)))}
    with pytest.raises(kernel.SortError) as e:
        kernel.infer(sig, ctx, Lam("x", Const("A"), Lam("x", Const("A"), App(FVar("g"), Var(0)))))
    assert str(e.value) == "lambda body type P x' does not live in a sort"
    f = signature.install_entries(sig, parse_file("f : A -> A.\n"))
    rule = Rule((("x", Const("A")),), parse_term("f y", ("y",)), FVar("x"))
    with pytest.raises(signature.FVViolation) as e:
        signature.install_entries(f, [rule])
    assert str(e.value) == ("variables ['y'] violate the free-variable inclusion "
                            "(left-hand side outside the pattern context)")


_REJECTED_DEF = "A : Type. B : Type. a : A. f : B -> B. def y : B := x : A => f a."


def _counted(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_rejected_check_runs_no_display_code(monkeypatch):
    # neither the printer nor a normalization for the message runs before
    # the install raises; reading the error words it as before
    entries = parse_file(_REJECTED_DEF)
    calls = []
    _counted(monkeypatch, kernel, "normalize", calls)
    _counted(monkeypatch, dkprint, "print_term", calls)
    with pytest.raises(signature.IllTypedBody) as e:
        signature.install_entries(signature.EMPTY, entries)
    assert calls == []
    assert str(e.value) == "ill-typed body of definition y: type mismatch: expected B, found A"
    assert sorted(calls) == ["normalize", "normalize", "print_term", "print_term"]


def test_a_check_does_not_depend_on_wording(monkeypatch):
    # with the wording broken, the check raises the same error at the same place
    entries = parse_file(_REJECTED_DEF)
    with pytest.raises(signature.IllTypedBody) as e:
        signature.install_entries(signature.EMPTY, entries)
    expected = (type(e.value.cause), e.value.cause.position)

    def broken(err):
        raise AssertionError("worded")

    monkeypatch.setattr(dkprint, "describe", broken)
    with pytest.raises(signature.IllTypedBody) as e:
        signature.install_entries(signature.EMPTY, entries)
    assert (type(e.value.cause), e.value.cause.position) == expected == (kernel.TypeMismatch, (1,))
    with pytest.raises(AssertionError, match="worded"):
        str(e.value)


def test_a_mismatch_keeps_the_types_compared():
    # `expected` and `actual` are the types as compared; the message shows their normal forms
    sig = signature.install_entries(signature.EMPTY, parse_file(MESSAGES["mismatch-in-assert"][0].rpartition("#")[0]))
    with pytest.raises(kernel.TypeMismatch) as e:
        kernel.check(sig, {}, Const("p"), parse_term("P b"))
    assert (e.value.expected, e.value.actual) == (parse_term("P b"), parse_term("P c"))
    assert str(e.value) == "type mismatch: expected P b, found P a"
    # built without a signature, it shows the sides as given, under the binders given
    assert str(kernel.TypeMismatch(Var(0), Const("c"))) == "type mismatch: expected #0, found c"


def test_a_closed_term_is_worded_without_the_enclosing_binders(monkeypatch):
    # a bad chain-8 leaf is rejected under 21 binders; both sides of its
    # mismatch are closed, so wording it pushes no binder name (42
    # `_Scope.push` calls at the parent: the 21 names once for each side)
    from mutations import chain_certificate, chain_leaf_path

    from lpm import dkparse, llproof

    thy, goal, proof = chain_certificate(8, {3})
    sig = llproof.base_signature(thy)
    entries, tr = llproof.certificate_entries(thy, goal, proof, sig)
    with pytest.raises(signature.IllTypedBody) as e:
        signature.install_entries(sig, entries)
    assert llproof.failure_path(tr, e.value) == chain_leaf_path(8, 3)
    pushes = []
    push = dkparse._Scope.push
    monkeypatch.setattr(dkparse._Scope, "push", lambda scope, name: pushes.append(name) or push(scope, name))
    assert str(e.value) == ("ill-typed body of definition cert.goal: type mismatch: "
                            "expected logic.prf chain8.P3, found logic.prf chain8.P4")
    assert pushes == []
