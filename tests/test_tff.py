"""Polymorphic first-order syntax: well-formedness and the .tffx format."""

import hashlib

import pytest

from lpm import examples, llproof, sexp, tff
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


def test_wf_theory_rejects_an_extension_rule_registered_twice():
    # the duplicate passed, and the emitted theory.dk declared its constant twice
    thy = examples.bool_theory()
    twice = TffTheory(thy.name, thy.items + (tff.ExtDecl("bool-case-exists"),))
    with pytest.raises(tff.TheoryItemError) as e:
        wf_theory(twice)
    assert isinstance(e.value.cause, tff.DuplicateSymbol)
    assert (e.value.index, str(e.value)) == (
        len(thy.items), f"item {len(thy.items)} (ExtDecl): extension rule bool-case-exists registered twice")


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


@pytest.mark.parametrize("text, line, col, message", [
    ("(theory t\n  (type i 0)\n  (axiom a (and (top) (not)))\n  (axiom b (not)))\n", 3, 23,
     "not expects 1 fields: (not)"),  # the first of two occurrences of one shared list
    # an atom is placed at its form: `loads` shares its every occurrence
    ("(theory t\n  (type i x)\n  (fun x () () i))\n", 2, 3, "expected an integer, found x"),
    ("(theory t\n  (type i 3)\n  (type 3 0))", 3, 3, "expected a symbol, found 3"),
    ("(theory t\n  (type i 0)\n  (axiom a (and (top)\n    i)))", 3, 12, "bad formula i"),
    ("(theory t (type i 0)\n  i)", 1, 1, "bad theory item i"),
    ("(theory t\n  (pred p () ())\n\t(frob x))\n", 3, 2, "unknown theory item tag 'frob'"),
    ("(theory t (type i 0)\n  (term-rule () ((x (1))) x x))\n", 2, 21, "bad type (1)"),
    ("(not-a-theory)", 1, 1, "expected (theory NAME item ...)"),
])
def test_format_error_is_placed_at_its_subexpression(text, line, col, message):
    with pytest.raises(tff.FormatError) as e:
        tff.parse_theory(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


_PROOF_THEORY = tff.TffTheory("t", (tff.PredDecl("P", (), ()),))


@pytest.mark.parametrize("tree, line, col, message", [
    ("(notnot (pred P ())\n    (ax P))", 4, 5, "bad formula P"),
    ("(notnot (pred P ())\n    P)", 3, 3, "bad proof node P"),
    ("(ax (pred P ()) (concl (top) P))", 3, 19, "bad formula P"),
])
def test_proof_format_error_about_an_atom_is_placed_at_its_node(tree, line, col, message):
    # `P` first occurs in the goal, a line above the node that misreads it
    with pytest.raises(tff.FormatError) as e:
        llproof.parse_proof(f"(proof (theory t)\n  (goal (not (pred P ())))\n  {tree})\n", _PROOF_THEORY)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


def test_format_error_quotes_a_bounded_prefix():
    # the chain-32 root wrapped in one more pair of parentheses: the message
    # quoted the whole form, and it grew with the proof
    from mutations import chain_certificate

    thy, goal, proof = chain_certificate(32)
    text = llproof.print_proof(thy, goal, proof)
    at = text.index("\n  (notimp") + 3
    wrapped = text[:at] + "(" + text[at:].rstrip("\n") + ")\n"
    with pytest.raises(tff.FormatError) as e:
        llproof.parse_proof(wrapped, thy)
    form = sexp.dumps(sexp.loads_one(wrapped)[3])
    assert len(form) > 20_000
    assert e.value.message == f"bad proof node {form[:80]}…"
    assert (e.value.line, e.value.col) == (text.count("\n", 0, at) + 1, 3)


def test_successful_read_looks_up_no_position(monkeypatch):
    def no_lookup(*args):
        raise AssertionError("a position was looked up on a successful read")

    monkeypatch.setattr(sexp, "position_of", no_lookup)
    thy = examples.bool_theory()
    assert tff.parse_theory(tff.print_theory(thy)) == thy
    goal, proof = examples.bool_commute_goal(), examples.bool_commute_proof()
    assert llproof.parse_proof(llproof.print_proof(thy, goal, proof), thy) == (goal, proof)


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
        assert tff.formula_from_sexp(tff.formula_to_sexp(phi, cons), tff.Constructors(cons)) == phi
    text = "(foralltype a (forall x a (pred P (a) x)))"
    assert tff.formula_from_sexp(sexp.loads_one(text), tff.Constructors(cons)) == bound


def test_a_formula_read_before_and_after_a_type_declaration():
    # one S-expression, two readings: `a` is a type variable until `(type a 0)`
    thy = tff.parse_theory("(theory t (pred r (x) ()) (axiom h1 (pred r (a))) (type a 0) (axiom h2 (pred r (a))))")
    h1, h2 = thy.items[1].formula, thy.items[3].formula
    assert (h1.ty_args, h2.ty_args) == ((TVar("a"),), (TCons("a"),))


def test_formula_sexp_round_trip():
    thy = examples.set_theory()
    cons = {"set"}
    goal = examples.set_diff_goal()
    assert tff.formula_from_sexp(tff.formula_to_sexp(goal, cons), tff.Constructors(cons)) == goal


# ---------------------------------------------------------------------------
# Theory items: pinned reader and writer results.  The digests and the
# messages were recorded before the items were read and written from one
# row per item class; they must never be edited.

_ITEM_DIGESTS = {
    "printed": "120d2bec3a0f765422702cba6bd2a979c3a16222f0e4400463d95d7f8458554d",
    "repr": "0d0f0e2f6ed22f9b11488b5cf0eb7696ce718343cb15ceab21b23c25568f23c7",
}

_MALFORMED_ITEMS = [
    ("(type i)", ("FormatError", "type expects 2 fields: (type i)")),
    ("(type i 0 1)", ("FormatError", "type expects 2 fields: (type i 0 1)")),
    ("(fun f () ())", ("FormatError", "fun expects 4 fields: (fun f () ())")),
    ("(fun f () () i i)", ("FormatError", "fun expects 4 fields: (fun f () () i i)")),
    ("(pred p ())", ("FormatError", "pred expects 3 fields: (pred p ())")),
    ("(pred p () () x)", ("FormatError", "pred expects 3 fields: (pred p () () x)")),
    ("(axiom a)", ("FormatError", "axiom expects 2 fields: (axiom a)")),
    ("(axiom a (top) (top))", ("FormatError", "axiom expects 2 fields: (axiom a (top) (top))")),
    ("(term-rule () () x)", ("FormatError", "term-rule expects 4 fields: (term-rule () () x)")),
    ("(term-rule () () x x x)", ("FormatError", "term-rule expects 4 fields: (term-rule () () x x x)")),
    ("(prop-rule () () (top))", ("FormatError", "prop-rule expects 4 fields: (prop-rule () () (top))")),
    ("(prop-rule () () (top) (top) (top))",
     ("FormatError", "prop-rule expects 4 fields: (prop-rule () () (top) (top) (top))")),
    ("(ext)", ("FormatError", "ext expects 1 fields: (ext)")),
    ("(ext a b)", ("FormatError", "ext expects 1 fields: (ext a b)")),
    ("foo", ("FormatError", "bad theory item foo")),
    ("()", ("FormatError", "bad theory item ()")),
    ("(3 x)", ("FormatError", "bad theory item (3 x)")),
    ("(frob x)", ("FormatError", "unknown theory item tag 'frob'")),
    ("(type i x)", ("FormatError", "expected an integer, found x")),
    ("(type 3 0)", ("FormatError", "expected a symbol, found 3")),
    ("(fun (f) () () i)", ("FormatError", "expected a symbol, found (f)")),
    ("(fun f x () i)", ("FormatError", "expected a list, found x")),
    ("(pred p () x)", ("FormatError", "expected a list, found x")),
    ("(axiom a (frob))", ("FormatError", "unknown formula tag 'frob'")),
    ("(axiom a x)", ("FormatError", "bad formula x")),
    ("(fun f (1) () i)", ("FormatError", "expected a symbol, found 1")),
    ("(term-rule ((a)) () x x)", ("FormatError", "expected a symbol, found (a)")),
    ("(term-rule () x x x)", ("FormatError", "expected a list, found x")),
    ("(term-rule () (x) x x)", ("FormatError", "expected a list, found x")),
    ("(term-rule () ((1 i)) x x)", ("FormatError", "expected a symbol, found 1")),
    ("(term-rule () ((x (1))) x x)", ("FormatError", "bad type (1)")),
    ("(prop-rule () () (frob) (top))", ("FormatError", "unknown formula tag 'frob'")),
]


def _item_texts():
    from theory_gen import random_theory

    thys = [examples.BUILTINS[name][0]() for name in sorted(examples.BUILTINS)]
    thys += [random_theory(seed) for seed in range(24)]
    return [tff.print_theory(thy) for thy in thys]


def test_theory_items_read_and_written_pinned():
    texts = _item_texts()
    items = {type(item) for text in texts for item in tff.parse_theory(text).items}
    assert items == {TypeCons, FunDecl, PredDecl, tff.Axiom, TermRule, PropRule, tff.ExtDecl}
    printed = "".join(tff.print_theory(tff.parse_theory(text)) for text in texts)
    reprs = "\n".join(repr(tff.parse_theory(text)) for text in texts)
    got = {key: hashlib.sha256(s.encode()).hexdigest() for key, s in (("printed", printed), ("repr", reprs))}
    assert got == _ITEM_DIGESTS


@pytest.mark.parametrize("text, expected", _MALFORMED_ITEMS, ids=[t for t, _ in _MALFORMED_ITEMS])
def test_malformed_theory_item_messages_pinned(text, expected):
    with pytest.raises(Exception) as e:
        tff.theory_from_sexp(sexp.loads_one(f"(theory t (type i 0) {text})"))
    assert (type(e.value).__name__, str(e.value)) == expected
