"""Surface syntax: lexing, parsing, printing, round trips."""

import gc
import hashlib
import time
import tracemalloc
from pathlib import Path

import pytest

from lpm import cli, dkparse, examples, llproof, tff
from lpm.dkparse import (
    AssertType,
    Comment,
    Decl,
    Def,
    DkSyntaxError,
    Rule,
    parse_file,
    parse_term,
    print_entry,
    print_file,
    print_term,
)
from lpm.terms import TYPE, App, Const, FVar, Lam, Pi, Var, app, arrow, spine


def test_parse_declaration():
    entries = parse_file("prf : Prop -> Type.")
    assert entries == [Decl("prf", arrow(Const("Prop"), TYPE))]


def test_parse_shallow_axiom_rule():
    text = "[P : Prop] R_Ax P --> H1 : prf P => H2 : prf (not P) => H2 H1."
    (entry,) = parse_file(text)
    assert isinstance(entry, Rule)
    assert entry.ctx == (("P", Const("Prop")),)
    assert entry.lhs == App(Const("R_Ax"), FVar("P"))
    expected_rhs = Lam(
        "H1",
        App(Const("prf"), FVar("P")),
        Lam(
            "H2",
            App(Const("prf"), App(Const("not"), FVar("P"))),
            App(Var(0, "H2"), Var(1, "H1")),
        ),
    )
    assert entry.rhs == expected_rhs


def test_parse_error_location():
    with pytest.raises(DkSyntaxError) as e:
        parse_file("x : .")
    assert (e.value.line, e.value.col) == (1, 5)


def test_error_column_counts_the_comment_opener():
    with pytest.raises(DkSyntaxError) as e:
        parse_file("(; c ;) @")
    assert (e.value.line, e.value.col) == (1, 9)


def test_parse_unterminated_comment():
    with pytest.raises(DkSyntaxError):
        parse_file("(; never closed")


def test_nested_comments_and_crlf():
    entries = parse_file("(; outer (; inner ;) still comment ;)\r\nc : Type.\r\n")
    assert entries[0] == Comment("outer (; inner ;) still comment")
    assert entries[1] == Decl("c", TYPE)


def test_qualified_names_lex_as_one_token():
    t = parse_term("logic.prf x", ("x",))
    assert t == App(Const("logic.prf"), FVar("x"))


def test_binders_shadow_constants_and_context():
    t = parse_term("prf : Type => prf", ())
    assert t == Lam("prf", TYPE, Var(0))
    t2 = parse_term("a : Type => a", ("a",))
    assert t2 == Lam("a", TYPE, Var(0))


def test_application_associates_left():
    t = parse_term("f a b", ("f", "a", "b"))
    assert t == App(App(FVar("f"), FVar("a")), FVar("b"))
    assert print_term(t) == "f a b"


def test_arrows_associate_right():
    t = parse_term("A -> B -> C")
    assert t == arrow(Const("A"), Const("B"), Const("C"))
    assert print_term(t) == "A -> B -> C"


def test_binder_extends_maximally_right():
    t = parse_term("P : Prop -> prf P -> prf P")
    assert isinstance(t, Pi)
    # the inner arrow is itself a binder, so P sits one index deeper there
    assert t.codomain == Pi("", App(Const("prf"), Var(0)), App(Const("prf"), Var(1)))


def test_print_parenthesizes_minimally():
    t = App(Const("f"), App(Const("g"), Const("a")))
    assert print_term(t) == "f (g a)"
    nested = Pi("", arrow(Const("A"), Const("B")), Const("C"))
    assert print_term(nested) == "(A -> B) -> C"


def test_print_declaration_round_trip():
    e = Decl("prf", arrow(Const("Prop"), TYPE))
    assert print_entry(e) == "prf : Prop -> Type."
    assert parse_file(print_entry(e)) == [e]


def test_printer_renames_captured_binders():
    # display name x would capture the free x in the body
    t = Lam("x", Const("A"), App(Var(0, "x"), FVar("x")))
    printed = print_term(t)
    assert printed == "x' : A => x' x"
    assert parse_term(printed, ("x",)) == t


def test_printer_names_anonymous_binders():
    t = Lam("", Const("A"), Var(0))
    assert print_term(t) == "x : A => x"


def test_rule_entry_round_trip_fixed_point():
    text = "[a : logic.term bool.bool] bool.andb bool.true a --> a.\n"
    entries = parse_file(text)
    printed = print_file(entries)
    assert printed == text
    assert parse_file(printed) == entries


def test_assert_entry_round_trip():
    e = AssertType(Lam("x", TYPE, Var(0)), arrow(TYPE, TYPE))
    text = print_entry(e)
    assert text == "#ASSERT (x : Type => x) : Type -> Type."
    assert parse_file(text) == [e]


@pytest.mark.parametrize(
    "subject, text",
    [(App(Const("f"), Const("c")), "#ASSERT f c : A."),
     (app(Const("m.f"), Const("a"), Const("x.c")), "#ASSERT m.f a x.c : A."),
     (App(Const("f"), App(Const("g"), Const("c"))), "#ASSERT f (g c) : A.")],
    ids=["application", "qualified-last-argument", "nested"],
)
def test_assert_application_round_trip(subject, text):
    # the subject's last argument is an argument, though a ':' follows it
    e = AssertType(subject, Const("A"))
    assert print_entry(e) == text
    assert parse_file(text) == [e]


def test_missing_dot_is_reported_at_the_next_colon():
    # without the '.', the next declaration's name is read as an argument
    with pytest.raises(DkSyntaxError) as e:
        parse_file("a : Type\nb : Type.")
    assert str(e.value) == "2:3: unexpected ':' (expected .)"


def test_def_entry_round_trip():
    e = Def("cert.goal", arrow(Const("A"), Const("B")), Lam("h", Const("A"), Const("b")))
    assert parse_file(print_entry(e)) == [e]


def test_unknown_command_rejected():
    with pytest.raises(DkSyntaxError):
        parse_file("#FROB x.")


def test_stray_character_rejected():
    with pytest.raises(DkSyntaxError):
        parse_file("c : Type ~.")


def test_round_trip_all_generated_entries():
    from references import corpus_dk_files

    for label, entries in corpus_dk_files():
        reparsed = parse_file(print_file(entries))
        assert reparsed == list(entries), label


def test_printer_fixed_point_on_corpus():
    from references import corpus_dk_files

    for label, entries in corpus_dk_files():
        once = print_file(entries)
        twice = print_file(parse_file(once))
        assert once == twice, label


# The front end pinned: parse results with their positions over the packaged
# preludes and every `.dk` file `lpm examples` writes, and the exact text of
# syntax errors.  The digest was recorded before the lexer was rewritten.

_FRONT_END_SHA256 = "f78bade7a78bf23a106c1d20f346bb5f25291cff54191d016b4f4570d502f481"


def test_front_end_parse_results_pinned(tmp_path, capsys):
    prelude = Path(dkparse.__file__).parent / "prelude"
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(prelude.glob("*.dk"))]
    for name in sorted(examples.BUILTINS):
        for mode in ("deep", "shallow"):
            out = tmp_path / f"{name}-{mode}"
            assert cli.main(["examples", name, "--mode", mode, "--out", str(out)]) == 0
            texts += [(f"{out.name}/{p.name}", p.read_text(encoding="utf-8")) for p in sorted(out.glob("*.dk"))]
    capsys.readouterr()
    assert len(texts) == 2 + 4 * len(examples.BUILTINS) * 2
    h = hashlib.sha256()
    for label, text in texts:
        for e in parse_file(text):
            h.update(repr((label, type(e).__name__, e, e.line, e.col)).encode())
    assert h.hexdigest() == _FRONT_END_SHA256


@pytest.mark.parametrize(
    "text, message",
    [
        ("c : Type ~.", "1:10: stray character '~'"),
        ("#FOO x.", "1:1: unknown command #FOO"),
        ("#", "1:1: unknown command #"),
        ("a : Type.\nb : Type.\n  (; never (; closed ;)\nc : Type.\n", "3:3: unterminated comment"),
        ("c : Type.x.", "1:11: unexpected '.' (expected :)"),
        ("c : Type.\r\n\td :\t~", "2:6: stray character '~'"),
        ("c : Type.\r\nd : \r\n e :", "3:5: unexpected 'end of input' (expected term)"),
        ("(; one\n(; two ;) ;) ~", "2:14: stray character '~'"),
        ("[m.x : Type] f --> g.", "1:2: qualified name 'm.x' not allowed here"),
        ("c : Type", "1:9: unexpected 'end of input' (expected .)"),
        ("f : x : A B.", "1:12: unexpected '.' after binder (expected ->, =>)"),
        ("[x : A, ] f --> g.", "1:9: unexpected ']' (expected IDENT)"),
        ("def f : A := .", "1:14: unexpected '.' (expected term)"),
    ],
)
def test_syntax_error_messages_pinned(text, message):
    with pytest.raises(DkSyntaxError) as e:
        parse_file(text)
    assert str(e.value) == message


def test_parse_shares_equal_subterms_with_equal_names():
    # the two abstractions differ only in the name of a binder their body does not use
    text = "c : f (g a) (x : A => b) (y : A => b) (g a) (x : A => b).\n"
    (e,) = parse_file(text)
    (_, args) = spine(e.type)
    assert args[0] is args[3] and args[1] is args[4]
    assert args[1] == args[2] and args[1] is not args[2]  # the display names differ
    assert print_file([e]) == text


def test_printing_a_shared_deep_formula_takes_linear_memory():
    # a closed subterm's later occurrence copies the span of pieces its
    # first one emitted; remembering each subterm's string instead would
    # hold about 55 MB here, the sum of 3,000 nested texts
    phi = Const("m.p")
    for _ in range(3000):
        phi = App(Const("logic.not"), phi)
    entries = [Decl("d", app(Const("m.f"), phi, phi))]
    tracemalloc.start()
    try:
        text = print_file(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"d : m.f {print_term(phi, prec=dkparse._PREC_ATOM)} {print_term(phi, prec=dkparse._PREC_ATOM)}.\n"
    assert peak < 8 << 20


def _lam_chain_print_peak(depth: int) -> int:
    t = Var(0)
    for _ in range(depth):
        t = Lam("x", Const("m.c"), t)
    tracemalloc.start()
    try:
        print_term(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_printing_a_deep_binder_chain_takes_linear_memory():
    # the binder names in scope are one list, pushed and popped around a
    # body; with a scope tuple built per binder, which holds depth^2/2
    # entries in all, the peak at depth 4,000 was 15 times that at 1,000
    small, large = _lam_chain_print_peak(1000), _lam_chain_print_peak(4000)
    assert large < 6 * small, (small, large)


def _binder_chain_seconds(depth: int) -> float:
    """Best-of-5 seconds to print and to parse the `cert.dk` of `depth`
    NotNot nodes, one below the other, each consuming the hypothesis
    bound outermost, the negated goal; the cyclic garbage collector is
    off, as `timeit` runs.  The round trip is checked once, untimed."""
    p = tff.Pred("P")
    thy = tff.TffTheory("t", (tff.PredDecl("P", (), ()), tff.Axiom("n", tff.Not(p))))
    proof = llproof.LLProof(llproof.Ax(p))
    for _ in range(depth):
        proof = llproof.LLProof(llproof.NotNot(p), (proof,))
    entries, _ = llproof.certificate_entries(thy, tff.Not(p), proof, llproof.base_signature(thy))
    assert parse_file(print_file(entries)) == entries
    best = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            parse_file(print_file(entries))
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_reading_and_printing_take_linear_time_in_binder_depth():
    # a name's innermost binder is found in a name -> levels map: depth
    # 8,000 takes about 9 times as long as 1,000.  Scanning the binder
    # names for it, per identifier in the reader and per binder in the
    # printer, made it about 30 times
    small, large = _binder_chain_seconds(1000), _binder_chain_seconds(8000)
    assert large < 2.5**3 * small, (small, large)


# The reader reads a later occurrence of a closed parenthesised term's text
# as its first one; the same text that is not closed is read afresh


def _parsed_as_the_reference(text: str) -> list:
    from references import reference_parse_file

    entries = parse_file(text)
    assert [repr(e) for e in entries] == [repr(e) for e in reference_parse_file(text)]
    return entries


def test_reader_rereads_a_span_under_other_binders_of_its_names():
    span = "(logic.prf (logic.imp x (logic.not x)))"
    assert len(span) >= dkparse._SPAN_KEY
    (e,) = _parsed_as_the_reference(f"c : x : logic.prop -> {span} -> x : logic.prop -> y : logic.prop -> {span}.\n")
    first, second = e.type.codomain.domain, e.type.codomain.codomain.codomain.codomain
    assert first.arg.fn.arg == Var(0) and second.arg.fn.arg == Var(1)


@pytest.mark.parametrize("bound_first", [True, False])
def test_reader_rereads_a_span_whose_name_is_bound_in_one_place_only(bound_first):
    span = "(m.a_rather_long_function_name a a)"
    assert len(span) >= dkparse._SPAN_KEY
    bound, free = f"(a : m.c => {span})", span
    args = (bound, free) if bound_first else (free, bound)
    (e,) = _parsed_as_the_reference(f"c : m.f {args[0]} {args[1]}.\n")
    _, (x, y) = spine(e.type)
    lam, const = (x, y) if bound_first else (y, x)
    assert lam.body == App(App(Const("m.a_rather_long_function_name"), Var(0)), Var(0))
    assert const == App(App(Const("m.a_rather_long_function_name"), Const("a")), Const("a"))


def test_reader_does_not_reuse_a_span_for_a_longer_name():
    first, second = "(m.a_rather_long_function_name m.a)", "(m.a_rather_long_function_name m.ab)"
    assert first[: dkparse._SPAN_KEY] == second[: dkparse._SPAN_KEY] and len(first) >= dkparse._SPAN_KEY
    (e,) = _parsed_as_the_reference(f"c : m.f {first} {second} {first}.\n")
    _, (x, y, z) = spine(e.type)
    assert (x.arg, y.arg) == (Const("m.a"), Const("m.ab")) and x is z


def test_reader_reuses_a_span_with_a_comment_only_for_the_same_text():
    span = "(m.g (; note ) ;) m.a_long_argument m.b_long_argument)"
    other = span.replace("note", "other")
    (e,) = _parsed_as_the_reference(f"c : m.f {span} {span} {other} (; between ;) {span}.\n")
    _, args = spine(e.type)
    assert all(a is args[0] for a in args)
    assert args[0] == app(Const("m.g"), Const("m.a_long_argument"), Const("m.b_long_argument"))


def test_syntax_error_after_a_reused_span_keeps_its_position():
    from references import reference_parse_file

    span = "(m.a_rather_long_function_name m.a m.b)"
    text = f"c : m.f {span}.\nd :\n  m.f {span}\n  {span} ].\n"
    for parse in (parse_file, reference_parse_file):
        with pytest.raises(DkSyntaxError) as e:
            parse(text)
        assert str(e.value) == f"4:{len(span) + 4}: unexpected ']' (expected .)"


def _chain_parse_terms(monkeypatch, n: int) -> int:
    """Calls of the reader's `term` while it parses chain-n's `cert.dk`."""
    from mutations import chain_certificate

    thy, goal, proof = chain_certificate(n)
    entries, _ = llproof.certificate_entries(thy, goal, proof, llproof.base_signature(thy))
    text = print_file(entries)
    calls = 0

    def counted(self, delta, _term=dkparse._Parser.term):
        nonlocal calls
        calls += 1
        return _term(self, delta)

    with monkeypatch.context() as m:
        m.setattr(dkparse._Parser, "term", counted)
        assert parse_file(text) == entries
    return calls


def test_chain_parse_work_grows_with_distinct_text(monkeypatch):
    # `cert.dk` repeats its closed formulas, so its text grows as n^2; the
    # reader reads each repeated span once, so its work grows about as n
    calls = [_chain_parse_terms(monkeypatch, n) for n in (16, 32, 64)]
    for small, large in zip(calls, calls[1:]):
        assert large <= 2.5 * small, calls
