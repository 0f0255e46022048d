"""Properties of the `.dk` front end: the lexer and the printer against
their references, printing and parsing as inverses, and sharing in parsed
terms."""

from hypothesis import given, settings, strategies as st

from references import reference_parse_file, reference_print_file, reference_tokenize
from lpm import dkparse
from lpm.dkparse import Decl, Def, DkSyntaxError, Rule, parse_file, parse_term, print_file, print_term
from lpm.terms import KIND, TYPE, App, Const, FVar, KTerm, Lam, Pi, Var, app

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# The lexer gives the reference lexer's tokens, positions, comments and errors

FRAGMENTS = (
    "x", "y1", "h0", "a'b", "_", "logic.prf", "m.x", "Type", "Kind", "def", "Typex", "Type'",
    "-->", "->", "=>", ":=", ":", ".", "(", ")", "[", "]", ",", "#ASSERT",
    " ", " ", "  ", "\t", "\n", "\r\n", "(; c ;)", "(;(; nested ;) ;)", "(; line\nbreak ;)",
)
# an unknown command, a stray character (one of them a space to `str.strip`)
# or half a comment
ERRORS = ("#FOO", "#", "~", "-", "=", "1", "'", ">", ";", "\x0b", "\u00a0", "(;", ";)")


@PROPERTY_SETTINGS
@given(
    st.lists(st.sampled_from(FRAGMENTS), max_size=40),
    st.lists(st.tuples(st.integers(0, 40), st.sampled_from(ERRORS)), max_size=2),
)
def test_lexer_matches_reference(fragments, errors):
    for i, bad in errors:
        fragments.insert(i, bad)
    text = "".join(fragments)
    try:
        expected, expected_comments = reference_tokenize(text)
    except DkSyntaxError as e:
        expected_error = str(e)
    else:
        expected_error = None
    try:
        p = dkparse._Parser(text)
    except DkSyntaxError as e:
        assert str(e) == expected_error
        return
    assert expected_error is None
    assert p.tokens == [tok.text for tok in expected]
    assert [p.where(offset) for offset in p.offsets] == [(tok.line, tok.col) for tok in expected]
    kinds = [tok if tok in dkparse._FIXED else "IDENT" for tok in p.tokens]
    assert kinds[:-1] == [tok.kind for tok in expected[:-1]] and expected[-1].kind == "EOF"

    def positioned(comments):
        return {i: [(c.text, c.line, c.col) for c in cs] for i, cs in comments.items()}

    assert positioned(p.comments) == positioned(expected_comments)


# ---------------------------------------------------------------------------
# Random terms whose binder names clash with outer binders, bare constants
# and rule-context variables, so the printer both renames and does not

DELTA = ("a", "b")
CONSTS = ("c", "x", "f", "m.c", "m.f")
BINDER_NAMES = ("", "x", "y", "x'", "c", "a", "h0", "def", "m.q")


def _term(data, depth: int, budget: int, shared: tuple[KTerm, ...] = ()) -> KTerm:
    """A random term; a leaf may be one of the terms in `shared`."""
    leaves = ["sort", "const", "fvar"] + ["var"] * (depth > 0) + ["shared"] * bool(shared)
    kind = data.draw(st.sampled_from(leaves + ["app", "lam", "pi"] * (budget > 0)))
    if kind == "shared":
        return data.draw(st.sampled_from(shared))
    if kind == "sort":
        return data.draw(st.sampled_from((TYPE, KIND)))
    if kind == "const":
        return Const(data.draw(st.sampled_from(CONSTS)))
    if kind == "fvar":
        return FVar(data.draw(st.sampled_from(DELTA)))
    if kind == "var":
        return Var(data.draw(st.integers(0, depth - 1)))
    left = _term(data, depth, budget - 1, shared)
    if kind == "app":
        return App(left, _term(data, depth, budget - 1, shared))
    former = Lam if kind == "lam" else Pi
    return former(data.draw(st.sampled_from(BINDER_NAMES)), left, _term(data, depth + 1, budget - 1, shared))


@PROPERTY_SETTINGS
@given(st.data())
def test_print_parse_round_trip(data):
    t = _term(data, 0, 5)
    text = print_term(t)
    parsed = parse_term(text, DELTA)
    assert parsed == t
    assert print_term(parsed) == text


# ---------------------------------------------------------------------------
# The printer, which copies the text of a closed subterm's first occurrence,
# prints what the reference printer prints


@PROPERTY_SETTINGS
@given(st.data())
def test_print_file_matches_reference(data):
    name = data.draw(st.sampled_from(BINDER_NAMES[1:]))
    # closed: printed once, then copied, also under binders named as its own
    closed = App(Const("m.f"), Lam(name, Const("m.c"), App(Var(0), Const("m.c"))))
    # a bare constant and a free variable, which the binders around them must
    # not capture: their text is never copied
    opened = App(Const(data.draw(st.sampled_from(CONSTS))), FVar(data.draw(st.sampled_from(DELTA))))
    # an index: its text is the name of the binder it is under
    loose = App(Const("m.f"), Var(0))
    shared = (closed, opened, _term(data, 0, 3))
    # `closed` at application and at argument precedence, both under a
    # binder named as its own; `opened` under binders and outside them
    body = app(closed, opened, loose, Pi(name, closed, app(opened, closed)), Lam("y", closed, App(Const("m.f"), loose)))
    skeleton = Lam(name, Const("m.c"), body)
    terms = [_term(data, 0, 5, shared) for _ in range(3)]
    ctx = tuple((x, Const("m.c")) for x in DELTA)
    entries = [Decl("d0", skeleton), Def("d1", terms[0], opened), Rule(ctx, terms[1], terms[2]), Decl("d2", closed)]
    assert print_file(entries) == reference_print_file(entries)


def _entry_terms(e) -> list[KTerm]:
    match e:
        case Decl(type=ty):
            return [ty]
        case Def(type=ty, body=b):
            return [ty, b]
        case Rule(ctx=ctx, lhs=lhs, rhs=rhs):
            return [ty for _, ty in ctx] + [lhs, rhs]


def _subterms(t: KTerm):
    yield t
    for field in t.__match_args__:
        child = getattr(t, field)
        if isinstance(child, KTerm):
            yield from _subterms(child)


@PROPERTY_SETTINGS
@given(st.data())
def test_parsed_equal_subterms_are_one_object(data):
    ctx = tuple((x, Const("m.c")) for x in DELTA)
    terms = [_term(data, 0, 4) for _ in range(4)]
    entries = [Decl("d0", terms[0]), Def("d1", terms[1], terms[0]), Rule(ctx, terms[2], terms[3])]
    text = print_file(entries)
    parsed = parse_file(text)
    assert print_file(parsed) == text  # sharing kept every display name
    seen: dict[str, KTerm] = {}
    for e in parsed:
        for t in _entry_terms(e):
            for sub in _subterms(t):
                # `repr` shows every display name, so equal ones are equal terms with equal names
                assert seen.setdefault(repr(sub), sub) is sub


# ---------------------------------------------------------------------------
# The reader, which reads a later occurrence of a closed parenthesised
# term's text as its first one, reads what the reference reader reads, for
# files in which one text recurs under binders of its names, inside rule
# contexts that name them and where a name is a bare constant

SPAN_NAMES = ("x", "y", "a", "m.c", "m.a_rather_long_name")


def _span(data, budget: int) -> str:
    """The text of a random term, every compound one in parentheses."""
    kind = data.draw(st.sampled_from(("name",) + ("app", "lam", "pi", "arrow") * (budget > 0)))
    if kind == "name":
        return data.draw(st.sampled_from(SPAN_NAMES))
    left, right = _span(data, budget - 1), _span(data, budget - 1)
    if kind == "app":
        return f"({left}{data.draw(st.sampled_from((' ', ' (; ) ;) ')))}{right})"
    if kind == "arrow":
        return f"({left} -> {right})"
    return f"({data.draw(st.sampled_from(SPAN_NAMES[:3]))} : {left} {'=>' if kind == 'lam' else '->'} {right})"


@PROPERTY_SETTINGS
@given(st.data())
def test_parse_file_matches_reference(data):
    # long enough to be remembered, and closed unless its drawn part names
    # `a`; the other spans are drawn whole, closed or not
    closed = f"(x : m.c => (y : m.c -> m.a_rather_long_name {_span(data, 1)} x y))"
    spans = [closed] + [_span(data, 3) for _ in range(3)]

    def body() -> str:
        return " ".join(data.draw(st.lists(st.sampled_from(spans), min_size=1, max_size=3)))

    def binders() -> str:
        return "".join(f"{x} : m.c -> " for x in data.draw(st.lists(st.sampled_from(SPAN_NAMES[:3]), max_size=3)))

    forms = [
        lambda k: f"d{k} : {binders()}m.f {body()}.",
        lambda k: f"def d{k} : m.c := {binders()}m.f {body()}.",
        lambda k: f"[a : m.c, x : {body()}] m.f {body()} --> m.f {body()}.",
        lambda k: f"#ASSERT m.f {body()} : {binders()}m.f {body()}.",
    ]
    layout = data.draw(st.lists(st.sampled_from(forms), min_size=2, max_size=5))
    text = "".join(form(k) + "\n" for k, form in enumerate(layout))
    assert [repr(e) for e in parse_file(text)] == [repr(e) for e in reference_parse_file(text)]
