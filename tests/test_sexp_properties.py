"""Properties of the S-expression reader and printer against their
references: the same results, sharing and errors for any layout of the
text, the same bytes written, and printing work that grows with the tree."""

import time

from hypothesis import given, settings, strategies as st

from mutations import chain_certificate
from references import reference_dumps_pretty, reference_loads
from lpm import examples, llproof, sexp, tff

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# atoms of characters that `str.split()` and `str.strip()` take for
# whitespace and the tokenizer does not
ODD_ATOMS = ("a\x0bb", "\x0c", "\x1c", "\x85", "\u2028", "\u00a0")
ATOMS = ("a", "b", "and", "pred", "P0", "0", "7", "-3", "007", "1000", "01000", "-", "--5", "é", *ODD_ATOMS)
SEXPS = st.recursive(st.sampled_from(ATOMS), lambda inner: st.lists(inner, max_size=5), max_leaves=40)
# whole lines, so repeats of one comment line occur
COMMENTS = ("; c", ";;(", "; )", "\t; x y", ";")


def outcome(read, text):
    try:
        return read(text)
    except sexp.SexpError as e:
        return str(e)


def assert_same_sharing(expected, actual):
    """`actual` is `expected` with the same objects shared: a walk of both
    pairs each object of one with exactly one object of the other."""
    forward, back = {}, {}
    todo = [(expected, actual)]
    while todo:
        e, a = todo.pop()
        assert type(e) is type(a)
        assert forward.setdefault(id(e), id(a)) == id(a)
        assert back.setdefault(id(a), id(e)) == id(e)
        if isinstance(e, list):
            assert len(e) == len(a)
            todo += zip(e, a)
        else:
            assert e == a


def render(data, items) -> str:
    """`items` written flat or through the printer, then edited line by
    line: indentation, blank, comment and repeated lines, a trailing
    comment, an atom or a parenthesis added, and `\\r\\n` endings."""
    if data.draw(st.booleans(), label="flat"):
        text = data.draw(st.sampled_from((" ", "\n")), label="separator").join(map(sexp.dumps, items))
    else:
        indent = data.draw(st.integers(0, 80), label="indent")
        text = "\n".join(sexp.dumps_pretty(x, indent) for x in items)
    lines = text.split("\n")
    edits = data.draw(st.lists(st.tuples(
        st.integers(0, len(lines) - 1),
        st.sampled_from(("indent", "blank", "comment", "repeat", "trailing", "atom", "paren")),
        st.sampled_from(("", " ", "  ", "\t", " \t ", "\r", "    ")),
        st.sampled_from(COMMENTS),
        st.sampled_from("()"),
    ), max_size=8), label="edits")
    for i, kind, space, comment, paren in edits:
        line = lines[i]
        if kind == "indent":
            lines[i] = space + line.lstrip(" \t\r")
        elif kind == "blank":
            lines.insert(i, space)
        elif kind == "comment":
            lines.insert(i, space + comment)
        elif kind == "repeat":
            lines.insert(data.draw(st.integers(0, len(lines)), label="at"), line)
        elif kind == "trailing":
            lines[i] = line + " " + comment
        elif kind == "atom":
            lines[i] = space + data.draw(st.sampled_from(ODD_ATOMS), label="atom") + " " + line
        else:
            col = data.draw(st.integers(0, len(line)), label="col")
            lines[i] = line[:col] + paren + line[col:]
    return ("\r\n" if data.draw(st.booleans(), label="crlf") else "\n").join(lines)


@PROPERTY_SETTINGS
@given(st.lists(SEXPS, min_size=1, max_size=4), st.data())
def test_reader_matches_reference(items, data):
    text = render(data, items)
    expected, actual = outcome(reference_loads, text), outcome(sexp.loads, text)
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert_same_sharing(expected, actual)


@PROPERTY_SETTINGS
@given(SEXPS, st.integers(0, 90))
def test_printer_matches_reference(x, indent):
    assert sexp.dumps_pretty(x, indent) == reference_dumps_pretty(x, indent)


def test_reader_replays_errors_on_repeated_lines():
    # each error is on a line whose text was met before, so it is replayed
    for text in (
        "(a\n  (b c))\n)\n  (b c))\n",
        "(x\n(y\n(y\n",
        "(a (b\n))\n(a (b\n)\n",
        "; c\r\n(\r\n; c\r\n)\r\n)\r\n",
        "\t(p ())\n(q\n\t(p ())\n  (p ()))\n\t(p ()))\n",
    ):
        assert isinstance(outcome(reference_loads, text), str)
        assert outcome(sexp.loads, text) == outcome(reference_loads, text)


def test_reader_is_linear_in_unclosed_parentheses():
    # one line of 50,000 `(` and 50,000 lines of one `(`: replayed or not,
    # a line's work follows its length, and the error is the reference's
    for text in ("(" * 50_000, "(\n" * 50_000):
        expected = outcome(reference_loads, text)
        times = []
        for read in (reference_loads, sexp.loads):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                assert outcome(read, text) == expected
                best = min(best, time.perf_counter() - start)
            times.append(best)
        assert times[1] < 5 * times[0] + 0.05


def test_printer_odd_layouts_pinned():
    # an empty list past column 74 and a lone head too wide for its line
    assert sexp.dumps_pretty([], 75) == "(\n)"
    assert sexp.dumps_pretty(["f", []], 74) == "(f\n" + " " * 76 + "(\n))"
    assert sexp.dumps_pretty(["x" * 80]) == "(" + "x" * 80 + "\n)"
    assert sexp.dumps_pretty(["f", ["y" * 80]]) == "(f\n  (" + "y" * 80 + "\n))"


def _print_both(f, monkeypatch):
    new = f()
    with monkeypatch.context() as m:
        m.setattr(sexp, "dumps_pretty", reference_dumps_pretty)
        old = f()
    return new, old


def test_printed_files_match_reference(monkeypatch):
    cases = [(mk_thy(), mk_goal(), mk_proof()) for mk_thy, mk_goal, mk_proof in examples.BUILTINS.values()]
    cases += [chain_certificate(n, bad) for n in (8, 16, 32, 64) for bad in ((), {n // 2})]
    for thy, goal, proof in cases:
        new, old = _print_both(lambda: (tff.print_theory(thy), llproof.print_proof(thy, goal, proof)), monkeypatch)
        assert new == old


def _dumps_calls(x, monkeypatch) -> int:
    calls = 0
    dumps = sexp.dumps

    def counting(y):
        nonlocal calls
        calls += 1
        return dumps(y)

    with monkeypatch.context() as m:
        m.setattr(sexp, "dumps", counting)  # `dumps` calls itself through the module
        sexp.dumps_pretty(x)
    return calls


def _nodes(x) -> int:
    count, todo = 0, [x]
    while todo:
        y = todo.pop()
        count += 1
        if isinstance(y, list):
            todo += y
    return count


def test_printer_work_grows_with_the_tree(monkeypatch):
    # each subtree is written flat at most once: writing each level's flat
    # text again made the calls grow as n³ on chain-n, the nodes as n²
    trees = [llproof.proof_to_sexp(chain_certificate(n)[2], set()) for n in (40, 80)]
    calls = [_dumps_calls(x, monkeypatch) for x in trees]
    nodes = [_nodes(x) for x in trees]
    assert all(c <= n for c, n in zip(calls, nodes))
    assert calls[1] / calls[0] <= 1.2 * nodes[1] / nodes[0]


def test_chain_160_round_trip():
    thy, goal, proof = chain_certificate(160)
    assert llproof.parse_proof(llproof.print_proof(thy, goal, proof), thy) == (goal, proof)
