"""S-expression reader: pinned results and errors, malformed and deep input."""

import hashlib
import sys

import pytest

from lpm import cli, examples, sexp

# The reader pinned: `loads` over every `.tffx`/`.llpx` file `lpm examples`
# writes, and the exact text of its errors.  Recorded before the reader
# became one token loop.

_LOADS_SHA256 = "e6e7965c4d02ba23ddea3f03e3228c29a70ca8b32efbbea83655135ab3e8b30f"


def test_loads_results_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    count = 0
    for name in sorted(examples.BUILTINS):
        for mode in ("deep", "shallow"):
            out = tmp_path / f"{name}-{mode}"
            assert cli.main(["examples", name, "--mode", mode, "--out", str(out)]) == 0
            for p in sorted(out.glob("*.tffx")) + sorted(out.glob("*.llpx")):
                count += 1
                h.update(repr((f"{out.name}/{p.name}", sexp.loads(p.read_text(encoding="utf-8")))).encode())
    capsys.readouterr()
    assert count == 2 * 2 * len(examples.BUILTINS)
    assert h.hexdigest() == _LOADS_SHA256


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a b", "1:1: unterminated list"),
        ("; c\n  (a\n", "2:3: unterminated list"),
        ("x\r\n\t(a (b)", "2:2: unterminated list"),
        ("(a (b", "1:4: unterminated list"),
        ("(a ; )\n (b) c", "1:1: unterminated list"),
        ("(;)", "1:1: unterminated list"),
        ("\t\t; tab\n(a b\r\n  (c ; d )\n", "3:3: unterminated list"),
        ("(((((", "1:5: unterminated list"),
        ("(x)\r\n;; (\r\n\t\t(y\t(z)", "3:3: unterminated list"),
        ("(a)\n\t; (\n  (b (c) ; )\r\n", "3:3: unterminated list"),
        ("((a) (b) ; x\n\t(c", "2:2: unterminated list"),
    ],
)
def test_error_messages_pinned(text, message):
    with pytest.raises(sexp.SexpError) as e:
        sexp.loads(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "text, count",
    [("", 0), ("a b", 2), ("; only a comment\n", 0), ("(a)\n(b)\r\n\t(c)", 3), ("  \n\t", 0)],
)
def test_loads_one_count_message_pinned(text, count):
    with pytest.raises(sexp.SexpError) as e:
        sexp.loads_one(text)
    assert str(e.value) == f"1:1: expected one expression, found {count}"


def test_dumps_prefix_cuts_after_the_limit():
    for x in (["a" * 78], ["a", ["b" * 74]], [[], [], ["x"] * 20], "x" * 80):
        assert sexp.dumps_prefix(x) == sexp.dumps(x) and len(sexp.dumps(x)) <= 80
    for x in (["a" * 79], ["a", ["b" * 74, "c"]], [[]] * 50, "x" * 81):
        assert sexp.dumps_prefix(x) == sexp.dumps(x)[:80] + "…"


# ---------------------------------------------------------------------------
# Malformed and deep input


def test_stray_close_paren_is_an_error():
    with pytest.raises(sexp.SexpError) as e:
        sexp.loads("(a)\n  ) (b")
    assert str(e.value) == "2:3: unexpected ')'"


def test_integers_are_ascii_digits_only():
    # anything but -?[0-9]+ is a symbol, never a failed int()
    assert sexp.loads("-5 5 -0 007 5a a-5 - a;b\n") == [-5, 5, 0, 7, "5a", "a-5", "-", "a"]
    assert sexp.loads("--5 ² -5-") == ["--5", "²", "-5-"]


def test_equal_lists_and_atoms_are_one_object():
    x, y, z = sexp.loads("(a (b 1000) (b 1000)) (a (b 1000) (b 1000)) (a (b 01000) (b 1000))")
    assert x is y and x[1] is x[2] and x[0] is z[0]
    assert z == x and z[1] is not z[2]  # `01000` is the integer 1000, not the same text


def test_deep_nesting_reads_at_default_recursion_limit():
    depth = 50_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        x = sexp.loads_one("(" * depth + "a" + ")" * depth)
        with pytest.raises(sexp.SexpError) as e:
            sexp.loads("(" * depth)
    finally:
        sys.setrecursionlimit(limit)
    assert str(e.value) == f"1:{depth}: unterminated list"
    for _ in range(depth - 1):
        assert len(x) == 1
        x = x[0]
    assert x == ["a"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("(theory t (type b 0)) ) (garbage", "1:23: unexpected ')'"),
        ("(theory t (type b --5))", "expected an integer, found --5"),
    ],
    ids=["stray-close", "bad-integer"],
)
def test_translate_rejects_malformed_theory(tmp_path, capsys, text, message):
    theory = tmp_path / "t.tffx"
    theory.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["translate", str(theory), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
