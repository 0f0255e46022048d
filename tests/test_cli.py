"""Command-line front end: commands, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lpm import cli, dkparse, dkprint, examples, llproof, record, signature, tff
from lpm.dkparse import Decl, Def, Rule
from lpm.terms import App, Const, Pi, app, arrow, spine


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    code = cli.main(["examples", "bool-commute", "--out", str(out)])
    assert code == 0
    return out


def test_check_generated_files_in_order(emitted, capsys):
    files = [str(emitted / n) for n in ("logic.dk", "rules.dk", "theory.dk", "cert.dk")]
    code, out, _ = run(["check", *files], capsys)
    assert code == 0
    assert "cert.dk: ok" in out


def test_check_reports_syntax_error_location(tmp_path, capsys):
    bad = tmp_path / "bad.dk"
    bad.write_text("x : .\n")
    code, _, err = run(["check", str(bad)], capsys)
    assert code == 2
    assert f"{bad}:1:5" in err


def test_check_reports_type_error(tmp_path, capsys):
    bad = tmp_path / "bad.dk"
    bad.write_text("b : Type.\nc : b.\n#ASSERT c : Type.\n")
    code, _, err = run(["check", str(bad)], capsys)
    assert code == 1
    assert "3:1" in err


def test_check_gives_each_entry_its_own_budget(tmp_path, capsys):
    # each #ASSERT unfolds c once: one step each under `--fuel 1`; the
    # rejected entry is named at its line, after the -v lines of those before
    text = "A : Type.\na : A.\nb : A.\ndef c : A := a.\nP : A -> Type.\np : P a.\n#ASSERT p : P c.\n#ASSERT p : P c.\n"
    good = tmp_path / "good.dk"
    good.write_text(text)
    assert run(["-v", "--fuel", "1", "check", str(good)], capsys) == (
        0, "checked A\nchecked a\nchecked b\nchecked c\nchecked P\nchecked p\n" + f"{good}: ok (8 entries)\n", "")
    bad = tmp_path / "bad.dk"
    bad.write_text(text.replace("#ASSERT p : P c.\n#", "#ASSERT p : P b.\nq : P b.\n#"))
    code, out, err = run(["-v", "--fuel", "1", "check", str(bad)], capsys)
    assert code == 1 and out == "checked A\nchecked a\nchecked b\nchecked c\nchecked P\nchecked p\n"
    assert err.startswith(f"{bad}:7:1: type mismatch")


def _table_entries_copied_by_check(tmp_path, capsys, monkeypatch, n: int) -> int:
    """Type and rule table entries handed to new signatures while `lpm check`
    reads the shallow `logic` module and then a file of n nullary
    predicates `t.Pi` and n axioms `t.axi : logic.prf t.Pi`."""
    from lpm import embed

    logic, theory = tmp_path / "logic.dk", tmp_path / f"th{n}.dk"
    logic.write_text(dkprint.print_file(embed.prelude("shallow")))
    theory.write_text("".join(f"t.P{i} : logic.Prop.\n" for i in range(n))
                      + "".join(f"t.ax{i} : logic.prf t.P{i}.\n" for i in range(n)))
    copied = []
    init = signature.Signature.__init__

    def counting_init(self, types=None, rules=None, eta=False):
        copied.append(len(types or ()) + len(rules or ()))
        init(self, types, rules, eta)

    with monkeypatch.context() as m:
        m.setattr(signature.Signature, "__init__", counting_init)
        assert run(["check", str(logic), str(theory)], capsys)[0] == 0
    return sum(copied)


def test_check_copies_the_tables_once_per_file(tmp_path, capsys, monkeypatch):
    # `lpm check` installs a file in one copy of the tables, so reading a
    # theory is linear in its entries; a copy per entry handed about N^2
    # table entries to new signatures
    small = _table_entries_copied_by_check(tmp_path, capsys, monkeypatch, 1000)
    large = _table_entries_copied_by_check(tmp_path, capsys, monkeypatch, 8000)
    assert small == large, (small, large)


def test_check_missing_file(tmp_path, capsys):
    code, _, _ = run(["check", str(tmp_path / "absent.dk")], capsys)
    assert code == 2


@pytest.mark.parametrize("last", ["#ASSERT x : P d.", "def y : P d := x."], ids=["assert", "def"])
def test_fuel_exhaustion_exit_code(tmp_path, capsys, last):
    # a definition's body is checked while installing its rewrite rule;
    # running out of fuel there is still fuel exhaustion, not a type error
    f = tmp_path / "loop.dk"
    f.write_text(f"b : Type.\nc : b.\nd : b.\n[] c --> c.\nP : b -> Type.\nx : P c.\n{last}\n")
    code, _, _ = run(["--fuel", "100", "check", str(f)], capsys)
    assert code == 3


_DIVERGENT_ARGUMENT = (
    "T : Type. c : T. loop : T. [] loop --> loop.\n"
    "f : T -> T. [] f c --> c. P : T -> Type. x : P (f loop).\n"
)


@pytest.mark.parametrize(
    "last", ["#ASSERT x : P ((z : T => f z) loop).", "#ASSERT x : P (f ((z : T => z) loop))."], ids=["div", "div2"]
)
def test_divergent_argument_under_stuck_rule_head(tmp_path, capsys, last):
    # the pattern c of f's rule reads the head of `f loop`'s argument, so
    # whnf reduces `loop`, which diverges wherever the beta-redex sits
    f = tmp_path / "div.dk"
    f.write_text(_DIVERGENT_ARGUMENT + last + "\n")
    code, _, _ = run(["--fuel", "1000", "check", str(f)], capsys)
    assert code == 3


def test_divergent_argument_no_pattern_reads_is_left_alone(tmp_path, capsys):
    # g's rule reads only its second argument, so comparing the two sides
    # puts `g omega b` in whnf without reducing `omega`: a verdict, where
    # normalizing every argument of a stuck spine ran out of fuel
    f = tmp_path / "lazy.dk"
    f.write_text("A : Type. a : A. b : A. omega : A. [] omega --> omega.\n"
                 "g : A -> A -> A. [x : A] g x a --> x. P : A -> Type. p : P (g omega b).\n"
                 "#ASSERT p : P ((z : A => g omega z) b).\n")
    code, out, err = run(["--json", "check", str(f)], capsys)
    assert (code, json.loads(out)["exit_code"], err) == (0, 0, "")


@pytest.mark.parametrize("certificate", [False, True], ids=["plain", "certificate"])
def test_a_definition_cannot_name_itself(tmp_path, capsys, certificate):
    # a body is checked before its name is declared, so `def p : F := p.`
    # is unbound, not a proof of F; after the emitted modules and a theory
    # of one proposition, the same trick "proved" an unprovable goal
    files, name, line = {"p.dk": "F : Type.\ndef p : F := p.\n"}, "p", 2
    if certificate:
        files = {n: text for n, (_, text) in cli._preludes("shallow").items()}
        files["theory.dk"] = "t.P : logic.Prop.\n"
        files["cert.dk"] = "def cert.goal : logic.prf (logic.not t.P) -> logic.prf logic.False := cert.goal.\n"
        name, line = "cert.goal", 1
    for n, text in files.items():
        (tmp_path / n).write_text(text)
    code, out, _ = run(["--json", "check", *(str(tmp_path / n) for n in files)], capsys)
    message = f"ill-typed body of definition {name}: unbound identifier: {name}"
    assert (code, json.loads(out)["diagnostics"]) == (1, [{"file": str(tmp_path / n), "line": line, "col": 1,
                                                             "message": message}])


def test_fuel_env_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "loop.dk"
    f.write_text("b : Type.\nc : b.\nd : b.\n[] c --> c.\nP : b -> Type.\nx : P c.\n#ASSERT x : P d.\n")
    monkeypatch.setenv("LPM_FUEL", "100")
    code, _, _ = run(["check", str(f)], capsys)
    assert code == 3


def test_translate_emits_and_rechecks(tmp_path, capsys):
    thy = examples.set_theory()
    goal, proof = examples.set_diff_goal(), examples.set_diff_proof()
    theory_file = tmp_path / "set.tffx"
    proof_file = tmp_path / "set.llpx"
    theory_file.write_text(tff.print_theory(thy))
    proof_file.write_text(llproof.print_proof(thy, goal, proof))
    out = tmp_path / "out"
    code, stdout, _ = run(["translate", str(theory_file), str(proof_file), "--out", str(out)], capsys)
    assert code == 0
    assert "verdict: accepted" in stdout
    for name in ("logic.dk", "rules.dk", "theory.dk", "cert.dk"):
        assert (out / name).exists()


def test_translate_checks_the_theory_once(tmp_path, capsys, monkeypatch):
    # `translate` checked the theory, and compiling the certificate checked it again
    calls = []
    original = tff.wf_theory
    monkeypatch.setattr(tff, "wf_theory", lambda thy: calls.append(thy.name) or original(thy))
    llproof.checked_theory.cache_clear()
    thy_file, proof_file = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(),
                                         examples.set_diff_proof())
    code, _, _ = run(["translate", thy_file, proof_file, "--out", str(tmp_path / "out")], capsys)
    assert (code, calls) == (0, ["set"])


def _write_inputs(tmp_path, thy, goal, proof):
    theory_file = tmp_path / f"{thy.name}.tffx"
    proof_file = tmp_path / f"{thy.name}.llpx"
    theory_file.write_text(tff.print_theory(thy))
    proof_file.write_text(llproof.print_proof(thy, goal, proof))
    return str(theory_file), str(proof_file)


def test_translate_compiles_against_rechecked_signature(tmp_path, capsys, monkeypatch):
    # the certificate is compiled against the signature re-checked from the
    # emitted module files; nothing else installs the modules
    def unused(*args, **kwargs):
        raise AssertionError("llproof.base_signature called")

    monkeypatch.setattr(llproof, "base_signature", unused)
    files = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof())
    code, stdout, _ = run(["translate", *files, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert "verdict: accepted" in stdout


def test_translator_rejection_follows_the_module_files(tmp_path, capsys):
    # the modules are written and re-checked before the certificate is compiled
    files = _write_inputs(tmp_path, examples.pair_theory(), examples.pair_goal(), llproof.LLProof(llproof.Bot()))
    code, stdout, _ = run(["--json", "translate", *files, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    payload = json.loads(stdout)
    assert [p.rsplit("/", 1)[-1] for p in payload["outputs"]] == ["logic.dk", "rules.dk", "theory.dk"]
    assert "is not available in the sequent" in payload["diagnostics"][0]["message"]


def test_translate_theory_only(tmp_path, capsys):
    theory_file = tmp_path / "pairs.tffx"
    theory_file.write_text(tff.print_theory(examples.pair_theory()))
    out = tmp_path / "out"
    code, stdout, _ = run(["translate", str(theory_file), "--out", str(out)], capsys)
    assert code == 0
    assert not (out / "cert.dk").exists()
    assert (out / "theory.dk").exists()


def test_translate_rejects_bad_certificate(tmp_path, capsys):
    thy = examples.pair_theory()
    goal = examples.pair_goal()
    bad_proof = llproof.LLProof(
        llproof.Neq(tff.TCons("elem"), tff.Fun("pair", (), (tff.Fun("a"), tff.Fun("a")))),
        (),
        (tff.Not(goal),),
    )
    theory_file = tmp_path / "pairs.tffx"
    proof_file = tmp_path / "pairs.llpx"
    theory_file.write_text(tff.print_theory(thy))
    proof_file.write_text(llproof.print_proof(thy, goal, bad_proof))
    code, _, err = run(["translate", str(theory_file), str(proof_file), "--out", str(tmp_path / "o")], capsys)
    assert code == 1


@pytest.mark.parametrize("fuel", [40, 80, 160])
def test_translate_recheck_budget_is_per_entry_as_in_check(tmp_path, capsys, fuel):
    # `--fuel` is a budget per entry in both commands, so re-checking the
    # files `translate` wrote gives its verdict
    files = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof())
    code, stdout, _ = run(["--json", "--fuel", str(fuel), "translate", *files, "--out", str(tmp_path / "o")], capsys)
    outputs = json.loads(stdout)["outputs"]
    assert code == run(["--fuel", str(fuel), "check", *outputs], capsys)[0]


# Prelude reuse: a process checks `logic.dk` and `rules.dk` in full once,
# and reuses a successful check only for the same text, starting
# signature, eta and budget.  Each test starts from an empty store.


@pytest.fixture
def fresh_preludes(monkeypatch):
    monkeypatch.setattr(cli, "_PRELUDE_CHECKS", {})


@pytest.fixture
def installed(monkeypatch):
    """Every entry `signature.install_entries` is given, in order."""
    seen = []
    install = signature.install_entries

    def counting(sig, entries, fuel=None, budget=None):
        def each():
            for entry in entries:
                seen.append(entry)
                yield entry

        return install(sig, each(), fuel, budget)

    monkeypatch.setattr(signature, "install_entries", counting)
    return seen


def _translate_json(tmp_path, capsys, *flags):
    files = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof())
    code, stdout, _ = run(["--json", *flags, "translate", *files, "--out", str(tmp_path / "o")], capsys)
    return code, json.loads(stdout)


@pytest.mark.parametrize("budgets", [[None, 0], [0, 0, None, 0]], ids=["default-first", "fuel-0-first"])
def test_prelude_reuse_keys_on_the_budget(tmp_path, capsys, fresh_preludes, budgets):
    # `--fuel 0` after the default budget is a full check, which runs out
    # of fuel in rules.dk; a failed check is never stored
    for fuel in budgets:
        flags = [] if fuel is None else ["--fuel", str(fuel)]
        code, payload = _translate_json(tmp_path, capsys, *flags)
        if flags:
            [diagnostic] = payload["diagnostics"]
            assert code == 3 and diagnostic["file"] == str(tmp_path / "o" / "rules.dk")
            assert "budget of 0 steps" in diagnostic["message"]
        else:
            assert code == 0 and payload["diagnostics"] == []


def test_prelude_reuse_keys_on_eta(tmp_path, capsys, fresh_preludes, installed):
    assert _translate_json(tmp_path, capsys)[0] == 0
    first = len(installed)
    installed.clear()
    assert _translate_json(tmp_path, capsys, "--eta")[0] == 0
    assert len(installed) == first
    assert any(e.name == "logic.Prop" for e in installed if isinstance(e, dkparse.Decl))


def test_prelude_reuse_keys_on_the_text_read_back(tmp_path, capsys, fresh_preludes, monkeypatch):
    assert _translate_json(tmp_path, capsys)[0] == 0
    good, bad = "logic.term : logic.type -> Type.", "logic.term : logic.typ -> Type."
    logic = tmp_path / "o" / "logic.dk"
    line = logic.read_text().splitlines().index(good) + 1
    read_text = Path.read_text

    def corrupted(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        return text.replace(good, bad) if self == logic else text

    monkeypatch.setattr(Path, "read_text", corrupted)
    code, payload = _translate_json(tmp_path, capsys)
    assert code == 1
    [diagnostic] = payload["diagnostics"]
    assert (diagnostic["file"], diagnostic["line"], diagnostic["col"]) == (str(logic), line, 1)
    assert "logic.typ" in diagnostic["message"]


@pytest.mark.parametrize("flag", ["--json", "-v"])
def test_reused_preludes_give_the_same_output(tmp_path, capsys, fresh_preludes, installed, flag):
    # the second call installs only theory.dk and cert.dk, and prints and
    # writes what the first did
    files = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof())
    out = tmp_path / "o"
    argv = [flag, "translate", *files, "--out", str(out)]
    first = run(argv, capsys)
    first_files = {p.name: p.read_bytes() for p in out.iterdir()}
    n_first = len(installed)
    installed.clear()
    second = run(argv, capsys)
    assert second == first and first[0] == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first_files
    rest = [e for name in ("theory.dk", "cert.dk") for e in dkparse.parse_file((out / name).read_text())]
    assert installed == rest and n_first > len(rest)
    if flag == "-v":
        assert "checked logic.Prop" in second[1] and "checked rules.R_Ax" in second[1]


def test_examples_normalize_goal_against_rechecked_signature(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("llproof.base_signature called")

    monkeypatch.setattr(llproof, "base_signature", unused)
    code, stdout, _ = run(["examples", "pair-fst-snd", "--out", str(tmp_path / "p")], capsys)
    assert code == 0
    assert "normalized goal: logic.eq pairs.elem pairs.a pairs.a" in stdout


def test_proof_syntax_error_is_reported_against_the_proof_file(tmp_path, capsys):
    theory_file = tmp_path / "bool-commute.tffx"
    theory_file.write_text(tff.print_theory(examples.bool_theory()))
    bad = tmp_path / "bad.llpx"
    bad.write_text("(proof (theory bool)\n  (goal (top))\n  (bot)) )\n")
    argv = ["translate", str(theory_file), str(bad), "--out", str(tmp_path / "o")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"{bad}:3:10: unexpected ')'" in err
    code, stdout, _ = run(["--json", *argv], capsys)
    assert code == 2
    assert json.loads(stdout)["diagnostics"] == [{"file": str(bad), "line": 3, "col": 10, "message": "unexpected ')'"}]


@pytest.mark.parametrize("body, line, col, message", [
    ("(goal (and (not) (not)))\n  (nottop (concl (not (not))))", 2, 14, "not expects 1 fields: (not)"),
    ("(goal (and (not (top)) (not (top))))\n  (nottop (concl (not (not (top)) (not (top))))) )", 3, 51, "unexpected ')'"),
], ids=["format", "syntax"])
def test_malformed_repeated_subexpression_diagnostic_pinned(tmp_path, capsys, body, line, col, message):
    # the reader shares equal lists and reads each formula once, yet an
    # error is reported at the first occurrence of what it is about
    theory_file = tmp_path / "t.tffx"
    theory_file.write_text("(theory t (pred P () ()))\n")
    bad = tmp_path / "bad.llpx"
    bad.write_text(f"(proof (theory t)\n  {body})\n")
    code, stdout, _ = run(["--json", "translate", str(theory_file), str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert json.loads(stdout)["diagnostics"] == [{"file": str(bad), "line": line, "col": col, "message": message}]


def test_theory_syntax_error_has_its_position(tmp_path, capsys):
    bad = tmp_path / "bad.tffx"
    bad.write_text("(theory t\n  (type i 0)\n")
    code, stdout, _ = run(["--json", "translate", str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert json.loads(stdout)["diagnostics"] == [{"file": str(bad), "line": 1, "col": 1, "message": "unterminated list"}]


@pytest.mark.parametrize("binding", ["(x)", "(x i c)", "()"])
def test_malformed_rule_binding_is_a_syntax_error(tmp_path, capsys, binding):
    # a binding is exactly `(x TYPE)`: `(x)` used to crash with an
    # IndexError (exit 1) and `(x i c)` to drop the `c`
    bad = tmp_path / "rule.tffx"
    bad.write_text(f"(theory t (type i 0) (term-rule () ({binding}) x x))\n")
    code, stdout, _ = run(["--json", "translate", str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert binding in json.loads(stdout)["diagnostics"][0]["message"]


# SHA-256 of every file `lpm examples NAME --mode MODE` writes, recorded
# before the term representation carried cached per-node data; a change
# to the printer, the embedding or the certificate compiler shows here.
_PRELUDE_SHA256 = {
    "deep": {
        "logic.dk": "7b6421ffeee9d1325814e1a19a97f75bb613cde949c63346af975288a384bd04",
        "rules.dk": "a02b5e32a2159f1f61100bd2162b1371a25a45b86bc3c547a180684fb7ff1c3e",
    },
    "shallow": {
        "logic.dk": "18c6650c3354182fd69e1cc7ce1d218f2269844414bd9fc953137834b0b84e49",
        "rules.dk": "4f42d135b33583cbc78ce8064654b70ec0c3873329d6aa0be817bc630728ad33",
    },
}
_EXAMPLE_SHA256 = {
    "bool-commute": {
        "bool-commute.tffx": "f14a4d313b825c54cbdcd6c4b8a4976d0db7e06bb5927964eb13dffc4c66509c",
        "bool-commute.llpx": "ee4b124c2578617a52ea1bdf10ab2a8cfe1baf31651558032144daaf4a7d44fc",
        "theory.dk": "4e21b1366c5a4f07b54ad414f834e01d2f406fb9f3d870f8ed5a43568967d8f7",
        "cert.dk": "576dc465ea0138dfae5125848a4b00e61764dc9735b488d60461c700eb7a14b6",
    },
    "pair-fst-snd": {
        "pair-fst-snd.tffx": "b95edf23992647b82e4e32876b963cf0894c56d15946db6d267464af554fa302",
        "pair-fst-snd.llpx": "125c3c1657f5b38efe1352f18a40fab0393438f2e335aabd26f01360d88e2a83",
        "theory.dk": "a9dcafbe1e9f5f7c013f36e27d28a4c800fdfcb18ebba1856fff616b2ab85046",
        "cert.dk": "9e1c8412ced8c13afe672cda2ebd0d7287eb747b2fb3f130cf5912d8c7852bb7",
    },
    "pred-decomp": {
        "pred-decomp.tffx": "538ce68be37ce21298d9905e9461a6d762dbaa602876d1effbea80db01a0ee8e",
        "pred-decomp.llpx": "282a735b7c6b6b821f61bb0888a5f4b8b5b27f05d29f3ee1c07f7c2badb0e031",
        "theory.dk": "43a8ccda121704e49f0063b99fdbd56479739001de0342fd46c227f1c99b4a11",
        "cert.dk": "2746a00d377b6a3a2b4fb7d9af30683bfed35ffc9493e3eaae1eaf53e9dab0f5",
    },
    "set-diff": {
        "set-diff.tffx": "1a46852d859934bb038f46305c15a6fa7a6ff2449935903828a0c96978905b72",
        "set-diff.llpx": "b84f8dfee74796db4f09ba61a929aa7e73f3c3d08342658a04458bc800a19e37",
        "theory.dk": "41309250369023ea99e9bc16f6f06c69567f5d577b5e1dda9373efd685fef0c1",
        "cert.dk": "53a58947f50f4a2aa945917415f318570679168b3b4a4424630fa268e1ec35d7",
    },
}


@pytest.mark.parametrize("mode", ["deep", "shallow"])
@pytest.mark.parametrize("name", sorted(examples.BUILTINS))
def test_examples_deterministic_outputs(tmp_path, capsys, name, mode):
    assert cli.main(["examples", name, "--mode", mode, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    expected = {**_EXAMPLE_SHA256[name], **_PRELUDE_SHA256[mode]}
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == expected


def test_examples_deep_mode(tmp_path, capsys):
    code, stdout, _ = run(["examples", "bool-commute", "--mode", "deep", "--out", str(tmp_path / "d")], capsys)
    assert code == 0
    assert "verdict: accepted" in stdout


def test_examples_pair_prints_normalized_goal(tmp_path, capsys):
    code, stdout, _ = run(["examples", "pair-fst-snd", "--out", str(tmp_path / "p")], capsys)
    assert code == 0
    assert "normalized goal: logic.eq pairs.elem pairs.a pairs.a" in stdout
    assert "verdict: accepted" in stdout


def test_examples_pred_decomp(tmp_path, capsys):
    code, stdout, _ = run(["examples", "pred-decomp", "--out", str(tmp_path / "q")], capsys)
    assert code == 0
    assert "certificate:" in stdout


def test_json_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.dk"
    bad.write_text("x : .\n")
    code, stdout, _ = run(["--json", "check", str(bad)], capsys)
    assert code == 2
    payload = json.loads(stdout)
    assert payload["status"] == "error"
    assert payload["exit_code"] == 2
    assert payload["diagnostics"][0]["line"] == 1


def test_json_success_payload(tmp_path, capsys):
    code, stdout, _ = run(["--json", "examples", "pair-fst-snd", "--out", str(tmp_path / "j")], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["status"] == "ok"
    assert any(p.endswith("cert.dk") for p in payload["outputs"])


def test_in_memory_matches_emitted(tmp_path, capsys):
    # the emitted-then-rechecked pipeline agrees with in-memory checking
    out = tmp_path / "m"
    assert cli.main(["examples", "bool-commute", "--out", str(out)]) == 0
    capsys.readouterr()
    from lpm import dkparse, signature

    sig = signature.EMPTY
    for name in ("logic.dk", "rules.dk", "theory.dk", "cert.dk"):
        sig = signature.install_entries(sig, dkparse.parse_file((out / name).read_text()))
    v = llproof.check_certificate(
        examples.bool_theory(), examples.bool_commute_goal(), examples.bool_commute_proof()
    )
    assert v.accepted
    emitted_cert = dkparse.parse_file((out / "cert.dk").read_text())
    assert emitted_cert == v.entries

def test_translate_names_failing_node_for_kernel_rejection(tmp_path, capsys):
    # the kernel rejects leaf 2; its path comes from the re-check of cert.dk
    from mutations import chain_certificate, chain_leaf_path

    thy, goal, proof = chain_certificate(6, {2})
    theory_file = tmp_path / "chain6.tffx"
    proof_file = tmp_path / "chain6.llpx"
    theory_file.write_text(tff.print_theory(thy))
    proof_file.write_text(llproof.print_proof(thy, goal, proof))
    argv = ["translate", str(theory_file), str(proof_file), "--out", str(tmp_path / "o")]
    path = list(chain_leaf_path(6, 2))
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert "ill-typed body of definition cert.goal: type mismatch" in err
    assert f"failing proof node: {path}" in stdout
    code, stdout, _ = run(["--json", *argv], capsys)
    assert code == 1
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert diagnostic["path"] == path
    assert diagnostic["message"].startswith("ill-typed body of definition cert.goal: type mismatch")


_CAPTURE_THEORY = "(theory cap (type i 0) (pred Q () (i i)))\n"
# NotForall instantiates x := c under the binder c, so c is renamed
_CAPTURE_PROOF = """(proof (theory cap)
  (goal (forall x i (forall c i (imp (pred Q () x c) (pred Q () x c)))))
  (notforall i x (forall c i (imp (pred Q () x c) (pred Q () x c))) c
    (notforall i y (imp (pred Q () c y) (pred Q () c y)) d
      (notimp (pred Q () c d) (pred Q () c d)
        (ax (pred Q () c d))))))
"""


def test_translate_output_does_not_depend_on_earlier_runs(tmp_path, capsys):
    (tmp_path / "cap.tffx").write_text(_CAPTURE_THEORY)
    (tmp_path / "cap.llpx").write_text(_CAPTURE_PROOF)
    written = []
    for out in ("first", "second"):
        argv = ["translate", str(tmp_path / "cap.tffx"), str(tmp_path / "cap.llpx"), "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
    capsys.readouterr()
    assert written[0] == written[1]
    assert b"c'0 : logic.term cap.i" in written[0]["cert.dk"]


def test_recheck_failure_is_reported_at_the_emitted_file(tmp_path, capsys):
    # the re-check of cert.dk is `lpm check`'s routine: the rejected entry
    # is reported at its own position in the file written, with its node
    from mutations import chain_certificate, chain_leaf_path

    files = _write_inputs(tmp_path, *chain_certificate(6, {2}))
    out = tmp_path / "out"
    code, stdout, _ = run(["--json", "translate", *files, "--out", str(out)], capsys)
    assert code == 1
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert {k: diagnostic[k] for k in ("file", "line", "col", "path")} == {
        "file": str(out / "cert.dk"), "line": 1, "col": 1, "path": list(chain_leaf_path(6, 2)),
    }


def test_examples_check_the_files_they_write(tmp_path, capsys, monkeypatch):
    # `examples` runs `translate` on the two files it wrote, so it reads
    # the theory back instead of using the one it built
    def unreadable(text):
        raise tff.FormatError("theory not read back")

    monkeypatch.setattr(tff, "parse_theory", unreadable)
    code, _, err = run(["examples", "pair-fst-snd", "--out", str(tmp_path / "p")], capsys)
    assert code != 0
    assert "theory not read back" in err


@pytest.mark.parametrize(
    "theory, where",
    [
        ("(theory t (type a-b 0))", "item 0 (TypeCons): symbol 'a-b'"),
        ("(theory def (type b 0))", "theory name 'def'"),
        ("(theory Kind (type b 0))", "theory name 'Kind'"),
        ("(theory t (type i 0) (fun f () (i) i) (term-rule () ((a-b i)) (f () a-b) a-b))",
         "item 2 (TermRule): context variable 'a-b'"),
        ("(theory t (type i 0) (fun f () (i) i) (term-rule (b-c) ((x i)) (f () x) x))",
         "item 2 (TermRule): type variable 'b-c'"),
    ],
    ids=["symbol", "keyword-theory", "sort-theory", "context-variable", "rule-type-variable"],
)
def test_names_that_are_not_dk_identifiers_are_rejected_before_writing(tmp_path, capsys, theory, where):
    # every name the .dk files print as written is checked by wf_theory:
    # a bad one names its theory item, exits 1 and writes nothing
    bad = tmp_path / "bad.tffx"
    bad.write_text(theory + "\n")
    out = tmp_path / "o"
    code, stdout, _ = run(["--json", "translate", str(bad), "--out", str(out)], capsys)
    assert code == 1
    payload = json.loads(stdout)
    assert payload["outputs"] == [] and not out.exists()
    [diagnostic] = payload["diagnostics"]
    assert diagnostic["message"] == f"{where} is not a .dk identifier"


def test_an_extension_rule_registered_twice_is_rejected_before_writing(tmp_path, capsys):
    # `translate` wrote logic.dk, rules.dk and theory.dk, then rejected
    # theory.dk at 31:1: "duplicate declaration: bool.R_bool_case_ex"
    thy = examples.bool_theory()
    bad = tmp_path / "bool.tffx"
    bad.write_text(tff.print_theory(tff.TffTheory(thy.name, thy.items + (tff.ExtDecl("bool-case-exists"),))))
    out = tmp_path / "o"
    code, stdout, _ = run(["--json", "translate", str(bad), "--out", str(out)], capsys)
    payload = json.loads(stdout)
    assert code == 1 and payload["outputs"] == [] and not out.exists()
    message = f"item {len(thy.items)} (ExtDecl): extension rule bool-case-exists registered twice"
    assert payload["diagnostics"] == [{"file": str(bad), "line": 0, "col": 0, "message": message}]


_SMALL_THEORY = "(theory t (type i 0) (fun c () () i) (pred P () (i)))"
_SMALL_BODY = "(imp (pred P () x) (pred P () x))"
_SMALL_GOAL = f"(goal (forall x i {_SMALL_BODY}))"


@pytest.mark.parametrize("theory, proof, code, position, message, path", [
    ("(theory t (type a -1))", None, 1, (0, 0), "item 0 (TypeCons): negative arity", None),
    ("(theory t (type a 0) (fun f (b b) () a))", None, 1, (0, 0),
     "item 1 (FunDecl): duplicate type variables in scheme", None),
    ("(theory t (type a 0) (fun f () (a) a) (term-rule () ((x a) (x a)) (f () x) x))", None, 1, (0, 0),
     "item 2 (TermRule): duplicate context variable x", None),
    ("(theory t (type i 0)\n  (axiom ax (pred)))", None, 2, (2, 13), "pred expects at least 2 fields: (pred)", None),
    (_SMALL_THEORY, f"(proof (theory t) {_SMALL_GOAL} (notforall i x {_SMALL_BODY}))", 2, (1, 73),
     "rule notforall expects 4 fields", None),
    (_SMALL_THEORY, f"(proof (theory t) {_SMALL_GOAL} (notforall i x {_SMALL_BODY} c "
     "(notimp (pred P () c) (pred P () c) (ax (pred P () c)))))", 1, (0, 0),
     "at node []: constant c collides with a theory symbol", []),
    (_SMALL_THEORY, "(proof (theory t) (gaol (top)) (bot))", 2, (1, 19), "expected (goal FORMULA)", None),
], ids=["negative-arity", "duplicate-scheme-variable", "duplicate-context-variable", "pred-without-fields",
        "missing-fresh-constant", "fresh-constant-is-a-theory-symbol", "misspelt-goal"])
def test_translate_rejection_is_pinned(tmp_path, capsys, theory, proof, code, position, message, path):
    # the one diagnostic names the last file given, where it is wrong, and
    # the path of a rejected proof node
    files = [tmp_path / "t.tffx"] + ([tmp_path / "t.llpx"] if proof else [])
    for f, text in zip(files, (theory, proof)):
        f.write_text(text + "\n")
    got, stdout, _ = run(["--json", "translate", *map(str, files), "--out", str(tmp_path / "o")], capsys)
    expected = {"file": str(files[-1]), "line": position[0], "col": position[1], "message": message}
    if path is not None:
        expected["path"] = path
    assert (got, json.loads(stdout)["diagnostics"]) == (code, [expected])


@pytest.mark.parametrize("edit, message", [
    (lambda r: record.replace(r, args=r.args * 2), "expects 1 arguments"),
    (lambda r: record.replace(r, hyp_blocks=r.hyp_blocks[:1]), "expects 2 premises"),
], ids=["second-abs-argument", "hypothesis-block-dropped"])
def test_translate_rejects_a_misshapen_extension_node(tmp_path, capsys, edit, message):
    proof = examples.bool_commute_proof()
    bad = llproof.LLProof(edit(proof.rule), proof.premises, proof.concls)
    files = _write_inputs(tmp_path, examples.bool_theory(), examples.bool_commute_goal(), bad)
    code, stdout, _ = run(["--json", "translate", *files, "--out", str(tmp_path / "o")], capsys)
    assert (code, json.loads(stdout)["diagnostics"]) == (1, [{
        "file": files[1], "line": 0, "col": 0, "path": [],
        "message": f"at node []: extension rule bool-case-notforall {message}"}])


@pytest.mark.parametrize("name", ["cert", "logic", "rules"])
def test_theory_named_like_an_lpm_module_is_rejected_before_writing(tmp_path, capsys, name):
    # `translate` accepted the theory and then rejected the valid
    # certificate: "duplicate declaration: cert.goal" at cert.dk:1:1, or
    # logic.Prop / rules.R_Ax in theory.dk
    from mutations import reserved_name_certificate

    files = _write_inputs(tmp_path, *reserved_name_certificate(name))
    out = tmp_path / "o"
    code, stdout, _ = run(["--json", "translate", *files, "--out", str(out)], capsys)
    payload = json.loads(stdout)
    assert code == 1 and payload["outputs"] == [] and not out.exists()
    message = f"theory name {name!r} is reserved: lpm's own modules are cert, logic and rules"
    assert payload["diagnostics"] == [{"file": files[0], "line": 0, "col": 0, "message": message}]


# Printer faults the kernel cannot see: each misprinted file is well-typed,
# and a printer patched in the same way made `translate` exit 0.  Only the
# comparison of the entries read back with those compiled catches them.

_MISSTATED = "the text read back does not state the entries compiled"


def _extra_axiom(entries):
    # set-diff's theory.dk states an axiom that was not compiled
    if getattr(entries[0], "name", None) == "set.set":
        return entries + [Decl("set.extra", app(Const("logic.prf"), Const("logic.False")))]
    return entries


def _lost_rules(entries):
    # bool-commute's theory.dk loses its two `ifte` rules, which the proof does not use
    return [e for e in entries if not (isinstance(e, Rule) and spine(e.lhs)[0] == Const("bool.ifte"))]


def _unfolded_goal(entries):
    # `cert.goal : prf (not G) -> prf False` printed as `(prf G -> prf False) -> prf False`,
    # which the shallow rule `prf (not A) --> prf A -> prf False` makes convertible
    match entries:
        case [Def(name="cert.goal", type=Pi(domain=App(fn=prf, arg=App(arg=g)), codomain=false)) as e]:
            return [Def(e.name, arrow(arrow(App(prf, g), false), false), e.body)]
    return entries


def _no_certificate(entries):
    # cert.dk left empty: its one entry is missing at the end of the file
    return [] if getattr(entries[0], "name", None) == "cert.goal" else entries


def _extra_logic_decl(entries):
    # logic.dk states a declaration that was not compiled
    if getattr(entries[0], "name", None) == "logic.Prop":
        return entries + [Decl("logic.extra", Const("logic.Prop"))]
    return entries


@pytest.mark.parametrize(
    "example, misprint, name, line",
    [
        ("set-diff", _extra_axiom, "theory.dk", 9),
        ("bool-commute", _lost_rules, "theory.dk", 27),
        ("set-diff", _unfolded_goal, "cert.dk", 1),
        ("pred-decomp", _no_certificate, "cert.dk", 1),
        ("pair-fst-snd", _extra_logic_decl, "logic.dk", 29),
    ],
    ids=["extra-axiom", "lost-rules", "goal-type", "no-certificate", "prelude"],
)
def test_translate_rejects_text_that_does_not_state_what_was_compiled(
        tmp_path, capsys, monkeypatch, fresh_preludes, example, misprint, name, line):
    print_file = dkprint.print_file
    monkeypatch.setattr(dkprint, "print_file", lambda entries: print_file(misprint(entries)))
    # the printed preludes are kept per process: start from none and drop the misprinted ones after
    monkeypatch.setattr(cli, "_preludes", functools.cache(cli._preludes.__wrapped__))
    for out in ("o", "again"):  # a misprinted prelude's failed comparison is not stored for reuse
        path = str(tmp_path / out / name)
        code, stdout, _ = run(["--json", "examples", example, "--out", str(tmp_path / out)], capsys)
        assert code == 1
        assert json.loads(stdout)["diagnostics"] == [{"file": path, "line": line, "col": 1, "message": _MISSTATED}]
    code, _, err = run(["examples", example, "--out", str(tmp_path / "plain")], capsys)
    assert (code, err) == (1, f"{tmp_path / 'plain' / name}:{line}:1: {_MISSTATED}\n")


def test_deeply_nested_dk_input_exits_3(tmp_path, capsys):
    deep = tmp_path / "deep.dk"
    deep.write_text("A : Type. a : A. def x : A := " + "(" * 40_000 + "a" + ")" * 40_000 + ".\n")
    code, _, err = run(["check", str(deep)], capsys)
    assert code == 3
    assert "nested too deeply" in err and "Traceback" not in err
    code, stdout, _ = run(["--json", "check", str(deep)], capsys)
    assert code == 3
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert diagnostic["file"] == str(deep) and "nested too deeply" in diagnostic["message"]


def test_deeply_nested_formula_exits_3_in_translate(tmp_path, capsys):
    # the .tffx reader and the embedding take 30,000 nested negations;
    # re-reading the emitted theory.dk runs out of stack
    deep = tmp_path / "deep.tffx"
    deep.write_text("(theory t (pred p () ()) (axiom h " + "(not " * 30_000 + "(pred p ())" + ")" * 30_000 + "))\n")
    code, stdout, _ = run(["--json", "translate", str(deep), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    payload = json.loads(stdout)
    assert payload["exit_code"] == 3
    assert "nested too deeply" in payload["diagnostics"][0]["message"]


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# where the allocation fails: the function made to raise, the command and
# the file the diagnostic names, and its line and column
_OUT_OF_MEMORY = {
    "check-parse": ((dkparse, "parse_file"), "check", "a.dk", 0, 0),
    "check-install": ((signature, "install_entries"), "check", "a.dk", 1, 1),
    "translate-read": ((tff, "parse_theory"), "translate", "t.tffx", 0, 0),
    "translate-compile": ((llproof, "certificate_entries"), "translate", "p.llpx", 0, 0),
    "translate-write": ((Path, "write_text"), "translate", "-", 0, 0),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("case", sorted(_OUT_OF_MEMORY))
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, fresh_preludes, case, as_json):
    # a `MemoryError` is a typed outcome, never a traceback or an empty message
    (owner, name), command, file, line, col = _OUT_OF_MEMORY[case]
    thy, goal, proof = (make() for make in examples.BUILTINS["bool-commute"])
    (tmp_path / "a.dk").write_text("A : Type.\n")
    (tmp_path / "t.tffx").write_text(tff.print_theory(thy))
    (tmp_path / "p.llpx").write_text(llproof.print_proof(thy, goal, proof))
    argv = ["check", "a.dk"] if command == "check" else ["translate", "t.tffx", "p.llpx", "--out", "o"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(owner, name, _out_of_memory)
    code, stdout, stderr = run(["--json"] * as_json + argv, capsys)
    assert code == 3
    if as_json:
        payload = json.loads(stdout)
        assert payload["exit_code"] == 3
        assert payload["diagnostics"] == [{"file": file, "line": line, "col": col, "message": "out of memory"}]
    else:
        assert stderr == f"{file}:{line}:{col}: out of memory\n"


@pytest.mark.parametrize("command", ["examples", "translate"])
def test_unwritable_output_directory_is_a_diagnostic(tmp_path, capsys, command):
    # an output file that cannot be written is reported against its path
    theory_file = tmp_path / "pairs.tffx"
    theory_file.write_text(tff.print_theory(examples.pair_theory()))
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["examples", "pair-fst-snd"] if command == "examples" else ["translate", str(theory_file)]
    code, stdout, _ = run(["--json", *argv, "--out", str(blocker / "o")], capsys)
    assert code == 1
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert diagnostic["file"] == str(blocker / "o")


def test_main_restores_the_callers_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    assert run(["check", "/dev/null"], capsys)[0] == 0
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize(
    "flags, env, named",
    [(["--fuel", "-1"], None, "--fuel"), ([], "abc", "LPM_FUEL"), ([], "-5", "LPM_FUEL")],
    ids=["fuel", "env-not-an-integer", "env-negative"],
)
def test_bad_budget_is_a_diagnostic(tmp_path, capsys, monkeypatch, flags, env, named):
    if env is None:
        monkeypatch.delenv("LPM_FUEL", raising=False)
    else:
        monkeypatch.setenv("LPM_FUEL", env)
    code, stdout, _ = run(["--json", *flags, "check", "/dev/null"], capsys)
    assert code == 2
    payload = json.loads(stdout)
    assert (payload["status"], payload["exit_code"]) == ("error", 2)
    [diagnostic] = payload["diagnostics"]
    assert named in diagnostic["message"] and "nonnegative integer" in diagnostic["message"]
    code, stdout, err = run([*flags, "translate", str(tmp_path / "absent.tffx")], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("-:0:0: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [(["--bogus", "check", "f.dk"], "unrecognized arguments: --bogus"),
     (["--conv-depth", "5", "check", "f.dk"], "invalid choice: '5'"),
     (["examples", "no-such-example"], "invalid choice: 'no-such-example'")],
    ids=["unknown-flag", "conv-depth", "invalid-example"],
)
def test_usage_error_under_json_is_a_payload(capsys, argv, message):
    # without --json, argparse reports it (test_example_names_are_the_builtins)
    code, stdout, err = run(["--json", *argv], capsys)
    assert code == 2 and err == ""
    payload = json.loads(stdout)
    assert (payload["status"], payload["exit_code"]) == ("error", 2)
    [diagnostic] = payload["diagnostics"]
    assert diagnostic["file"] == "-" and message in diagnostic["message"]


@pytest.mark.parametrize("broken", ["missing-theory", "proof-not-utf8"])
def test_translate_unreadable_input_exits_2(tmp_path, capsys, broken):
    theory, proof = _write_inputs(tmp_path, examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof())
    if broken == "missing-theory":
        theory = tmp_path / "absent.tffx"
    else:
        Path(proof).write_bytes(b"(proof \xff)")
    code, stdout, _ = run(["--json", "translate", str(theory), str(proof), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert diagnostic["file"] == str(theory if broken == "missing-theory" else proof)
    assert not (tmp_path / "o").exists()


def test_examples_undecodable_input_exits_2(tmp_path, capsys, monkeypatch):
    # the example's files are translated as read back: one that does not
    # decode is an unreadable input, as in `translate` and `check`
    write = cli._write

    def corrupting_write(rep, out_dir, name, text):
        path = write(rep, out_dir, name, text)
        if name.endswith(".llpx"):
            path.write_bytes(b"\xff")
        return path

    monkeypatch.setattr(cli, "_write", corrupting_write)
    code, stdout, _ = run(["--json", "examples", "set-diff", "--out", str(tmp_path)], capsys)
    assert code == 2
    [diagnostic] = json.loads(stdout)["diagnostics"]
    assert diagnostic["file"] == str(tmp_path / "set-diff.llpx")


def test_example_names_are_the_builtins(capsys):
    assert cli.EXAMPLES == tuple(sorted(examples.BUILTINS))
    with pytest.raises(SystemExit) as exc:
        cli.main(["examples", "no-such-example"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'no-such-example' (choose from " + ", ".join(map(repr, cli.EXAMPLES)) + ")" in err


_TRUST_PROBE = """
import json, sys
import lpm
loaded_by_import = sorted(m for m in sys.modules if m.startswith("lpm."))
import lpm.cli
code = lpm.cli.main(["check", *sys.argv[1:]])
loaded = set(sys.modules)
tff = lpm.tff
print(json.dumps({"code": code, "import": loaded_by_import, "loaded": sorted(loaded),
                  "tff": tff.__name__, "and": repr(tff.And(tff.Top(), tff.Bottom()))}))
"""


def _trust_probe(out):
    """`lpm check` of the four files in `out` in a fresh process: the probe's result and stderr."""
    files = [str(out / n) for n in ("logic.dk", "rules.dk", "theory.dk", "cert.dk")]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _TRUST_PROBE, *files], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_check_loads_only_the_trusted_base(tmp_path, capsys):
    assert cli.main(["examples", "set-diff", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    result, _ = _trust_probe(tmp_path)
    assert result["code"] == 0
    assert result["import"] == []
    untrusted = {"lpm.tff", "lpm.embed", "lpm.llproof", "lpm.examples", "lpm.sexp", "lpm.dkprint", "dataclasses"}
    assert untrusted.isdisjoint(result["loaded"])
    assert {"lpm.terms", "lpm.kernel", "lpm.signature", "lpm.dkparse"} <= set(result["loaded"])
    assert (result["tff"], result["and"]) == ("lpm.tff", "And(lhs=Top(), rhs=Bottom())")


def test_check_loads_the_printer_only_to_word_a_rejection(tmp_path, capsys):
    # the message is worded when the rejection is read, byte for byte as when the printer was trusted
    from mutations import chain_certificate

    out = tmp_path / "out"
    assert run(["translate", *_write_inputs(tmp_path, *chain_certificate(6, {2})), "--out", str(out)], capsys)[0] == 1
    result, err = _trust_probe(out)
    assert result["code"] == 1 and "lpm.dkprint" in result["loaded"]
    assert {"lpm.tff", "lpm.embed", "lpm.llproof", "lpm.sexp"}.isdisjoint(result["loaded"])
    assert err == (f"{out / 'cert.dk'}:1:1: ill-typed body of definition cert.goal: "
                   "type mismatch: expected logic.prf chain6.P2, found logic.prf chain6.P3\n")


_DEPTH = 20_000  # each input below crashed the C stack of an 8 MiB main thread


def _tower(head, leaf):
    return f"({head} " * _DEPTH + leaf + ")" * _DEPTH


_BOOL_NOTB = ("bool.bool : Type. bool.true : bool.bool. bool.false : bool.bool. bool.notb : bool.bool -> bool.bool. "
              "[] bool.notb bool.true --> bool.false. [] bool.notb bool.false --> bool.true. "
              "[a : bool.bool] bool.notb (bool.notb a) --> a. P : bool.bool -> Type. p : P bool.true. ")

_DEEP_INPUTS = {
    # conversion and normalize under a stuck `g`
    "conversion": (
        {"deep.dk": "A : Type. f : A -> A. g : A -> A. c : A. d : A. [] g c --> c. P : A -> Type. "
                    f"p : P (g {_tower('f', 'c')}). #ASSERT p : P (g {_tower('f', 'd')})."},
        ["check", "deep.dk"],
    ),
    # a conclusion compared with the goal's negation, record by record
    "formula-compare": (
        {"t.tffx": "(theory t (pred P () ()))",
         "deep.llpx": "(proof (theory t) (goal {0}) (nottop (concl (not {0}))))".format(_tower("not", "(top)"))},
        ["translate", "t.tffx", "deep.llpx", "--out", "o"],
    ),
    # matching reduces each argument a pattern reads: whnf calls whnf once per level
    "rewriting": (
        {"notb.dk": _BOOL_NOTB + f"#ASSERT p : P {_tower('bool.notb', 'bool.true')}."},
        ["check", "notb.dk"],
    ),
    # a term read from the theory file
    "term": (
        {"deep.tffx": f"(theory t (type i 0) (fun f () (i) i) (fun c () () i) (pred P () (i)) "
                      f"(axiom h (pred P () {_tower('f ()', '(c ())')})))"},
        ["translate", "deep.tffx", "--out", "o"],
    ),
}


@pytest.mark.parametrize("case", sorted(_DEEP_INPUTS))
def test_deep_input_ends_in_a_verdict_in_a_subprocess(tmp_path, case):
    # a crash here is a failed test, not a dead test run
    files, argv = _DEEP_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "lpm.cli", "--json", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 1, 2, 3), proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert payload["exit_code"] == proc.returncode
    if case == "conversion":  # the two sides differ at the leaf
        assert proc.returncode == 1 and "type mismatch" in payload["diagnostics"][0]["message"]


# ---------------------------------------------------------------------------
# Edited certificate files (ROADMAP item 6): a line edit of a chain-8
# `.llpx` or `.tffx` ends in an exit code and a JSON payload, never in a
# traceback, whichever lines the reader replays


_ATOM_RE = re.compile(r"[^ \t\r\n();]+")
_ATOM_EDITS = ("P0", "P7", "and", "not", "ax", "pred", "x", "0", "-1", "()", "(top)", "")


@functools.cache
def _chain_8_texts() -> dict[str, str]:
    from mutations import chain_certificate

    thy, goal, proof = chain_certificate(8)
    return {"t.tffx": tff.print_theory(thy), "p.llpx": llproof.print_proof(thy, goal, proof)}


def _edit(data, text: str) -> str:
    lines = text.split("\n")
    i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    kind = data.draw(st.sampled_from(("duplicate", "delete", "swap", "add paren", "drop paren", "atom")))
    if kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "add paren":
        col = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:col] + data.draw(st.sampled_from("()")) + lines[i][col:]
    else:
        text = "\n".join(lines)
        spans = [m.span() for m in (re.finditer(r"[()]", text) if kind == "drop paren" else _ATOM_RE.finditer(text))]
        start, end = data.draw(st.sampled_from(spans))
        return text[:start] + ("" if kind == "drop paren" else data.draw(st.sampled_from(_ATOM_EDITS))) + text[end:]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_translate_of_edited_files_ends_in_a_verdict(tmp_path_factory, data):
    texts = dict(_chain_8_texts())
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(texts)))
        texts[name] = _edit(data, texts[name])
    d = tmp_path_factory.mktemp("edited")
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "translate", str(d / "t.tffx"), str(d / "p.llpx"), "--out", str(d / "out")])
    assert code in (0, 1, 2, 3)
    assert json.loads(out.getvalue())["exit_code"] == code
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# Edited emitted `.dk` files (ROADMAP item 6): a token or entry edit of the
# `theory.dk` or `cert.dk` that `lpm examples` writes ends in a verdict when
# checked after its preludes, with a message for every diagnostic


_DK_TOKEN_RE = re.compile(r"[()\[\],]|[^\s()\[\],]+")


@pytest.fixture(scope="module")
def emitted_dk(tmp_path_factory) -> dict[str, dict[str, str]]:
    """The four files `lpm examples` writes for each built-in, by file name."""
    texts = {}
    for name in sorted(examples.BUILTINS):
        out = tmp_path_factory.mktemp(name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["examples", name, "--out", str(out)]) == 0
        texts[name] = {f: (out / f).read_text() for f in ("logic.dk", "rules.dk", "theory.dk", "cert.dk")}
    return texts


def _edit_dk(data, text: str) -> str:
    if not text.strip():
        return text
    kind = data.draw(st.sampled_from(("delete", "duplicate", "swap", "drop entry")))
    if kind == "drop entry":  # one entry per line
        lines = text.splitlines(keepends=True)
        del lines[data.draw(st.integers(0, len(lines) - 1))]
        return "".join(lines)
    spans = [m.span() for m in _DK_TOKEN_RE.finditer(text)]
    (i, j), (k, m) = (data.draw(st.sampled_from(spans)) for _ in range(2))
    if kind == "delete":
        return text[:i] + text[j:]
    if kind == "duplicate":
        return text[:j] + " " + text[i:j] + text[j:]
    if i > k:
        (i, j), (k, m) = (k, m), (i, j)
    return text[:i] + text[k:m] + text[j:k] + text[i:j] + text[m:] if j <= k else text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_check_of_edited_emitted_files_ends_in_a_verdict(tmp_path_factory, emitted_dk, data):
    texts = dict(emitted_dk[data.draw(st.sampled_from(sorted(emitted_dk)))])
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(("theory.dk", "cert.dk")))
        texts[name] = _edit_dk(data, texts[name])
    d = tmp_path_factory.mktemp("edited-dk")
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "check", *(str(d / name) for name in texts)])
    assert code in (0, 1, 2, 3)
    payload = json.loads(out.getvalue())
    assert payload["exit_code"] == code and (code == 0) == (payload["diagnostics"] == [])
    for diagnostic in payload["diagnostics"]:
        assert isinstance(diagnostic["message"], str) and diagnostic["message"]
        assert "Traceback" not in diagnostic["message"]
    assert "Traceback" not in err.getvalue()
