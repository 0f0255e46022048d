"""Command-line front end: commands, exit codes, determinism."""

import json

import pytest

from lpm import cli, examples, llproof, tff


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


def test_examples_deterministic_outputs(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["examples", "set-diff", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert cli.main(["examples", "set-diff", "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("set-diff.tffx", "set-diff.llpx", "logic.dk", "rules.dk", "theory.dk", "cert.dk"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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