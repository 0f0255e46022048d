"""Command-line front end: commands, exit codes, determinism."""

import hashlib
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
