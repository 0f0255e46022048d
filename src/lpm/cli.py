"""Command-line front end.

Three commands:

* ``lpm check FILE...``: type-check `.dk` proof scripts in order
  against one growing signature.
* ``lpm translate THEORY.tffx [PROOF.llpx]``: embed a theory (and
  optionally compile a proof certificate), emit the `.dk` files, and
  re-check the emitted set.
* ``lpm examples NAME``: run a built-in pipeline end to end.

Exit codes: 0 success, 1 type/checking error, 2 syntax error, 3 fuel
exhausted.  ``LPM_FUEL`` overrides the default rewrite-step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import dkparse, embed, examples, kernel, llproof, sexp, signature, tff

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_SYNTAX = 2
EXIT_FUEL = 3


class Reporter:
    def __init__(self, verbose: bool, as_json: bool, command: str):
        self.verbose = verbose
        self.as_json = as_json
        self.command = command
        self.diagnostics: list[dict] = []
        self.outputs: list[str] = []

    def say(self, message: str) -> None:
        if not self.as_json:
            print(message)

    def detail(self, message: str) -> None:
        if self.verbose and not self.as_json:
            print(message)

    def diagnose(self, file: str, line: int, col: int, message: str,
                 path: Optional[tuple[int, ...]] = None) -> None:
        """Report an error; `path` names the failing proof node, if known."""
        diagnostic = {"file": file, "line": line, "col": col, "message": message}
        if path is not None:
            diagnostic["path"] = list(path)
        self.diagnostics.append(diagnostic)
        if not self.as_json:
            print(f"{file}:{line}:{col}: {message}", file=sys.stderr)
            if path is not None:
                print(f"failing proof node: {list(path)}")

    def finish(self, code: int) -> int:
        if self.as_json:
            print(json.dumps({
                "command": self.command,
                "status": "ok" if code == EXIT_OK else "error",
                "exit_code": code,
                "diagnostics": self.diagnostics,
                "outputs": self.outputs,
            }, indent=2, sort_keys=True))
        return code


def make_fuel(args: argparse.Namespace) -> kernel.Fuel:
    steps = args.fuel
    if steps is None:
        env = os.environ.get("LPM_FUEL")
        steps = int(env) if env else kernel.DEFAULT_REWRITE_STEPS
    return kernel.Fuel(steps, args.conv_depth)


def _exit_code_for(e: Exception) -> int:
    if isinstance(e, kernel.FuelExhausted):
        return EXIT_FUEL
    if isinstance(e, (dkparse.DkSyntaxError, sexp.SexpError, tff.FormatError)):
        return EXIT_SYNTAX
    return EXIT_TYPE


def _proof_node(e: Exception) -> Optional[tuple[int, ...]]:
    return e.path if isinstance(e, llproof.CertificateError) else None


def cmd_check(args: argparse.Namespace, rep: Reporter) -> int:
    sig = signature.EMPTY.with_eta(args.eta)
    for path in args.files:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            rep.diagnose(path, 0, 0, str(e))
            return EXIT_SYNTAX
        try:
            entries = dkparse.parse_file(text)
        except dkparse.DkSyntaxError as e:
            rep.diagnose(path, e.line, e.col, e.message)
            return EXIT_SYNTAX
        for entry in entries:
            line = getattr(entry, "line", 0)
            col = getattr(entry, "col", 0)
            try:
                fuel = make_fuel(args)
                sig = signature.install_entries(sig, [entry], fuel)
            except (kernel.KernelError, signature.SignatureError) as e:
                rep.diagnose(path, line, col, str(e))
                return _exit_code_for(e)
            name = getattr(entry, "name", None)
            if name:
                rep.detail(f"checked {name}")
        rep.say(f"{path}: ok ({len(entries)} entries)")
    return EXIT_OK


def _write(rep: Reporter, out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    rep.outputs.append(str(path))
    rep.say(f"wrote {path}")
    return path


def _emit_and_recheck(
    rep: Reporter,
    args: argparse.Namespace,
    label: str,
    thy: tff.TffTheory,
    goal: Optional[tff.TffFormula],
    proof: Optional[llproof.LLProof],
) -> int:
    """Write the `.dk` files and re-check them as read back.

    A file the re-check rejects is reported under `label`; for `cert.dk`
    with its failing proof node, found from the kernel's position through
    the translator, since the re-parsed entries have the terms it compiled.
    """
    mode = args.mode
    out_dir = Path(args.out)
    tff.wf_theory(thy)
    files = [
        ("logic.dk", embed.prelude(mode)),
        ("rules.dk", llproof.rules_prelude(mode)),
        ("theory.dk", embed.theory_entries(thy)),
    ]
    cert_path = tr = None
    if proof is not None:
        assert goal is not None
        base = llproof.base_signature(thy, mode, make_fuel(args))
        cert_entries, tr = llproof.certificate_entries(thy, goal, proof, sig=base, fuel=make_fuel(args))
        files.append(("cert.dk", cert_entries))
    paths = []
    for name, entries in files:
        paths.append(_write(rep, out_dir, name, dkparse.print_file(entries)))
        if name == "cert.dk":
            cert_path = paths[-1]

    # re-check the emitted set from the files, not from memory
    sig = signature.EMPTY.with_eta(args.eta)
    for path in paths:
        entries = dkparse.parse_file(path.read_text(encoding="utf-8"))
        try:
            sig = signature.install_entries(sig, entries, make_fuel(args))
        except (kernel.KernelError, signature.SignatureError) as e:
            node = llproof.failure_path(tr, e) if path == cert_path else None
            rep.diagnose(label, 0, 0, str(e), node)
            return _exit_code_for(e)
        rep.detail(f"re-checked {path}")
    if cert_path is not None:
        rep.say(f"certificate: {cert_path}")
    rep.say("verdict: accepted")
    return EXIT_OK


def cmd_translate(args: argparse.Namespace, rep: Reporter) -> int:
    try:
        thy = tff.parse_theory(Path(args.theory).read_text(encoding="utf-8"))
        goal = proof = None
        if args.proof:
            goal, proof = llproof.parse_proof(Path(args.proof).read_text(encoding="utf-8"), thy)
        return _emit_and_recheck(rep, args, args.theory, thy, goal, proof)
    except Exception as e:  # noqa: BLE001 - mapped to exit codes below
        rep.diagnose(args.theory, 0, 0, str(e), _proof_node(e))
        return _exit_code_for(e)


def cmd_examples(args: argparse.Namespace, rep: Reporter) -> int:
    try:
        mk_thy, mk_goal, mk_proof = examples.BUILTINS[args.name]
    except KeyError:
        rep.diagnose(args.name, 0, 0, f"unknown example (choose from {', '.join(sorted(examples.BUILTINS))})")
        return EXIT_TYPE
    thy, goal, proof = mk_thy(), mk_goal(), mk_proof()
    out_dir = Path(args.out)
    _write(rep, out_dir, f"{args.name}.tffx", tff.print_theory(thy))
    _write(rep, out_dir, f"{args.name}.llpx", llproof.print_proof(thy, goal, proof))
    if args.name == "pair-fst-snd":
        sig = llproof.base_signature(thy, args.mode, make_fuel(args))
        goal_term = embed.translate_formula(goal, thy.name)
        nf = kernel.normalize(sig, goal_term, make_fuel(args))
        rep.say(f"normalized goal: {dkparse.print_term(nf)}")
    try:
        return _emit_and_recheck(rep, args, args.name, thy, goal, proof)
    except Exception as e:  # noqa: BLE001
        rep.diagnose(args.name, 0, 0, str(e), _proof_node(e))
        return _exit_code_for(e)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpm", description="Proof checker for the lambda-Pi-calculus modulo rewriting."
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="per-entry progress")
    parser.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    parser.add_argument("--fuel", type=int, default=None, help="max rewrite steps (default 100000)")
    parser.add_argument("--conv-depth", type=int, default=kernel.DEFAULT_CONVERSION_DEPTH,
                        help="max conversion recursion depth")
    parser.add_argument("--eta", action="store_true", help="enable eta-conversion")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check .dk files in order")
    p_check.add_argument("files", nargs="+")

    p_tr = sub.add_parser("translate", help="embed a theory and optional proof, emit .dk files")
    p_tr.add_argument("theory", help=".tffx theory file")
    p_tr.add_argument("proof", nargs="?", default=None, help=".llpx proof file")
    p_tr.add_argument("--mode", choices=("deep", "shallow"), default="shallow")
    p_tr.add_argument("--out", default="out", help="output directory")

    p_ex = sub.add_parser("examples", help="run a built-in example end to end")
    p_ex.add_argument("name", choices=sorted(examples.BUILTINS))
    p_ex.add_argument("--mode", choices=("deep", "shallow"), default="shallow")
    p_ex.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(100_000)
    args = build_parser().parse_args(argv)
    rep = Reporter(args.verbose, args.json, args.command)
    if args.command == "check":
        code = cmd_check(args, rep)
    elif args.command == "translate":
        code = cmd_translate(args, rep)
    else:
        code = cmd_examples(args, rep)
    return rep.finish(code)


if __name__ == "__main__":
    sys.exit(main())
