"""Command-line front end.

Three commands:

* ``lpm check FILE...``: type-check `.dk` proof scripts in order
  against one growing signature.
* ``lpm translate THEORY.tffx [PROOF.llpx]``: embed a theory (and
  optionally compile a proof certificate), emit the `.dk` files, and
  re-check each one as read back.
* ``lpm examples NAME``: write a built-in example's `.tffx` and `.llpx`
  files, then run ``lpm translate`` on them.

`_check_text` checks every `.dk` text, given or emitted, so `translate`
reports a rejected file at its own `FILE:LINE:COL`, as `check` does.

Exit codes: 0 success, 1 type/checking error, 2 syntax error, 3 fuel
exhausted or input nested too deeply.  ``LPM_FUEL`` overrides the default
rewrite-step budget.
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
    if isinstance(e, (kernel.FuelExhausted, RecursionError)):
        return EXIT_FUEL
    if isinstance(e, (dkparse.DkSyntaxError, sexp.SexpError, tff.FormatError)):
        return EXIT_SYNTAX
    return EXIT_TYPE


def _message(e: Exception) -> str:
    return f"input nested too deeply ({e})" if isinstance(e, RecursionError) else str(e)


def _fail(rep: Reporter, file: str, e: Exception) -> int:
    """Report an error reading, writing or compiling `file` and return its
    exit code.  A syntax error is placed at its line and column; a
    certificate the translator rejects names its proof node."""
    if isinstance(e, (dkparse.DkSyntaxError, sexp.SexpError)):
        rep.diagnose(file, e.line, e.col, e.message)
    else:
        rep.diagnose(file, 0, 0, _message(e), e.path if isinstance(e, llproof.CertificateError) else None)
    return _exit_code_for(e)


def _check_text(rep: Reporter, args: argparse.Namespace, file: str, text: str, sig: signature.Signature,
                tr: Optional[llproof._Translator] = None) -> tuple[int, signature.Signature, int]:
    """Parse the `.dk` text of `file` and install its entries in order,
    each with a fresh fuel budget; return the exit code, the extended
    signature and the number of entries.  A syntax error is reported at
    its position and a rejected entry at the entry's, with its failing
    proof node when `tr`, the translator that compiled the text, is given."""
    try:
        entries = dkparse.parse_file(text)
    except (dkparse.DkSyntaxError, RecursionError) as e:
        return _fail(rep, file, e), sig, 0
    for entry in entries:
        try:
            sig = signature.install_entries(sig, [entry], make_fuel(args))
        except (kernel.KernelError, signature.SignatureError, RecursionError) as e:
            node = llproof.failure_path(tr, e) if tr is not None else None
            rep.diagnose(file, entry.line, entry.col, _message(e), node)
            return _exit_code_for(e), sig, len(entries)
        if getattr(entry, "name", None):
            rep.detail(f"checked {entry.name}")
    return EXIT_OK, sig, len(entries)


def cmd_check(args: argparse.Namespace, rep: Reporter) -> int:
    sig = signature.EMPTY.with_eta(args.eta)
    for path in args.files:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeError) as e:
            rep.diagnose(path, 0, 0, str(e))
            return EXIT_SYNTAX
        code, sig, n_entries = _check_text(rep, args, path, text, sig)
        if code != EXIT_OK:
            return code
        rep.say(f"{path}: ok ({n_entries} entries)")
    return EXIT_OK


def _write(rep: Reporter, out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    rep.outputs.append(str(path))
    rep.say(f"wrote {path}")
    return path


def translate(args: argparse.Namespace, rep: Reporter) -> tuple[int, signature.Signature]:
    """`lpm translate`: read the theory and the proof, if any, and check the
    theory; write `logic.dk`, `rules.dk` and `theory.dk`, re-checking each
    as read back; then compile the certificate against the signature
    re-checked from them, write it and re-check it.  Returns the exit code
    and the re-checked signature."""
    sig = signature.EMPTY.with_eta(args.eta)
    file = args.theory
    try:
        thy = tff.parse_theory(Path(file).read_text(encoding="utf-8"))
        if args.proof:
            file = args.proof
            goal, proof = llproof.parse_proof(Path(file).read_text(encoding="utf-8"), thy)
        file = args.theory
        tff.wf_theory(thy)
        texts = {
            "logic.dk": dkparse.print_file(embed.prelude(args.mode)),
            "rules.dk": dkparse.print_file(llproof.rules_prelude(args.mode)),
            "theory.dk": dkparse.print_file(embed.theory_entries(thy)),
        }
        if args.proof:
            texts["cert.dk"] = None  # compiled against the modules as re-checked
    except Exception as e:  # noqa: BLE001 - mapped to exit codes
        return _fail(rep, file, e), sig
    tr = None
    for name, text in texts.items():
        if text is None:
            try:
                entries, tr = llproof.certificate_entries(thy, goal, proof, sig=sig, fuel=make_fuel(args))
                text = dkparse.print_file(entries)
            except Exception as e:  # noqa: BLE001 - mapped to exit codes
                return _fail(rep, args.proof, e), sig
        path = _write(rep, Path(args.out), name, text)
        code, sig, _ = _check_text(rep, args, str(path), path.read_text(encoding="utf-8"), sig, tr)
        if code != EXIT_OK:
            return code, sig
        rep.detail(f"re-checked {path}")
    if tr is not None:
        rep.say(f"certificate: {path}")
    rep.say("verdict: accepted")
    return EXIT_OK, sig


def cmd_examples(args: argparse.Namespace, rep: Reporter) -> int:
    """Write the example's `.tffx` and `.llpx` files, then translate them."""
    thy, goal, proof = (make() for make in examples.BUILTINS[args.name])
    args.theory = str(_write(rep, Path(args.out), f"{args.name}.tffx", tff.print_theory(thy)))
    args.proof = str(_write(rep, Path(args.out), f"{args.name}.llpx", llproof.print_proof(thy, goal, proof)))
    code, sig = translate(args, rep)
    if code == EXIT_OK and args.name == "pair-fst-snd":
        nf = kernel.normalize(sig, embed.translate_formula(goal, thy.name), make_fuel(args))
        rep.say(f"normalized goal: {dkparse.print_term(nf)}")
    return code


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
    p_ex = sub.add_parser("examples", help="write a built-in example's .tffx and .llpx files and translate them")
    p_ex.add_argument("name", choices=sorted(examples.BUILTINS))
    for p in (p_tr, p_ex):
        p.add_argument("--mode", choices=("deep", "shallow"), default="shallow")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # deep inputs recurse in the parsers, the printer and the kernel; an
    # in-process caller gets its own limit back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        args = build_parser().parse_args(argv)
        rep = Reporter(args.verbose, args.json, args.command)
        try:
            if args.command == "check":
                code = cmd_check(args, rep)
            elif args.command == "translate":
                code = translate(args, rep)[0]
            else:
                code = cmd_examples(args, rep)
        except OSError as e:  # writing an output file
            code = _fail(rep, e.filename or "-", e)
        return rep.finish(code)
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
