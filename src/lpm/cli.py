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
reports a rejected file at its own `FILE:LINE:COL`, as `check` does; an
emitted text the kernel accepts must also state the entries it was printed from.
The emitted `logic.dk` and `rules.dk` are fixed per mode, so a process
checks each in full once: a later `translate` reuses that successful
check when the text read back, the signature it starts from, `--eta` and
the fuel budget are all the same, and replays its `-v` lines.  Any
difference is a full check; `theory.dk` and `cert.dk` always get one.

Exit codes: 0 success, 1 type/checking error, 2 syntax error, unreadable
input, bad budget or usage error, 3 fuel exhausted, input nested too deeply
or out of memory.
``LPM_FUEL`` overrides the default rewrite-step budget.  `check` loads
only the trusted base; the pipeline is imported by the other commands.

The ``lpm`` command is `run`: `main`, then `os._exit` once stdout and
stderr are flushed, with no interpreter teardown.  `main` itself returns
its exit code and leaves the process running.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from itertools import zip_longest
from pathlib import Path
from typing import Callable, NoReturn, Optional

from . import dkparse, kernel, signature

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_SYNTAX = 2
EXIT_FUEL = 3
EXAMPLES = ("bool-commute", "pair-fst-snd", "pred-decomp", "set-diff")  # sorted(examples.BUILTINS)


class Reporter:
    def __init__(self, verbose: bool, as_json: bool, command: Optional[str]):
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


def _budget_error(args: argparse.Namespace) -> Optional[str]:
    """Set `args.fuel` from the flag, else ``LPM_FUEL``, else the default;
    name the budget that is not a nonnegative integer, if any."""
    env = os.environ.get("LPM_FUEL")
    name, value = ("LPM_FUEL", env) if args.fuel is None and env else ("--fuel", args.fuel)
    if value is not None and not str(value).strip().removeprefix("+").isdecimal():
        return f"{name} must be a nonnegative integer, got {value!r}"
    args.fuel = kernel.DEFAULT_REWRITE_STEPS if value is None else int(value)


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes `lpm.MODULE.CLASS` whose module is loaded (not in `check`)."""
    return tuple(getattr(sys.modules[m], c) for m, _, c in (n.rpartition(".") for n in names) if m in sys.modules)


def _exit_code_for(e: Exception) -> int:
    if isinstance(e, (kernel.FuelExhausted, RecursionError, MemoryError)):
        return EXIT_FUEL
    # an input that cannot be read or decoded counts as a syntax error
    syntax = (dkparse.DkSyntaxError, OSError, UnicodeError, *_loaded("lpm.sexp.SexpError", "lpm.tff.FormatError"))
    if isinstance(e, syntax):
        return EXIT_SYNTAX
    return EXIT_TYPE


def _message(e: Exception) -> str:
    if isinstance(e, MemoryError):
        return "out of memory"
    return f"input nested too deeply ({e})" if isinstance(e, RecursionError) else str(e)


def _fail(rep: Reporter, file: str, e: Exception) -> int:
    """Report an error reading, writing or compiling `file` and return its
    exit code.  A syntax error is placed at its line and column; a
    certificate the translator rejects names its proof node."""
    if isinstance(e, (dkparse.DkSyntaxError, *_loaded("lpm.sexp.SexpError", "lpm.tff.FormatError"))):
        rep.diagnose(file, e.line, e.col, e.message)
    else:
        rep.diagnose(file, 0, 0, _message(e), e.path if isinstance(e, _loaded("lpm.llproof.CertificateError")) else None)
    return _exit_code_for(e)


def _check_text(rep: Reporter, args: argparse.Namespace, file: str, text: str, sig: signature.Signature,
                locate: Optional[Callable] = None,
                compiled: Optional[list] = None) -> tuple[int, signature.Signature, list]:
    """Parse the `.dk` text of `file` and install its entries in order in
    one copy of the signature's tables, each with a fresh fuel budget;
    return the exit code, the extended signature (`sig` itself on a
    rejection) and the parsed entries.  A syntax error is reported at its
    position and a rejected entry at the entry's, with the failing proof
    node that `locate`, given for a compiled certificate, finds.  Entries
    printed from `compiled` ones must also state them (`_misstated`)."""
    try:
        entries = dkparse.parse_file(text)
    except (dkparse.DkSyntaxError, RecursionError, MemoryError) as e:
        return _fail(rep, file, e), sig, []
    todo = _Installing(entries, rep)
    try:
        out = signature.install_entries(sig, todo, budget=args.fuel)
    except (kernel.KernelError, signature.SignatureError, RecursionError, MemoryError) as e:
        try:  # an error is worded here, and showing deep terms can run out of stack or memory too
            message = _message(e)
        except (RecursionError, MemoryError) as err:
            e, message = err, _message(err)
        entry = entries[todo.done]
        rep.diagnose(file, entry.line, entry.col, message, locate(e) if locate else None)
        return _exit_code_for(e), sig, entries
    if compiled is not None and (at := _misstated(text, entries, compiled)):
        rep.diagnose(file, *at, "the text read back does not state the entries compiled")
        return EXIT_TYPE, sig, entries
    return EXIT_OK, out, entries


def _misstated(text: str, read: list, compiled: list) -> Optional[tuple[int, int]]:
    """Where the first entry read back differs from the compiled one (`==` skips positions), if any: the end of
    `text` if it is missing.  Of `cert.goal`, only the name and type count; the kernel checks its proof."""
    def stated(e):
        return (e.name, e.type) if e.__class__ is dkparse.Def and e.name == "cert.goal" else e
    for r, c in zip_longest(read, compiled):
        if r is None or stated(r) != stated(c):
            return (r.line, r.col) if r else (text.count("\n") + 1, 1)


class _Installing(list):
    """A file's entries as `signature.install_entries` takes them.  It asks
    for the next entry only once it has installed the last, so iterating
    counts the entries installed in `done` and prints each one's `-v` line."""

    def __init__(self, entries: list, rep: Reporter):
        super().__init__(entries)
        self.rep = rep
        self.done = 0

    def __iter__(self):
        for entry in super().__iter__():
            yield entry
            self.done += 1
            if getattr(entry, "name", None):
                self.rep.detail(f"checked {entry.name}")


# the signature every command starts from, one object per `--eta`, so a
# prelude check can name its start by identity
_START = (signature.EMPTY, signature.EMPTY.with_eta())
# successful checks of an emitted prelude, one slot per (file, mode, eta):
# (text read back, starting signature, fuel budget, resulting signature,
# names `-v` prints); a slot is replaced whole, so two calls racing on it
# at worst both check in full
_PRELUDE_CHECKS: dict[tuple[str, str, bool], tuple] = {}


def _check_prelude(rep: Reporter, args: argparse.Namespace, path: Path, text: str,
                   sig: signature.Signature, compiled: list) -> tuple[int, signature.Signature]:
    """`_check_text` for `logic.dk` or `rules.dk`, reusing this process's
    last successful check of the same text from the same signature under
    the same eta and budget; the kernel is deterministic, so its verdict
    and signature are the ones a full check would give."""
    key = (path.name, args.mode, args.eta)
    done = _PRELUDE_CHECKS.get(key)
    if done is not None and done[0] == text and done[1] is sig and done[2] == args.fuel:
        for name in done[4]:
            rep.detail(f"checked {name}")
        return EXIT_OK, done[3]
    code, out, entries = _check_text(rep, args, str(path), text, sig, compiled=compiled)
    if code == EXIT_OK:
        names = tuple(e.name for e in entries if getattr(e, "name", None))
        _PRELUDE_CHECKS[key] = (text, sig, args.fuel, out, names)
    return code, out


def cmd_check(args: argparse.Namespace, rep: Reporter) -> int:
    sig = _START[args.eta]
    for path in args.files:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeError) as e:
            return _fail(rep, path, e)
        code, sig, entries = _check_text(rep, args, path, text, sig)
        if code != EXIT_OK:
            return code
        rep.say(f"{path}: ok ({sum(e.__class__ is not dkparse.Comment for e in entries)} entries)")
    return EXIT_OK


def _write(rep: Reporter, out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    rep.outputs.append(str(path))
    rep.say(f"wrote {path}")
    return path


@functools.cache
def _preludes(mode: str) -> dict[str, tuple[list, str]]:
    """The files `logic.dk` and `rules.dk` of `mode`, entries and text, once per process."""
    from . import dkprint, embed, llproof
    modules = {"logic.dk": embed.prelude(mode), "rules.dk": llproof.rules_prelude(mode)}
    return {name: (entries, dkprint.print_file(entries)) for name, entries in modules.items()}


def translate(args: argparse.Namespace, rep: Reporter) -> tuple[int, signature.Signature]:
    """`lpm translate`: read the theory and the proof, if any, and check the
    theory; write `logic.dk`, `rules.dk` and `theory.dk`, re-checking each
    as read back; then compile the certificate against the signature
    re-checked from them, write it and re-check it.  Returns the exit code
    and the re-checked signature."""
    from . import dkprint, embed, llproof, tff
    sig = _START[args.eta]
    file = args.theory
    try:
        thy = tff.parse_theory(Path(file).read_text(encoding="utf-8"))
        if args.proof:
            file = args.proof
            goal, proof = llproof.parse_proof(Path(file).read_text(encoding="utf-8"), thy)
        file = args.theory
        llproof.checked_theory(thy)
        theory = embed.theory_entries(thy)
        files = {**_preludes(args.mode), "theory.dk": (theory, dkprint.print_file(theory))}
        if args.proof:
            files["cert.dk"] = None  # compiled against the modules as re-checked
    except Exception as e:  # noqa: BLE001 - mapped to exit codes
        return _fail(rep, file, e), sig
    refutation = None
    for name, printed in files.items():
        if printed is None:
            try:
                entries, refutation = llproof.certificate_entries(thy, goal, proof, sig=sig, fuel=kernel.Fuel(args.fuel))
                printed = entries, dkprint.print_file(entries)
            except Exception as e:  # noqa: BLE001 - mapped to exit codes
                return _fail(rep, args.proof, e), sig
        compiled, text = printed
        path = _write(rep, Path(args.out), name, text)
        text = path.read_text(encoding="utf-8")
        if name in ("logic.dk", "rules.dk"):
            code, sig = _check_prelude(rep, args, path, text, sig, compiled)
        else:
            locate = None if refutation is None else (lambda e: llproof.failure_path(refutation, e))
            code, sig, _ = _check_text(rep, args, str(path), text, sig, locate, compiled)
        if code != EXIT_OK:
            return code, sig
        rep.detail(f"re-checked {path}")
    if refutation is not None:
        rep.say(f"certificate: {path}")
    rep.say("verdict: accepted")
    return EXIT_OK, sig


def cmd_examples(args: argparse.Namespace, rep: Reporter) -> int:
    """Write the example's `.tffx` and `.llpx` files, then translate them."""
    from . import dkprint, embed, examples, llproof, tff
    thy, goal, proof = (make() for make in examples.BUILTINS[args.name])
    args.theory = str(_write(rep, Path(args.out), f"{args.name}.tffx", tff.print_theory(thy)))
    args.proof = str(_write(rep, Path(args.out), f"{args.name}.llpx", llproof.print_proof(thy, goal, proof)))
    code, sig = translate(args, rep)
    if code == EXIT_OK and args.name == "pair-fst-snd":
        nf = kernel.normalize(sig, embed.translate(goal, thy.name), kernel.Fuel(args.fuel))
        rep.say(f"normalized goal: {dkprint.print_term(nf)}")
    return code


class _UsageError(Exception):
    """A command line the parser in `args[0]` rejects with the message in `args[1]`."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(self, message)  # `main` reports it as argparse would, or as a payload


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="lpm", description="Proof checker for the lambda-Pi-calculus modulo rewriting.")
    parser.add_argument("-v", "--verbose", action="store_true", help="per-entry progress")
    parser.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    parser.add_argument("--fuel", type=int, default=None, help="max rewrite steps (default 100000)")
    parser.add_argument("--eta", action="store_true", help="enable eta-conversion")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check .dk files in order")
    p_check.add_argument("files", nargs="+")

    p_tr = sub.add_parser("translate", help="embed a theory and optional proof, emit .dk files")
    p_tr.add_argument("theory", help=".tffx theory file")
    p_tr.add_argument("proof", nargs="?", default=None, help=".llpx proof file")
    p_ex = sub.add_parser("examples", help="write a built-in example's .tffx and .llpx files and translate them")
    p_ex.add_argument("name", choices=EXAMPLES)
    for p in (p_tr, p_ex):
        p.add_argument("--mode", choices=("deep", "shallow"), default="shallow")
        p.add_argument("--out", default="out", help="output directory")
    return parser


_parser = functools.cache(build_parser)  # one parser per process


def _run(args: argparse.Namespace, rep: Reporter) -> int:
    """Run the command in a thread whose stack is large enough that deep
    input meets the recursion limit (a `RecursionError`, exit 3) before the
    end of the C stack (a crash); an unexpected exception is raised here."""
    command = {"check": cmd_check, "translate": lambda a, r: translate(a, r)[0], "examples": cmd_examples}
    outcome: dict[str, object] = {}

    def work() -> None:
        try:
            outcome["code"] = command[args.command](args, rep)
        except OSError as e:  # writing an output file
            rep.diagnose(e.filename or "-", 0, 0, str(e))
            outcome["code"] = EXIT_TYPE
        except MemoryError as e:  # outside a parse, compile or check
            rep.diagnose("-", 0, 0, _message(e))
            outcome["code"] = EXIT_FUEL
        except BaseException as e:  # noqa: BLE001 - raised again in the caller
            outcome["error"] = e

    size = threading.stack_size(512 << 20)  # the C recursion of `==` or `f(*...)` fits, to the limit
    try:
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
    finally:
        threading.stack_size(size)
    worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["code"]


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        parser, message = e.args
        if "--json" not in argv:
            argparse.ArgumentParser.error(parser, message)  # usage text and SystemExit(2)
        args = argparse.Namespace(verbose=False, json=True, command=None)
    else:
        message = _budget_error(args)
    rep = Reporter(args.verbose, args.json, args.command)
    if message is not None:
        rep.diagnose("-", 0, 0, message)
        return rep.finish(EXIT_SYNTAX)
    # deep input recurses in the parsers, printer and kernel; a caller gets its limit back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        return rep.finish(_run(args, rep))
    finally:
        sys.setrecursionlimit(limit)


def run() -> NoReturn:
    """The command line: `main`, then the end of the process.  Every output
    file is closed and the worker joined by then, and lpm has no `atexit`
    handler, so `os._exit` loses nothing once stdout and stderr are flushed.
    A failed flush (a closed pipe) or an exception in `main` exits normally."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or file; the normal exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
