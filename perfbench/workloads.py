"""The four benchmark workloads.

Each is a closed loop with one caller: the next operation starts only
after the previous verdict is in, as in a prover pipeline that waits for
each check.  A workload is built from a seed, holds a fixed `block` of
operations with known answers, and is run by cycling over that block.

* chain-accept: valid chain-n certificates (n in 8, 16, 32) through
  `lpm.cli.main(["--json", "translate", ...])` in-process.  Binder-heavy,
  needs no rewrite step: exercises `terms`, the `dkparse` printer and the
  translator, and bypasses the rewrite engine.
* chain-reject: chain-n certificates with one bad leaf (n in 8, 16) through
  `llproof.check_certificate` against a prebuilt signature.  Same layers as
  acceptance, through the failure path that re-checks every node; the
  known answer includes the failing node's path, which the CLI does not
  report for kernel-level failures.
* bool-normalize: ground boolean terms built with the `lpm.terms`
  constructors and normalized in the `bool` example theory.  Rewrite-heavy,
  with no translation and no binders: the reverse of chain-accept.
* cli-small: one fresh `lpm` process per operation over the built-in
  examples in both modes, plus small rejected chain certificates.  Start-up
  (import, prelude construction and installation) dominates here and is
  under 5% of every other workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from lpm import cli, dkparse, embed, examples, kernel, llproof, signature, terms

import inputs

MODES = ("shallow", "deep")


class GateError(Exception):
    """A verdict, exit code, failing path or normal form differs from the
    known answer."""


class OpFailed(Exception):
    """No verdict: an exception, fuel exhaustion, an exit code other than
    0 or 1, or `--json` output that does not parse."""


@dataclass
class Op:
    label: str
    size: int  # chain n, or boolean term size; 0 when not sized
    items: int  # work units: proof nodes, terms, or invocations
    payload: object
    expected: object
    reject: bool = False  # a certificate whose known verdict is rejection


def _chain_theories(seed: int, sizes) -> dict[int, tuple]:
    rng = random.Random(f"chain-{seed}")
    return {n: inputs.chain_theory(n, rng) for n in sorted(set(sizes))}


def _spread(hi: int, k: int) -> list[int]:
    """The centres of k equal strata of [0, hi].  Rejecting costs more the
    later the bad leaf, so every seed uses the same positions (a seed still
    changes names, declaration order and operation order)."""
    return [round((i + 0.5) * (hi + 1) / k - 0.5) for i in range(k)]


class Workload:
    name = ""
    rate_name = ""  # what items_per_s counts on this workload
    sized = False  # report one median per op size

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.tracer = None
        self.block: list[Op] = []

    def execute(self, op: Op, in_process: bool = False):
        raise NotImplementedError

    def check(self, op: Op, outcome) -> None:
        raise NotImplementedError

    def cert_bytes(self, op: Op) -> int | None:
        """Bytes of certificate `.dk` text the operation last emitted, if any."""
        return None

    def child_rss_kb(self, outcome) -> int | None:
        """Peak resident KiB of the lpm process, when it ran in its own."""
        return None


def child_env() -> dict[str, str]:
    """This environment with the lpm sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _file_size(path: Path) -> int | None:
    """Size of an emitted file; None when a failed operation wrote none."""
    return path.stat().st_size if path.exists() else None


def _check_cli(op: Op, code: int, out: str) -> None:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        raise OpFailed(f"{op.label}: --json output does not parse: {out[-200:]!r}") from None
    if code not in (0, 1):
        raise OpFailed(f"{op.label}: exit code {code}")
    if code != op.expected or payload.get("exit_code") != code:
        raise GateError(f"{op.label}: exit code {code} (payload {payload.get('exit_code')}), expected {op.expected}")
    if (payload.get("status") == "ok") != (code == 0):
        raise GateError(f"{op.label}: status {payload.get('status')!r} with exit code {code}")


class ChainAccept(Workload):
    name = "chain-accept"
    rate_name = "nodes_per_s"
    sized = True
    # one n=8 and one n=32 around three n=16 per block: the median verdict
    # falls in the middle of the n=16 cluster
    SIZES = (8, 16, 16, 16, 32)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{self.name}-{seed}")
        for n, (thy, preds) in _chain_theories(seed, self.SIZES).items():
            goal, proof, _, nodes = inputs.chain_certificate(preds)
            tffx, llpx = inputs.write_example_inputs(workdir, thy, goal, proof, f"accept{n}")
            out = workdir / f"accept{n}-out"
            argv = ["--json", "translate", str(tffx), str(llpx), "--out", str(out)]
            self.block += [Op(f"chain-accept n={n}", n, nodes, argv, 0)] * self.SIZES.count(n)
        rng.shuffle(self.block)

    def execute(self, op: Op, in_process: bool = False):
        return _cli_in_process(op.payload)

    def check(self, op: Op, outcome) -> None:
        _check_cli(op, *outcome)

    def cert_bytes(self, op: Op) -> int | None:
        return _file_size(Path(op.payload[-1]) / "cert.dk")


class ChainReject(Workload):
    name = "chain-reject"
    rate_name = "nodes_per_s"
    sized = True
    # three n=8 and two n=16 certificates per block: the median verdict is
    # the middle of one certificate's times (the costliest n=8), not a
    # point between two, while the n=16 rejections take most of the time
    PER_SIZE = {8: 3, 16: 2}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{self.name}-{seed}")
        self.sigs = build_signatures(self.name, seed)
        theories = _chain_theories(seed, self.PER_SIZE)
        for n, k in self.PER_SIZE.items():
            thy, preds = theories[n]
            for bad in _spread(n - 2, k):
                goal, proof, path, nodes = inputs.chain_certificate(preds, bad)
                self.block.append(Op(f"chain-reject n={n} bad={bad}", n, nodes, (thy, goal, proof), path, True))
        rng.shuffle(self.block)

    def execute(self, op: Op, in_process: bool = False):
        thy, goal, proof = op.payload
        return llproof.check_certificate(thy, goal, proof, sig=self.sigs[op.size], fuel=kernel.Fuel())

    def check(self, op: Op, verdict) -> None:
        if verdict.accepted or verdict.path != op.expected:
            raise GateError(
                f"{op.label}: accepted={verdict.accepted} path={verdict.path}, expected rejection at {op.expected}"
            )


# kernel constants of the bool example theory
_TRUE, _FALSE, _NOTB, _ANDB, _ORB = (terms.Const(f"bool.{c}") for c in ("true", "false", "notb", "andb", "orb"))
_BINARY = {"a": _ANDB, "o": _ORB}


def _to_kterm(t: tuple):
    op = t[0]
    if op == "T":
        return _TRUE
    if op == "F":
        return _FALSE
    if op == "n":
        return terms.App(_NOTB, _to_kterm(t[1]))
    return terms.app(_BINARY[op], _to_kterm(t[1]), _to_kterm(t[2]))


def _from_kterm(k) -> tuple:
    """Read a kernel term back without calling into lpm, or raise GateError."""
    if k == _TRUE:
        return inputs.T
    if k == _FALSE:
        return inputs.F
    args = []
    while isinstance(k, terms.App):
        args.append(k.arg)
        k = k.fn
    args.reverse()
    if k == _NOTB and len(args) == 1:
        return ("n", _from_kterm(args[0]))
    for tag, head in _BINARY.items():
        if k == head and len(args) == 2:
            return (tag, _from_kterm(args[0]), _from_kterm(args[1]))
    raise GateError(f"normal form has an unexpected head {k}")


class BoolNormalize(Workload):
    name = "bool-normalize"
    rate_name = "terms_per_s"
    # every term up to SMALL nodes (so inputs share many subterms) plus
    # DRAWN terms drawn uniformly by size from SMALL+1..MAX_SIZE
    SMALL, MAX_SIZE, DRAWN = 5, 12, 1846

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{self.name}-{seed}")
        self.sig = build_signatures(self.name, seed)
        counts = inputs.count_terms(self.MAX_SIZE)
        pool = inputs.all_terms(self.SMALL)
        pool += [inputs.random_term(rng.randint(self.SMALL + 1, self.MAX_SIZE), rng, counts) for _ in range(self.DRAWN)]
        rng.shuffle(pool)
        memo: dict[tuple, tuple] = {}
        for t in pool:
            size = inputs.term_size(t)
            self.block.append(Op(f"bool-normalize size={size} {t}", size, 1, t, inputs.normal_form(t, memo)))

    def execute(self, op: Op, in_process: bool = False):
        if self.tracer is None:
            k = _to_kterm(op.payload)
        else:
            k = self.tracer.call("terms.construct", "terms", _to_kterm, op.payload)
        return kernel.normalize(self.sig, k, kernel.Fuel())

    def check(self, op: Op, nf) -> None:
        got = _from_kterm(nf)
        if got != op.expected:
            raise GateError(f"{op.label}: normal form {got}, expected {op.expected}")


class CliSmall(Workload):
    name = "cli-small"
    rate_name = "invocations_per_s"
    REJECT_SIZES = (3, 4, 5, 6)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{self.name}-{seed}")
        sigs = build_signatures(self.name, seed)
        self.env = child_env()
        for name, (mk_thy, mk_goal, mk_proof) in sorted(examples.BUILTINS.items()):
            thy, goal, proof = mk_thy(), mk_goal(), mk_proof()
            tffx, llpx = inputs.write_example_inputs(workdir, thy, goal, proof, name)
            for mode in MODES:
                stem = f"{name}-{mode}"
                dk = workdir / f"{stem}-dk"
                dk.mkdir()
                cert, _ = llproof.certificate_entries(thy, goal, proof, sig=sigs[name, mode])
                files = {
                    "logic.dk": embed.prelude(mode),
                    "rules.dk": llproof.rules_prelude(mode),
                    "theory.dk": embed.theory_entries(thy),
                    "cert.dk": cert,
                }
                for fname, entries in files.items():
                    (dk / fname).write_text(dkparse.print_file(entries), encoding="utf-8")
                m = ["--mode", mode]
                self._add(f"examples {stem}", ["examples", name, *m, "--out", str(workdir / f"{stem}-ex")], 0)
                self._add(f"translate {stem}", ["translate", str(tffx), str(llpx), *m, "--out", str(workdir / f"{stem}-tr")], 0)
                self._add(f"check {stem}", ["check", *(str(dk / f) for f in files)], 0)
        for n, (thy, preds) in _chain_theories(seed, self.REJECT_SIZES).items():
            goal, proof, _, _ = inputs.chain_certificate(preds, rng.randrange(n - 1))
            tffx, llpx = inputs.write_example_inputs(workdir, thy, goal, proof, f"reject{n}")
            self._add(f"translate reject n={n}", ["translate", str(tffx), str(llpx), "--out", str(workdir / f"reject{n}-out")], 1)
        rng.shuffle(self.block)

    def _add(self, label: str, args: list[str], expected: int) -> None:
        self.block.append(Op(label, 0, 1, ["--json", *args], expected, expected == 1))

    def execute(self, op: Op, in_process: bool = False):
        """(exit code, stdout, peak RSS in KiB or None when in-process)."""
        if in_process:
            return (*_cli_in_process(op.payload), None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpm.cli", *op.payload],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=self.env,
        )
        try:
            out = proc.stdout.read().decode("utf-8", "replace")
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return proc.returncode, out, usage.ru_maxrss

    def check(self, op: Op, outcome) -> None:
        code, out, _ = outcome
        _check_cli(op, code, out)

    def child_rss_kb(self, outcome) -> int | None:
        return outcome[2]

    def cert_bytes(self, op: Op) -> int | None:
        if op.payload[1] == "check" or op.expected != 0:
            return None
        return _file_size(Path(op.payload[op.payload.index("--out") + 1]) / "cert.dk")


WORKLOADS = {w.name: w for w in (ChainAccept, ChainReject, BoolNormalize, CliSmall)}


def build_signatures(name: str, seed: int):
    """Every base signature workload `name` checks against (logic, rules
    and theory installed); timed as part of set-up."""
    if name == "chain-accept":
        return {n: llproof.base_signature(thy, "shallow") for n, (thy, _) in _chain_theories(seed, ChainAccept.SIZES).items()}
    if name == "chain-reject":
        return {n: llproof.base_signature(thy, "shallow") for n, (thy, _) in _chain_theories(seed, ChainReject.PER_SIZE).items()}
    if name == "bool-normalize":
        sig = signature.install_entries(signature.EMPTY, embed.prelude("shallow"))
        return signature.install_entries(sig, embed.theory_entries(examples.bool_theory()))
    if name == "cli-small":
        return {
            (ex, mode): llproof.base_signature(mk_thy(), mode)
            for ex, (mk_thy, _, _) in sorted(examples.BUILTINS.items())
            for mode in MODES
        }
    raise KeyError(name)
