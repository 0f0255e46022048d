"""Self-test of the correctness gate.

For every workload, flip the known answer of one operation and confirm
that `run.py` exits 1 without printing a result; then confirm that the
untouched workload passes the same operation.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import inputs  # noqa: E402
import workloads  # noqa: E402


def flipped(expected):
    """A wrong answer of the same kind: exit code, node path or normal form."""
    if isinstance(expected, int):
        return 1 - expected
    if expected and isinstance(expected[0], int):
        return expected[:-1]
    return inputs.F if expected != inputs.F else inputs.T


def run_quietly(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(argv)
    return code, out.getvalue()


def main() -> int:
    ok = True
    cases = [(name, 0) for name in run.NAMES] + [("bool-normalize", 1)]
    for name, trace in cases:
        original = workloads.WORKLOADS[name]

        class Flipped(original):
            def __init__(self, *args):
                super().__init__(*args)
                self.block[0].expected = flipped(self.block[0].expected)

        workloads.WORKLOADS[name] = Flipped
        try:
            code, out = run_quietly(["--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", str(trace)])
        finally:
            workloads.WORKLOADS[name] = original
        fired = code == 1 and out == ""
        ok &= fired
        print(f"{name} trace={trace}: flipped answer -> exit {code}, "
              f"{'no output' if not out else 'output printed'}: {'gate fired' if fired else 'GATE DID NOT FIRE'}")

    # the same first operation passes with its true answer
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.NAMES:
            sub = workdir / name
            sub.mkdir()
            workload = workloads.WORKLOADS[name](0, sub)
            stats = run.Stats()
            run.run_block(workload, workload.block[:1], stats)
            passed = stats.failed == 0 and len(stats.ops) == 1
            ok &= passed
            print(f"{name}: true answer -> {'passes' if passed else 'FAILS'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
