"""lpm benchmark: time to a verdict, checked against known answers.

    python3 perfbench/run.py --workload chain-accept --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload per run (`all` runs each in its own process).  A run builds
its inputs from the seed, times fresh-interpreter set-up, then checks
operations one after another for `--seconds` seconds.  Every verdict, exit
code, failing node path and normal form is compared with its known
answer; on any mismatch the run exits 1 and prints no numbers.

End-to-end times are wall times scaled to a nominal machine speed by a
reference loop timed between operations (see calibrate.py); the
unscaled median is printed too.  The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`, and with `--trace 1` the per-layer metrics of a
traced run (see `layertrace.py`) plus the tracing overhead.  The lines
before it print every metric by name and unit for reading.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import calibrate
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
PROBES = 5  # fresh interpreters timed for setup_s
CALIBRATE_EVERY = 0.01  # seconds between machine-speed calibration bursts
NAMES = ("chain-accept", "chain-reject", "bool-normalize", "cli-small")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpm" / "__init__.py").is_file():
        print(f"lpm sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    # one CPU for the whole run, children included: each core of a shared
    # machine changes speed on its own, and the calibration must see the
    # core the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probes = probe_setup(args.workload, args.seed)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            lines, result = traced_run(workload, args.seconds, probes)
        else:
            lines, result = measured_run(workload, args.seconds, probes)
    except workloads.GateError as e:
        print(f"correctness gate: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0


def probe_setup(name: str, seed: int) -> list[dict]:
    """Time `import lpm` plus the workload's base signatures in PROBES
    fresh interpreters, one after another."""
    import workloads

    samples = []
    for _ in range(PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            env=workloads.child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


class Stats:
    """Operations attempted and failed, and per completed operation its op
    and wall time (compact: bool-normalize completes ~10^5 in a run)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops: list = []
        self.wall = array("d")
        self.child_rss_kb = 0


def run_block(workload, ops, stats: Stats, in_process: bool = False, tracer=None) -> None:
    """Execute and check `ops` in order; a crash counts as a failure, a
    wrong answer raises GateError."""
    import workloads

    for op in ops:
        stats.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome = workload.execute(op, in_process)
            else:
                tracer.request = stats.attempted
                outcome = tracer.call("bench.op", "bench", workload.execute, op, in_process)
        except Exception as e:  # noqa: BLE001 - no verdict: counted, reported, run goes on
            stats.failed += 1
            print(f"failed: {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        seconds = perf_counter() - t0
        try:
            workload.check(op, outcome)
        except workloads.OpFailed as e:
            stats.failed += 1
            print(f"failed: {e}", file=sys.stderr)
            continue
        stats.ops.append(op)
        stats.wall.append(seconds)
        stats.child_rss_kb = max(stats.child_rss_kb, workload.child_rss_kb(outcome) or 0)


def measured_run(workload, seconds: float, probes: list[dict]):
    stats = Stats()
    refs = [calibrate.burst()]
    marks = array("l")  # per completed op: index of the last burst before it
    rss_kb = 0
    gc.collect()
    # whole blocks only, so every run checks the same mix of operations
    start = last_ref = perf_counter()
    while perf_counter() - start < seconds:
        for op in workload.block:
            done = len(stats.ops)
            run_block(workload, [op], stats)
            marks.extend([len(refs) - 1] * (len(stats.ops) - done))
            if perf_counter() - last_ref >= CALIBRATE_EVERY:
                refs.append(calibrate.burst())
                last_ref = perf_counter()
        # high-water mark after set-up and one block of every operation,
        # before the run's own per-operation records can add to it
        rss_kb = rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    refs.append(calibrate.burst())
    if not stats.ops:
        raise SystemExit("no operation completed; give the run more seconds")
    # each time scaled by the calibration bursts just before and after it
    speed = [2 * calibrate.NOMINAL_S / (refs[i] + refs[i + 1]) for i in marks]
    times = [s * k for s, k in zip(stats.wall, speed)]
    busy = sum(times)
    items = sum(op.items for op in stats.ops)
    setup = [(p["import_s"] + p["build_s"]) * calibrate.NOMINAL_S / p["reference_s"] for p in probes]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "verdict_s.p50": _metric(statistics.median(times), "s"),
        "items_per_s": _metric(items / busy, "1/s"),
        "peak_rss_mb": _metric((stats.child_rss_kb or rss_kb) / 1024, "MB"),
    }

    lines = [f"{name:<22} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines[0] += (f"  (median of {len(setup)} fresh interpreters, unscaled: import "
                 f"{statistics.median(p['import_s'] for p in probes):.4f} s, signatures "
                 f"{statistics.median(p['build_s'] for p in probes):.4f} s)")
    lines[2] += f"  (= {workload.rate_name}: {items} {workload.rate_name[:-6]} in {busy:.3f} s busy)"
    lines[3] += "  (max over the lpm processes)" if stats.child_rss_kb else "  (after set-up and one block)"
    lines.append(_tail_line(times))
    lines.append(f"{'wall_s.p50':<22} {statistics.median(stats.wall):.6g} s  (unscaled; reference "
                 f"{statistics.fmean(refs) * 1e6:.1f} us mean of {len(refs)} bursts, nominal "
                 f"{calibrate.NOMINAL_S * 1e6:.1f} us)")
    if workload.sized:
        by_size: dict[int, list[float]] = {}
        for op, t in zip(stats.ops, times):
            by_size.setdefault(op.size, []).append(t)
        medians = {n: statistics.median(v) for n, v in sorted(by_size.items())}
        for n, m in medians.items():
            lines.append(f"{f'verdict_s.n{n}':<22} {m:.6g} s  (median of {len(by_size[n])})")
        (a, ma), (b, mb) = list(medians.items())[-2:]
        lines.append(f"{'growth_slope':<22} {math.log(mb / ma) / math.log(b / a):.3f}  "
                     f"(log-log, n={a}..{b}; diagnostic, not gated)")
    certs = [c for c in map(workload.cert_bytes, workload.block) if c is not None]
    if certs:
        lines.append(f"{'cert_kb':<22} {statistics.fmean(certs) / 1024:.4f} KB  (mean per emitted cert.dk)")
    lines.append(f"{'fail_ratio':<22} {stats.failed / stats.attempted:.4f}  "
                 f"({stats.failed} of {stats.attempted})")
    return lines, _result(stats, metrics)


def _tail_line(times: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return f"{'verdict_s.tail':<22} {ordered[rank - 1]:.6g} s  (p{pct} of {n} samples)"
    return f"{'verdict_s.tail':<22} n/a  (only {n} samples; needs 20)"


def _result(stats: Stats, metrics: dict) -> dict:
    return {"correct": True, "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(workload, seconds: float, probes: list[dict]):
    """One untraced pass over the block for reference, then traced passes
    until `seconds` have passed.  Counts come from the first traced pass
    (identical in every pass and run with the same seed); times are means
    over the traced passes."""
    stats = Stats()
    t0 = perf_counter()
    run_block(workload, workload.block, stats, in_process=True)
    untraced = perf_counter() - t0

    tracer = layertrace.Tracer()
    tracer.install()
    workload.tracer = tracer
    walls, snapshots = [], []
    try:
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            t0 = perf_counter()
            run_block(workload, workload.block, stats, in_process=True, tracer=tracer)
            walls.append(perf_counter() - t0)
            if len(snapshots) < 2:
                snapshots.append(tracer.snapshot())
    finally:
        tracer.uninstall()
        workload.tracer = None
    TRACES.mkdir(exist_ok=True)
    trace_file = TRACES / f"{workload.name}-seed{workload.seed}.json"
    tracer.write(trace_file)

    first = snapshots[0]
    metrics = layer_metrics(tracer, first, len(walls), sum(op.reject for op in workload.block))
    metrics["cli.import_s"] = _metric(statistics.median(p["import_s"] for p in probes), "s")
    overhead = statistics.fmean(walls) / untraced
    metrics["trace.overhead"] = _metric(overhead, "x")

    lines = [f"{name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"traced blocks: {len(walls)} of {len(workload.block)} ops each; untraced block {untraced:.3f} s, "
                 f"traced block {statistics.fmean(walls):.3f} s")
    if len(snapshots) == 2:
        second = {k: {n: v - first[k].get(n, 0) for n, v in snapshots[1][k].items()} for k in first}
        same = all({n: v for n, v in second[k].items() if v} == {n: v for n, v in first[k].items() if v}
                   for k in first)
        lines.append(f"counts identical in blocks 1 and 2: {'yes' if same else 'NO'}")
    shares = tracer.layer_self_s()
    total = sum(shares.values())
    split = ", ".join(f"{layer} {s / total:.0%}" for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]) if s / total >= 0.01)
    lines.append(f"self-time split: {split}")
    lines.append(f"spans: {tracer.spans_total} recorded, first {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return lines, _result(stats, metrics)


def layer_metrics(tracer, first: dict, passes: int, rejects: int) -> dict:
    calls, failed, amount, entries = first["calls"], first["failed"], first["amount"], first["entries"]

    def count(key, table=calls):
        return _metric(table.get(key, 0), "count")

    def self_s(key):
        return _metric(tracer.self_s.get(key, 0.0) / passes, "s")

    def rate(keys):
        seconds = sum(tracer.self_s.get(k, 0.0) for k in keys)
        done = sum(tracer.amount.get(k, 0) for k in keys)
        return _metric(done / seconds if seconds else 0.0, "B/s")

    rechecks = entries.get(("kernel.check", "llproof"), 0)
    m = {
        "terms.instantiate.calls": count("terms.instantiate"),
        "terms.abstract.calls": count("terms.abstract"),
        "terms.substitute.calls": count("terms.substitute"),
        "kernel.infer.calls": count("kernel._infer"),
        "kernel.convertible.calls": count("kernel._conv"),
        "kernel.whnf.calls": count("kernel.whnf"),
        "kernel.normalize.calls": count("kernel.normalize"),
        "kernel.rewrite_steps": count("kernel.rewrite_steps"),
        "kernel.check.calls": count("kernel.check"),
        "kernel.check.failed": count("kernel.check", failed),
        "llproof.recheck_per_reject": _metric(rechecks / rejects if rejects else 0.0, "count"),
        "signature.install_entries.calls": count("signature.install_entries"),
        "signature.entries_installed": count("signature.install_entries", amount),
        "dkparse.print_file.self_s": self_s("dkparse.print_file"),
        "dkparse.print_file.bytes": _metric(amount.get("dkparse.print_file", 0), "B"),
        "dkparse.parse_file.self_s": self_s("dkparse.parse_file"),
        "dkparse.parse_file.bytes_per_s": rate(["dkparse.parse_file"]),
        "tff.parse_theory.self_s": self_s("tff.parse_theory"),
        "llproof.parse_proof.self_s": self_s("llproof.parse_proof"),
        "sexp.loads.bytes_per_s": rate(["sexp.loads", "sexp.loads_one"]),
        "embed.prelude.self_s": self_s("embed.prelude"),
        "embed.theory_entries.self_s": self_s("embed.theory_entries"),
        "llproof.certificate_entries.self_s": self_s("llproof.certificate_entries"),
        "llproof.rules_prelude.self_s": self_s("llproof.rules_prelude"),
        "llproof.check_certificate.self_s": self_s("llproof.check_certificate"),
        "cli.main.self_s": self_s("cli.main"),
    }
    shares = tracer.layer_self_s()
    for layer in layertrace.LAYERS + (layertrace.BENCH,):
        m[f"{layer}.self_s"] = _metric(shares.get(layer, 0.0) / passes, "s")
    m["trace.spans"] = _metric(tracer.spans_total / passes, "count")
    return m


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process; relay their lines and merge
    their results into one JSON line keyed `workload/metric`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    if code:
        return code
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
