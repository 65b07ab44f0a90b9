"""Closed-loop benchmark of erasure-lab: one client, one process, seeded inputs.

    python3 bench/run.py --workload verify-small --seed 1 --seconds 50 --trace 0

Workloads are defined in `workloads.py` and described in `README.md`.  A run
first times set-up in fresh interpreters (`probe.py`), then warms up and runs
operations back to back for `--seconds`, checking every output.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs half
the time untraced and half with span recorders installed (`tracing.py`), and
reports the per-layer metrics.  Both halves of a traced run use the same op
stream, which for some workloads adds a fixed set of other CLI commands
(`workloads.with_cli_extras`).  Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The full result, with environment facts, goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json`, and traced spans to
`.bench_out/<workload>-seed<seed>-spans.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import program
from tracing import ROOT_SPAN, SPAN_NAMES, Tracer

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WARMUP_OPS = 1
MAX_ERRORS_KEPT = 5


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)


@dataclass
class Loop:
    latencies: list[float]
    elapsed: float
    counters: dict[str, float]


def probe(workload: str, tally: Tally) -> dict | None:
    """Time set-up in a fresh interpreter; None (and a counted failure) if it fails."""
    tally.attempted += 1
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(f"set-up probe exceeded {PROBE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tally.fail(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_ops(ops, tally: Tally, *, seconds: float | None = None, count: int | None = None, call=None) -> Loop:
    """Closed loop: start the next op only after the previous one finished.

    Runs `count` ops, or starts ops until `seconds` have passed.  Only `run` is
    timed; every failure, raised or found by `check`, is counted and skipped.
    """
    latencies: list[float] = []
    counters: dict[str, float] = {}
    started = 0
    begin = time.perf_counter()
    while (started < count) if count is not None else (time.perf_counter() - begin < seconds):
        op = next(ops)
        started += 1
        tally.attempted += 1
        try:
            start = time.perf_counter()
            out = op.run() if call is None else call(op.run)
            latency = time.perf_counter() - start
            for key, value in op.check(out).items():
                counters[key] = counters.get(key, 0) + value
        except Exception as exc:  # a failed op is counted, never aborts the run
            tally.fail(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(latency)
    return Loop(latencies, time.perf_counter() - begin, counters)


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of the latencies and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-round(percentile * 10) * len(ordered) // 1000))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(loop: Loop, tally: Tally, setup: list[dict], tail_percentile: float) -> dict[str, tuple[float, str]]:
    completed = len(loop.latencies)
    return {
        "setup_s": (statistics.median(p["import_s"] + p["first_op_s"] for p in setup), "s"),
        "ops_per_s": (completed / loop.elapsed, "1/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail(loop.latencies, tail_percentile)[0] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }


def per_layer(tracer, traced: Loop, untraced: Loop, setup: list[dict]) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()
    n_ops = summary[ROOT_SPAN]["calls"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        entry = summary.get(name, {"self_ns": 0, "calls": 0})
        metrics[f"{name}.self_ms"] = (entry["self_ns"] / 1e6 / n_ops, "ms")
        metrics[f"{name}.calls"] = (entry["calls"] / n_ops, "count")
    metrics["states.StateVector.bytes"] = (tracer.state_bytes / n_ops, "bytes")
    for name in ("erasure.register_bytes", "cli.bytes_written"):
        metrics[name] = (traced.counters.get(name, 0) / n_ops, "bytes")
    traced_p50 = statistics.median(traced.latencies) * 1e3
    untraced_p50 = statistics.median(untraced.latencies) * 1e3
    metrics.update(
        {
            "bench.op.self_ms": (summary[ROOT_SPAN]["self_ns"] / 1e6 / n_ops, "ms"),
            "trace.op_mean_ms": (summary[ROOT_SPAN]["total_ns"] / 1e6 / n_ops, "ms"),
            "trace.op_p50_ms": (traced_p50, "ms"),
            "trace.untraced_op_p50_ms": (untraced_p50, "ms"),
            "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
            "setup.import_s": (statistics.median(p["import_s"] for p in setup), "s"),
            "setup.first_op_s": (statistics.median(p["first_op_s"] for p in setup), "s"),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    program.import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tally = Tally()
    setup = [p for p in (probe(args.workload, tally) for _ in range(SETUP_PROBES)) if p]
    if not setup:
        print(f"bench: every set-up probe failed: {tally.errors}", file=sys.stderr)
        return 1

    with program.scratch_dir() as scratch:
        ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.trace and args.workload in workloads.EXTRAS_IN_TRACE:
            ops = workloads.with_cli_extras(ops, scratch)
        run_ops(ops, tally, count=WARMUP_OPS)
        if args.trace:
            untraced = run_ops(ops, tally, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(ops, tally, seconds=args.seconds / 2, call=tracer.op)
            finally:
                tracer.uninstall()
            loop = traced
        else:
            loop = run_ops(ops, tally, seconds=args.seconds)

    if not loop.latencies:
        print(f"bench: no operation completed: {tally.errors}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}"
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    _, beyond = tail(loop.latencies, percentile)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, setup)
        tracer.write_spans(program.OUT / f"{stem}-spans.jsonl")
    else:
        metrics = end_to_end(loop, tally, setup, percentile)

    env = {"workload": args.workload, "seed": args.seed, **program.environment()}
    detail = {
        "env": env,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_timed": len(loop.latencies),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "errors": tally.errors,
        "setup_probes": setup,
        "latencies_ms": [t * 1e3 for t in loop.latencies],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    program.OUT.mkdir(parents=True, exist_ok=True)
    (program.OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(loop.latencies)} ops timed, "
        f"{tally.attempted} attempted, {tally.failed} failed (fail_frac {detail['fail_frac']:g}); "
        f"tail = p{percentile:g} with {beyond} samples beyond"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    if args.trace:
        covered = 1 - metrics["bench.op.self_ms"][0] / metrics["trace.op_mean_ms"][0]
        print(f"  traced layers cover {covered:.1%} of the traced op time; the rest is bench.op.self_ms")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
