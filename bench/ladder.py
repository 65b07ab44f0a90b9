"""One-shot size ladder of both erasure pipelines (a report, not gated).

    python3 bench/ladder.py

Covers n_bins in {16, 64, 256, 1024, 4096} x Q in {8, 64, 256} for the simple
and the delayed-choice pipeline (basis pm, intensity rule).  Each size runs in
its own child process, which times a cold call and then repeats, and reports
its peak RSS.  Before running a delayed size the ladder computes its dense
register, 32 * n_bins * Q * (n_bins + 1) bytes; if PEAK_PER_REGISTER times
that exceeds the budget, half the machine's physical memory, the size is
recorded as skipped with its computed size and never attempted.  Prints a
table and writes `.bench_out/ladder.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import program

BINS = (16, 64, 256, 1024, 4096)
POINTS = (8, 64, 256)
PIPELINES = ("simple", "delayed")
SPAN = 8.0
# Peak RSS over dense-register bytes, measured at 128 x 256 and 256 x 64: ~3.6.
PEAK_PER_REGISTER = 4
REPEATS = 5
REPEAT_BUDGET_S = 10.0
CHILD_TIMEOUT_S = 600
GIB = 2**30
# One size may use half the machine's memory, which leaves room for the rest.
BUDGET_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def child(pipeline: str, n_bins: int, points: int) -> None:
    program.import_program()
    from erasure_lab import erasure

    config = erasure.ErasureConfig(
        n_bins=n_bins, bin_width=SPAN / n_bins, span=SPAN, quadrature_points=points
    )
    run = erasure.run_simple_erasure if pipeline == "simple" else erasure.run_delayed_choice
    times = []
    while len(times) < REPEATS and sum(times) < REPEAT_BUDGET_S:
        start = time.perf_counter()
        table = run(config)
        times.append(time.perf_counter() - start)
    total = float(table.values.sum())
    if abs(total - 1.0) > 1e-9:
        raise SystemExit(f"table total {total!r} deviates from 1")
    print(
        json.dumps(
            {
                "cold_s": times[0],
                "min_s": min(times[1:] or times),
                "median_s": statistics.median(times[1:] or times),
                "repeats": len(times) - 1,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
        )
    )


def measure(pipeline: str, n_bins: int, points: int) -> dict:
    from workloads import register_bytes  # needs program.import_program() first

    row = {"pipeline": pipeline, "n_bins": n_bins, "points": points}
    if pipeline == "delayed":
        reg = register_bytes(n_bins, points)
        row["register_gib"] = reg / GIB
        if PEAK_PER_REGISTER * reg > BUDGET_BYTES:
            row["status"] = (
                f"skipped: dense register would need {reg / GIB:.3g} GiB "
                f"(estimated peak {PEAK_PER_REGISTER * reg / GIB:.3g} GiB > budget {BUDGET_BYTES / GIB:.3g} GiB)"
            )
            return row
    cmd = [sys.executable, __file__, "--child", pipeline, str(n_bins), str(points)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        row["status"] = f"failed: exceeded {CHILD_TIMEOUT_S} s"
        return row
    if proc.returncode != 0:
        row["status"] = f"failed: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return row
    row.update(json.loads(proc.stdout.splitlines()[-1]), status="ok")
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=3, metavar=("PIPELINE", "N_BINS", "Q"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        pipeline, n_bins, points = args.child
        child(pipeline, int(n_bins), int(points))
        return

    program.import_program()
    rows = []
    print(f"{'pipeline':8} {'n_bins':>6} {'Q':>4} {'cold_s':>9} {'median_s':>9} {'peak_MB':>8}  status")
    for pipeline in PIPELINES:
        for n_bins in BINS:
            for points in POINTS:
                row = measure(pipeline, n_bins, points)
                rows.append(row)
                ok = row["status"] == "ok"
                print(
                    f"{pipeline:8} {n_bins:>6} {points:>4} "
                    + (
                        f"{row['cold_s']:>9.4f} {row['median_s']:>9.4f} {row['peak_rss_mb']:>8.1f}  ok"
                        if ok
                        else f"{'-':>9} {'-':>9} {'-':>8}  {row['status']}"
                    ),
                    flush=True,
                )
    report = {
        "env": program.environment(),
        "budget_gib": BUDGET_BYTES / GIB,
        "peak_per_register": PEAK_PER_REGISTER,
        "rows": rows,
    }
    program.OUT.mkdir(parents=True, exist_ok=True)
    (program.OUT / "ladder.json").write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
