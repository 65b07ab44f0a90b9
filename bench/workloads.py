"""The benchmark's workloads: seeded streams of checked operations.

An operation is split into `run`, the timed call into erasure_lab, and
`check`, which validates the outputs outside the timed region and returns
the op's computed counters.  Inputs come from the seed alone, and the
program receives only the generated configs.  Import this module after
`program.import_program()`.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from erasure_lab import cli, coherence, erasure

VERIFY_TOL = 1e-9
SPAN = 8.0

# verify-small: `verify` on a small grid.  Each pass over the op stream runs
# every config of this grid once, in an order drawn from the seed, so every
# seed measures the same mix.
VERIFY_BASES = ("pm", "pmi", "whichway")
VERIFY_BINS = (8, 16, 32)
VERIFY_POINTS = (32, 64, 256)
VERIFY_KAPPA_STEPS = range(1, 8)  # kappa = k*pi/8, so kappa*span is a multiple of pi

# Traced runs of these workloads also measure the schmidt, coherence and cut
# layers: after every EXTRAS_EVERY-th op comes the next of the other
# acceptance-suite CLI commands, at their default configs and in this fixed
# order.  Untraced runs never run them.
CLI_EXTRAS = ("schmidt", "cut-demo", "search-bases")
EXTRAS_EVERY = 30
EXTRAS_IN_TRACE = ("verify-small",)

# delayed-large: each op runs both sizes in turn, so every op carries the same
# work and latency stays unimodal.
DELAYED_SIZES = ((128, 256), (256, 64))


class CheckFailed(Exception):
    """An operation returned an output that fails the workload's check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    check: Callable[[object], dict[str, float]]


def register_bytes(n_bins: int, points: int) -> int:
    """Bytes of the dense delayed-choice register: 2 x (n_bins*Q) x (n_bins+1) complex128."""
    return 32 * n_bins * points * (n_bins + 1)


def _check_deviation(report: erasure.EqualityReport | cli.RunReport, what: str) -> None:
    _require(
        report.passed and report.max_deviation <= VERIFY_TOL,
        f"{what}: max deviation {report.max_deviation!r} (passed={report.passed})",
    )


# --- verify-small -----------------------------------------------------------


def _check_schmidt(report: cli.RunReport) -> None:
    """The balanced pair: two coefficients sqrt(1/2), rank 2, EPR type."""
    coefficients = [float(c) for c in report.summary[0].split(": ")[1].split(", ")]
    _require(
        len(coefficients) == 2
        and all(abs(c - math.sqrt(0.5)) <= 1e-12 for c in coefficients)
        and report.summary[1:] == ("rank: 2", "epr_type: true"),
        f"schmidt: {report.summary!r}",
    )


def _check_search(csv_path: Path) -> None:
    """Exactly the bases of acceptance criterion 4, in canonical form."""
    by_class: dict[str, set[int]] = {cls.value: set() for cls in coherence.SymmetryClass}
    with csv_path.open() as f:
        for row in csv.DictReader(f):
            _require(float(row["lambda"]) == 0.0, f"search: non-canonical row {row!r}")
            by_class[row["class"]].add(round(float(row["delta"]) / (math.pi / 2)))
    termwise = by_class[coherence.SymmetryClass.TERMWISE_SYMMETRIC.value]
    swapping = by_class[coherence.SymmetryClass.TERM_SWAPPING.value]
    _require(
        bool(termwise) and termwise <= {0, 2} and swapping == {1, 3}
        and not by_class[coherence.SymmetryClass.NEITHER.value],
        f"search: unexpected bases {by_class!r}",
    )


def _cli_run(text: str, command: str) -> cli.RunReport:
    return cli.execute(cli.parse_config(text, command=command))


def _cli_check(out_dir: Path, command: str, register: int, report: cli.RunReport) -> dict:
    if command in ("verify", "cut-demo"):
        _check_deviation(report, command)
    elif command == "schmidt":
        _check_schmidt(report)
    else:
        _check_search(out_dir / "symmetric_bases.csv")
    names = report.files + (command + "_report.json",)
    return {
        "cli.bytes_written": sum((out_dir / name).stat().st_size for name in names),
        "erasure.register_bytes": register,
    }


def _verify_op(scratch: Path, basis: str, rule: str, n_bins: int, points: int, kappa_step: int) -> Op:
    config = {
        "output_path": str(scratch),
        "basis": basis,
        "born_rule": rule,
        "n_bins": n_bins,
        "bin_width": SPAN / n_bins,
        "span": SPAN,
        "quadrature_points": points,
        "phase_gradient": kappa_step * math.pi / 8.0,
    }
    return Op(
        run=partial(_cli_run, json.dumps(config), "verify"),
        check=partial(_cli_check, scratch, "verify", register_bytes(n_bins, points)),
    )


def verify_small(seed: int, scratch: Path) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    grid = list(
        itertools.product(VERIFY_BASES, erasure.BORN_RULES, VERIFY_BINS, VERIFY_POINTS, VERIFY_KAPPA_STEPS)
    )
    while True:
        for i in rng.permutation(len(grid)):
            yield _verify_op(scratch, *grid[i])


def with_cli_extras(ops: Iterator[Op], scratch: Path) -> Iterator[Op]:
    """`ops` with the next of CLI_EXTRAS after every EXTRAS_EVERY-th op."""
    extras = itertools.cycle(CLI_EXTRAS)
    for count, op in enumerate(ops, 1):
        yield op
        if count % EXTRAS_EVERY == 0:
            command = next(extras)
            config = json.dumps({"output_path": str(scratch)})
            yield Op(
                run=partial(_cli_run, config, command),
                check=partial(_cli_check, scratch, command, 0),
            )


# --- delayed-large ----------------------------------------------------------


def _delayed_run(configs: list[erasure.ErasureConfig]) -> list:
    results = []
    for config in configs:
        simple = erasure.run_simple_erasure(config)
        delayed = erasure.run_delayed_choice(config)
        results.append((simple, delayed, erasure.verify_equality(simple, delayed, VERIFY_TOL)))
    return results


def _delayed_check(configs: list[erasure.ErasureConfig], results: list) -> dict:
    for config, (simple, delayed, report) in zip(configs, results, strict=True):
        what = f"{config.n_bins}x{config.quadrature_points} {config.basis}/{config.born_rule}"
        _check_deviation(report, what)
        if config.born_rule == "intensity":
            for table in (simple, delayed):
                total = float(table.values.sum())
                _require(abs(total - 1.0) <= VERIFY_TOL, f"{what}: {table.mode} total {total!r}")
    return {
        "erasure.register_bytes": sum(
            register_bytes(c.n_bins, c.quadrature_points) for c in configs
        )
    }


def _delayed_op(bases_rules) -> Op:
    configs = [
        erasure.ErasureConfig(
            n_bins=n_bins,
            bin_width=SPAN / n_bins,
            span=SPAN,
            quadrature_points=points,
            basis=basis,
            born_rule=rule,
        )
        for (n_bins, points), (basis, rule) in zip(DELAYED_SIZES, bases_rules, strict=True)
    ]
    return Op(run=partial(_delayed_run, configs), check=partial(_delayed_check, configs))


def delayed_large(seed: int, scratch: Path) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    while True:
        yield _delayed_op(
            [(str(rng.choice(erasure.BASIS_CHOICES)), str(rng.choice(erasure.BORN_RULES))) for _ in DELAYED_SIZES]
        )


WORKLOADS: dict[str, Callable[[int, Path], Iterator[Op]]] = {
    "verify-small": verify_small,
    "delayed-large": delayed_large,
}

# The first op that set-up (`probe.py`) times: one fixed op per workload, the
# same for every seed, so that `setup_s` always times the same work.
SETUP_OPS: dict[str, Callable[[Path], Op]] = {
    "verify-small": lambda scratch: _verify_op(scratch, "pm", "intensity", 16, 64, 4),
    "delayed-large": lambda scratch: _delayed_op([("pm", "intensity")] * len(DELAYED_SIZES)),
}

# Percentile reported as op_tail_ms: the highest one that keeps at least ten
# samples beyond it at the benchmark's run length, and that sits inside one
# cluster of the latency distribution rather than between two.  verify-small
# runs ~8000 ops (p99: ~80 beyond, among the 32-bin x Q256 verifies; p90 falls
# between config size classes); delayed-large runs ~65 ops (p75: ~16 beyond).
TAIL_PERCENTILE = {"verify-small": 99.0, "delayed-large": 75.0}
