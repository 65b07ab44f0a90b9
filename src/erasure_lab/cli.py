"""Command-line front end: config parsing, pipeline dispatch, reports.

Usage: erasure-lab <command> [--config PATH] [--out DIR] [--tolerance FLOAT]

Commands: schmidt, search-bases, erasure simple|delayed|whichway, verify,
cut-demo.  Exit codes: 0 success, 1 verification failure, 2 config error,
3 I/O error, 4 internal or resource error.  Output is deterministic: the
same config always produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coherence, erasure, measurement, schmidt, states

_CLI_KEYS = ("command", "output_path", "tolerance")
_ERASURE_KEYS = tuple(f.name for f in dataclasses.fields(erasure.ErasureConfig))

DEFAULT_OUTPUT_PATH = "out"

_SEARCH_GRID_STEPS = 16
_CUT_DEMO_SEED = 7
_CUT_DEMO_RUNS = 20


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    erasure: erasure.ErasureConfig
    output_path: str = DEFAULT_OUTPUT_PATH
    tolerance: float = erasure.DEFAULT_EQUALITY_TOL

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        path = self.output_path
        try:
            usable = isinstance(path, str) and path and b"\0" not in os.fsencode(path)
        except UnicodeEncodeError:
            usable = False
        if not usable:
            raise ConfigError("output_path must be a non-empty string without NUL or unencodable characters")
        try:
            tolerance = erasure.positive_number("tolerance", self.tolerance, float)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "tolerance", tolerance)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self.erasure)
        data.update(command=self.command, output_path=self.output_path, tolerance=self.tolerance)
        return data


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Validate a JSON config document and fill defaults.

    `command` overrides any command stored in the document.  Unknown keys and
    out-of-range values are rejected by name.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")

    known = set(_CLI_KEYS) | set(_ERASURE_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    erasure_kwargs = {k: raw[k] for k in _ERASURE_KEYS if k in raw}
    try:
        erasure_config = erasure.ErasureConfig(**erasure_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    resolved_command = command if command is not None else raw.get("command")
    if resolved_command is None:
        raise ConfigError("no command given (config key 'command' or CLI argument)")
    return ExperimentConfig(
        command=str(resolved_command),
        erasure=erasure_config,
        output_path=raw.get("output_path", DEFAULT_OUTPUT_PATH),
        tolerance=raw.get("tolerance", erasure.DEFAULT_EQUALITY_TOL),
    )


def config_hash(config: ExperimentConfig) -> str:
    """Provenance hash of the experiment-defining keys.

    The output location is not part of the experiment's identity, so reports
    are byte-identical wherever they are written.
    """
    payload = config.to_dict()
    payload.pop("output_path")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class RunReport:
    """Outcome of one command.  `files` are names relative to the output dir,
    keeping report bytes independent of where results are written."""

    command: str
    config_hash: str
    passed: bool
    max_deviation: float | None
    summary: tuple[str, ...]
    files: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _report_name(command: str) -> str:
    return command.replace(" ", "_") + "_report.json"


def _write(out_dir: Path, name: str, content: str) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content)
    return name


def _run_schmidt(config: ExperimentConfig, out_dir: Path):
    pair = measurement.balanced_pair()
    dec = schmidt.schmidt_decompose(pair, (0,))
    epr = schmidt.is_epr_type(dec)
    lines = [
        "coefficients: " + ", ".join(repr(float(c)) for c in dec.coefficients),
        f"rank: {dec.rank}",
        f"epr_type: {str(epr).lower()}",
    ]
    return True, None, lines, []


def _run_search_bases(config: ExperimentConfig, out_dir: Path):
    results = coherence.search_symmetric_bases(_SEARCH_GRID_STEPS)
    csv_path = _write(out_dir, "symmetric_bases.csv", coherence.search_results_csv(results))
    lines = [f"grid_steps: {_SEARCH_GRID_STEPS}", f"bases found: {len(results)}"]
    for params, cls in results:
        lines.append(f"  lambda={params.lam:.6g} delta={params.delta:.6g} -> {cls.value}")
    return True, None, lines, [csv_path]


def _run_erasure(config: ExperimentConfig, out_dir: Path, pipeline: str):
    cfg = config.erasure
    if pipeline == "whichway":
        cfg = dataclasses.replace(cfg, basis="whichway")
    run = erasure.run_delayed_choice if pipeline == "delayed" else erasure.run_simple_erasure
    table = run(cfg)
    csv_path = _write(out_dir, f"erasure_{pipeline}.csv", table.to_csv())
    lines = [
        f"pipeline: {pipeline}",
        f"basis: {cfg.basis}",
        f"born_rule: {cfg.born_rule}",
        f"total probability: {float(table.values.sum()):.17g}",
    ]
    return True, None, lines, [csv_path]


def _run_verify(config: ExperimentConfig, out_dir: Path):
    simple = erasure.run_simple_erasure(config.erasure)
    delayed = erasure.run_delayed_choice(config.erasure)
    report = erasure.verify_equality(simple, delayed, tolerance=config.tolerance)
    files = [
        _write(out_dir, "verify_simple.csv", simple.to_csv()),
        _write(out_dir, "verify_delayed.csv", delayed.to_csv()),
    ]
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"max deviation {'<' if report.passed else '>='} {report.tolerance:g}: {verdict}",
        f"max |p_delayed - p_simple| = {report.max_deviation:.17g} "
        f"at d={report.worst_label} n={report.worst_bin}",
    ]
    return report.passed, report.max_deviation, lines, files


def _cut_demo_scenario(rng: np.random.Generator) -> float:
    """One detector-cut comparison with random commuting local evolutions.

    A balanced pair is marked in its coherence basis by a three-state readout
    register; independent unitaries then evolve (register, marker), the
    screen particle, and an idle second detector.  The non-selective branch
    mixture from measuring the triggered register is compared with the
    partial trace of the composite state.
    """
    pair = measurement.balanced_pair()
    register0 = states.basis_state((3,), (0,))
    idle0 = states.basis_state((3,), (0,))

    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    shift = np.roll(np.eye(3), 1, axis=0)  # cyclic register shift by one
    # Readout on (register, marker): shift the register once for outcome +,
    # twice for outcome -, leaving register state 0 to mean "untriggered".
    readout = states.UnitaryOperator(
        np.kron(shift, np.outer(plus, plus.conj())) + np.kron(shift @ shift, np.outer(minus, minus.conj()))
    )

    # Subsystem order: (register, marker, screen, idle detector).
    state = states.tensor(states.tensor(register0, pair), idle0)
    state = states.apply_unitary(state, readout, (0, 1))

    u_joint = states.haar_random_unitary(6, rng)
    u_screen = states.haar_random_unitary(2, rng)
    u_idle = states.haar_random_unitary(3, rng)
    state = states.apply_unitary(state, u_joint, (0, 1))
    state = states.apply_unitary(state, u_screen, (2,))
    state = states.apply_unitary(state, u_idle, (3,))

    # Measurement basis on (register, marker): evolved images of the
    # triggered readout kets, completed to a full orthonormal set.
    eye3 = np.eye(3)
    kets = np.array(
        [
            np.kron(eye3[1], plus),
            np.kron(eye3[2], minus),
            np.kron(eye3[0], plus),
            np.kron(eye3[0], minus),
            np.kron(eye3[1], minus),
            np.kron(eye3[2], plus),
        ],
        dtype=np.complex128,
    )
    evolved = (u_joint.matrix @ kets.T).T

    outcomes = measurement.distant_measure(state, (0, 1), list(evolved))
    result = measurement.cut_compare(state, (0, 1), outcomes, compare=(2,))
    if not result.branches_complete:
        raise RuntimeError("cut-demo branches unexpectedly incomplete")
    return result.distance


def _run_cut_demo(config: ExperimentConfig, out_dir: Path):
    rng = np.random.default_rng(_CUT_DEMO_SEED)
    distances = [_cut_demo_scenario(rng) for _ in range(_CUT_DEMO_RUNS)]
    worst = max(distances)
    passed = worst <= config.tolerance
    lines = [
        f"runs: {_CUT_DEMO_RUNS}",
        f"max trace-norm distance (improper vs proper mixture): {worst:.17g}",
        f"tolerance {config.tolerance:g}: {'PASS' if passed else 'FAIL'}",
    ]
    return passed, worst, lines, []


_RUNNERS = {
    "schmidt": _run_schmidt,
    "search-bases": _run_search_bases,
    "erasure simple": lambda c, d: _run_erasure(c, d, "simple"),
    "erasure delayed": lambda c, d: _run_erasure(c, d, "delayed"),
    "erasure whichway": lambda c, d: _run_erasure(c, d, "whichway"),
    "verify": _run_verify,
    "cut-demo": _run_cut_demo,
}
COMMANDS = tuple(_RUNNERS)


def execute(config: ExperimentConfig) -> RunReport:
    """Run the configured command and write its outputs under output_path."""
    out_dir = Path(config.output_path)
    passed, deviation, lines, files = _RUNNERS[config.command](config, out_dir)
    report = RunReport(
        command=config.command,
        config_hash=config_hash(config),
        passed=bool(passed),
        max_deviation=None if deviation is None else float(deviation),
        summary=tuple(lines),
        files=tuple(files),
    )
    _write(out_dir, _report_name(config.command), report.to_json())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="erasure-lab",
        description="Quantum-erasure simulation pipelines and verification reports.",
    )
    parser.add_argument("command", nargs="*", help="one of: " + ", ".join(COMMANDS))
    parser.add_argument("--config", default=None, help="path to a JSON config document")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--tolerance", type=float, default=None, help="verification tolerance")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else "{}"
    except OSError as exc:
        print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"config error: config is not valid UTF-8: {exc}", file=sys.stderr)
        return 2

    try:
        command = " ".join(args.command) if args.command else None
        config = parse_config(text, command=command)
        if args.out is not None:
            config = dataclasses.replace(config, output_path=args.out)
        if args.tolerance is not None:
            config = dataclasses.replace(config, tolerance=args.tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = execute(config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal or resource error, e.g. MemoryError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    print(f"command: {report.command}")
    print(f"config hash: {report.config_hash}")
    for line in report.summary:
        print(line)
    for name in report.files + (_report_name(config.command),):
        print(f"wrote {Path(config.output_path) / name}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
