"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import json
import math
import time

import numpy as np
import pytest

from erasure_lab import (
    CoherenceBasisParams,
    SymmetryClass,
    coherence_pair,
    mark_which_way,
    partial_trace,
    reschmidt,
    run_simple_erasure,
    schmidt_decompose,
    search_symmetric_bases,
)
from erasure_lab.cli import _cut_demo_scenario, main, parse_config, execute
from erasure_lab.erasure import ErasureConfig
from helpers import fringe_visibility, random_state, reduced_density_oracle

SQRT_HALF = math.sqrt(0.5)


def _report(number: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")
    return ok


def test_criterion_1_delayed_choice_equality(tmp_path):
    variants = [
        {},
        {"basis": "pmi"},
        {"born_rule": "amplitude"},
        {"basis": "pmi", "born_rule": "amplitude"},
    ]
    started = time.perf_counter()
    worst = 0.0
    all_passed = True
    for i, overrides in enumerate(variants):
        payload = {"command": "verify", "output_path": str(tmp_path / f"v{i}"), **overrides}
        report = execute(parse_config(json.dumps(payload)))
        worst = max(worst, report.max_deviation)
        all_passed = all_passed and report.passed and report.max_deviation < 1e-9
    elapsed = time.perf_counter() - started
    ok = all_passed and elapsed < 5.0
    assert _report(
        1,
        "delayed-choice equality",
        ok,
        f"max |p_del - p_simple| = {worst:.3e} over {len(variants)} configs in {elapsed:.2f}s",
    )


def test_criterion_2_schmidt_fidelity():
    rng = np.random.default_rng(2024)
    dims_cycle = [(2, 2), (2, 3), (3, 3)]
    worst_recon, worst_eig = 0.0, 0.0
    for i in range(500):
        state = random_state(rng, dims_cycle[i % 3])
        dec = schmidt_decompose(state, (0,))
        recon = float(np.linalg.norm(dec.matrix().reshape(-1) - state.amplitudes))
        eigs = np.sort(np.linalg.eigvalsh(reduced_density_oracle(state, 0)))[::-1]
        gap = float(np.max(np.abs(dec.weights() - eigs[: dec.rank])))
        worst_recon = max(worst_recon, recon)
        worst_eig = max(worst_eig, gap)
    ok = worst_recon < 1e-9 and worst_eig < 1e-10
    assert _report(
        2,
        "Schmidt fidelity",
        ok,
        f"500 states: reconstruction <= {worst_recon:.3e}, spectrum gap <= {worst_eig:.3e}",
    )


def test_criterion_3_epr_redecomposition():
    rng = np.random.default_rng(3)
    pair = mark_which_way(SQRT_HALF, SQRT_HALF)
    source = schmidt_decompose(pair, (0,))
    worst_partner, worst_recon = 0.0, 0.0
    for _ in range(50):
        p = rng.uniform(0.1, 0.9)
        params = CoherenceBasisParams(
            p=p,
            lam=rng.uniform(0, 2 * math.pi),
            delta=rng.uniform(0, 2 * math.pi),
            gamma=rng.uniform(0, 2 * math.pi),
        )
        a, b = coherence_pair(params)
        dec = reschmidt(pair, (0,), [a, b])
        worst_partner = max(
            worst_partner,
            float(np.linalg.norm(dec.basis_right[0] - source.partner(a))),
            float(np.linalg.norm(dec.basis_right[1] - source.partner(b))),
        )
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm(dec.matrix().reshape(-1) - pair.amplitudes)),
        )
    ok = worst_partner < 1e-10 and worst_recon < 1e-9
    assert _report(
        3,
        "EPR re-decomposition",
        ok,
        f"50 bases: partner gap <= {worst_partner:.3e}, reconstruction <= {worst_recon:.3e}",
    )


def test_criterion_4_symmetric_basis_search():
    results = search_symmetric_bases(16)
    termwise = {
        (round(p.lam, 10), round(p.delta, 10))
        for p, c in results
        if c is SymmetryClass.TERMWISE_SYMMETRIC
    }
    swapping = {
        (round(p.lam, 10), round(p.delta, 10))
        for p, c in results
        if c is SymmetryClass.TERM_SWAPPING
    }
    allowed_termwise = {
        (round(l, 10), round(d, 10)) for l in (0.0, math.pi) for d in (0.0, math.pi)
    }
    expected_swapping = {
        (0.0, round(math.pi / 2, 10)),
        (0.0, round(3 * math.pi / 2, 10)),
    }
    ok = (
        bool(termwise)
        and termwise <= allowed_termwise
        and swapping == expected_swapping
    )
    assert _report(
        4,
        "symmetric-basis search",
        ok,
        f"termwise hits {sorted(termwise)}, swapping hits {sorted(swapping)}",
    )


def test_criterion_5_coherence_elevation():
    rng = np.random.default_rng(5)
    worst_offdiag = 0.0
    ranks = set()
    for _ in range(100):
        weight = rng.uniform(0.05, 0.95)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        alpha = phases[0] * math.sqrt(weight)
        beta = phases[1] * math.sqrt(1.0 - weight)
        state = mark_which_way(alpha, beta)
        rho = partial_trace(state, keep=(1,))
        worst_offdiag = max(worst_offdiag, abs(rho[0, 1]), abs(rho[1, 0]))
        ranks.add(schmidt_decompose(state, (0,)).rank)
    ok = worst_offdiag < 1e-12 and ranks == {2}
    assert _report(
        5,
        "coherence elevation",
        ok,
        f"100 draws: off-diagonal <= {worst_offdiag:.3e}, ranks {sorted(ranks)}",
    )


def test_criterion_6_cut_equivalence():
    rng = np.random.default_rng(6)
    worst = max(_cut_demo_scenario(rng) for _ in range(20))
    ok = worst < 1e-10
    assert _report(
        6,
        "cut equivalence",
        ok,
        f"20 random local evolutions: max trace-norm distance {worst:.3e}",
    )


def test_criterion_7_fringe_contrast():
    coherence_table = run_simple_erasure(ErasureConfig())
    whichway_table = run_simple_erasure(ErasureConfig(basis="whichway"))
    vis_plus = fringe_visibility(coherence_table.values[coherence_table.labels.index("+")])
    coherence_marginal = coherence_table.values.sum(axis=0)
    whichway_marginal = whichway_table.values.sum(axis=0)
    vis_ww = fringe_visibility(whichway_marginal)
    marginal_gap = float(np.max(np.abs(coherence_marginal - whichway_marginal)))
    ok = vis_plus > 0.9 and vis_ww < 0.05 and marginal_gap < 1e-9
    assert _report(
        7,
        "fringe contrast",
        ok,
        f"visibility(+) = {vis_plus:.4f}, which-way visibility = {vis_ww:.2e}, "
        f"marginal gap = {marginal_gap:.3e}",
    )


def test_criterion_8_determinism(tmp_path):
    for name in ("run1", "run2"):
        code = main(["verify", "--out", str(tmp_path / name)])
        assert code == 0
    identical = True
    for fname in ("verify_simple.csv", "verify_delayed.csv"):
        a = (tmp_path / "run1" / fname).read_bytes()
        b = (tmp_path / "run2" / fname).read_bytes()
        identical = identical and a == b
    assert _report(
        8,
        "determinism",
        identical,
        "verify CSVs byte-identical across repeated runs" if identical else "outputs differ",
    )
