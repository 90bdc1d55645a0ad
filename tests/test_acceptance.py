"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints exactly one `ACCEPTANCE <n> <name>: PASS|FAIL` line before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from lacunary import (
    BlockEngine,
    ConstantFamily,
    ExponentSequence,
    Explicit,
    Geometric,
    Power,
    PowerOverP,
    PrefixNorms,
    RhoSequence,
    Sequence,
    SpaceParams,
    build_lacunary,
    complementary,
    delta2_check,
    random_bounded_sequence,
    run_inclusion_matrix,
    thm31_block_bounds,
)
from lacunary.cli import cmd_classify, cmd_counterexample, load_preset
from lacunary.convergence import STRONG
from reference import block_average, window_mean


def report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def sup_rows(bundle, name):
    """The rows m = "sup" of a trajectory CSV, {r: value}, from the bundle's trajectories."""
    return dict(enumerate(bundle.trajectories[name].sup.tolist(), start=1))


def test_criterion_1_thm37_reproduction():
    t0 = time.monotonic()
    bundle = cmd_counterexample(load_preset("thm37-default"))
    elapsed = time.monotonic() - t0

    shat_tail = bundle.results["verdicts"]["shat_density"]["tail_mean"]
    tail_ok = abs(shat_tail - 0.5) <= 0.05

    strong_sup = sup_rows(bundle, "trajectory")
    bound_ok = all(strong_sup[r] <= 2.0 ** (-r + 1) for r in range(4, 15))
    time_ok = elapsed <= 10.0

    ok = report(
        1,
        "thm37 reproduction",
        tail_ok and bound_ok and time_ok,
        f"shat tail {shat_tail:.4f} vs 0.5 +/- 0.05; "
        f"strong within 2**(-r+1) for r>=4: {bound_ok}; {elapsed:.2f}s <= 10s",
    )
    assert ok


def test_criterion_2_thm38_reproduction():
    t0 = time.monotonic()
    bundle = cmd_counterexample(load_preset("thm38-default"))
    elapsed = time.monotonic() - t0

    h = np.array([4] + [2**r for r in range(2, 11)], dtype=float)  # base 2, ratio 2
    shat = sup_rows(bundle, "trajectory_shat")
    exact_ok = all(abs(shat[r] - 1.0 / h[r - 1]) <= 1e-12 for r in range(1, 11))
    small_ok = all(shat[r] <= 0.01 for r in range(7, 11))

    strong = sup_rows(bundle, "trajectory")
    strong_ok = min(strong.values()) >= 1.0 - 1e-9
    time_ok = elapsed <= 10.0

    ok = report(
        2,
        "thm38 reproduction",
        exact_ok and small_ok and strong_ok and time_ok,
        f"density == 1/h_r: {exact_ok}; tail <= 0.01 for r>=7: {small_ok}; "
        f"min strong {min(strong.values()):.12f} >= 1-1e-9; {elapsed:.2f}s <= 10s",
    )
    assert ok


def test_criterion_3_norm_oracles():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    sandwich_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 65))
        x = Sequence(rng.uniform(-2.0, 2.0, n))
        if not np.any(x.values):
            x = Sequence(np.ones(1))
        for p in (1.0, 1.5, 2.0, 3.0):
            fam = ConstantFamily(Power(p))
            closed_form = float(np.sum(np.abs(x.values) ** p) ** (1.0 / p))
            norms = PrefixNorms(fam, x)
            lux = norms.luxemburg(tol=1e-11)
            worst_gap = max(worst_gap, abs(lux - closed_form))
            orl = norms.amemiya(tol=1e-9).value
            if not (lux - 1e-6 <= orl <= 2.0 * lux + 1e-6):
                sandwich_ok = False
    ok = report(
        3,
        "norm oracles",
        worst_gap <= 1e-9 and sandwich_ok,
        f"max |luxemburg - ell_p| = {worst_gap:.2e} <= 1e-9; sandwich: {sandwich_ok}",
    )
    assert ok


def _dense_grid_conjugate(M, v, u_max=1e3):
    """Independent oracle: dense grid then iterated local shrink."""
    us = np.linspace(0.0, u_max, 20001)
    g = abs(v) * us - M.eval_many(us)
    i = int(np.argmax(g))
    lo, hi = us[max(i - 1, 0)], us[min(i + 1, 20000)]
    for _ in range(200):
        mids = np.linspace(lo, hi, 9)
        vals = abs(v) * mids - M.eval_many(mids)
        j = int(np.argmax(vals))
        lo, hi = mids[max(j - 1, 0)], mids[min(j + 1, 8)]
        if hi - lo < 1e-12:
            break
    mid = 0.5 * (lo + hi)
    return max(float(np.max(g)), abs(v) * mid - M(mid), 0.0)


def test_criterion_4_young_conjugate():
    worst = 0.0
    oracle_worst = 0.0
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        M = PowerOverP(p)
        fam = ConstantFamily(M)
        for v in np.linspace(0.0, 10.0, 21):
            target = v**q / q
            got = complementary(fam, 1, float(v)).value
            worst = max(worst, abs(got - target))
            oracle_worst = max(oracle_worst, abs(_dense_grid_conjugate(M, float(v)) - target))
    ok = report(
        4,
        "young conjugate",
        worst <= 1e-6 and oracle_worst <= 1e-6,
        f"max |N(v) - v**q/q| = {worst:.2e} <= 1e-6 (oracle gap {oracle_worst:.2e})",
    )
    assert ok


def test_criterion_5_delta2_constants():
    gaps = {}
    for p in (1.0, 2.0, 3.0):
        rep = delta2_check(ConstantFamily(Power(p)))
        gaps[p] = abs(rep.K_estimate - 2.0**p)
    ok = report(
        5,
        "delta2 doubling constants",
        all(g <= 1e-6 for g in gaps.values()),
        "; ".join(f"p={p:g}: |K - 2**p| = {g:.2e}" for p, g in gaps.items()),
    )
    assert ok


def test_criterion_6_thm31_inequality_suite():
    rng = np.random.default_rng(31)
    schedules = [
        build_lacunary(Geometric(1, 2, 7)),
        build_lacunary(Geometric(2, 3, 4)),
        build_lacunary(Explicit((0, 5, 12, 25, 50, 100, 200))),
    ]
    fam = ConstantFamily(Power(2.0))
    exps = ExponentSequence(constant=None, per_index=(0.5, 1.5, 1.0))
    violations = 0
    checked = 0
    corpus = []
    for i in range(200):
        sched = schedules[i % 3]
        x = Sequence(
            random_bounded_sequence(
                rng, sched.last_index + 2, 0.0, 2.0, exception_density=0.05
            ).values
        )
        for alpha in (0.3, 0.7, 1.0):
            p = SpaceParams(
                family=fam,
                schedule=sched,
                alpha=alpha,
                epsilon=0.5,
                L=0.0,
                m_max=2,
                rho=RhoSequence(constant=1.3),
                exponents=exps,
            )
            if alpha == 0.3 and len(corpus) < 50 and sched is schedules[0]:
                corpus.append((x, p))
            lhs, rhs = thm31_block_bounds(x, p, beta=1.0)  # every window m = 0..m_max
            slack = 1e-12 * np.maximum(1.0, np.abs(rhs))
            violations += int(np.count_nonzero(rhs - lhs > slack))
            checked += lhs.size

    matrix_report = run_inclusion_matrix(corpus, ["T31"], beta=1.0)
    fail_rows = matrix_report.theorem_results["T31"]["fail_rows"]
    ok = report(
        6,
        "thm31 inequality suite",
        violations == 0 and fail_rows == 0,
        f"{checked} block bounds, {violations} violations; inclusion FAIL rows: {fail_rows}",
    )
    assert ok


def test_criterion_7_definitional_collapse():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        sched = build_lacunary(Geometric(1, 2, int(rng.integers(4, 9))))
        alpha = float(rng.uniform(0.2, 1.0))
        L = float(rng.uniform(-1, 1))
        p = SpaceParams(
            family=ConstantFamily(Power(1.0)),
            schedule=sched,
            alpha=alpha,
            L=L,
            m_max=0,
            rho=RhoSequence(constant=1.0),
            exponents=ExponentSequence(constant=1.0),
        )
        x = Sequence(rng.uniform(-3, 3, sched.last_index))
        strong = BlockEngine([(p, (STRONG,))])(x)[0][STRONG].per_m[0]
        expected = block_average(x, sched, L=L) * sched.block_lengths.astype(float) ** (1.0 - alpha)
        gap = np.max(np.abs(strong - expected) / np.maximum(1.0, np.abs(expected)))
        worst = max(worst, float(gap))
    ok = report(
        7,
        "definitional collapse",
        worst <= 1e-12,
        f"max relative gap strong vs block-average form: {worst:.2e} <= 1e-12",
    )
    assert ok


def test_criterion_8_almost_convergence_sanity():
    vals = np.zeros(1200)
    vals[1::2] = 1.0
    worst = 0.0
    for m in (9, 99, 999):
        for n in range(1, 101):
            worst = max(worst, abs(window_mean(vals, m, n) - 0.5) * (m + 1))
    ok = report(
        8,
        "almost-convergence sanity",
        worst <= 1.0,
        f"max (m+1)*|t_mn - 1/2| over n<=100, m in {{9,99,999}}: {worst:.3f} <= 1",
    )
    assert ok


def test_criterion_9_classify_determinism(tmp_path):
    doc = {
        "command": "classify",
        "sequence": {
            "kind": "random_bounded",
            "horizon": 300,
            "center": 0.0,
            "radius": 1.0,
            "seed": 99,
        },
        "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
        "schedule": {"kind": "geometric", "base": 1.0, "ratio": 2.0, "count": 8},
        "space": {"m_max": 8},
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_classify(json.loads(json.dumps(doc))).write(out_a)
    cmd_classify(json.loads(json.dumps(doc))).write(out_b)
    same = (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    same_shat = (
        out_a / "trajectory_shat.csv"
    ).read_bytes() == (out_b / "trajectory_shat.csv").read_bytes()
    ok = report(
        9,
        "classify determinism",
        same and same_shat,
        f"trajectory.csv identical: {same}; trajectory_shat.csv identical: {same_shat}",
    )
    assert ok
