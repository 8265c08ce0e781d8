"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.  Seeds are fixed; each criterion either passes at the stated
tolerance or the suite is red.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nrsteer import demo
from nrsteer.linalg import schatten_inf, unitary_eig
from nrsteer.numrange import INSIDE, contains_zero_general, contains_zero_unitary
from nrsteer.perturb import PerturbationGenerator, perturbed_unitary, track_trajectory
from nrsteer.steering import perturbation_cost, plan, speed_profile
from nrsteer.testkit import assignment_paths, haar_unitary
from nrsteer.verify import (
    MONOTONE_TOL,
    run_first_order_simple,
    run_first_order_split,
    run_stationarity_and_multiplicity,
)

TRIAL_SEED = 20260810
FIXTURE_SEED = 20260811
SIMPLE_SEED = 20260812
SPLIT_SEED = 20260813
ORACLE_SEED = 20260814
ROUNDTRIP_SEED = 20260815


def report(name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def tracked_trials():
    """100 Haar instances (d in 2..6, random weights, ccw) tracked over [0, 2].

    Each trial is (U, generator, record).
    """
    rng = np.random.default_rng(TRIAL_SEED)
    trials = []
    for i in range(100):
        d = 2 + i % 5
        u = haar_unitary(d, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(d)), direction="ccw")
        trials.append((u, gen, track_trajectory(u, gen, t_end=2.0)))
    return trials


def test_criterion_1_reference_speed_profile():
    started = time.perf_counter()
    system = unitary_eig(demo.DEMO_MATRIX, unitarity_tol=demo.DEMO_UNITARITY_TOL)
    profile = speed_profile(system)
    elapsed = time.perf_counter() - started

    remaining = list(range(3))
    worst = 0.0
    for row in demo.REFERENCE_SPEED_PROFILE:
        errs = [np.abs(profile[i] - row).max() for i in remaining]
        best = int(np.argmin(errs))
        worst = max(worst, errs[best])
        remaining.pop(best)
    named = max(
        np.abs(profile - demo.REFERENCE_FAST_ENTRY).min(),
        np.abs(profile - demo.REFERENCE_SLOW_ENTRY).min(),
    )
    ok = worst <= 1e-4 and named <= 1e-4 and elapsed < 1.0
    report(
        "criterion 1 (reference speed profile)",
        ok,
        f"row error {worst:.2e} <= 1e-4, named entries {named:.2e}, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_reference_steering():
    started = time.perf_counter()
    result = plan(demo.DEMO_MATRIX, t_horizon=2 * np.pi, tol_t=1e-3)
    gen = PerturbationGenerator(p=result.p, direction=result.direction)
    verdict = contains_zero_general(perturbed_unitary(demo.DEMO_MATRIX, gen, 1.5))
    elapsed = time.perf_counter() - started

    ok = (
        np.array_equal(result.p, [0.0, 1.0, 0.0])
        and result.direction == "cw"
        and result.t_star is not None
        and 1.40 <= result.t_star <= 1.50
        and verdict == INSIDE
        and elapsed < 5.0
    )
    report(
        "criterion 2 (reference steering)",
        ok,
        f"p={result.p.tolist()}, {result.direction}, t*={result.t_star:.4f} in [1.40, 1.50], "
        f"origin {verdict} at t=1.5, {elapsed:.2f}s < 5s",
    )


def test_criterion_3_velocity_budget(tracked_trials):
    worst = max(
        float(np.abs(np.abs(rec.velocities).sum(axis=0) - 1.0).max())
        for _, _, rec in tracked_trials
    )
    report(
        "criterion 3 (velocity budget)",
        worst <= 1e-8,
        f"max |sum of speeds - 1| = {worst:.2e} <= 1e-8 over 100 trials",
    )


def test_criterion_4_monotone_rotation(tracked_trials):
    # the tracker's own unwrapped arguments, and an oracle that shares neither
    # its eigensolver nor its rank match (a crossing inside a step could hide
    # a backward move behind rank labels)
    worst = oracle_worst = path_gap = 0.0
    for u, gen, rec in tracked_trials:
        drift = np.diff(rec.unwrapped_args, axis=1)
        if drift.size:
            worst = max(worst, float(-drift.min()))
        oracle = assignment_paths(u, gen, rec.t_grid)
        oracle_worst = max(oracle_worst, float(-np.angle(oracle[:, 1:] / oracle[:, :-1]).min()))
        path_gap = max(path_gap, float(np.abs(oracle - rec.paths).max()))
    report(
        "criterion 4 (monotone rotation)",
        worst <= 1e-9 and oracle_worst <= MONOTONE_TOL and path_gap <= 1e-9,
        f"largest backward step {worst:.2e} <= 1e-9 over 100 ccw trials; oracle's "
        f"{oracle_worst:.2e} <= {MONOTONE_TOL:g}, oracle paths within {path_gap:.2e} <= 1e-9",
    )


def test_criterion_5_stationary_witnesses():
    stationary, multiplicity = run_stationarity_and_multiplicity(
        FIXTURE_SEED, n_fixtures=50, dims=(2, 3, 4, 5, 6)
    )
    ok = stationary.passed and multiplicity.passed
    report(
        "criterion 5 (stationary witnesses and residual multiplicity)",
        ok,
        f"witness residual {stationary.max_residual:.2e} <= 1e-9, "
        f"multiplicity failures {multiplicity.failures}/50",
    )


def test_criterion_6_quadratic_remainder():
    simple = run_first_order_simple(SIMPLE_SEED, n_instances=50)
    split = run_first_order_split(SPLIT_SEED, n_instances=20)
    ok = simple.passed and split.passed
    report(
        "criterion 6 (first-order quadratic remainder)",
        ok,
        f"simple max |ratio-4| = {simple.max_residual:.2f}, "
        f"split max |ratio-4| = {split.max_residual:.2f}, window [3.5, 4.5]",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(ORACLE_SEED)
    checked = excluded = 0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        u = haar_unitary(d, rng)
        gap = contains_zero_unitary(unitary_eig(u))
        sweep = contains_zero_general(u, 2048)
        if gap == "on_boundary" or sweep == "boundary_within_tol":
            excluded += 1
            continue
        assert gap == sweep, f"disagreement: gap={gap} sweep={sweep}"
        checked += 1
    report(
        "criterion 7 (gap test vs support sweep)",
        True,
        f"{checked} agreements, {excluded} boundary verdicts excluded, 200 Haar draws",
    )


def test_criterion_8_linalg_round_trips():
    from nrsteer.linalg import geodesic_point, principal_log_unitary, unitary_exp_herm

    rng = np.random.default_rng(ROUNDTRIP_SEED)
    worst_log = worst_geo = worst_norm = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        worst_log = max(
            worst_log, schatten_inf(unitary_exp_herm(principal_log_unitary(u)) - u)
        )
        worst_geo = max(
            worst_geo,
            schatten_inf(geodesic_point(u, v, 0.0) - u),
            schatten_inf(geodesic_point(u, v, 1.0) - v),
        )
        p = rng.dirichlet(np.ones(d))
        t = float(rng.uniform(0.0, 10.0))
        gen = PerturbationGenerator(p=p)
        measured = schatten_inf(u - perturbed_unitary(u, gen, t))
        worst_norm = max(worst_norm, abs(measured - perturbation_cost(p, t)))
    ok = worst_log <= 1e-9 and worst_geo <= 1e-9 and worst_norm <= 1e-10
    report(
        "criterion 8 (linalg round trips)",
        ok,
        f"exp(log) {worst_log:.2e} <= 1e-9, geodesic endpoints {worst_geo:.2e} <= 1e-9, "
        f"norm closed form {worst_norm:.2e} <= 1e-10",
    )


def test_criterion_9_example_determinism(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "nrsteer.cli", "example", "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(
            {
                name: (out_dir / name).read_bytes()
                for name in sorted(os.listdir(out_dir))
            }
        )
    identical = outputs[0] == outputs[1]
    t_star = json.loads(outputs[0]["report.json"])["plan"]["t_star"]
    report(
        "criterion 9 (example determinism)",
        identical,
        f"two runs byte-identical across {len(outputs[0])} files, t*={t_star:.4f}",
    )
