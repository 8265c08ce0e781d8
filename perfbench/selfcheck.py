"""Self-check of the benchmark: oracles accept right answers, reject wrong ones.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It runs one tiny instance of each workload
case through the CLI and requires the oracle to accept it, feeds the oracles
answers known to be wrong and requires them to be rejected, runs the harness
itself for a moment on every workload in both modes, and checks that the
harness refuses to run where the program is missing.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, run.SRC)
os.environ["NUMRANGE_THREADS"] = run.BLAS_THREADS

import numpy as np  # noqa: E402
from nrsteer import cli  # noqa: E402

import workloads as wl  # noqa: E402

WORK = os.path.join(run.WORK, "selfcheck")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def run_cli(inst: wl.Instance, name: str) -> tuple[str, str]:
    """Run one instance through the CLI; returns (out dir, stdout)."""
    out_dir = os.path.join(WORK, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    path = os.path.join(out_dir, "input.json")
    wl.write_matrix(path, inst.matrix)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inst.argv(path, out_dir))
    assert code == 0, f"{inst.label}: exit {code}"
    return out_dir, buf.getvalue()


def tiny_instances() -> list[wl.Instance]:
    rng = np.random.default_rng(7)
    return [
        wl.steer_instance("plan-d3", wl.plan_matrix(rng, 3, wl.PLAN_TOUCH)),
        wl.steer_instance("plan-d4", wl.plan_matrix(rng, 4, wl.PLAN_TOUCH)),
        *[i for i in wl.track_instances(rng) if i.matrix.shape[0] == 4],
        *[i for i in wl.range_instances(rng) if i.matrix.shape[0] <= 16],
    ]


def check_oracles_accept_program_output() -> None:
    for inst in tiny_instances():
        out_dir, stdout = run_cli(inst, inst.label)
        reason = inst.check(out_dir, stdout)
        assert reason is None, f"{inst.label}: oracle rejected a right answer: {reason}"


def edit_plan(out_dir: str, **changes) -> None:
    path = os.path.join(out_dir, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["plan"].update(changes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def check_rejects_shifted_t_star() -> None:
    inst = wl.steer_instance("plan-d4", wl.plan_matrix(np.random.default_rng(3), 4, wl.PLAN_TOUCH))
    out_dir, stdout = run_cli(inst, "shifted")
    assert inst.check(out_dir, stdout) is None
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        plan = json.load(fh)["plan"]
    t = plan["t_star"] + 0.1
    cost = 2 * float(np.abs(np.sin(np.asarray(plan["p"]) * t / 2)).max())
    edit_plan(out_dir, t_star=t, perturbation_norm=cost)
    reason = inst.check(out_dir, stdout)
    assert reason is not None and "already reached" in reason, f"t* + 0.1 accepted: {reason}"


def check_rejects_missed_d2_touch() -> None:
    """not_reached on a 2x2 unitary whose trace vanishes at a known time."""
    u = wl.haar(np.random.default_rng(0), 2)
    p = np.array([1.0, 0.0])
    touch = wl.d2_touch_time(u, p, "ccw")
    assert abs(np.trace(wl.steered(u, p, 1.0, touch))) < 1e-12
    found = wl.first_touch(u, p, 1.0, wl.STEER_HORIZON)
    assert found is not None and abs(found - touch) < 1e-6, (found, touch)

    inst = wl.steer_instance("probe-d2", u)
    out_dir = os.path.join(WORK, "d2")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"plan": {"p": p.tolist(), "direction": "ccw", "t_star": None,
                            "perturbation_norm": None, "verdict": "not_reached_within_horizon"}}, fh)
    reason = inst.check(out_dir, "")
    assert reason is not None and f"{touch:.6f}" in reason, f"missed touch accepted: {reason}"


def check_rejects_wrong_track_and_range() -> None:
    rng = np.random.default_rng(5)
    track = wl.track_instances(rng)[0]
    out_dir, stdout = run_cli(track, "track")
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    last = lines[-1].split(",")
    last[2] = repr(float(last[2]) + 1e-3)
    lines[-1] = ",".join(last)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert track.check(out_dir, stdout) is not None, "moved final eigenvalue accepted"

    inside = next(i for i in wl.range_instances(rng) if i.label == "range-d16-inside")
    out_dir, stdout = run_cli(inside, "range")
    assert inside.check(out_dir, stdout.replace("verdict: inside", "verdict: outside")) is not None


def check_harness_runs() -> None:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in run.POOL_ROUNDS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                 "--seconds", "0.1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names, f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(names)}"


def check_refuses_without_program() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    checks = [
        check_oracles_accept_program_output,
        check_rejects_shifted_t_star,
        check_rejects_missed_d2_touch,
        check_rejects_wrong_track_and_range,
        check_refuses_without_program,
        check_harness_runs,
    ]
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
