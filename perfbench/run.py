"""nrsteer benchmark: closed-loop CLI operations, one client, one process.

    python3 perfbench/run.py --workload {plan,track,range} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each operation is one in-process ``nrsteer.cli.main([...])`` call on a matrix
file written during set-up.  Operations run in rounds (one instance of each
case of the workload per round, see workloads.py) until the time spent inside
``cli.main`` reaches ``--seconds``; every output is then checked by the
workload's oracle outside the timed region.

Times are CPU seconds of this process (``time.process_time``), and for
set-up also of its child.  The program runs on one thread, so an
operation's CPU time is its latency without the time the host takes the
CPU away: on a shared virtual machine that stolen time can double an
operation's wall time and would swamp any change to the program.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first half of the
time untraced, repeats the same rounds with spans recorded (tracing.py), and
prints the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")

# One BLAS thread through the program's own setting, so that timings do not
# depend on how a shared 2-core machine schedules BLAS threads.
BLAS_THREADS = "1"
SETUPS = 3
# Distinct rounds of instances generated per run; later rounds reuse them.
POOL_ROUNDS = {"plan": 16, "track": 96, "range": 12}
# op_tail_ms: a percentile that leaves at least ten samples beyond it in a
# 30 s run (about 65, 420 and 40 operations) and falls inside one group of
# equally costly cases rather than on the edge between two.  Fixed per
# workload, so two commits compare the same percentile.
TAIL_PERCENTILE = {"plan": 75, "track": 95, "range": 70}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("plan", "track", "range"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, ops_per_round: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "NUMRANGE_THREADS": os.environ.get("NUMRANGE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": ops_per_round,
        "pool_rounds": POOL_ROUNDS[args.workload],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "client": "closed loop, 1 client, in-process cli.main",
    }


class Runner:
    """Set-up and the timed loop of one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, workload)
        self.out_dir = os.path.join(self.dir, "out")
        self.pool: list[list[tuple[object, str]]] = []
        self.main = None
        self.log: list[tuple[str, int, float]] = []  # (label, round, latency) per operation

    def setup(self) -> float:
        """Imports, instances, input files and one warm-up operation; seconds."""
        import numpy as np
        from nrsteer import cli
        from workloads import WORKLOADS, write_matrix

        started = cpu_seconds()
        env = dict(os.environ, PYTHONPATH=SRC, NUMRANGE_THREADS=BLAS_THREADS)
        subprocess.run([sys.executable, "-c", "import nrsteer.cli"], env=env, check=True, timeout=60)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "inputs"))
        os.makedirs(self.out_dir)
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for r in range(POOL_ROUNDS[self.workload]):
            round_ = []
            for inst in WORKLOADS[self.workload](rng):
                path = os.path.join(self.dir, "inputs", f"r{r:03d}-{inst.label}.json")
                write_matrix(path, inst.matrix)
                round_.append((inst, path))
            self.pool.append(round_)
        self.main = cli.main
        _, reason = self.run_op(*self.pool[0][0])
        if reason is not None:
            raise RuntimeError(f"warm-up operation failed: {reason}")
        return cpu_seconds() - started

    def run_op(self, inst, path: str) -> tuple[float, str | None]:
        """CPU latency of one cli.main call and the oracle's verdict on its output."""
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        argv = inst.argv(path, self.out_dir)
        out, err = io.StringIO(), io.StringIO()
        started = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an operation that raises is a failed operation
            code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = time.process_time() - started
        if code != 0:
            return latency, f"exit {code}: {err.getvalue().strip()[:200]}"
        try:
            return latency, inst.check(self.out_dir, out.getvalue())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return latency, f"unreadable output: {exc!r}"

    def measure(self, seconds: float | None = None, rounds: int | None = None, tracer=None):
        """Whole rounds until the timed total reaches ``seconds`` (or ``rounds``)."""
        latencies: list[float] = []
        failures: list[str] = []
        self.log = []
        done = 0
        while (done < rounds) if rounds is not None else (sum(latencies) < seconds):
            for inst, path in self.pool[done % len(self.pool)]:
                if tracer is not None:
                    tracer.op = len(latencies)
                latency, reason = self.run_op(inst, path)
                latencies.append(latency)
                self.log.append((inst.label, done, latency))
                if reason is not None:
                    failures.append(f"{inst.label} (round {done}): {reason}")
            done += 1
        return latencies, failures, done

    def probe_d2(self) -> str:
        """Steer one d = 2 unitary and report the oracle's view (known defect)."""
        import numpy as np
        from workloads import d2_touch_time, haar, steer_instance, write_matrix

        inst = steer_instance("probe-d2", haar(np.random.default_rng(self.seed), 2))
        path = os.path.join(self.dir, "inputs", "probe-d2.json")
        write_matrix(path, inst.matrix)
        _, reason = self.run_op(inst, path)
        report = os.path.join(self.out_dir, "report.json")
        if not os.path.exists(report):
            return f"d=2 probe (not counted as an operation): {reason}"
        with open(report, encoding="utf-8") as fh:
            plan = json.load(fh)["plan"]
        touch = d2_touch_time(inst.matrix, np.asarray(plan["p"]), plan["direction"])
        return (f"d=2 probe (not counted as an operation): verdict {plan['verdict']}, "
                f"closed-form touch at t = {touch:.6f}; oracle "
                + ("accepts" if reason is None else "rejects: " + reason))


def end_to_end(latencies: list[float], cases: int, setup_times: list[float], workload: str) -> dict:
    """The end-to-end metrics; ``latencies`` holds whole rounds of ``cases``.

    op_p50_ms is the median latency of each case, combined across the cases
    by geometric mean: every case counts, and the value does not jump from
    one case to another when their costs straddle the pooled median.
    """
    import numpy as np

    q = TAIL_PERCENTILE[workload]
    case_medians = [statistics.median(latencies[c::cases]) for c in range(cases)]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.geometric_mean(case_medians),
        "op_tail_ms": 1e3 * float(np.percentile(latencies, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nrsteer", "__init__.py")):
        print(f"error: {SRC}/nrsteer not found; run from the root of an nrsteer checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # must precede the first numpy import: nrsteer passes it on to BLAS
    os.environ["NUMRANGE_THREADS"] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import nrsteer  # noqa: F401

    runner = Runner(args.workload, args.seed)
    setup_times = [runner.setup() for _ in range(SETUPS)]
    env = environment(args, len(runner.pool[0]))
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace:
        from tracing import Tracer, layer_metrics

        plain, failures, rounds = runner.measure(seconds=args.seconds / 2)
        tracer = Tracer()
        runner.main = tracer.span("cli.main", runner.main)
        tracer.install()
        try:
            traced, traced_failures, _ = runner.measure(rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(runner.dir, f"spans-seed{args.seed}.tsv"))
        failures += traced_failures
        attempted = len(plain) + len(traced)
        metrics = layer_metrics(tracer, len(traced))
        untraced_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
        metrics["trace.ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")
        print(f"{args.workload}: {rounds} rounds untraced then the same rounds traced, "
              f"{len(tracer.spans)} spans")
    else:
        wall = time.perf_counter()
        latencies, failures, rounds = runner.measure(seconds=args.seconds)
        wall = time.perf_counter() - wall
        attempted = len(latencies)
        values = end_to_end(latencies, len(runner.pool[0]), setup_times, args.workload)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        q = TAIL_PERCENTILE[args.workload]
        print(f"{args.workload}: {attempted} ops in {rounds} rounds, {sum(latencies):.2f} CPU s timed "
              f"in {wall:.2f} s wall; "
              f"op_tail_ms is p{q} of {attempted} samples ({attempted * (100 - q) / 100:.1f} beyond); "
              f"setup_s is the median of {SETUPS}: " + ", ".join(f"{s:.3f}" for s in setup_times))
        if args.workload == "plan":
            print(runner.probe_d2())

    for failure in failures:
        print("FAILED " + failure)
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(runner.dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "failures": failures, **result, "ops": runner.log}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
