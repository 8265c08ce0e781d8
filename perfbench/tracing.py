"""Per-layer spans for the traced run, recorded from the benchmark's side.

The tracer replaces the public functions of ``nrsteer`` in every module that
binds them (for example ``nrsteer.steering.contains_zero_general`` and
``nrsteer.perturb.unitary_eig``) with wrappers that record a span per call:
name, id, parent span, operation id, start and end, read from the process's
CPU clock like the end-to-end times.  Spans stay in memory and are written
when the run ends.  A span's self time is its duration minus the time its
direct children cover (calls are sequential, so children do not overlap).
The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module that defines or imports the function, attribute).  The metric name
# is "<module>.<attribute>"; every nrsteer module bound to the same object is
# wrapped, so calls are seen from each caller.
LAYERS = (
    ("linalg", "check_unitary"),
    ("linalg", "unitary_eig"),
    ("linalg", "herm_eig"),
    ("numrange", "contains_zero_general"),
    ("numrange", "support_values"),
    ("numrange", "support_profile"),
    ("steering", "plan"),
    ("steering", "select_generator"),
    ("steering", "min_time_search"),
    ("perturb", "track_trajectory"),
    ("perturb", "perturbed_unitary"),
    ("perturb", "linear_sum_assignment"),
    ("iofmt", "read_matrix"),
    ("iofmt", "write_range_csv"),
    ("iofmt", "render_range_svg"),
    ("iofmt", "write_trajectory_csv"),
)
CALLER_MODULES = ("linalg", "numrange", "perturb", "steering", "iofmt", "cli")
WRITERS = {"iofmt.write_range_csv", "iofmt.render_range_svg", "iofmt.write_trajectory_csv"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.stack: list[int] = []
        self.op = -1
        self.bytes_written = 0
        self.accepted_steps = 0
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((name, sid, parent, self.op, 0, 0))
            self.stack.append(sid)
            start = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                self.stack.pop()
                self.spans[sid] = (name, sid, parent, self.op, start, end)
            if name in WRITERS:
                self.bytes_written += os.path.getsize(args[0])
            elif name == "perturb.track_trajectory":
                self.accepted_steps += result.n_steps - 1
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"nrsteer.{m}") for m in CALLER_MODULES}
        for home, attr in LAYERS:
            original = getattr(modules[home], attr, None)
            if original is None:
                continue
            wrapped = self.span(f"{home}.{attr}", original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name, _, parent, _, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tspan\tparent\top\tstart_cpu_ns\tend_cpu_ns\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec)) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, normalised per operation."""
    calls, self_s = tracer.totals()
    plans = calls["steering.plan"]
    attempted = calls["perturb.linear_sum_assignment"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "numrange.contains_zero_general", "linalg.unitary_eig", "linalg.check_unitary",
        "perturb.linear_sum_assignment", "perturb.perturbed_unitary", "numrange.support_profile",
    ):
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op")
    for name in (
        "numrange.contains_zero_general", "numrange.support_values", "steering.min_time_search",
        "steering.select_generator", "steering.plan", "linalg.unitary_eig", "linalg.check_unitary",
        "linalg.herm_eig", "perturb.track_trajectory", "perturb.linear_sum_assignment",
        "numrange.support_profile", "iofmt.read_matrix", "iofmt.write_range_csv",
        "iofmt.render_range_svg", "iofmt.write_trajectory_csv", "cli.main",
    ):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
    metrics["steering.membership_calls_per_plan"] = (
        calls["numrange.contains_zero_general"] / plans if plans else 0.0, "count/plan")
    metrics["perturb.steps_attempted"] = (attempted / ops, "count/op")
    metrics["perturb.steps_accepted"] = (tracer.accepted_steps / ops, "count/op")
    metrics["perturb.step_accept_ratio"] = (
        tracer.accepted_steps / attempted if attempted else 0.0, "ratio")
    metrics["iofmt.bytes_written"] = (tracer.bytes_written / ops, "B/op")
    return metrics
