"""The three benchmark workloads: seeded inputs, CLI arguments and oracles.

Every input is generated here from the workload seed, without rejection
sampling and without calling into ``nrsteer``, so a change to the program
cannot change what it is given.  Each oracle reads the files and text the CLI
produced and returns ``None`` when they are right, or the reason they are
wrong.  The oracles use only numpy/scipy routines the program does not wrap.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

TWO_PI = 2 * math.pi

# `steer` runs with the CLI defaults; the oracle needs to know them.
STEER_HORIZON = TWO_PI
STEER_TOL_T = 1e-3
STEER_ANGLES = 2048
# The sampled membership sweep cannot tell a margin (max arc gap - pi) below
# its angle spacing from a hit: near the widest gap the support function is
# -sin(m/2) + |dtheta|/2 to first order, so a grid of spacing 2*pi/n reads
# it as nonnegative once m < 2*pi/n.  A reported t* is accepted up to that.
STEER_MARGIN_RESOLUTION = TWO_PI / STEER_ANGLES
# A margin this small counts as a touch of the origin.
TOUCH_MARGIN = 1e-9
MAX_ORACLE_STEPS = 200_000

TRACK_HORIZON = 2.0
RANGE_ANGLES = 720

PLAN_DIMS = (3, 4, 6, 8, 16)
# Touch time every plan instance is built for (see plan_matrix): three
# quarters into the 17th cell of `steer`'s 256-point scan of [0, 2*pi], away
# from the grid points the scan and the sampled sweep could disagree at.
PLAN_TOUCH = 16.75 * TWO_PI / 256
# The fitted touch time need only stay well inside its scan cell.
PLAN_FIT_TOL = 1e-3
PLAN_FIT_STEPS = 8
# (d, k): Haar when k is None, else one exactly k-fold eigenvalue.  No
# degenerate case at d = 32: its attempted steps vary from 160 to 500 between
# seeds, and it would dominate the run's time.
TRACK_CASES = ((4, None), (4, 2), (16, None), (16, 4), (32, None))
# (d, answer); None draws the answer.  One d = 4 case per round keeps the
# median inside the d = 16 cases and the tail percentile inside the d = 64 ones.
RANGE_CASES = ((4, None), (16, "inside"), (16, "outside"), (64, "inside"), (64, "outside"))


@dataclass(frozen=True)
class Instance:
    """One operation: a matrix file, the CLI arguments, and its oracle."""

    label: str
    matrix: np.ndarray
    argv: Callable[[str, str], list[str]]  # (input path, out dir) -> argv
    check: Callable[[str, str], str | None]  # (out dir, stdout) -> failure reason


# --- generation ---------------------------------------------------------


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary: complex Ginibre draw, QR, phases of R moved into Q."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))[None, :]


def from_spectrum(basis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    return (basis * np.exp(1j * angles)[None, :]) @ basis.conj().T


def plan_matrix(rng: np.random.Generator, d: int, touch: float) -> np.ndarray:
    """Conditioned-ensemble unitary that the origin touches at time ``touch``.

    Haar eigenbasis X; eigenvalue angles in an arc of width w < pi, with the
    arc's ends on columns 0 and 1 of X.  The gap outside the arc exceeds pi
    by pi - w, and the fastest one-hot generator closes it at the first-order
    rate r = max_i | |X[i,0]|^2 - |X[i,1]|^2 |.  Starting from the first-order
    width w = pi - r*touch, a few secant steps on w move the exact touch time
    T under that generator, found by margin stepping, onto ``touch``.  So the
    search work per instance is the same for every seed while the eigenbasis
    and inner angles vary.
    """
    x = haar(rng, d)
    weights = np.abs(x) ** 2
    diff = weights[:, 0] - weights[:, 1]
    best = int(np.argmax(np.abs(diff)))
    rate = float(abs(diff[best]))
    p = np.zeros(d)
    p[best] = 1.0
    sign = 1.0 if diff[best] > 0 else -1.0
    inner = rng.uniform(0.0, 1.0, size=d - 2)
    offset = rng.uniform(-math.pi, math.pi)

    def build(width: float) -> np.ndarray:
        return from_spectrum(x, np.concatenate([[width, 0.0], width * inner]) + offset)

    def miss(width: float) -> float:
        t = first_touch(build(width), p, sign, 2 * touch, touch_margin=0.1 * rate * PLAN_FIT_TOL)
        return (2 * touch if t is None else t) - touch

    # secant steps on w, starting from the first-order slope dT/dw = -1/r
    width, slope, last = math.pi - rate * touch, -1.0 / rate, None
    for _ in range(PLAN_FIT_STEPS):
        err = miss(width)
        if abs(err) < PLAN_FIT_TOL:
            break
        if last is not None and err != last[1]:
            slope = (err - last[1]) / (width - last[0])
        last = (width, err)
        width = min(width - err / slope, math.pi - 1e-6)
    return build(width)


def degenerate_matrix(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """Unitary with one exactly k-fold eigenvalue, built directly.

    The d - k + 1 distinct eigenvalue angles are spread evenly around the
    circle from a random offset; the eigenbasis is Haar.
    """
    n = d - k + 1
    distinct = rng.uniform(-math.pi, math.pi) + TWO_PI * np.arange(n) / n
    angles = np.concatenate([np.full(k - 1, distinct[0]), distinct])
    return from_spectrum(haar(rng, d), angles)


def range_matrix(rng: np.random.Generator, d: int, answer: str) -> np.ndarray:
    """Non-normal matrix with a known answer to "is 0 in W(A)?".

    inside: a traceless matrix (0 = tr(A)/d lies in W(A)).
    outside: R + c*e^{i phi}*I with c > ||R||, so W(A) lies in the disc of
    radius ||R|| around c*e^{i phi}, which misses 0.
    """
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2 * d)
    if answer == "inside":
        return g - (np.trace(g) / d) * np.eye(d)
    r = 0.5 * g / np.linalg.norm(g, 2)
    c = 0.5 * rng.uniform(1.2, 1.6)
    return r + c * np.exp(1j * rng.uniform(-math.pi, math.pi)) * np.eye(d)


def write_matrix(path: str, m: np.ndarray) -> None:
    """Matrix file in the CLI's format; json writes floats round-trip exact."""
    doc = {"dim": int(m.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# --- oracles --------------------------------------------------------------


def arc_margin(u: np.ndarray) -> float:
    """Largest arc gap between eigenvalues of the unitary ``u``, minus pi.

    Positive exactly when 0 lies outside the numerical range.
    """
    args = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(np.concatenate([args, [args[0] + TWO_PI]]))
    return float(gaps.max()) - math.pi


def steered(u: np.ndarray, p: np.ndarray, sign: float, t: float) -> np.ndarray:
    return u * np.exp(1j * sign * p * t)[None, :]


def first_touch(
    u: np.ndarray, p: np.ndarray, sign: float, t_end: float, touch_margin: float = TOUCH_MARGIN
) -> float | None:
    """Earliest t in [0, t_end] with margin <= ``touch_margin``, or None.

    Every eigenvalue of U·V(t) turns at a speed in [0, 1], so the margin is
    1-Lipschitz in t and a step equal to the margin cannot pass a touch.
    Raises RuntimeError when the steps do not reach ``t_end`` in time.
    """
    t = 0.0
    for _ in range(MAX_ORACLE_STEPS):
        if t >= t_end:
            return None
        m = arc_margin(steered(u, p, sign, t))
        if m <= touch_margin:
            return t
        t += m
    raise RuntimeError(f"margin stepping stalled near t = {t:.9g}")


def check_plan(u: np.ndarray, out_dir: str) -> str | None:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        plan = json.load(fh)["plan"]
    p = np.asarray(plan["p"], dtype=float)
    sign = {"ccw": 1.0, "cw": -1.0}.get(plan["direction"])
    if sign is None or p.shape != (u.shape[0],) or p.min() < 0 or abs(p.sum() - 1) > 1e-12:
        return f"invalid generator p={plan['p']} direction={plan['direction']!r}"
    t_star = plan["t_star"]
    try:
        if t_star is None:
            touch = first_touch(u, p, sign, STEER_HORIZON)
            if touch is not None:
                return f"verdict {plan['verdict']} but the origin is reached at t = {touch:.6f}"
            return None
        margin = arc_margin(steered(u, p, sign, t_star))
        if margin > STEER_MARGIN_RESOLUTION:
            return f"t* = {t_star:.6f} but the margin there is {margin:.3e} > 0"
        touch = first_touch(u, p, sign, t_star - STEER_TOL_T)
    except RuntimeError as exc:
        return f"oracle undecided: {exc}"
    if touch is not None:
        return f"t* = {t_star:.6f} but the origin is already reached at t = {touch:.6f}"
    cost = 2 * float(np.abs(np.sin(p * t_star / 2)).max())
    if abs(plan["perturbation_norm"] - cost) > 1e-9:
        return f"perturbation norm {plan['perturbation_norm']} != closed form {cost}"
    return None


def read_trajectory(out_dir: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t grid, eigenvalue paths (steps x d) and speeds (steps x d)."""
    rows = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",", skiprows=1, ndmin=2)
    d = int(rows[:, 1].max()) + 1
    rows = rows.reshape(-1, d, 5)
    return rows[:, 0, 0], rows[:, :, 2] + 1j * rows[:, :, 3], rows[:, :, 4]


def check_track(u: np.ndarray, p: np.ndarray, sign: float, out_dir: str) -> str | None:
    t, paths, speeds = read_trajectory(out_dir)
    # the tracker stops once t is within 1e-15 of the end, so the summed
    # steps may fall short of the horizon by rounding
    if t[0] != 0.0 or abs(t[-1] - TRACK_HORIZON) > 1e-12 or np.any(np.diff(t) <= 0):
        return f"time grid runs from {t[0]} to {t[-1]}, expected 0 to {TRACK_HORIZON}"
    worst = float(np.abs(speeds.sum(axis=1) - 1).max())
    if worst > 1e-9:
        return f"speeds of a step sum to 1 +- {worst:.3e}"
    expected = np.linalg.eigvals(steered(u, p, sign, TRACK_HORIZON))
    cost = np.abs(paths[-1][:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    mismatch = float(cost[rows, cols].max())
    if mismatch > 1e-8:
        return f"last column misses the spectrum of U·V(horizon) by {mismatch:.3e}"
    return None


def support_value(a: np.ndarray, theta: float) -> float:
    herm = (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / 2
    return float(np.linalg.eigvalsh(herm)[-1])


def check_range(a: np.ndarray, answer: str, probes: np.ndarray, out_dir: str, stdout: str) -> str | None:
    verdict = next(
        (ln.split(":", 1)[1].strip() for ln in stdout.splitlines() if ln.startswith("origin verdict:")),
        None,
    )
    if verdict != answer:
        return f"verdict {verdict!r}, expected {answer!r}"
    with open(os.path.join(out_dir, "boundary.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != RANGE_ANGLES:
        return f"boundary.csv has {len(rows)} rows, expected {RANGE_ANGLES}"
    scale = float(np.linalg.norm(a, 2))
    for k in probes:
        theta, h = float(rows[k][0]), float(rows[k][1])
        ref = support_value(a, theta)
        if abs(h - ref) > 1e-9 * scale:
            return f"h({theta:.6f}) = {h!r}, independent eigvalsh gives {ref!r}"
    with open(os.path.join(out_dir, "range.svg"), encoding="utf-8") as fh:
        if "<polygon" not in fh.read():
            return "range.svg has no boundary polygon"
    return None


# --- workloads --------------------------------------------------------------


def steer_instance(label: str, u: np.ndarray) -> Instance:
    return Instance(
        label=label,
        matrix=u,
        argv=lambda path, od: ["steer", "--input", path, "--out-dir", od],
        check=lambda od, so: check_plan(u, od),
    )


def plan_instances(rng: np.random.Generator) -> list[Instance]:
    return [steer_instance(f"plan-d{d}", plan_matrix(rng, d, PLAN_TOUCH)) for d in PLAN_DIMS]


def d2_touch_time(u: np.ndarray, p: np.ndarray, direction: str) -> float:
    """The t in [0, 2*pi) with tr(U·V(t)) = 0, for a 2x2 unitary and one-hot p.

    With i the weighted coordinate and j the other, tr(U·V(t)) =
    u_ii e^{+-it} + u_jj, and |u_ii| = |u_jj| for a 2x2 unitary, so the trace
    vanishes (the eigenvalues are antipodal and 0 lies on W) where
    e^{+-it} = -u_jj/u_ii.
    """
    i = int(np.argmax(p))
    sign = 1.0 if direction == "ccw" else -1.0
    return float((sign * np.angle(-u[1 - i, 1 - i] / u[i, i])) % TWO_PI)


def track_instances(rng: np.random.Generator) -> list[Instance]:
    out = []
    for d, k in TRACK_CASES:
        u = haar(rng, d) if k is None else degenerate_matrix(rng, d, k)
        p_text = ",".join(repr(float(x)) for x in rng.dirichlet(np.ones(d)))
        p = np.array([float(x) for x in p_text.split(",")])
        direction, sign = ("ccw", 1.0) if rng.integers(2) else ("cw", -1.0)
        out.append(
            Instance(
                label=f"track-d{d}-{'haar' if k is None else f'k{k}'}-{direction}",
                matrix=u,
                argv=lambda path, od, p_text=p_text, direction=direction: [
                    "trajectory", "--input", path, "--p", p_text, "--direction", direction,
                    "--horizon", repr(TRACK_HORIZON), "--out-dir", od,
                ],
                check=lambda od, so, u=u, p=p, sign=sign: check_track(u, p, sign, od),
            )
        )
    return out


def range_instances(rng: np.random.Generator) -> list[Instance]:
    out = []
    for d, answer in RANGE_CASES:
        answer = answer or ("inside", "outside")[rng.integers(2)]
        a = range_matrix(rng, d, answer)
        probes = np.sort(rng.choice(RANGE_ANGLES, size=4, replace=False))
        out.append(
            Instance(
                label=f"range-d{d}-{answer}",
                matrix=a,
                argv=lambda path, od: [
                    "range", "--input", path, "--angles", str(RANGE_ANGLES), "--out-dir", od,
                ],
                check=lambda od, so, a=a, answer=answer, probes=probes: check_range(
                    a, answer, probes, od, so
                ),
            )
        )
    return out


WORKLOADS = {"plan": plan_instances, "track": track_instances, "range": range_instances}
