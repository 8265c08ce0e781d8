"""Command-line interface: range figures, steering, trajectories, checks.

Subcommands
-----------
``range``       boundary sweep of W(A) → boundary.csv + range.svg, certified origin verdict
``steer``       full steering plan for a unitary matrix → report.json
``trajectory``  tracked eigenvalue paths of U·V(t) → trajectory.csv
``verify``      seeded property suite of the perturbation rules
``example``     bundled demonstration instance with reference-value checks

``steer``, ``trajectory`` and ``example`` enter by :func:`~nrsteer.linalg.nearest_unitary`:
A within ``RELAXED_UNITARITY_TOL`` of unitary is replaced by its polar factor, the
unitary every answer is about; it holds for A within δ = ‖A − polar(A)‖∞, which
``report.json`` records as ``polar_distance``.  ``range`` sweeps A as given.

Exit codes: 0 success, 2 parse/input error or eigensolver failure,
3 check failure, 4 nothing to steer, 5 tracking failure (an eigensolver
fault broke the trajectory's step check).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import demo, iofmt
from .linalg import (
    RELAXED_UNITARITY_TOL,
    EigendecompositionError,
    _unitary_eig,
    nearest_unitary,
    schatten_inf,
    unitary_eig,
)
from .numrange import INSIDE, origin_verdict, support_profile
from .perturb import (
    DIRECTIONS,
    PerturbationGenerator,
    TrackingCollisionError,
    perturbed_unitary,
    track_trajectory,
)
from .steering import NothingToSteerError, _plan, perturbation_cost, speed_profile
from .verify import run_all

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CHECK = 3
EXIT_NOTHING_TO_STEER = 4
EXIT_COLLISION = 5

__all__ = ["main", "build_parser"]


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid dims list {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"invalid dims list {text!r}")
    return dims


def _parse_probability(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid probability vector {text!r}") from exc


def _parse_direction(text: str) -> str:
    if text.lower() not in DIRECTIONS:
        raise argparse.ArgumentTypeError(f"direction must be cw or ccw, got {text!r}")
    return DIRECTIONS[text.lower()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nrsteer", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out_dir(p):
        p.add_argument("--out-dir", default=".", help="directory for output files")

    def add_io_opts(p):
        p.add_argument("--input", required=True, help="matrix JSON file")
        add_out_dir(p)

    p_range = sub.add_parser("range", help="numerical-range boundary sweep and figure")
    add_io_opts(p_range)
    p_range.add_argument(
        "--angles", type=int, default=720, help="sweep resolution of the figure and the verdict"
    )
    p_range.set_defaults(func=_cmd_range)

    p_steer = sub.add_parser("steer", help="steer the range over the origin")
    add_io_opts(p_steer)
    p_steer.add_argument("--horizon", type=float, default=2 * math.pi, help="largest t searched")
    p_steer.add_argument("--tol-t", type=float, default=1e-3, help="certified width of t*")
    p_steer.set_defaults(func=_cmd_steer)

    p_traj = sub.add_parser("trajectory", help="track eigenvalue paths of U·V(t)")
    add_io_opts(p_traj)
    p_traj.add_argument("--p", type=_parse_probability, required=True, help="weights, e.g. 0,1,0")
    p_traj.add_argument("--direction", type=_parse_direction, default="ccw")
    p_traj.add_argument("--horizon", type=float, default=1.5, help="tracking end time")
    p_traj.set_defaults(func=_cmd_trajectory)

    p_verify = sub.add_parser("verify", help="run the seeded property suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--dims", type=_parse_dims, default=(2, 3, 4, 5, 6))
    p_verify.set_defaults(func=_cmd_verify)

    p_example = sub.add_parser("example", help="bundled demonstration instance")
    add_out_dir(p_example)
    p_example.set_defaults(func=_cmd_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: ``parse_args`` leaves the parser unchanged."""
    return build_parser()


def _digest(matrix: np.ndarray) -> str:
    """SHA-256 of the entries as ``re:im`` pairs in ``iofmt.format_float``'s ``.17g`` form."""
    pairs = zip(matrix.real.ravel().tolist(), matrix.imag.ravel().tolist())
    payload = ",".join(["%.17g:%.17g" % pair for pair in pairs])
    return hashlib.sha256(payload.encode()).hexdigest()


def _input_fields(a: np.ndarray, u: np.ndarray, **fields) -> dict:
    """Report fields of an input A: digest, size and δ = ‖A − u‖∞ from the unitary u."""
    return dict(fields, sha256=_digest(a), dim=a.shape[0], polar_distance=schatten_inf(a - u))


def _ensure_out_dir(args) -> str:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _maybe_eigenvalues(matrix: np.ndarray) -> np.ndarray | None:
    try:
        return unitary_eig(matrix, unitarity_tol=RELAXED_UNITARITY_TOL).values
    except ValueError:
        return None


def _cmd_range(args) -> int:
    matrix, _ = iofmt.read_matrix(args.input)
    out = _ensure_out_dir(args)
    profile = support_profile(matrix, n_angles=args.angles)
    iofmt.write_range_csv(os.path.join(out, "boundary.csv"), profile)
    iofmt.render_range_svg(
        os.path.join(out, "range.svg"),
        profile,
        eigenvalues=_maybe_eigenvalues(matrix),
        title=f"numerical range ({os.path.basename(args.input)})",
    )
    certificate = origin_verdict(profile)
    print(f"origin verdict: {certificate.verdict}")
    print(
        f"origin bracket: min h in [{certificate.lower:.6e}, {certificate.upper:.6e}] "
        f"over {certificate.n_angles} angles"
    )
    print(f"wrote {out}/boundary.csv and {out}/range.svg")
    return EXIT_OK


def _cmd_steer(args) -> int:
    matrix, meta = iofmt.read_matrix(args.input)
    out = _ensure_out_dir(args)
    started = time.perf_counter()
    u = nearest_unitary(matrix)
    result = _plan(_unitary_eig(u), args.horizon, args.tol_t)
    elapsed = time.perf_counter() - started

    report = {
        "command": "steer",
        "input": _input_fields(matrix, u, path=args.input, **meta),
        "settings": {
            "horizon": args.horizon,
            "tol_t": args.tol_t,
            "unitarity_tol": RELAXED_UNITARITY_TOL,
        },
        "plan": dataclasses.asdict(result),
    }
    iofmt._write_json(os.path.join(out, "report.json"), report)
    print(f"verdict: {result.verdict}")
    if result.t_star is not None:
        print(f"t* = {result.t_star:.6f}, perturbation norm = {result.perturbation_norm:.6f}")
    print(f"wrote {out}/report.json ({elapsed:.2f}s)")
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    matrix, _ = iofmt.read_matrix(args.input)
    out = _ensure_out_dir(args)
    gen = PerturbationGenerator(p=args.p, direction=args.direction)
    record = track_trajectory(matrix, gen, t_end=args.horizon)
    iofmt.write_trajectory_csv(os.path.join(out, "trajectory.csv"), record)
    print(f"tracked {record.paths.shape[0]} paths over {record.n_steps} grid points")
    print(f"wrote {out}/trajectory.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials == 0:
        print("warning: 0 trials requested; every property passes vacuously")
    outcomes = run_all(seed=args.seed, n_trials=args.trials, dims=args.dims)
    all_ok = True
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        all_ok &= outcome.passed
        residual = "n/a" if outcome.trials == 0 else f"{outcome.max_residual:.3e}"
        print(
            f"{status} {outcome.name}: trials={outcome.trials} "
            f"failures={outcome.failures} max_residual={residual}"
        )
        for detail in outcome.details[:5]:
            print(f"    {detail}")
    return EXIT_OK if all_ok else EXIT_CHECK


def _cmd_example(args) -> int:
    out = _ensure_out_dir(args)
    started = time.perf_counter()
    matrix = nearest_unitary(demo.DEMO_MATRIX)

    system = _unitary_eig(matrix)
    profile_matrix = speed_profile(system)

    checks: list[tuple[str, bool, str]] = []
    tol = demo.REFERENCE_PROFILE_TOL
    # the reference rows are in ccw eigenvalue order too: compared entry by entry
    rows_ok = np.abs(profile_matrix - demo.REFERENCE_SPEED_PROFILE).max() <= tol
    entries = (demo.REFERENCE_FAST_ENTRY, demo.REFERENCE_SLOW_ENTRY)
    named = all(np.abs(profile_matrix - entry).min() <= tol for entry in entries)
    checks.append(
        ("speed-profile-entries", rows_ok and named, f"rows_ok={rows_ok} named_entries={named}")
    )

    result = _plan(system, t_horizon=2 * math.pi, tol_t=1e-3)
    gen_ok = bool(
        np.array_equal(result.p, demo.REFERENCE_P) and result.direction == demo.REFERENCE_DIRECTION
    )
    checks.append(("generator-selection", gen_ok, f"p={result.p.tolist()} dir={result.direction}"))

    lo, hi = demo.REFERENCE_T_WINDOW
    t_ok = result.t_star is not None and lo <= result.t_star <= hi
    checks.append(("steering-time-window", t_ok, f"t_star={result.t_star}"))

    gen = PerturbationGenerator(p=result.p, direction=result.direction)
    pushed = perturbed_unitary(matrix, gen, demo.REFERENCE_PUSH_T)
    pushed_profile = support_profile(pushed, n_angles=720)
    inside_ok = origin_verdict(pushed_profile).verdict == INSIDE
    checks.append(("origin-inside-after-push", inside_ok, f"t={demo.REFERENCE_PUSH_T}"))

    if result.t_star is not None:
        measured = schatten_inf(matrix - perturbed_unitary(matrix, gen, result.t_star))
        closed = perturbation_cost(result.p, result.t_star)
        norm_ok = abs(measured - closed) <= 1e-12
        checks.append(
            ("perturbation-norm-closed-form", norm_ok, f"measured={measured!r} closed={closed!r}")
        )

    initial_profile = support_profile(matrix, n_angles=720)
    figures = {  # file stem: profile, eigenvalue markers, title
        "range_initial": (initial_profile, system.values, "demonstration matrix"),
        "range_perturbed": (
            pushed_profile, _unitary_eig(pushed).values, f"pushed at t={demo.REFERENCE_PUSH_T}"
        ),
    }
    for stem, (profile, values, label) in figures.items():
        path = os.path.join(out, stem)
        iofmt.write_range_csv(path + ".csv", profile)
        title = f"numerical range: {label}"
        iofmt.render_range_svg(path + ".svg", profile, eigenvalues=values, title=title)

    report = {
        "command": "example",
        "input": _input_fields(demo.DEMO_MATRIX, matrix, label="bundled demonstration matrix"),
        "settings": {"unitarity_tol": RELAXED_UNITARITY_TOL, "horizon": 2 * math.pi, "tol_t": 1e-3},
        "speed_profile": profile_matrix,
        "plan": dataclasses.asdict(result),
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "files": [stem + ext for stem in figures for ext in (".csv", ".svg")],
    }
    iofmt._write_json(os.path.join(out, "report.json"), report)

    elapsed = time.perf_counter() - started
    print("speed profile (rows: eigenvalues ccw, columns: basis weights):")
    for row in profile_matrix:
        print("  " + "  ".join(f"{x:.6f}" for x in row))
    print(
        f"selected p = {result.p.tolist()}, direction = {result.direction}, "
        f"t* = {result.t_star}, perturbation norm = {result.perturbation_norm}"
    )
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'ok    ' if ok else 'FAILED'} {name}  ({detail})")
    print(f"wrote report and figures to {out} ({elapsed:.2f}s)")
    if failed:
        print(f"example check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NothingToSteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOTHING_TO_STEER
    except TrackingCollisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except (ValueError, EigendecompositionError) as exc:  # MatrixFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
