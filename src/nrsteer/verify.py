"""Seeded property suites for the spectral-motion rules.

Each runner draws deterministic random instances and checks one empirical
property of the perturbation machinery:

* ``velocity-budget``: the absolute eigenvalue velocities sum to 1 at every
  tracked step;
* ``monotone-rotation``: eigenvalue paths never move against the rotation
  direction, read from the tracker-independent oracle
  :func:`~nrsteer.testkit.assignment_paths`;
* ``stationary-witness``: the slowest mode of diag(p) compressed onto the
  eigenspace (:func:`~nrsteer.perturb.compress_generator`) has speed at most
  ``STATIONARY_TOL`` and stays an eigenvector of U·V(t) at probe times
  spanning three decades;
* ``residual-multiplicity``: when the weight support is smaller than the
  eigenvalue multiplicity, enough multiplicity survives at every probe time;
* ``first-order-simple`` / ``first-order-split``: the first-order eigenvalue
  positions have a quadratic-in-t remainder, verified by t-halving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import CLUSTER_TOL, _unitary_eig, unitary_eig
from .perturb import (
    CCW,
    PerturbationGenerator,
    angular_speeds,
    compress_generator,
    perturbed_unitary,
    track_trajectory,
)
from .testkit import assignment_paths, degenerate_fixture, haar_unitary

BUDGET_TOL = 1e-8
MONOTONE_TOL = 1e-9
STATIONARY_TOL = 1e-12  # a compressed weight this small counts as zero speed
WITNESS_TOL = 1e-9
TRACK_T_END = 2.0
PROBE_TIMES = (0.1, 1.0, 10.0)
RATIO_WINDOW = (3.5, 4.5)
ERROR_FLOOR = 1e-10
LADDER_T0 = 0.1
LADDER_RUNGS = 24

__all__ = [
    "PropertyOutcome",
    "run_budget_and_monotonicity",
    "run_stationarity_and_multiplicity",
    "run_first_order_simple",
    "run_first_order_split",
    "run_all",
    "quadratic_remainder_ratio",
]


@dataclass
class PropertyOutcome:
    """Aggregated result of one property over a batch of random instances."""

    name: str
    trials: int
    failures: int = 0
    max_residual: float = 0.0
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, residual: float, ok: bool, detail: str = "") -> None:
        self.max_residual = max(self.max_residual, residual)
        if not ok:
            self.failures += 1
            if detail:
                self.details.append(detail)


def _trial_dims(dims: tuple[int, ...], n: int, least: int) -> list[int]:
    """The dimension of each of ``n`` trials, cycling through the ``dims`` of at least ``least``."""
    usable = [d for d in dims if d >= least]
    if not usable:
        raise ValueError(f"these trials need a dimension of at least {least}, got dims {dims}")
    return [usable[i % len(usable)] for i in range(n)]


def _scaled(n_trials: int, divisor: int) -> int:
    """``n_trials // divisor``, but at least one unless no trials are requested."""
    return max(n_trials // divisor, 1) if n_trials else 0


def run_budget_and_monotonicity(
    seed: int, n_trials: int, dims: tuple[int, ...] = (2, 3, 4, 5, 6)
) -> tuple[PropertyOutcome, PropertyOutcome]:
    """Track Haar-random instances ccw to ``TRACK_T_END``; check speed budget and monotonicity.

    Monotonicity is read from :func:`~nrsteer.testkit.assignment_paths` on the
    tracker's grid, which shares neither its eigensolver nor its rank match:
    the tracker's own step check already rejects any backward move of its paths.
    """
    rng = np.random.default_rng(seed)
    budget = PropertyOutcome(name="velocity-budget", trials=n_trials)
    mono = PropertyOutcome(name="monotone-rotation", trials=n_trials)
    for i, d in enumerate(_trial_dims(dims, n_trials, 1)):
        u = haar_unitary(d, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(d)), direction=CCW)
        record = track_trajectory(u, gen, t_end=TRACK_T_END)

        budget_err = float(np.abs(np.abs(record.velocities).sum(axis=0) - 1.0).max())
        budget.record(budget_err, budget_err <= BUDGET_TOL, f"trial {i}: budget residual {budget_err:.3e}")

        oracle = assignment_paths(u, gen, record.t_grid)
        worst = float(-np.angle(oracle[:, 1:] / oracle[:, :-1]).min())
        mono.record(max(worst, 0.0), worst <= MONOTONE_TOL, f"trial {i}: backward step {worst:.3e}")
    return budget, mono


def run_stationarity_and_multiplicity(
    seed: int, n_fixtures: int, dims: tuple[int, ...] = (3, 4, 5, 6)
) -> tuple[PropertyOutcome, PropertyOutcome]:
    """Degenerate fixtures with small weight support: witnesses and counts at ``PROBE_TIMES``."""
    rng = np.random.default_rng(seed)
    stationary = PropertyOutcome(name="stationary-witness", trials=n_fixtures)
    multiplicity = PropertyOutcome(name="residual-multiplicity", trials=n_fixtures)
    for i, d in enumerate(_trial_dims(dims, n_fixtures, 2)):
        k = int(rng.integers(2, d + 1))
        l = int(rng.integers(1, k))
        fixture = degenerate_fixture(d, k, l, rng)
        cols = fixture.system.vectors[:, list(fixture.system.groups[fixture.group])]
        eigenvalue = fixture.system.representatives[fixture.group]

        speeds, vectors = compress_generator(cols, fixture.p)
        witness = vectors[:, 0]  # the slowest mode
        probes = PROBE_TIMES if speeds[0] <= STATIONARY_TOL else ()  # else no mode stays put
        worst_residual = 0.0 if probes else np.inf
        min_count = fixture.multiplicity
        gen = PerturbationGenerator(p=fixture.p)
        for t in probes:
            moved = perturbed_unitary(fixture.matrix, gen, t)
            residual = float(np.linalg.norm(moved @ witness - eigenvalue * witness))
            worst_residual = max(worst_residual, residual)
            count = np.sum(np.abs(_unitary_eig(moved).values - fixture.eigenvalue) <= CLUSTER_TOL)
            min_count = min(min_count, int(count))

        stationary.record(
            worst_residual,
            worst_residual <= WITNESS_TOL,
            f"fixture {i} ({fixture.label}): witness residual {worst_residual:.3e}",
        )
        want = fixture.multiplicity - fixture.support_size
        multiplicity.record(
            float(want - min_count),
            min_count >= want,
            f"fixture {i} ({fixture.label}): count {min_count} < {want}",
        )
    return stationary, multiplicity


def quadratic_remainder_ratio(errors: list[tuple[float, float]]) -> tuple[float, float] | None:
    """First (largest-t) halving rung whose error ratio sits in ``RATIO_WINDOW``.

    ``errors`` holds (t, error) pairs down a t-halving ladder.  Returns
    ``(t, ratio)`` for the largest t where both error(t) and error(t/2) are
    at least ``ERROR_FLOOR`` and error(t)/error(t/2) lies in the window, or
    ``None`` when no rung qualifies.
    """
    lo, hi = RATIO_WINDOW
    for (t, err), (_, err_half) in zip(errors, errors[1:]):
        if err < ERROR_FLOOR or err_half < ERROR_FLOOR:
            continue
        ratio = err / err_half
        if lo <= ratio <= hi:
            return t, ratio
    return None


def _first_order_ladder(
    u: np.ndarray, gen: PerturbationGenerator, eigenvalue: complex, speeds: np.ndarray
) -> tuple[float, float] | None:
    """:func:`quadratic_remainder_ratio` of the first-order positions down a t-halving ladder.

    At each rung the error is the largest distance between a first-order
    position λ·exp(±i·s·t), s in ``speeds``, and the eigenvalue of U·V(t)
    that a minimum-cost matching of predicted against actual positions
    assigns to it; for one speed that is the distance to the nearest one.
    """
    ladder = []
    t = LADDER_T0
    for _ in range(LADDER_RUNGS):
        predicted = eigenvalue * np.exp(1j * gen.sign * speeds * t)
        actual = _unitary_eig(perturbed_unitary(u, gen, t)).values
        cost = np.abs(actual[None, :] - predicted[:, None])
        rows, cols = linear_sum_assignment(cost)
        ladder.append((t, float(cost[rows, cols].max())))
        t /= 2
    return quadratic_remainder_ratio(ladder)


def run_first_order_simple(
    seed: int,
    n_instances: int,
    dims: tuple[int, ...] = (2, 3, 4, 5, 6),
) -> PropertyOutcome:
    """Quadratic remainder of the simple-eigenvalue first-order position."""
    rng = np.random.default_rng(seed)
    outcome = PropertyOutcome(name="first-order-simple", trials=n_instances)
    for i, d in enumerate(_trial_dims(dims, n_instances, 1)):
        u = haar_unitary(d, rng)
        p = rng.dirichlet(np.ones(d))
        gen = PerturbationGenerator(p=p)
        system = unitary_eig(u)
        j = int(rng.integers(d))
        speeds = angular_speeds(system.vectors[:, j : j + 1], p)
        hit = _first_order_ladder(u, gen, system.values[j], speeds)
        if hit is None:
            outcome.record(np.inf, False, f"instance {i}: no rung with quadratic ratio")
        else:
            outcome.record(abs(hit[1] - 4.0), True)
    return outcome


def run_first_order_split(
    seed: int,
    n_instances: int,
    dims: tuple[int, ...] = (3, 4, 5, 6),
) -> PropertyOutcome:
    """Quadratic remainder of the degenerate split positions.

    Split members are assigned to tracked eigenvalues by minimum-cost
    matching of predicted against actual positions.
    """
    rng = np.random.default_rng(seed)
    outcome = PropertyOutcome(name="first-order-split", trials=n_instances)
    for i, d in enumerate(_trial_dims(dims, n_instances, 3)):
        k = int(rng.integers(2, d))
        fixture = degenerate_fixture(d, k, k - 1, rng)  # fixture geometry; p below is full
        p = rng.dirichlet(np.ones(d))
        gen = PerturbationGenerator(p=p)
        cols = fixture.system.vectors[:, list(fixture.system.groups[fixture.group])]
        speeds, _ = compress_generator(cols, p)
        eigenvalue = fixture.system.representatives[fixture.group]
        hit = _first_order_ladder(fixture.matrix, gen, eigenvalue, speeds)
        if hit is None:
            outcome.record(np.inf, False, f"instance {i}: no rung with quadratic ratio")
        else:
            outcome.record(abs(hit[1] - 4.0), True)
    return outcome


def run_all(
    seed: int = 0,
    n_trials: int = 100,
    dims: tuple[int, ...] = (2, 3, 4, 5, 6),
) -> list[PropertyOutcome]:
    """Full suite with trial counts scaled from ``n_trials``.

    A 1×1 unitary turns exactly at first order and leaves no remainder to
    measure, so the simple first-order runner, like the fixture runner, gets d ≥ 2.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be nonnegative, got {n_trials}")
    budget, mono = run_budget_and_monotonicity(seed, n_trials, dims)
    dims2 = tuple(d for d in dims if d >= 2) or (3,)
    stationary, multiplicity = run_stationarity_and_multiplicity(
        seed + 1, _scaled(n_trials, 2), dims2
    )
    simple = run_first_order_simple(seed + 2, _scaled(n_trials, 2), dims2)
    split_dims = tuple(d for d in dims if d >= 3) or (3,)
    split = run_first_order_split(seed + 3, _scaled(n_trials, 5), split_dims)
    return [budget, mono, stationary, multiplicity, simple, split]
