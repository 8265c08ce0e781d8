"""End-to-end steering: drive the numerical range of U over the origin.

Given a unitary U whose numerical range misses 0, the planner

1. reads the angular speeds each basis weight would impart from the squared
   moduli of the eigenvector entries (the speed profile),
2. targets the arc gap wider than π (the certificate that 0 is outside) and
   picks the one-hot weight vector and rotation direction that close that gap
   fastest at first order,
3. steps t by the exact margin m(t) = widest arc gap − π of U·V(t)^±,
   which is 1-Lipschitz because every eigenvalue turns at a speed in [0, 1],
   so no step passes the first time 0 enters W(U·V(t)^±); once m < ``tol_t``
   a probe at t + ``tol_t`` closes the bracket, and
4. reports the minimal time together with the perturbation cost
   ‖1 − V(t*)‖∞ = 2·max_i |sin(p_i t*/2)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RELAXED_UNITARITY_TOL, EigenSystem, _unitary_eig, check_unitary
from .numrange import INSIDE, ON_BOUNDARY, OUTSIDE, contains_zero_unitary, widest_gap
from .perturb import CCW, CW, PerturbationGenerator, angular_speeds, perturbed_unitary

# margin evaluations per search; isolated d = 2 touches have needed fewer than 800
MAX_MARGIN_EVALS = 100_000

REACHED_INTERIOR = "reached_interior"
REACHED_BOUNDARY = "reached_boundary"
NOT_REACHED = "not_reached_within_horizon"
_REACHED = {INSIDE: REACHED_INTERIOR, ON_BOUNDARY: REACHED_BOUNDARY}  # by gap-test verdict

__all__ = [
    "REACHED_INTERIOR",
    "REACHED_BOUNDARY",
    "NOT_REACHED",
    "NothingToSteerError",
    "SteeringPlan",
    "speed_profile",
    "select_generator",
    "min_time_search",
    "perturbation_cost",
    "plan",
]


class NothingToSteerError(ValueError):
    """The origin already lies in the numerical range."""


@dataclass(frozen=True)
class SteeringPlan:
    """Chosen generator, minimal time and cost for steering 0 into the range."""

    p: np.ndarray
    direction: str
    t_star: float | None
    perturbation_norm: float | None
    verdict: str
    target_gap: tuple[int, int]


def speed_profile(system: EigenSystem) -> np.ndarray:
    """Row-stochastic matrix S[j, i] = |⟨i|x_j⟩|² of first-order speeds.

    Row j follows the ccw eigenvalue order; column i is the computational
    basis index; S[j, i] is the angular speed of eigenvalue j under the
    one-hot weight vector e_i.  S is doubly stochastic because the
    eigenvectors form a unitary matrix.  Column i is
    :func:`~nrsteer.perturb.angular_speeds` under e_i.
    """
    return angular_speeds(system.vectors, np.eye(system.dim)).T


def select_generator(
    system: EigenSystem, profile: np.ndarray
) -> tuple[PerturbationGenerator, tuple[int, int]]:
    """One-hot weight vector and direction closing the certifying gap fastest.

    The gap from eigenvalue a ccw to eigenvalue b shrinks at first order at
    rate S[a,i] − S[b,i] under ccw rotation with weight e_i (the sign flips
    for cw), so the basis index with the largest absolute row difference is
    chosen and the sign dictates the direction.  Ties resolve to the lowest
    basis index.  The gap (a, b) is the one :func:`~nrsteer.numrange.widest_gap`
    finds.
    """
    if contains_zero_unitary(system) != OUTSIDE:
        raise NothingToSteerError("nothing to steer: 0 already lies in the numerical range")
    _, start, end = widest_gap(system)
    a, b = system.groups[start][0], system.groups[end][0]
    diff = profile[a] - profile[b]
    best = int(np.argmax(np.abs(diff)))
    direction = CCW if diff[best] > 0 else CW
    p = np.zeros(system.dim)
    p[best] = 1.0
    return PerturbationGenerator(p=p, direction=direction), (a, b)


def min_time_search(
    u: np.ndarray, gen: PerturbationGenerator, t_horizon: float, tol_t: float
) -> tuple[float | None, str]:
    """First time within the horizon at which 0 enters W(U·V(t)^±).

    Returns ``(t_star, verdict)``: 0 lies in the range at ``t_star`` and is
    certified outside it at every t < ``t_star − tol_t``; ``t_star = None``
    when the certified steps cover the horizon.  Checks U at :func:`plan`'s
    default tolerance first.
    """
    return _min_time_search(check_unitary(u, tol=RELAXED_UNITARITY_TOL), gen, t_horizon, tol_t)


def _min_time_search(
    u: np.ndarray, gen: PerturbationGenerator, t_horizon: float, tol_t: float
) -> tuple[float | None, str]:
    """:func:`min_time_search` without the unitarity check."""
    if t_horizon <= 0:
        raise ValueError(f"t_horizon must be positive, got {t_horizon}")
    if tol_t <= 0:
        raise ValueError(f"tol_t must be positive, got {tol_t}")

    def margin_at(t: float) -> tuple[float, str]:
        system = _unitary_eig(perturbed_unitary(u, gen, t))
        return widest_gap(system)[0] - np.pi, contains_zero_unitary(system)

    t, evals = 0.0, 0
    while True:
        margin, verdict = margin_at(t)
        evals += 1
        if verdict != OUTSIDE:
            return t, _REACHED[verdict]
        if t + margin > t_horizon:  # [t, t + margin) is certified outside
            return None, NOT_REACHED
        if margin < tol_t:
            probe = min(t + tol_t, t_horizon)
            _, verdict = margin_at(probe)
            evals += 1
            if verdict != OUTSIDE:
                return probe, _REACHED[verdict]
        if evals >= MAX_MARGIN_EVALS:
            raise RuntimeError(
                f"t* search gave up after {evals} margin evaluations "
                f"at t = {t:.12g} with m(t) = {margin:.3e}"
            )
        t += margin


def perturbation_cost(p: np.ndarray, t: float) -> float:
    """Closed form of ‖1 − V(t)‖∞ for the diagonal family: 2·max_i|sin(p_i t/2)|."""
    return float(2.0 * np.abs(np.sin(np.asarray(p) * t / 2)).max())


def plan(
    u: np.ndarray,
    t_horizon: float = 2 * np.pi,
    tol_t: float = 1e-3,
    unitarity_tol: float = RELAXED_UNITARITY_TOL,
) -> SteeringPlan:
    """Full pipeline: eigensystem → speed profile → generator → minimal time."""
    u = check_unitary(u, tol=unitarity_tol)
    system = _unitary_eig(u)
    gen, gap = select_generator(system, speed_profile(system))
    t_star, verdict = _min_time_search(u, gen, t_horizon, tol_t)
    norm = perturbation_cost(gen.p, t_star) if t_star is not None else None
    return SteeringPlan(
        p=gen.p,
        direction=gen.direction,
        t_star=t_star,
        perturbation_norm=norm,
        verdict=verdict,
        target_gap=gap,
    )
