"""Diagonal-phase perturbation of a unitary matrix and its spectral motion.

The perturbation family is V(t) = exp(i·t·diag(p)) for a probability vector p
(conjugated for clockwise rotation), applied as U·V(t).  First-order angular
speeds of the eigenvalues are the diagonal weights of the eigenvectors
(simple case) or the eigenvalues of the eigenspace-compressed weight matrix
(degenerate case).  Exact trajectories come from eigendecomposing U·V(t)
on a uniform grid in stacked solves, matching the eigenvalues of
neighbouring grid points by a minimum-cost assignment on unit-circle arc
distance, and bisecting the intervals whose matching is ambiguous or moves
an eigenvalue too far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import (
    UNITARITY_TOL,
    EigenSystem,
    EigenspaceIsometry,
    _unitary_eig,
    check_unitary,
    principal_args,
)

CCW = "ccw"
CW = "cw"
DIRECTIONS = {CCW: CCW, "counterclockwise": CCW, CW: CW, "clockwise": CW}  # alias -> name

PROB_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
MIN_TRACK_STEP = 1e-12
MAX_TRACK_STEP = 0.05
MAX_ARC_PER_STEP = np.pi / 8
AMBIGUITY_RATIO = 2.0
AMBIGUITY_FLOOR = 1e-12
STACK_BYTES = 1 << 17  # U·V(t) matrices per stacked eigensolve: 8 at d = 32

__all__ = [
    "CCW",
    "CW",
    "DIRECTIONS",
    "STATIONARY_TOL",
    "PerturbationGenerator",
    "CompressedPerturbation",
    "StationarityCertificate",
    "TrajectoryRecord",
    "TrackingCollisionError",
    "perturbed_unitary",
    "angular_speeds",
    "simple_velocity",
    "first_order_eigenvalue",
    "compress_generator",
    "stationarity_certificate",
    "track_trajectory",
]


def _direction_sign(direction: str) -> float:
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected 'ccw' or 'cw'")
    return 1.0 if DIRECTIONS[direction] == CCW else -1.0


@dataclass(frozen=True)
class PerturbationGenerator:
    """Probability vector p (defining diag(p)) plus a rotation direction."""

    p: np.ndarray
    direction: str = CCW

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-d vector")
        if np.any(p < 0):
            raise ValueError("p must be nonnegative")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"p must sum to 1 within {PROB_SUM_TOL}, got {p.sum()!r}")
        object.__setattr__(self, "p", p)
        _direction_sign(self.direction)

    @property
    def sign(self) -> float:
        return _direction_sign(self.direction)


def perturbed_unitary(u: np.ndarray, gen: PerturbationGenerator, t: float) -> np.ndarray:
    """U·V(t).  Multiplying by a diagonal phase scales the columns of U."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[1] != gen.p.shape[0]:
        raise ValueError(f"dimension mismatch: U is {u.shape}, p has {gen.p.shape[0]} entries")
    return u * np.exp(1j * gen.sign * gen.p * t)[None, :]


def angular_speeds(vectors: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Angular speeds Σ_i p_i |x_i|² of the eigenvector columns x of ``vectors``.

    Batched as p·|X|²: a 1-d ``vectors`` gives one speed, and a 2-d ``p``
    gives one row of speeds per weight vector.
    """
    return np.asarray(p, dtype=np.float64) @ np.abs(vectors) ** 2


def simple_velocity(x: np.ndarray, p: np.ndarray) -> float:
    """Angular speed Σ_i p_i |x_i|² of a nondegenerate eigenvalue.

    :func:`angular_speeds` of one column, after checking that ``x`` is a unit
    vector.
    """
    x = np.asarray(x, dtype=np.complex128)
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"x must be a unit vector, got norm {nrm!r}")
    return float(angular_speeds(x, p))


def first_order_eigenvalue(lam: complex, speed: float, t: float, direction: str = CCW) -> complex:
    """First-order position λ·exp(±i·speed·t) of a rotating eigenvalue."""
    return lam * np.exp(1j * _direction_sign(direction) * speed * t)


@dataclass(frozen=True)
class CompressedPerturbation:
    """diag(p) compressed into one eigenspace.

    ``speeds`` (ascending eigenvalues of the compression, all in [0, 1]) are
    the first-order angular speeds of the split; ``split_vectors`` maps the
    compression eigenvectors back into the full space.
    """

    speeds: np.ndarray
    split_vectors: np.ndarray


def compress_generator(iso: EigenspaceIsometry, p: np.ndarray) -> CompressedPerturbation:
    """Compression I†·diag(p)·I of the weight matrix into an eigenspace."""
    p = np.asarray(p, dtype=np.float64)
    cols = iso.columns
    if cols.shape[1] == 1:
        # 1x1 case delegates to simple_velocity so both speed paths agree exactly
        s = simple_velocity(cols[:, 0], p)
        return CompressedPerturbation(speeds=np.array([s]), split_vectors=cols.copy())
    q = cols.conj().T @ (p[:, None] * cols)
    q = (q + q.conj().T) / 2
    speeds, modes = np.linalg.eigh(q)
    return CompressedPerturbation(speeds=speeds, split_vectors=cols @ modes)


@dataclass(frozen=True)
class StationarityCertificate:
    """Outcome of the zero-speed test on one eigenspace."""

    stationary: bool
    min_speed: float
    witness: np.ndarray | None
    probe_residual: float | None


def stationarity_certificate(
    u: np.ndarray,
    iso: EigenspaceIsometry,
    p: np.ndarray,
    probe_t: float = 1.0,
) -> StationarityCertificate:
    """Decide whether the eigenvalue of ``iso`` stays fixed under U·V(t).

    Stationary iff the compressed weight matrix has an eigenvalue of at most
    ``STATIONARY_TOL``; the witness I|v_min⟩ is then verified to be an
    eigenvector of U·V(probe_t) with the original eigenvalue.
    """
    comp = compress_generator(iso, p)
    min_speed = float(comp.speeds[0])
    if min_speed > STATIONARY_TOL:
        return StationarityCertificate(
            stationary=False, min_speed=min_speed, witness=None, probe_residual=None
        )
    witness = comp.split_vectors[:, 0]
    moved = perturbed_unitary(u, PerturbationGenerator(p=p), probe_t) @ witness
    residual = float(np.linalg.norm(moved - iso.eigenvalue * witness))
    return StationarityCertificate(
        stationary=True, min_speed=min_speed, witness=witness, probe_residual=residual
    )


class TrackingCollisionError(RuntimeError):
    """An eigenvalue crossing is too tight for the step control to resolve."""


@dataclass(frozen=True)
class TrajectoryRecord:
    """Index-matched eigenvalue paths of t ↦ U·V(t) over an adaptive grid.

    ``paths[j, k]`` is the j-th eigenvalue (initial ccw label) at ``t_grid[k]``;
    ``velocities`` the exact instantaneous velocities; ``unwrapped_args`` the
    continuously-unwrapped arguments, so monotonicity is visible directly.
    ``bisected_ambiguous`` and ``bisected_arc`` count the grid intervals the
    tracker bisected because the matching was ambiguous, or because an
    eigenvalue moved more than ``MAX_ARC_PER_STEP``.
    """

    t_grid: np.ndarray
    paths: np.ndarray
    velocities: np.ndarray
    unwrapped_args: np.ndarray
    bisected_ambiguous: int
    bisected_arc: int

    @property
    def n_steps(self) -> int:
        return self.t_grid.shape[0]

    def speeds(self) -> np.ndarray:
        """|velocity| per path and step (equals the angular speed profile)."""
        return np.abs(self.velocities)


def _arc_distance_matrix(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Pairwise |arg(new/old)| arc distances, shape (d, d)."""
    ratio = new[None, :] / old[:, None]
    return np.abs(np.angle(ratio))


DUPLICATE_TOL = 1e-11  # eigenvalues this close are interchangeable labels


def _has_duplicate(values: np.ndarray) -> np.ndarray:
    """Per entry: does another entry lie within DUPLICATE_TOL of it."""
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1) <= DUPLICATE_TOL


def _assignment_is_ambiguous(cost: np.ndarray, old: np.ndarray, new: np.ndarray) -> bool:
    """Two near-tied matching candidates (ratio < 2) for some eigenvalue.

    Ties among (numerically) coincident eigenvalues do not count: members of
    a degenerate cluster are interchangeable labels, so a split or a
    pass-through within DUPLICATE_TOL is matched arbitrarily and harmlessly.
    """
    d = cost.shape[0]
    if d < 2:
        return False
    for transpose, anchors, candidates in ((False, old, new), (True, new, old)):
        c = cost.T if transpose else cost
        skip = _has_duplicate(anchors)
        order = np.argsort(c, axis=1)
        i1, i2 = order[:, 0], order[:, 1]
        rows = np.arange(d)
        d1, d2 = c[rows, i1], c[rows, i2]
        distinct = np.abs(candidates[i1] - candidates[i2]) > DUPLICATE_TOL
        if np.any(~skip & distinct & (d1 > AMBIGUITY_FLOOR) & (d2 < AMBIGUITY_RATIO * d1)):
            return True
    return False


def _adapt_cluster_bases(system: EigenSystem, p: np.ndarray) -> np.ndarray:
    """Rotate each degenerate cluster's basis to diagonalize the compression.

    Inside a cluster the eigenbasis is arbitrary; the compression eigenbasis
    (:func:`compress_generator`) is the one whose members carry the actual
    split speeds (ascending), so recorded velocities are the physical limits
    rather than basis artifacts.
    """
    if all(len(g) == 1 for g in system.groups):
        return system.vectors
    adapted = system.vectors.copy()
    for gi, g in enumerate(system.groups):
        if len(g) > 1:
            adapted[:, list(g)] = compress_generator(system.isometry(gi), p).split_vectors
    return adapted


def _base_grid(t_end: float, marks: list[float]) -> np.ndarray:
    """Steps of ``MAX_TRACK_STEP`` from 0, landing exactly on each mark and on ``t_end``."""
    ts = [0.0]
    while ts[-1] < t_end - 1e-15:
        limit = next((m for m in marks if m > ts[-1] + 1e-15), t_end)
        t = ts[-1] + MAX_TRACK_STEP
        ts.append(limit if t >= limit - 1e-15 else t)  # the mark itself, not an ulp short
    return np.array(ts)


def _spectra(
    u: np.ndarray, gen: PerturbationGenerator, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and angular speeds of U·V(t) at each of ``times``, each row in ccw order.

    The matrices are eigendecomposed in stacks of at most ``STACK_BYTES``, so
    memory does not grow with the number of times.  Inside a degenerate
    cluster the speeds are those of the split (:func:`_adapt_cluster_bases`).
    """
    d = u.shape[0]
    per_stack = max(1, STACK_BYTES // u.nbytes)
    values = np.empty((len(times), d), dtype=np.complex128)
    speeds = np.empty((len(times), d))
    for start in range(0, len(times), per_stack):
        phases = np.exp(1j * gen.sign * gen.p * times[start : start + per_stack, None])
        # U·V(t) only rescales the columns of the checked U: no re-check
        for i, system in enumerate(_unitary_eig(u * phases[:, None, :]), start):
            values[i] = system.values
            speeds[i] = angular_speeds(_adapt_cluster_bases(system, gen.p), gen.p)
    return values, speeds


def track_trajectory(
    u: np.ndarray,
    gen: PerturbationGenerator,
    t_end: float,
    checkpoints: tuple[float, ...] = (),
    unitarity_tol: float = UNITARITY_TOL,
) -> TrajectoryRecord:
    """Track the eigenvalues of U·V(t) from t = 0 to ``t_end``.

    The grid starts as steps of ``MAX_TRACK_STEP`` that land exactly on every
    checkpoint and on ``t_end``, and U·V(t) is eigendecomposed at all of its
    points in stacked solves.  The intervals are then walked left to right:
    the eigenvalues at the right end are matched to those at the left by
    minimum-cost assignment on arc distance, and an interval whose matching
    is ambiguous, or in which an eigenvalue moved more than π/8, is bisected
    depth-first, one solved midpoint at a time, until every piece passes.
    A piece shorter than 1e-12 raises :class:`TrackingCollisionError`.  Every
    solved point ends on the grid.  U is checked for unitarity once, here:
    every U·V(t) only rescales its columns by unit phases and keeps its
    unitarity defect.
    """
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    u = check_unitary(u, tol=unitarity_tol)
    if gen.p.shape[0] != u.shape[0]:
        raise ValueError("generator dimension does not match the matrix")

    marks = sorted({float(c) for c in checkpoints if 0.0 < float(c) <= t_end})
    base = _base_grid(t_end, marks)
    base_values, base_speeds = _spectra(u, gen, base)

    ts = [0.0]
    paths = [base_values[0]]
    speeds = [base_speeds[0]]
    unwrapped = [principal_args(base_values[0])]
    bisected_ambiguous = bisected_arc = 0
    for k in range(1, len(base)):
        # solved right ends still to reach, the nearest last
        pending = [(base[k], base_values[k], base_speeds[k])]
        while pending:
            t, values, rates = pending[-1]
            cost = _arc_distance_matrix(paths[-1], values)
            perm = linear_sum_assignment(cost)[1]  # rows come back as 0, 1, …, d − 1
            movement = np.angle(values[perm] / paths[-1])
            ambiguous = _assignment_is_ambiguous(cost, paths[-1], values)
            if ambiguous or np.abs(movement).max() > MAX_ARC_PER_STEP:
                bisected_ambiguous += ambiguous
                bisected_arc += not ambiguous
                half = (t - ts[-1]) / 2
                if half < MIN_TRACK_STEP:
                    raise TrackingCollisionError(
                        f"tracking collision near t = {t:.6g}: eigenvalue crossing "
                        "too tight to resolve"
                    )
                mid = ts[-1] + half
                mid_values, mid_speeds = _spectra(u, gen, np.array([mid]))
                pending.append((mid, mid_values[0], mid_speeds[0]))
                continue
            pending.pop()
            ts.append(t)
            paths.append(values[perm])
            speeds.append(rates[perm])
            unwrapped.append(unwrapped[-1] + movement)

    paths_arr = np.array(paths).T
    return TrajectoryRecord(
        t_grid=np.array(ts),
        paths=paths_arr,
        velocities=gen.sign * 1j * paths_arr * np.array(speeds).T,
        unwrapped_args=np.array(unwrapped).T,
        bisected_ambiguous=bisected_ambiguous,
        bisected_arc=bisected_arc,
    )
