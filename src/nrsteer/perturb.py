"""Diagonal-phase perturbation of a unitary matrix and its spectral motion.

The perturbation family is V(t) = exp(i·t·diag(p)) for a probability vector p
(conjugated for clockwise rotation), applied as U·V(t).  First-order angular
speeds of the eigenvalues are the diagonal weights of the eigenvectors (simple
case) or the eigenvalues of the eigenspace-compressed weight matrix
(degenerate case).  Exact trajectories read the ccw-sorted eigenvalues and
speeds of U·V(t) on a uniform grid from the arrays of stacked solves, and
match neighbouring grid points by rank.  Eigenvalues that do not meet keep
their ccw order, so at every grid point the unwrapped arguments of the paths
are the spectrum in ccw order from some rank on, lifted over less than one
turn.  The lifts from neighbouring ranks differ in sum by 2π, and det(U·V(t)) =
det U·exp(±i·t·Σp) fixes the sum: over a step of length Δt it turns by
exactly ±Δt·Σp.  So one lift gives that sum: it is the match.  Since p ≥ 0,
every eigenvalue turns the same way, so no move of a true match is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    CLUSTER_TOL,
    _cluster_on_circle,
    _has_near_pair,
    _stack_slices,
    _unitary_eig_stack,
    nearest_unitary,
    principal_args,
)

CCW = "ccw"
CW = "cw"
DIRECTIONS = {CCW: CCW, "counterclockwise": CCW, CW: CW, "clockwise": CW}  # alias -> name

PROB_SUM_TOL = 1e-12
MAX_TRACK_STEP = 0.05
MAX_TRACK_ROWS = 2_000_000  # grid points times eigenvalues in one trajectory
STEP_TOL = 1e-9  # per move and on the sum of a step's moves

__all__ = [
    "CCW",
    "CW",
    "DIRECTIONS",
    "PerturbationGenerator",
    "TrajectoryRecord",
    "TrackingCollisionError",
    "perturbed_unitary",
    "angular_speeds",
    "compress_generator",
    "track_trajectory",
]


@dataclass(frozen=True)
class PerturbationGenerator:
    """Probability vector p (defining diag(p)) plus a rotation direction.

    Any alias in ``DIRECTIONS`` is stored as its name; ``sign`` is +1 for ccw, −1 for cw.
    """

    p: np.ndarray
    direction: str = CCW
    sign: float = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"p must be finite, got {p.tolist()}")
        if np.any(p < 0):
            raise ValueError("p must be nonnegative")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"p must sum to 1 within {PROB_SUM_TOL}, got {p.sum()!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}; expected 'ccw' or 'cw'")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "direction", DIRECTIONS[self.direction])
        object.__setattr__(self, "sign", 1.0 if self.direction == CCW else -1.0)


def perturbed_unitary(u: np.ndarray, gen: PerturbationGenerator, t: float) -> np.ndarray:
    """U·V(t).  Multiplying by a diagonal phase scales the columns of U."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[1] != gen.p.shape[0]:
        raise ValueError(f"dimension mismatch: U is {u.shape}, p has {gen.p.shape[0]} entries")
    return u * np.exp(1j * gen.sign * gen.p * t)[None, :]


def angular_speeds(vectors: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Angular speeds Σ_i p_i |x_i|² of the eigenvector columns x of ``vectors``.

    Batched as p·|X|²: a 1-d ``vectors`` gives one speed, a (K, d, d) stack
    a row per matrix, and a 2-d ``p`` one row of speeds per weight vector.
    """
    return np.asarray(p, dtype=np.float64) @ np.abs(vectors) ** 2


def compress_generator(cols: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compression I†·diag(p)·I of the weight matrix onto the eigenspace spanned by I = ``cols``.

    The k columns of ``cols`` are orthonormal.  Returns ``(speeds, vectors)``
    as ``np.linalg.eigh`` does: the speeds of the split (ascending, in [0, 1])
    and the compression's eigenvectors mapped back into the full space.
    """
    p = np.asarray(p, dtype=np.float64)
    q = cols.conj().T @ (p[:, None] * cols)
    q = (q + q.conj().T) / 2
    speeds, modes = np.linalg.eigh(q)
    return speeds, cols @ modes


class TrackingCollisionError(RuntimeError):
    """A tracked step failed the rank-order check: an eigensolver fault.

    Exact spectra of U·V(t) always pass it (every move ≥ 0, moves summing to
    Δt·Σp), so a failure means a computed spectrum is wrong at that time.
    """


@dataclass(frozen=True)
class TrajectoryRecord:
    """Index-matched eigenvalue paths of t ↦ U·V(t) over the uniform grid.

    ``paths[j, k]`` is the j-th eigenvalue (initial ccw label) at ``t_grid[k]``;
    ``velocities`` the exact instantaneous velocities; ``unwrapped_args`` the
    continuously-unwrapped arguments, so monotonicity is visible directly.
    ``max_step_residual`` is the worst |Σ moves − Δt·Σp| over the steps.
    """

    t_grid: np.ndarray
    paths: np.ndarray
    velocities: np.ndarray
    unwrapped_args: np.ndarray
    max_step_residual: float

    @property
    def n_steps(self) -> int:
        """Grid points, t = 0 included: one more than the steps between them."""
        return self.t_grid.shape[0]

    def speeds(self) -> np.ndarray:
        """|velocity| per path and step (equals the angular speed profile)."""
        return np.abs(self.velocities)


def _grid_size(t_end: float) -> int:
    """Points of ``_base_grid(t_end)``, to within one, known before it is built."""
    return int(t_end / MAX_TRACK_STEP) + 2


def _base_grid(t_end: float) -> np.ndarray:
    """0, then steps of ``MAX_TRACK_STEP``, closed by at least one step onto t_end.

    ``np.cumsum`` adds one step at a time, so the points are the sums a loop
    of additions gives.  A point within 1e-15 of t_end is t_end itself.
    """
    ts = np.cumsum(np.full(_grid_size(t_end) - 1, MAX_TRACK_STEP))
    return np.concatenate([[0.0], ts[ts < t_end - 1e-15], [t_end]])


def _spectra(
    u: np.ndarray, gen: PerturbationGenerator, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and angular speeds of U·V(t) at each of ``times``, each row in ccw order.

    The matrices are eigendecomposed in stacks of at most ``linalg.STACK_BYTES``,
    so memory does not grow with the number of times.  A stack's speeds p·|X|²
    need no eigenvector phases.  Inside a degenerate cluster, whose basis is
    arbitrary, they are the speeds of its split (:func:`compress_generator`),
    given to its ccw ranks in the order its branches leave in: ascending for
    ccw, descending for cw (the fastest branch turns furthest back).
    """
    d = u.shape[0]
    values = np.empty((len(times), d), dtype=np.complex128)
    speeds = np.empty((len(times), d))
    for rows in _stack_slices(len(times), u.nbytes):
        phases = np.exp(1j * gen.sign * gen.p * times[rows, None])
        # U·V(t) only rescales the columns of the checked U: no re-check
        vals, x = _unitary_eig_stack(u * phases[:, None, :])
        order = np.argsort(principal_args(vals), axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        rates = np.take_along_axis(angular_speeds(x, gen.p), order, axis=1)
        for k in np.flatnonzero(_has_near_pair(vals)):
            for g in _cluster_on_circle(vals[k], CLUSTER_TOL):
                if len(g) > 1:
                    split, _ = compress_generator(x[k][:, order[k, g]], gen.p)
                    rates[k, g] = split if gen.sign > 0 else split[::-1]
        values[rows], speeds[rows] = vals, rates
    return values, speeds


def _rank_offsets(args: np.ndarray, sign: float, h: np.ndarray) -> np.ndarray:
    """Rank offset N of every grid point: path j sits at lifted rank N + j there.

    ``args`` holds the ascending principal arguments at each of K + 1 grid
    points, and the moves of step k must sum to ``h[k]``.  Lifted rank n is
    rank n mod d turned n // d times, so the d lifted ranks from N on are
    the spectrum in ccw order over less than one turn, and their arguments
    sum to Σargs + 2πN.  The offset advances by the one integer that turns
    that sum by sign·h; any other integer misses it by a multiple of 2π.
    Returns the offsets (K + 1,), starting at 0.
    """
    total = args.sum(axis=1)
    turns = np.rint((total[:-1] - total[1:] + sign * h) / (2 * np.pi)).astype(np.intp)
    return np.concatenate([[0], np.cumsum(turns)])


def track_trajectory(u: np.ndarray, gen: PerturbationGenerator, t_end: float) -> TrajectoryRecord:
    """Track the eigenvalues of U·V(t) from t = 0 to ``t_end``.

    The grid is steps of ``MAX_TRACK_STEP`` that land exactly on ``t_end``,
    and U·V(t) is eigendecomposed at each of its points in stacked solves;
    no other point is solved.  Each step is matched by rank
    (:func:`_rank_offsets`): the paths keep their ccw order,
    so path j moves to the spectrum's rank N + j (mod d) for one offset N,
    counted with its whole turns, and the determinant's turn h = Δt·Σp
    leaves one offset whose moves sum to h.  Two paths that meet exchange
    labels there.  Speeds are permuted with the values, and the unwrapped
    arguments are the lifted arguments of the ranks.  A step with a move
    below −``STEP_TOL``, or whose moves miss h by more than ``STEP_TOL``,
    raises :class:`TrackingCollisionError`.
    U enters once, here, by :func:`~nrsteer.linalg.nearest_unitary`, and its
    polar factor is tracked: every U·V(t) only rescales those columns by unit
    phases.  A grid whose points times d exceed ``MAX_TRACK_ROWS`` raises
    ``ValueError`` before anything is built.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    u = nearest_unitary(u)
    if gen.p.shape[0] != u.shape[0]:
        raise ValueError("generator dimension does not match the matrix")
    d = u.shape[0]
    if _grid_size(t_end) * d > MAX_TRACK_ROWS:
        raise ValueError(
            f"t_end = {t_end:g} needs {_grid_size(t_end)} grid points of {d} eigenvalues, "
            f"more than MAX_TRACK_ROWS = {MAX_TRACK_ROWS} rows"
        )

    t_grid = _base_grid(t_end)
    values, speeds = _spectra(u, gen, t_grid)
    args = principal_args(values)  # ascending in each row

    h = np.diff(t_grid) * gen.p.sum()
    lifted = _rank_offsets(args, gen.sign, h)[:, None] + np.arange(d)  # [grid point, path]
    rank = lifted % d
    steps = np.arange(len(t_grid))[:, None]
    unwrapped = args[steps, rank] + 2 * np.pi * (lifted // d)
    moves = gen.sign * np.diff(unwrapped, axis=0)
    residuals = np.abs(moves.sum(axis=1) - h)
    bad = (moves.min(axis=1) < -STEP_TOL) | (residuals > STEP_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise TrackingCollisionError(
            f"tracking failed at t = {t_grid[k + 1]:.6g}: the step from t = {t_grid[k]:.6g} "
            f"has worst move {moves[k].min():.3e} and |sum of moves - h| = "
            f"{residuals[k]:.3e} (tolerance {STEP_TOL:g}); an eigensolver fault"
        )

    paths = values[steps, rank].T
    return TrajectoryRecord(
        t_grid=t_grid,
        paths=paths,
        velocities=gen.sign * 1j * paths * speeds[steps, rank].T,
        unwrapped_args=unwrapped.T,
        max_step_residual=float(residuals.max()),
    )
