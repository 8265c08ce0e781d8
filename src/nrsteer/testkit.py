"""Generators and independent oracles for the property suites.

The membership oracle here intentionally re-implements the support sweep from
the raw matrix instead of calling into :mod:`nrsteer.numrange`, so a bug in
the production path cannot confirm itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import CLUSTER_TOL, EigenSystem, principal_args, unitary_eig
from .numrange import widest_gap
from .perturb import PerturbationGenerator, perturbed_unitary, track_trajectory
from .steering import _OneHotSpectrum

__all__ = [
    "Fixture",
    "haar_unitary",
    "conditioned_unitary",
    "degenerate_fixture",
    "fd_velocity",
    "assignment_paths",
    "secular_paths",
    "brute_membership",
]


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def haar_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-distributed d×d unitary: complex Ginibre draw, QR, phase fixing."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = _as_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))[None, :]


def conditioned_unitary(d: int, seed) -> np.ndarray:
    """Haar eigenbasis with eigenvalue angles uniform in [−1.2, 1.2].

    The spectrum lies in an arc of width 2.4 < π, so its widest gap exceeds
    π and 0 lies outside W(U): an instance ``plan`` can steer at any d, where
    Haar draws almost never miss 0 from d = 6 on.
    """
    rng = _as_rng(seed)
    x = haar_unitary(d, rng)
    return (x * np.exp(1j * rng.uniform(-1.2, 1.2, d))) @ x.conj().T


@dataclass(frozen=True)
class Fixture:
    """A unitary with a known repeated eigenvalue and a matching weight vector.

    ``p`` is supported on ``support_size`` coordinates; when
    ``support_size < multiplicity`` the eigenvalue must stay put under
    U·V(t) with residual multiplicity at least the difference.  ``system``
    is the eigendecomposition that validated the multiplicity, and
    ``system.groups[group]`` the cluster of ``eigenvalue`` in it.
    """

    label: str
    matrix: np.ndarray
    eigenvalue: complex
    multiplicity: int
    p: np.ndarray
    support_size: int
    system: EigenSystem = field(init=False, repr=False, compare=False)
    group: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        system = unitary_eig(self.matrix)
        hits = [
            gi
            for gi, g in enumerate(system.groups)
            if abs(system.values[g[0]] - self.eigenvalue) <= CLUSTER_TOL
        ]
        sizes = [len(system.groups[gi]) for gi in hits]
        if sizes != [self.multiplicity]:
            raise ValueError(
                f"fixture {self.label!r}: recomputed multiplicity {sizes} does not "
                f"match the declared {self.multiplicity}"
            )
        if int(np.sum(self.p > 0)) != self.support_size:
            raise ValueError(f"fixture {self.label!r}: weight support size mismatch")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "group", hits[0])


def _separated_angles(rng: np.random.Generator, count: int, min_gap: float) -> np.ndarray:
    """Angles in (−π, π] with pairwise circular separation at least ``min_gap``.

    Uniform points conditioned on the separation, built directly: the ccw
    gaps are min_gap + (2π − count·min_gap)·Dirichlet(1, …, 1), and the
    whole configuration is rotated uniformly.
    """
    slack = 2 * np.pi - count * min_gap
    if slack <= 0:
        raise ValueError(f"{count} angles cannot be {min_gap} apart on the circle")
    gaps = min_gap + slack * rng.dirichlet(np.ones(count))
    angles = rng.uniform(-np.pi, np.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return np.pi - (np.pi - angles) % (2 * np.pi)


def degenerate_fixture(d: int, k: int, l: int, seed=None) -> Fixture:
    """Unitary with an exactly k-fold eigenvalue plus an l-coordinate weight.

    Built as X·diag(λ,…,λ,μ₁,…)·X† with a Haar-random eigenbasis X and well
    separated distinct eigenvalues; requires 1 ≤ l < k ≤ d.
    """
    if not (1 <= l < k <= d):
        raise ValueError(f"need 1 <= l < k <= d, got d={d}, k={k}, l={l}")
    rng = _as_rng(seed)
    basis = haar_unitary(d, rng)
    angles = _separated_angles(rng, d - k + 1, min_gap=0.3)
    values = np.concatenate([np.full(k, np.exp(1j * angles[0])), np.exp(1j * angles[1:])])
    matrix = (basis * values[None, :]) @ basis.conj().T

    support = rng.choice(d, size=l, replace=False)
    weights = rng.uniform(0.5, 1.5, size=l)
    p = np.zeros(d)
    p[support] = weights / weights.sum()

    return Fixture(
        label=f"degenerate(d={d},k={k},l={l})",
        matrix=matrix,
        eigenvalue=complex(np.exp(1j * angles[0])),
        multiplicity=k,
        p=p,
        support_size=l,
    )


def fd_velocity(u: np.ndarray, gen: PerturbationGenerator, t: float, h: float) -> np.ndarray:
    """Centered finite-difference eigenvalue velocities at time ``t``.

    Differences the last points of two tracks, one ending at ``t + h`` and
    one at ``t − h`` (at t = h, the first point of the ``t + h`` track).
    Both label their paths by the ccw order at t = 0, so path j is the same
    eigenvalue in each; inherits the tracker's matching.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if t - h < 0:
        raise ValueError(f"need t - h >= 0, got t={t}, h={h}")
    plus = track_trajectory(u, gen, t_end=t + h).paths
    minus = track_trajectory(u, gen, t_end=t - h).paths[:, -1] if t > h else plus[:, 0]
    return (plus[:, -1] - minus) / (2 * h)


def assignment_paths(u: np.ndarray, gen: PerturbationGenerator, t_grid: np.ndarray) -> np.ndarray:
    """Oracle eigenvalue paths of U·V(t) on ``t_grid``, shape (d, len(t_grid)).

    Independent of the tracker's eigensolver and of its rank match: each
    spectrum comes from ``np.linalg.eigvals``, and the eigenvalues of
    neighbouring points are matched by minimum-cost assignment on arc
    distance.  Path j starts at the j-th eigenvalue in ccw order, as the
    tracker's does.
    """
    first = np.linalg.eigvals(perturbed_unitary(u, gen, t_grid[0]))
    paths = [first[np.argsort(principal_args(first))]]
    for t in t_grid[1:]:
        values = np.linalg.eigvals(perturbed_unitary(u, gen, t))
        cost = np.abs(np.angle(values[None, :] / paths[-1][:, None]))
        paths.append(values[linear_sum_assignment(cost)[1]])
    return np.array(paths).T


def secular_paths(u: np.ndarray, gen: PerturbationGenerator, t_grid: np.ndarray) -> np.ndarray:
    """Oracle eigenvalue paths of U·V(t) for a one-hot p = e_i, shape (d, len(t_grid)).

    Solves no U·V(t): the angles are the secular roots of
    ``steering._OneHotSpectrum`` on U's eigensystem, all eigenvalues simple.
    For t in (0, 2π) and weights |X[i, j]|² > 0, root j of a ccw push stays in
    (θ_j, θ_{j+1}) (cw: (θ_{j−1}, θ_j)), so the order of ±(φ − θ_0) mod 2π
    labels the roots, and never ties.  At t = 0 the paths are U's eigenvalues.
    """
    system = unitary_eig(u)
    simple = replace(system, groups=tuple((j,) for j in range(system.dim)))
    (i,) = np.flatnonzero(gen.p)  # raises unless p is one-hot
    spectrum = _OneHotSpectrum(simple, int(i), gen.sign, widest_gap(simple))
    labels = np.arange(system.dim) * int(gen.sign) % system.dim  # of the roots in turn order
    paths = np.repeat(system.values[:, None], len(t_grid), axis=1)
    for k in np.flatnonzero(t_grid):
        phi = spectrum.angles(t_grid[k])
        turn = np.mod(gen.sign * (phi - np.angle(system.values[0])), 2 * np.pi)
        paths[labels, k] = np.exp(1j * phi[np.argsort(turn)])
    return paths


def brute_membership(a: np.ndarray, n_dense: int = 16384) -> str:
    """Dense-angle membership oracle for 0 ∈ W(A), from the raw matrix only.

    Deliberately independent duplicate of the production support sweep (same
    mathematics, separate code path, no bisection) on a dense default grid of
    16384 angles, against the 720 of a default ``range`` sweep.  h(θ) is
    ‖A‖-Lipschitz, so ``inside`` needs a sampled min h above tol + ‖A‖·π/n_dense.
    """
    a = np.asarray(a, dtype=np.complex128)
    angles = np.arange(n_dense) * (2 * np.pi / n_dense)
    phases = np.exp(-1j * angles)
    stack = phases[:, None, None] * a[None, :, :]
    stack = (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2
    h_min = float(np.linalg.eigvalsh(stack)[:, -1].min())
    scale = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    tol = 1e-9 * max(scale, 1e-300)
    if h_min < -tol:
        return "outside"
    if h_min - scale * np.pi / n_dense > tol:
        return "inside"
    return "boundary_within_tol"
