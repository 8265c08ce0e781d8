"""Numerical range (field of values) computation.

Two complementary routes:

* unitary matrices: the range is the convex hull of the unit-circle spectrum,
  so membership of the origin reduces to an angular gap test on the
  eigenvalues;
* arbitrary complex matrices: a support-function sweep
  h(θ) = λ_max(H(θ)), H(θ) = (e^{−iθ}A + e^{iθ}A†)/2 = cos θ·H₁ + sin θ·H₂,
  sampled on the uniform grid θ_k = 2πk/n by :func:`support_profile`,
  together with a boundary point of W(A) at each angle.  Since
  H(θ+π) = −H(θ), one eigensolve at θ also gives h(θ+π) = −λ_min(H(θ)),
  so on an even grid only the angles in [0, π) are solved.  A sweep needs
  only the two extreme eigenpairs of each H(θ).  From
  d = ``TRIDIAGONAL_MIN_DIM`` on, each H(θ) is reduced once to real
  tridiagonal form (LAPACK ``zhetrd``), the MRRR solver ``dstemr`` gives
  eigenpairs 1 and d of the tridiagonal by index, one call each, and only
  those two vectors are mapped back (``zunmqr``): a full ``eigh`` would
  also build the d − 2 vectors no one reads.  Below that d the per-angle calls cost
  more than a batched ``eigh``, so small matrices keep the batched route.
  Either way the angles are solved in blocks of at most
  ``linalg.STACK_BYTES`` of Hermitian stack, and each block's vectors
  become boundary points before the next, so memory grows like n, plus
  one block of vectors.  A warm start from the neighbouring angle would
  not save the reduction: one grid step moves H(θ) by about as much as the
  gap λ₁ − λ₂ on typical inputs.
  The origin verdict is certified from such a sweep: the solved values
  bound min h from above, the chords between neighbouring boundary points
  bound it from below, and the cells that keep the bracket from deciding
  are bisected (:func:`origin_verdict`).

The two routes deliberately do not share eigendecomposition results, so one
can serve as an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .linalg import (
    EigendecompositionError,
    EigenSystem,
    _herm_eig,
    _stack_slices,
    as_complex_matrix,
    schatten_inf,
)

ANGLES_DISPLAY = 720    # default sweep resolution for figures
MEMBERSHIP_REL_TOL = 1e-9
BOUNDARY_GAP_TOL = 1e-10
TRIDIAGONAL_MIN_DIM = 14  # from this d on, a sweep solves only the two extreme eigenpairs
MAX_REFINED_ANGLES = 4096  # angles origin_verdict may add to a profile's grid

INSIDE = "inside"
OUTSIDE = "outside"
ON_BOUNDARY = "on_boundary"
BOUNDARY_WITHIN_TOL = "boundary_within_tol"

__all__ = [
    "ANGLES_DISPLAY",
    "INSIDE",
    "OUTSIDE",
    "ON_BOUNDARY",
    "BOUNDARY_WITHIN_TOL",
    "SupportProfile",
    "OriginVerdict",
    "support_profile",
    "widest_gap",
    "contains_zero_unitary",
    "origin_verdict",
    "contains_zero_general",
]


@dataclass(frozen=True)
class SupportProfile:
    """Support function of W(A) sampled on a uniform angle grid.

    ``matrix`` is the checked A, a copy of the caller's;
    ``support_values[k]`` is h(angles[k]); ``boundary_points[k]`` is the
    Rayleigh quotient of the maximizing eigenvector, a point of ∂W(A) with
    outward normal e^{i·angles[k]}.
    """

    matrix: np.ndarray
    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray


@dataclass(frozen=True)
class OriginVerdict:
    """Certified answer to "is 0 in W(A)?" with the bracket behind it.

    ``lower`` ≤ min h ≤ ``upper``; ``upper`` is h(``angle``), the smallest
    solved support value.  ``n_angles`` counts the solved angles: the
    profile's grid plus those added by refinement.
    """

    verdict: str
    lower: float
    upper: float
    angle: float
    n_angles: int


def _hermitian_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H₁ = (A + A†)/2 and H₂ = (A − A†)/(2i), so that H(θ) = cos θ·H₁ + sin θ·H₂."""
    return (a + a.conj().T) / 2, (a - a.conj().T) / 2j


def _lapack_outputs(routine: str, theta: float, *outputs):
    """The outputs of a ``scipy.linalg.lapack`` call at angle θ, less its trailing ``info``."""
    *values, info = outputs
    if info != 0:
        raise EigendecompositionError(f"LAPACK {routine} failed with info {info} at θ = {theta!r}")
    return values


def _tridiagonal_extremes(herm: np.ndarray, theta: float, lwork: int):
    """λ_min, λ_max and the d×2 array of their unit eigenvectors.

    ``herm`` is H(θ) in Fortran order and is overwritten.  One ``zhetrd``
    reduces it to a real tridiagonal T = Q†HQ, ``dstemr`` (MRRR) finds
    eigenpair 1 of T and of −T by index, and ``zunmqr`` applies Q to those
    two columns alone.
    """
    d = herm.shape[0]
    reduced, diag, off, tau = _lapack_outputs(
        "zhetrd", theta, *lapack.zhetrd(herm, lower=1, lwork=lwork, overwrite_a=1)
    )
    w = np.empty(2)
    x = np.empty((d, 2), dtype=np.complex128)
    e = np.zeros(d)
    # MRRR shifts T to the left end of its spectrum when one eigenpair is
    # wanted, so λ_max is solved as λ_min of −T, next to its shift
    for j, sign in enumerate((1.0, -1.0)):
        e[:-1] = sign * off  # dstemr overwrites e
        # range 2 selects eigenpairs by index
        _, values, z = _lapack_outputs(
            "dstemr", theta, *lapack.dstemr(sign * diag, e, 2, 0.0, 0.0, 1, 1)
        )
        w[j], x[:, j] = sign * values[0], z[:, 0]
    # with lower=1, Q fixes row 0 and its reflectors are the QR form of reduced[1:, :d-1]
    (x[1:], _) = _lapack_outputs(
        "zunmqr", theta, *lapack.zunmqr("L", "N", reduced[1:, :-1], tau, x[1:], 2)
    )
    return w[0], w[1], x


def _extreme_pairs(a: np.ndarray, theta: np.ndarray):
    """λ_min and λ_max of H(θ) for each θ in ``theta``, with the boundary points they give.

    Returns ``(lo, hi, z_lo, z_hi)``, arrays over ``theta``, with z = x†Ax
    for the unit eigenvector x of λ_min or λ_max.  Each block of angles that
    ``linalg._stack_slices`` allows is solved by :func:`_tridiagonal_extremes`
    from d = ``TRIDIAGONAL_MIN_DIM`` on and by batched ``eigh`` below it, and
    its eigenvectors become boundary points before the next block is solved.
    """
    herm_re, herm_im = _hermitian_parts(a)
    d = a.shape[0]
    lo, hi = np.empty(len(theta)), np.empty(len(theta))
    z = np.empty((2, len(theta)), dtype=np.complex128)
    tridiagonal = d >= TRIDIAGONAL_MIN_DIM
    if tridiagonal:
        herm_re, herm_im = np.asfortranarray(herm_re), np.asfortranarray(herm_im)
        work, _ = lapack.zhetrd_lwork(d, lower=1)
        lwork = int(work.real)
        angles, cos, sin = theta.tolist(), np.cos(theta).tolist(), np.sin(theta).tolist()
    for rows in _stack_slices(len(theta), herm_re.nbytes):
        if tridiagonal:
            x = np.empty((2, rows.stop - rows.start, d), dtype=np.complex128)
            for j, k in enumerate(range(rows.start, rows.stop)):
                herm = cos[k] * herm_re + sin[k] * herm_im
                lo[k], hi[k], pair = _tridiagonal_extremes(herm, angles[k], lwork)
                x[:, j] = pair.T
        else:
            t = theta[rows, None, None]
            w, v = _herm_eig(np.cos(t) * herm_re + np.sin(t) * herm_im)
            lo[rows], hi[rows] = w[:, 0], w[:, -1]
            x = np.stack([v[:, :, 0], v[:, :, -1]])
        # one product of both halves: a single row would take numpy's gemv, not gemm
        x = x.reshape(-1, d)
        z[:, rows] = (x.conj() * (x @ a.T)).sum(axis=1).reshape(2, -1)
    return lo, hi, z[0], z[1]


def support_profile(a: np.ndarray, n_angles: int = ANGLES_DISPLAY) -> SupportProfile:
    """h(θ) and its boundary points on the uniform grid θ_k = 2πk/n of [0, 2π).

    On an even grid θ_{k+n/2} = θ_k + π, so the first n/2 angles are solved
    and the rest read λ_min and the bottom eigenvector; an odd grid has no
    antipodal pairs, so every angle is solved and only λ_max is read.
    """
    if n_angles < 16:
        raise ValueError(f"need at least 16 angles, got {n_angles}")
    a = as_complex_matrix(a).copy()  # the caller's array when it is already complex
    angles = np.arange(n_angles) * (2 * np.pi / n_angles)
    solved = n_angles // 2 if n_angles % 2 == 0 else n_angles
    mirror = solved < n_angles
    lo, hi, z_lo, z_hi = _extreme_pairs(a, angles[:solved])
    h = np.concatenate([hi, -lo]) if mirror else hi
    points = np.concatenate([z_hi, z_lo]) if mirror else z_hi
    return SupportProfile(matrix=a, angles=angles, support_values=h, boundary_points=points)


def widest_gap(system: EigenSystem) -> tuple[float, int, int]:
    """Widest arc gap between ccw-consecutive eigenvalue clusters.

    Returns ``(gap, start, end)``: the gap opens at cluster ``start`` and
    closes ccw at cluster ``end`` (indices into ``system.groups``).  The wrap
    gap across ±π counts; a single cluster has one gap of 2π onto itself.
    """
    return _widest_arc(np.angle(system.representatives))


def _widest_arc(args: np.ndarray) -> tuple[float, int, int]:
    """Widest ccw gap between the points e^{i·args}, with args in one 2π window.

    Returns ``(gap, start, end)`` as in :func:`widest_gap`, with ``start`` and
    ``end`` indices into ``args``.
    """
    order = np.argsort(args, kind="stable")
    sorted_args = args[order]
    gaps = np.diff(np.concatenate([sorted_args, [sorted_args[0] + 2 * np.pi]]))
    k = int(np.argmax(gaps))
    return float(gaps[k]), int(order[k]), int(order[(k + 1) % len(order)])


def _gap_verdict(gap: float) -> str:
    """Gap test on a widest arc gap: within ``BOUNDARY_GAP_TOL`` of π, 0 is on the boundary."""
    if abs(gap - np.pi) <= BOUNDARY_GAP_TOL:
        return ON_BOUNDARY
    return OUTSIDE if gap > np.pi else INSIDE


def contains_zero_unitary(system: EigenSystem) -> str:
    """Gap test: 0 lies in the spectral hull iff no arc gap exceeds π.

    The widest gap comes from :func:`widest_gap`; within ``BOUNDARY_GAP_TOL``
    of π the origin lies on the boundary.  A single cluster has a 2π gap,
    so 0 lies outside.
    """
    return _gap_verdict(widest_gap(system)[0])


def _cell_lower_bounds(angles: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Lower bound on h over each cell [θ_k, θ_{k+1}] of the sorted angle cycle.

    Both witnesses z_k, z_{k+1} lie in W(A), so h(θ) ≥ g(θ) =
    max(Re e^{−iθ}z_k, Re e^{−iθ}z_{k+1}) on the cell.  g is the larger of
    two sinusoids, so its minimum over the cell lies at a cell end, where
    the two cross (θ = arg(z_k − z_{k+1}) ± π/2), or at the trough
    θ = arg z + π of either; g is evaluated at each of those in the cell.
    """
    lo = angles
    hi = np.append(angles[1:], angles[0] + 2 * np.pi)
    z0, z1 = points, np.roll(points, -1)
    cross = np.angle(z0 - z1)
    turns = np.stack(
        [cross + np.pi / 2, cross - np.pi / 2, np.angle(z0) + np.pi, np.angle(z1) + np.pi], axis=1
    )
    turns = lo[:, None] + np.mod(turns - lo[:, None], 2 * np.pi)
    turns = np.where(turns <= hi[:, None], turns, lo[:, None])
    theta = np.concatenate([lo[:, None], hi[:, None], turns], axis=1)
    phase = np.exp(-1j * theta)
    g = np.maximum((phase * z0[:, None]).real, (phase * z1[:, None]).real)
    return g.min(axis=1)


def _bracket_verdict(lower: float, upper: float, tol: float) -> str | None:
    """The verdict that lower ≤ min h ≤ upper certifies, or ``None``."""
    if upper < -tol:
        return OUTSIDE
    if lower > tol:
        return INSIDE
    if lower >= -tol and upper <= tol:
        return BOUNDARY_WITHIN_TOL
    return None


def origin_verdict(profile: SupportProfile) -> OriginVerdict:
    """Certified membership of 0 in W(A), read from ``profile = support_profile(a, n)`` alone.

    The solved angles bound min h from above (``upper``) and the witness
    chords of :func:`_cell_lower_bounds` bound it from below (``lower``), as
    in the inner/outer approximation of C. R. Johnson, SIAM J. Numer. Anal.
    15 (1978).  With tol = ``MEMBERSHIP_REL_TOL``·‖A‖ the verdict is
    ``outside`` when upper < −tol, ``inside`` when lower > tol and
    ``boundary_within_tol`` when both lie in [−tol, tol].  Otherwise the cells
    that block a decision are bisected, their midpoints solved in one batch,
    and the bracket recomputed; more than ``MAX_REFINED_ANGLES`` added angles
    raise ``RuntimeError``.  ``profile`` is not modified.
    """
    a = profile.matrix
    tol = MEMBERSHIP_REL_TOL * max(schatten_inf(a), 1e-300)
    angles, h, points = profile.angles, profile.support_values, profile.boundary_points
    while True:
        cell_lower = _cell_lower_bounds(angles, points)
        k = int(np.argmin(h))
        upper = float(h[k])
        # L comes from Rayleigh quotients and U from eigenvalues, so at an
        # exact touch rounding can put L above U; min h ≤ U bounds L anyway
        lower = min(float(cell_lower.min()), upper)
        verdict = _bracket_verdict(lower, upper, tol)
        if verdict is not None:
            return OriginVerdict(verdict, lower, upper, float(angles[k]), len(angles))
        # above tol only `inside` is left, which needs every cell bound > tol;
        # otherwise `boundary_within_tol` needs every cell bound ≥ −tol
        cells = np.flatnonzero(cell_lower <= tol if upper > tol else cell_lower < -tol)
        refined = len(angles) - len(profile.angles)
        # a non-finite bracket selects no cell and would never decide
        if not len(cells) or refined + len(cells) > MAX_REFINED_ANGLES:
            raise RuntimeError(
                f"origin verdict undecided after {refined} refined angles: "
                f"min h in [{lower:.3e}, {upper:.3e}] with tol {tol:.1e}"
            )
        ends = np.append(angles[1:], angles[0] + 2 * np.pi)
        mids = np.mod((angles[cells] + ends[cells]) / 2, 2 * np.pi)
        _, mid_h, _, mid_points = _extreme_pairs(a, mids)
        order = np.argsort(np.concatenate([angles, mids]), kind="stable")
        angles = np.concatenate([angles, mids])[order]
        h = np.concatenate([h, mid_h])[order]
        points = np.concatenate([points, mid_points])[order]


def contains_zero_general(a: np.ndarray, n_angles: int = ANGLES_DISPLAY) -> str:
    """Certified membership of 0 in W(A): :func:`origin_verdict` on an ``n_angles`` profile."""
    return origin_verdict(support_profile(a, n_angles)).verdict
