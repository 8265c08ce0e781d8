"""Numerical range (field of values) computation.

Two complementary routes:

* unitary matrices: the range is the convex hull of the unit-circle spectrum,
  so membership of the origin reduces to an angular gap test on the
  eigenvalues;
* arbitrary complex matrices: a support-function sweep
  h(θ) = λ_max(H(θ)), H(θ) = (e^{−iθ}A + e^{iθ}A†)/2 = cos θ·H₁ + sin θ·H₂,
  sampled on the uniform grid θ_k = 2πk/n.  Since H(θ+π) = −H(θ), one
  eigensolve at θ also gives h(θ+π) = −λ_min(H(θ)), so on an even grid only
  the angles in [0, π) are solved.  The angles are solved in blocks of at
  most ``SWEEP_BLOCK_BYTES`` of Hermitian stack, so memory stays bounded as
  d and n grow.

The two routes deliberately do not share eigendecomposition results, so one
can serve as an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EigenSystem, as_complex_matrix, herm_eig, principal_args, schatten_inf

ANGLES_DISPLAY = 720    # default sweep resolution for figures
ANGLES_DECISION = 2048  # default sweep resolution for membership decisions
MEMBERSHIP_REL_TOL = 1e-9
BOUNDARY_GAP_TOL = 1e-10
SWEEP_BLOCK_BYTES = 4 * 2**20  # bytes of Hermitian stack per batched eigensolve

INSIDE = "inside"
OUTSIDE = "outside"
ON_BOUNDARY = "on_boundary"
BOUNDARY_WITHIN_TOL = "boundary_within_tol"

__all__ = [
    "ANGLES_DISPLAY",
    "ANGLES_DECISION",
    "INSIDE",
    "OUTSIDE",
    "ON_BOUNDARY",
    "BOUNDARY_WITHIN_TOL",
    "SupportProfile",
    "RangePolygon",
    "support_function",
    "support_values",
    "support_profile",
    "unitary_range_polygon",
    "widest_gap",
    "contains_zero_unitary",
    "contains_zero_general",
    "distance_to_zero",
]


@dataclass(frozen=True)
class SupportProfile:
    """Support function of W(A) sampled on a uniform angle grid.

    ``support_values[k]`` is h(angles[k]); ``boundary_points[k]`` is the
    Rayleigh quotient of the maximizing eigenvector, a point of ∂W(A) with
    outward normal e^{i·angles[k]}.
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray


@dataclass(frozen=True)
class RangePolygon:
    """Convex polygon vertices in counterclockwise order."""

    vertices: np.ndarray


def support_function(a: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    """Support value h(θ) of W(A) and the witness unit vector attaining it."""
    a = as_complex_matrix(a)
    herm = (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / 2
    w, x = herm_eig(herm, tol=1e-9)
    return float(w[-1]), x[:, -1]


def _angles_per_block(d: int) -> int:
    """Angles whose d×d complex Hermitian matrices fit in ``SWEEP_BLOCK_BYTES``."""
    return max(1, SWEEP_BLOCK_BYTES // (16 * d * d))


def _support_sweep(
    a: np.ndarray, n_angles: int, witnesses: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Angles, h(θ) and (when ``witnesses``) boundary points on the uniform grid.

    On an even grid θ_{k+n/2} = θ_k + π, so the first n/2 angles are solved
    and the rest read λ_min and the bottom eigenvector; an odd grid has no
    antipodal pairs and every angle is solved for λ_max alone.
    """
    if n_angles < 16:
        raise ValueError(f"need at least 16 angles, got {n_angles}")
    a = as_complex_matrix(a)
    angles = np.arange(n_angles) * (2 * np.pi / n_angles)
    solved = n_angles // 2 if n_angles % 2 == 0 else n_angles
    mirror = solved < n_angles
    herm_re = (a + a.conj().T) / 2
    herm_im = (a - a.conj().T) / 2j
    h = np.empty(n_angles)
    points = np.empty(n_angles, dtype=np.complex128) if witnesses else None
    step = _angles_per_block(a.shape[0])
    for lo in range(0, solved, step):
        hi = min(lo + step, solved)
        theta = angles[lo:hi, None, None]
        stack = np.cos(theta) * herm_re + np.sin(theta) * herm_im
        if witnesses:
            w, x = np.linalg.eigh(stack)
            points[lo:hi] = _rayleigh(a, x[:, :, -1])
            if mirror:
                points[lo + solved : hi + solved] = _rayleigh(a, x[:, :, 0])
        else:
            w = np.linalg.eigvalsh(stack)
        h[lo:hi] = w[:, -1]
        if mirror:
            h[lo + solved : hi + solved] = -w[:, 0]
    return angles, h, points


def _rayleigh(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x†Ax for each row x of ``x``."""
    return (x.conj() * (x @ a.T)).sum(axis=1)


def support_values(a: np.ndarray, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and h(θ) over a uniform grid of [0, 2π), blocked half-circle sweep."""
    angles, h, _ = _support_sweep(a, n_angles, witnesses=False)
    return angles, h


def support_profile(a: np.ndarray, n_angles: int = ANGLES_DISPLAY) -> SupportProfile:
    """Full boundary sweep with witnesses: :func:`support_values` plus eigenvectors."""
    angles, h, points = _support_sweep(a, n_angles, witnesses=True)
    return SupportProfile(angles=angles, support_values=h, boundary_points=points)


def unitary_range_polygon(system: EigenSystem) -> RangePolygon:
    """Vertices of W(U): the distinct eigenvalues in counterclockwise order."""
    reps = system.representatives()
    return RangePolygon(vertices=reps[np.argsort(principal_args(reps), kind="stable")])


def widest_gap(system: EigenSystem) -> tuple[float, int, int]:
    """Widest arc gap between ccw-consecutive eigenvalue clusters.

    Returns ``(gap, start, end)``: the gap opens at cluster ``start`` and
    closes ccw at cluster ``end`` (indices into ``system.groups``).  The wrap
    gap across ±π counts; a single cluster has one gap of 2π onto itself.
    """
    args = np.angle(system.representatives())
    order = np.argsort(args, kind="stable")
    sorted_args = args[order]
    gaps = np.diff(np.concatenate([sorted_args, [sorted_args[0] + 2 * np.pi]]))
    k = int(np.argmax(gaps))
    return float(gaps[k]), int(order[k]), int(order[(k + 1) % len(order)])


def contains_zero_unitary(system: EigenSystem, gap_tol: float = BOUNDARY_GAP_TOL) -> str:
    """Gap test: 0 lies in the spectral hull iff no arc gap exceeds π.

    The widest gap comes from :func:`widest_gap`; within ``gap_tol`` of π the
    origin lies on the boundary.
    """
    if len(system.groups) == 1:
        return OUTSIDE
    gap, _, _ = widest_gap(system)
    if abs(gap - np.pi) <= gap_tol:
        return ON_BOUNDARY
    return OUTSIDE if gap > np.pi else INSIDE


def contains_zero_general(a: np.ndarray, n_angles: int = ANGLES_DECISION) -> str:
    """Membership of 0 in W(A) by the sampled support-function sign test."""
    a = as_complex_matrix(a)
    _, h = support_values(a, n_angles)
    h_min = float(h.min())
    tol = MEMBERSHIP_REL_TOL * max(schatten_inf(a), 1e-300)
    if h_min < -tol:
        return OUTSIDE
    if h_min > tol:
        return INSIDE
    return BOUNDARY_WITHIN_TOL


def distance_to_zero(a: np.ndarray, n_angles: int = ANGLES_DECISION) -> float:
    """Euclidean distance from the origin to W(A); 0 when the origin is inside."""
    _, h = support_values(a, n_angles)
    return max(0.0, float((-h).max()))
