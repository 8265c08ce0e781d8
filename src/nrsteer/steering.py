"""End-to-end steering: drive the numerical range of U over the origin.

Given a unitary U whose numerical range misses 0, the planner

1. reads the angular speeds each basis weight would impart from the squared
   moduli of the eigenvector entries (the speed profile),
2. targets the arc gap wider than π (the certificate that 0 is outside) and
   picks the one-hot weight vector and rotation direction that close that gap
   fastest at first order,
3. steps t through times certified outside.  Each step goes to the later
   of t + m(t), where the margin m(t) = widest arc gap − π of U·V(t)^± is
   1-Lipschitz because every eigenvalue turns at a speed in [0, 1], and the
   first time the leading end of the gap can reach the antipode of its
   trailing end, which never turns back.  So no step passes the first time
   0 enters W(U·V(t)^±); once m < ``tol_t`` a probe at t + ``tol_t``
   closes the bracket, and
4. reports the minimal time together with the perturbation cost
   ‖1 − V(t*)‖∞ = 2·max_i |sin(p_i t*/2)|.

The search steps only one-hot pushes p = e_i, the only kind step 2
picks.  Then V(t) − 1 has rank one, and the eigenangles φ of U·V(t) are the
roots of the secular equation Σ_j w_j·cot((φ − θ_j)/2) = cot(±t/2), where
θ_j are the eigenangles of U and w_j = |X[i, j]|² its speed profile column
(Bunch, Nielsen & Sorensen, Numer. Math. 31 (1978); Gragg & Reichel, Numer.
Math. 57 (1990)).  There is one root between each pair of neighbouring θ_j,
and LAPACK ``dlasd4`` finds each one after a Cayley map turns the equation
into a real rank-one secular equation (:class:`_OneHotSpectrum`).  So a plan
makes one eigendecomposition, of U, and no margin evaluation solves an
eigenproblem.  By interlacing, the gap between the two roots that start at
the ends a → b of U's widest gap is, until the touch, the only gap wider
than π (Golub, SIAM Rev. 15 (1973)), so a step solves those two roots
alone, and the time bound of step 3 is 2·arccot(±C(ψ)) at the antipode ψ,
with C(φ) = Σ_j w_j·cot((φ − θ_j)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .linalg import EigendecompositionError, EigenSystem, _unitary_eig, nearest_unitary
from .numrange import (
    BOUNDARY_GAP_TOL,
    INSIDE,
    ON_BOUNDARY,
    OUTSIDE,
    _gap_verdict,
    _widest_arc,
    widest_gap,
)
from .perturb import CCW, CW, PerturbationGenerator

# margin evaluations per search; isolated d = 2 touches have needed fewer than 800
MAX_MARGIN_EVALS = 100_000
# an eigenvalue whose weight |⟨e_i|x⟩|² is at most this stays fixed: dropping it
# moves U·V(t) by O(|⟨e_i|x⟩|) = O(eps) in norm, and dlasd4 fails on a vanishing z_j
DEFLATION_TOL = np.finfo(float).eps ** 2

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
    return (np.abs(system.vectors) ** 2).T


def select_generator(
    system: EigenSystem, profile: np.ndarray, widest: tuple[float, int, int]
) -> tuple[PerturbationGenerator, tuple[int, int]]:
    """One-hot weight vector and direction closing the certifying gap fastest.

    The gap from eigenvalue a ccw to eigenvalue b shrinks at first order at
    rate S[a,i] − S[b,i] under ccw rotation with weight e_i (the sign flips
    for cw), so the basis index with the largest absolute row difference is
    chosen and the sign dictates the direction.  Ties within rounding (1e-12)
    resolve to the lowest basis index: at d = 2 the profile is doubly
    stochastic, so both indices always tie, and e₀ ccw and e₁ cw differ only
    by a global phase.  The gap (a, b) is ``widest``, the ``widest_gap(system)``
    of :func:`~nrsteer.numrange.widest_gap`; its width is the gap test of
    :func:`~nrsteer.numrange.contains_zero_unitary`.
    """
    gap, start, end = widest
    if _gap_verdict(gap) != OUTSIDE:
        raise NothingToSteerError("nothing to steer: 0 already lies in the numerical range")
    a, b = system.groups[start][0], system.groups[end][0]
    diff = profile[a] - profile[b]
    best = int(np.argmax(np.abs(diff) >= np.abs(diff).max() - 1e-12))
    direction = CCW if diff[best] > 0 else CW
    p = np.zeros(system.dim)
    p[best] = 1.0
    return PerturbationGenerator(p=p, direction=direction), (a, b)


class _CayleyFrame:
    """The secular equation of the moving eigenvalues, in one Cayley chart.

    With X = cot((φ − c)/2) and Y_j = cot((θ_j − c)/2) for a centre c in U's
    widest gap, cot((φ − θ_j)/2) = (1 + Y_j²)/(Y_j − X) − Y_j, so the roots
    solve Σ_j z_j²/(Y_j − X) = cot(phase/2) + Σ_j w_j·Y_j =: R with
    z_j² = w_j(1 + Y_j²): one X between neighbouring Y_j and one outside
    them, below min Y when R > 0 and above max Y when R < 0.  Reflected so
    that this outer root lies above, and shifted by the nearest end, that is
    the equation of the squared singular values σ² of diag(D) + ρ·ẑẑᵀ with
    D_j² = |Y_j − end|, ‖ẑ‖ = 1 and ρ = ‖z‖²/|R|, which ``dlasd4`` solves.

    Roots are numbered by the poles in ascending order: root j < n − 1 lies
    between the j-th and (j + 1)-th smallest Y, and root n − 1 is the outer
    one.  X falls as φ turns ccw from c, so the smallest pole is where U's
    widest gap opens and the largest where it closes.
    """

    def __init__(self, angles: np.ndarray, weights: np.ndarray, center: float):
        self.center = center
        poles = 1 / np.tan((angles - center) / 2)
        order = np.argsort(poles)
        poles, weights = poles[order], weights[order]
        z2 = weights * (1 + poles**2)
        self.norm2 = float(z2.sum())
        self.offset = float(weights @ poles)
        z = np.sqrt(z2 / self.norm2)
        self.ends = (float(poles[0]), float(poles[-1]))
        # R < 0: D_j² = Y_j − min Y ascending; R > 0: D_j² = max Y − Y_j, Y descending
        self.up = (np.sqrt(poles - poles[0]), z)
        self.down = (np.sqrt(poles[-1] - poles[::-1]), z[::-1])

    def roots(self, r: float, t: float, js: np.ndarray) -> np.ndarray:
        """Angles of roots ``js`` for right-hand side R = ``r`` at time ``t``, a ``dlasd4`` call each."""
        n = len(self.up[0])
        if r < 0:
            (d, z), end, sign, ks = self.up, self.ends[0], 1.0, js
        else:  # descending poles: root j is dlasd4's n − 2 − j, and the outer root stays last
            (d, z), end, sign, ks = self.down, self.ends[1], -1.0, (n - 2 - js) % n
        rho = self.norm2 / abs(r)
        sigma = np.empty(len(ks))
        for m, k in enumerate(ks):
            _, sigma[m], _, info = lapack.dlasd4(k, d, z, rho)
            if info != 0:
                raise EigendecompositionError(f"LAPACK dlasd4 failed with info {info} at t = {t!r}")
        return self.center + 2 * np.arctan2(1.0, end + sign * sigma**2)


class _OneHotSpectrum:
    """Eigenangles of U·V(t), V(t) = exp(i·speed·t·e_i e_iᵀ), from the eigensystem of U.

    Deflation comes first.  A cluster of ``system.groups`` moves as one
    eigenvalue, at its representative angle, with the summed weight
    w = Σ |X[i, j]|² of its members: the component of e_i in its eigenspace
    is the only direction V(t) acts on, so the other m − 1 copies stay
    fixed, as does a whole cluster of weight at most ``DEFLATION_TOL``.  A
    single moving eigenvalue turns rigidly by speed·t.  Otherwise the moving
    roots come from the :class:`_CayleyFrame` centred on the middle of U's
    widest gap ``widest`` (as :func:`~nrsteer.numrange.widest_gap` gives it),
    or from one a quarter gap further on when that gives the larger
    |R|/‖z‖²: R = 0 puts a root on the centre, out of dlasd4's reach.  Where
    ``dlasd4`` fails in the chosen chart, the other chart solves.
    """

    def __init__(self, system: EigenSystem, i: int, speed: float, widest: tuple[float, int, int]):
        angles = np.angle(system.representatives)
        sizes = np.array([len(g) for g in system.groups])
        w = np.abs(system.vectors[i]) ** 2
        weights = np.array([w[list(g)].sum() for g in system.groups])
        moving = weights > DEFLATION_TOL
        self.speed = speed
        self.fixed = np.repeat(angles, sizes - moving)
        self.moving = angles[moving]
        self.weights = weights[moving]
        self.frames = ()
        if len(self.moving) > 1:
            gap, start, _ = widest
            center = angles[start] + gap / 2
            self.frames = tuple(
                _CayleyFrame(self.moving, self.weights, c) for c in (center, center + gap / 4)
            )
        # the clusters a → b at the ends of the widest gap, when no eigenvalue is fixed
        self.gap_clusters = list(widest[1:]) if self.frames and not len(self.fixed) else None

    def _roots(self, t: float, js: np.ndarray) -> np.ndarray:
        """Roots ``js``, numbered as in :class:`_CayleyFrame`, at a t where sin(phase/2) ≠ 0."""
        cot_half = 1 / math.tan(self.speed * t / 2)
        first, other = sorted(
            self.frames, key=lambda f: abs(cot_half + f.offset) / f.norm2, reverse=True
        )
        try:
            return first.roots(cot_half + first.offset, t, js)
        except EigendecompositionError:
            return other.roots(cot_half + other.offset, t, js)

    def angles(self, t: float) -> np.ndarray:
        """Eigenangles of U·V(t) in [0, 2π), with multiplicity, in no particular order."""
        phase = self.speed * t
        if math.sin(phase / 2) == 0:
            moved = self.moving
        elif not self.frames:
            moved = self.moving + phase
        else:
            moved = self._roots(t, np.arange(len(self.moving)))
        return np.mod(np.concatenate([self.fixed, moved]), 2 * np.pi)

    def gap_ends(self, t: float) -> np.ndarray | None:
        """Angles of the two roots that start at a and b, the ends of U's widest gap.

        Until the first touch, the gap from a's root ccw to b's is the only
        one wider than π, because each root stays between its two poles and
        no eigenvalue is fixed.  None when an eigenvalue is fixed, since it
        could lie in that gap, or when fewer than two eigenvalues move.
        """
        if self.gap_clusters is None:
            return None
        n = len(self.moving)
        if math.sin(self.speed * t / 2) == 0:
            return self.moving[self.gap_clusters]
        if self.speed > 0:  # a's root is the outer one, b's lies above the largest pole
            return self._roots(t, np.array([n - 1, n - 2]))
        return self._roots(t, np.array([0, n - 1]))  # a's lies above the smallest pole

    def gap_step(self, t: float) -> tuple[float, float] | None:
        """Margin m(t) from :meth:`gap_ends`, and a time before which 0 stays outside.

        Every root turns one way, so the trailing root (b's under a ccw push,
        a's under cw) never turns back, and the gap cannot close before the
        leading root reaches the trailing root's antipode ψ.  A moving root
        sits at ψ where cot(phase/2) = C(ψ) = Σ_j w_j·cot((ψ − θ_j)/2).  The
        gap closes within the first turn, as the leading root nears the next
        pole, so that phase is taken in (0, 2π).  None where
        :meth:`gap_ends` is None.
        """
        ends = self.gap_ends(t)
        if ends is None:
            return None
        lo, hi = ends
        margin = float(np.mod(hi - lo, 2 * np.pi)) - np.pi
        ccw = self.speed > 0
        psi = hi - np.pi if ccw else lo + np.pi
        c = float(self.weights @ (1 / np.tan((psi - self.moving) / 2)))
        return margin, 2 * math.atan2(1.0, c if ccw else -c) / abs(float(self.speed))


def _min_time_search(
    spectrum: _OneHotSpectrum, t_horizon: float, tol_t: float
) -> tuple[float | None, str]:
    """First time within the horizon at which 0 enters W(U·V(t)^±).

    ``spectrum`` gives the eigenangles of U·V(t) for the one-hot push e_i;
    the caller checks U and the options.  Returns ``(t_star, verdict)``: 0
    lies in the range at ``t_star`` and is certified outside it at every
    t < ``t_star − tol_t``; ``t_star = None`` when the certified steps cover
    the horizon.

    Each step solves the two roots at the ends of U's widest gap
    (:meth:`_OneHotSpectrum.gap_step`) and moves t to the later of t + m(t),
    safe because m is 1-Lipschitz, and the time the leading root needs to
    reach the trailing root's antipode.  The full spectrum is solved only
    where a verdict other than outside is possible: where that margin is
    within ``BOUNDARY_GAP_TOL`` of 0, at the probe t + ``tol_t`` that closes
    the bracket once m < ``tol_t``, and at every step where a fixed
    eigenvalue or a single moving one leaves no two-root margin.
    """
    def margin_at(t: float) -> tuple[float, str]:
        gap = _widest_arc(spectrum.angles(t))[0]
        return gap - np.pi, _gap_verdict(gap)

    t, evals = 0.0, 0
    while True:
        step = spectrum.gap_step(t)
        if step is not None and step[0] > BOUNDARY_GAP_TOL:
            margin, safe = step
        else:
            margin, verdict = margin_at(t)
            if verdict != OUTSIDE:
                return t, _REACHED[verdict]
            safe = t
        evals += 1
        after = max(t + margin, safe)
        if after > t_horizon:  # [t, after) is certified outside
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
        t = after


def perturbation_cost(p: np.ndarray, t: float) -> float:
    """Closed form of ‖1 − V(t)‖∞ for the diagonal family: 2·max_i|sin(p_i t/2)|."""
    return float(2.0 * np.abs(np.sin(np.asarray(p) * t / 2)).max())


def plan(u: np.ndarray, t_horizon: float = 2 * np.pi, tol_t: float = 1e-3) -> SteeringPlan:
    """Full pipeline: eigensystem → speed profile → generator → minimal time.

    U enters by :func:`~nrsteer.linalg.nearest_unitary`, and the plan is its
    polar factor's.  W(U·V) lies within δ = ‖U − polar(U)‖∞ of W(polar(U)·V)
    in Hausdorff distance, so each verdict holds for U within δ.
    """
    return _plan(_unitary_eig(nearest_unitary(u)), t_horizon, tol_t)


def _plan(system: EigenSystem, t_horizon: float, tol_t: float) -> SteeringPlan:
    """:func:`plan` on the eigensystem of a checked U."""
    # checked before the gap test, so a bad option is reported even with nothing to steer
    if not 0 < t_horizon < np.inf:
        raise ValueError(f"t_horizon must be positive and finite, got {t_horizon}")
    if not 0 < tol_t < np.inf:
        raise ValueError(f"tol_t must be positive and finite, got {tol_t}")
    widest = widest_gap(system)
    gen, gap = select_generator(system, speed_profile(system), widest)
    spectrum = _OneHotSpectrum(system, int(np.argmax(gen.p)), gen.sign, widest)
    t_star, verdict = _min_time_search(spectrum, t_horizon, tol_t)
    norm = perturbation_cost(gen.p, t_star) if t_star is not None else None
    return SteeringPlan(
        p=gen.p,
        direction=gen.direction,
        t_star=t_star,
        perturbation_norm=norm,
        verdict=verdict,
        target_gap=gap,
    )
