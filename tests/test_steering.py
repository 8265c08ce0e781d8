import functools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from nrsteer import demo, linalg, perturb, steering
from nrsteer.linalg import EigendecompositionError, EigenSystem, schatten_inf, unitary_eig
from nrsteer.numrange import (
    BOUNDARY_GAP_TOL,
    BOUNDARY_WITHIN_TOL,
    INSIDE,
    ON_BOUNDARY,
    OUTSIDE,
    _gap_verdict,
    _widest_arc,
    contains_zero_general,
    widest_gap,
)
from nrsteer.perturb import PerturbationGenerator, perturbed_unitary, track_trajectory
from nrsteer.steering import (
    NOT_REACHED,
    REACHED_BOUNDARY,
    REACHED_INTERIOR,
    NothingToSteerError,
    perturbation_cost,
    plan,
    select_generator,
    speed_profile,
)
from nrsteer.testkit import conditioned_unitary, degenerate_fixture, haar_unitary

DEMO_SYSTEM = unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4)


def exact_margin(u, gen, t):
    """Widest arc gap of U·V(t) minus π, from numpy's nonsymmetric eigensolver."""
    args = np.sort(np.angle(np.linalg.eigvals(perturbed_unitary(u, gen, t))))
    return float(np.diff(np.append(args, args[0] + 2 * np.pi)).max() - np.pi)


def circle_distance(a, b):
    """Largest arc between two equal-size angle multisets, matched in ccw order."""
    a, b = np.sort(np.mod(a, 2 * np.pi)), np.sort(np.mod(b, 2 * np.pi))
    return min(
        float(np.abs(np.angle(np.exp(1j * (a - np.roll(b, k))))).max()) for k in range(len(b))
    )


def secular_angles(system, i, direction, t):
    """Eigenangles of U·V(t) under the push e_i, from the secular route."""
    speed = 1.0 if direction == "ccw" else -1.0
    return steering._OneHotSpectrum(system, i, speed, widest_gap(system)).angles(t)


def reference_angles(u, i, direction, t):
    p = np.zeros(u.shape[0])
    p[i] = 1.0
    gen = PerturbationGenerator(p=p, direction=direction)
    return np.angle(np.linalg.eigvals(perturbed_unitary(u, gen, t)))


class TestSpeedProfile:
    def test_diagonal_gives_permutation(self):
        system = unitary_eig(np.diag([1.0, 1j, -1.0]))
        s = speed_profile(system)
        assert np.allclose(np.sort(s, axis=1)[:, -1], 1.0, atol=1e-12)
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-12)

    def test_demo_matches_reference_rows(self):
        s = speed_profile(DEMO_SYSTEM)
        remaining = list(range(3))
        for row in demo.REFERENCE_SPEED_PROFILE:
            hit = next(i for i in remaining if np.abs(s[i] - row).max() <= 1e-4)
            remaining.remove(hit)
        assert remaining == []

    def test_doubly_stochastic(self):
        s = speed_profile(unitary_eig(haar_unitary(6, 40)))
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-10)
        assert np.all((s >= -1e-12) & (s <= 1 + 1e-12))


class TestSelectGenerator:
    def test_demo_instance(self):
        s = speed_profile(DEMO_SYSTEM)
        gen, gap = select_generator(DEMO_SYSTEM, s, widest_gap(DEMO_SYSTEM))
        assert np.array_equal(gen.p, [0.0, 1.0, 0.0])
        assert gen.direction == "cw"
        # the targeted pair carries the reference fast/slow entries
        pair_entries = sorted([s[gap[0], 1], s[gap[1], 1]])
        assert pair_entries[0] == pytest.approx(demo.REFERENCE_SLOW_ENTRY, abs=1e-4)
        assert pair_entries[1] == pytest.approx(demo.REFERENCE_FAST_ENTRY, abs=1e-4)

    def test_near_degenerate_diagonal(self):
        eps = 0.1
        system = unitary_eig(np.diag([1.0, np.exp(1j * eps)]))
        gen, _ = select_generator(system, speed_profile(system), widest_gap(system))
        assert np.sum(gen.p == 1.0) == 1  # one-hot

    def test_tie_breaks_to_lowest_index(self):
        system = unitary_eig(np.diag([1.0, 1j]))
        s = speed_profile(system)
        gen, _ = select_generator(system, s, widest_gap(system))
        assert gen.p[0] == 1.0  # both columns tie at |diff| = 1

    def test_rejects_contained_origin(self):
        system = unitary_eig(np.diag(np.exp(2j * np.pi * np.arange(3) / 3)))
        with pytest.raises(NothingToSteerError):
            select_generator(system, speed_profile(system), widest_gap(system))


def t_star_search(u, gen, t_horizon, tol_t):
    """The t* search core on U's eigensystem and widest gap, as ``plan`` runs it."""
    system = unitary_eig(u, unitarity_tol=1e-4)
    return steering._min_time_search(system, gen, t_horizon, tol_t, widest_gap(system))


class TestMinTimeSearch:
    def test_demo_window(self):
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
        t_star, verdict = t_star_search(demo.DEMO_MATRIX, gen, 2 * np.pi, 1e-3)
        assert 1.40 <= t_star <= 1.50
        assert verdict in (REACHED_INTERIOR, REACHED_BOUNDARY)

    def test_hand_derived_quarter_circle(self):
        # eigenvalues at 1 (parked) and i moving ccw at unit speed: the wide
        # gap closes to pi when the mover reaches -1, i.e. at t = pi/2
        u = np.diag([1.0, np.exp(1j * np.pi / 2)])
        gen = PerturbationGenerator(p=np.array([0.0, 1.0]), direction="ccw")
        t_star, verdict = t_star_search(u, gen, 2 * np.pi, 1e-4)
        assert abs(t_star - np.pi / 2) <= 1e-4
        assert verdict == REACHED_BOUNDARY

    def test_unreachable_within_horizon(self):
        # identity with weight on one coordinate: the split arc stays shorter
        # than pi for t < pi, so a horizon of 2 never sees the origin
        gen = PerturbationGenerator(p=np.array([1.0, 0.0]))
        t_star, verdict = t_star_search(np.eye(2, dtype=complex), gen, 2.0, 1e-3)
        assert t_star is None and verdict == NOT_REACHED

    def test_validates_parameters(self):
        for horizon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t_horizon must be positive and finite"):
                plan(np.eye(2, dtype=complex), t_horizon=horizon)
        for tol_t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol_t must be positive and finite"):
                plan(np.eye(2, dtype=complex), tol_t=tol_t)

    def test_evaluation_cap_raises(self, monkeypatch):
        # the demo search needs more than two margin evaluations
        monkeypatch.setattr(steering, "MAX_MARGIN_EVALS", 2)
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
        with pytest.raises(RuntimeError, match=r"at t = .* with m\(t\) = "):
            t_star_search(demo.DEMO_MATRIX, gen, 2 * np.pi, 1e-3)


    def test_rejects_generator_not_one_hot(self):
        gen = PerturbationGenerator(p=np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="one-hot"):
            t_star_search(demo.DEMO_MATRIX, gen, 2 * np.pi, 1e-3)

    def test_rejects_dimension_mismatch(self):
        gen = PerturbationGenerator(p=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            t_star_search(demo.DEMO_MATRIX, gen, 2 * np.pi, 1e-3)

    def test_dlasd4_failure_raises(self, monkeypatch):
        class FailingLapack:
            @staticmethod
            def dlasd4(i, d, z, rho):
                return np.zeros_like(d), np.nan, np.zeros_like(d), 1

        monkeypatch.setattr(steering, "lapack", FailingLapack)
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
        with pytest.raises(EigendecompositionError, match=r"dlasd4 failed with info 1 at t = "):
            t_star_search(demo.DEMO_MATRIX, gen, 2 * np.pi, 1e-3)


# An 8×8 eigensystem (simple eigenvalues, and row 5 of its eigenvectors, the
# row the cw push e_5 reads) on which dlasd4 fails with info 1 for root 0 in
# the chart of larger |R|/‖z‖² (129.0) at t = 0.01; the other chart (54.2)
# solves it.  Found among seeded draws of conditioned-ensemble unitaries.
CHART_FAILURE_VALUES = np.array([
    complex(-0.7282633311454891, -0.6852973956676587),
    complex(-0.70381460403634, -0.710383701351017),
    complex(0.3472300109111707, -0.9377799952668149),
    complex(0.35458335215365155, -0.9350244095078375),
    complex(0.5946362433052831, -0.8039948620157843),
    complex(0.7052546063488886, -0.7089541171498144),
    complex(-0.8433725669102433, 0.5373292411391982),
    complex(-0.9130656426897615, 0.4078126189066898),
])
CHART_FAILURE_ROW = np.array([
    complex(-0.2201353588364208, 0.17506363477099446),
    complex(0.20987106495219476, 0.2746608610666216),
    complex(-0.22836696036931414, 0.025908769724502137),
    complex(-0.18725932064814965, -0.04646602463628032),
    complex(0.3856594638637739, -0.061909210790131314),
    complex(-0.05444373212572639, -0.06617891184825615),
    complex(0.671082052212621, -8.591056233632238e-18),
    complex(0.21350307760082063, -0.23561916682682302),
])


def chart_failure_system():
    """The pinned eigensystem, its rows other than 5 completed to a unitary."""
    rest = null_space(CHART_FAILURE_ROW[None, :]).conj().T  # rows orthogonal to row 5
    vectors = np.insert(rest, 5, CHART_FAILURE_ROW, axis=0)
    return EigenSystem(CHART_FAILURE_VALUES, vectors, tuple((j,) for j in range(8)))


def margin_stepping_touch(u, gen, t_end):
    """First eigvals margin step with margin ≤ BOUNDARY_GAP_TOL, or None past ``t_end``."""
    t = 0.0
    for _ in range(100_000):
        if t > t_end:
            return None
        margin = exact_margin(u, gen, t)
        if margin <= BOUNDARY_GAP_TOL:
            return t
        t += margin
    pytest.fail(f"margin steps stalled at t = {t}")


def one_hot(d, i, direction):
    p = np.zeros(d)
    p[i] = 1.0
    return PerturbationGenerator(p=p, direction=direction)


def search_cases():
    """Seeded conditioned draws, d = 2–64, under the selected push e_i in both directions."""
    for d in (2, 3, 4, 6, 8, 16, 32, 64):
        for seed in (d, 100 + d):
            u = conditioned_unitary(d, seed)
            system = unitary_eig(u)
            gen, _ = select_generator(system, speed_profile(system), widest_gap(system))
            i = int(np.argmax(gen.p))
            for direction in ("ccw", "cw"):
                yield pytest.param(u, one_hot(d, i, direction), id=f"d{d}-s{seed}-{direction}")


def degenerate_cases():
    """Fixtures with a 2- to 4-fold eigenvalue and a widest gap above π, every e_i, both ways.

    In the first of each pair of seeds the cluster lies at an end of the
    widest gap, in the second away from it.
    """
    for d, k, seed in ((5, 3, 1), (5, 3, 3), (6, 2, 11), (6, 2, 14), (8, 4, 11), (8, 4, 4)):
        fixture = degenerate_fixture(d, k, 1, seed=seed)
        assert widest_gap(fixture.system)[0] > np.pi
        for i in range(d):
            for direction in ("ccw", "cw"):
                label = f"d{d}-k{k}-s{seed}-e{i}-{direction}"
                yield pytest.param(fixture.matrix, one_hot(d, i, direction), id=label)


class TestInterlacingSearch:
    """The two-root t* search against margin steps on numpy ``eigvals`` of U·V(t)."""

    @staticmethod
    def check_against_stepping(u, gen, t_horizon=2 * np.pi, tol_t=1e-3):
        t_star, verdict = t_star_search(u, gen, t_horizon, tol_t)
        if t_star is None:
            assert verdict == NOT_REACHED
            assert margin_stepping_touch(u, gen, t_horizon) is None
            return
        margin = exact_margin(u, gen, t_star)
        assert margin <= BOUNDARY_GAP_TOL
        expected = {INSIDE: REACHED_INTERIOR, ON_BOUNDARY: REACHED_BOUNDARY}
        assert verdict == expected[_gap_verdict(margin + np.pi)]
        touch = margin_stepping_touch(u, gen, t_star - tol_t)
        assert touch is None, f"touch at t = {touch} before t* = {t_star}"

    @pytest.mark.parametrize("u, gen", search_cases())
    def test_conditioned_draws(self, u, gen):
        self.check_against_stepping(u, gen)

    @pytest.mark.parametrize("u, gen", degenerate_cases())
    def test_degenerate_clusters(self, u, gen):
        self.check_against_stepping(u, gen)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
    def test_gap_ends_are_the_widest_arc(self, d):
        # before the touch, the roots that start at the ends of U's widest gap
        # bound the widest arc of the whole spectrum
        matched = 0
        for seed in range(3):
            system = unitary_eig(conditioned_unitary(d, 50 + seed))
            widest = widest_gap(system)
            gen, _ = select_generator(system, speed_profile(system), widest)
            i = int(np.argmax(gen.p))
            for direction, sign in (("ccw", 1.0), ("cw", -1.0)):
                t_star, _ = steering._min_time_search(
                    system, one_hot(d, i, direction), 2 * np.pi, 1e-3, widest
                )
                spectrum = steering._OneHotSpectrum(system, i, sign, widest)
                end = 2 * np.pi if t_star is None else t_star - 1e-3
                for t in np.linspace(0.0, end, 25):
                    angles = spectrum.angles(t)
                    _, start, stop = _widest_arc(angles)
                    ends = spectrum.gap_ends(t)
                    assert circle_distance(ends[:1], angles[[start]]) <= 1e-12
                    assert circle_distance(ends[1:], angles[[stop]]) <= 1e-12
                    matched += 1
        assert matched == 3 * 2 * 25

    def test_demo_counts(self, monkeypatch):
        # margin steps on the full spectrum took 57 dlasd4 calls and 20 full
        # margins here; two roots a step and the secular bound take 24 and 2
        calls = {"dlasd4": 0, "full": 0}
        real_lapack, real_angles = steering.lapack, steering._OneHotSpectrum.angles

        def dlasd4(*args):
            calls["dlasd4"] += 1
            return real_lapack.dlasd4(*args)

        def angles(spectrum, t):
            calls["full"] += 1
            return real_angles(spectrum, t)

        monkeypatch.setattr(steering, "lapack", types.SimpleNamespace(dlasd4=dlasd4))
        monkeypatch.setattr(steering._OneHotSpectrum, "angles", angles)
        result = plan(demo.DEMO_MATRIX)
        assert 1.40 <= result.t_star <= 1.50
        assert calls == {"dlasd4": 24, "full": 2}

    def test_no_eigenvalue_fixed_for_two_roots(self):
        # a fixed copy of a gap end, or a lone moving eigenvalue, leaves no two-root margin
        fixture = degenerate_fixture(6, 3, 1, seed=1)
        system = fixture.system
        spectrum = steering._OneHotSpectrum(system, 0, 1.0, widest_gap(system))
        assert len(spectrum.fixed) == 2
        assert spectrum.gap_ends(0.5) is None and spectrum.gap_step(0.5) is None
        one = unitary_eig(np.diag([1.0, 1j]))
        assert steering._OneHotSpectrum(one, 0, 1.0, widest_gap(one)).gap_ends(0.5) is None


class TestChartRetry:
    """dlasd4 failing in one Cayley chart falls back to the other chart."""

    def test_pinned_chart_failure(self):
        system = chart_failure_system()
        u = (system.vectors * system.values) @ system.vectors.conj().T
        widest = widest_gap(system)
        spectrum = steering._OneHotSpectrum(system, 5, -1.0, widest)
        assert circle_distance(spectrum.angles(0.01), reference_angles(u, 5, "cw", 0.01)) <= 1e-12
        ends = spectrum.gap_ends(0.01)
        angles = spectrum.angles(0.01)
        _, start, stop = _widest_arc(angles)
        assert circle_distance(ends, angles[[start, stop]]) <= 1e-12
        gen = one_hot(8, 5, "cw")
        t_star, verdict = steering._min_time_search(system, gen, 2 * np.pi, 1e-3, widest)
        assert verdict == REACHED_INTERIOR
        assert exact_margin(u, gen, t_star) <= BOUNDARY_GAP_TOL

    @pytest.mark.parametrize("broken", [0, 1])
    def test_other_chart_solves(self, monkeypatch, broken):
        u = conditioned_unitary(6, 7)
        system = unitary_eig(u)
        spectrum = steering._OneHotSpectrum(system, 2, 1.0, widest_gap(system))
        real = steering._CayleyFrame.roots

        def roots(frame, r, t, js):
            if frame is spectrum.frames[broken]:
                raise EigendecompositionError("dlasd4 failed")
            return real(frame, r, t, js)

        monkeypatch.setattr(steering._CayleyFrame, "roots", roots)
        for t in np.linspace(0.05, 2 * np.pi - 0.05, 40):
            got = spectrum.angles(t)
            assert circle_distance(got, reference_angles(u, 2, "ccw", t)) <= 1e-12


class TestSecularRoots:
    """Eigenangles of U·V(t) from U's eigensystem against numpy ``eigvals`` of U·V(t)."""

    @pytest.mark.parametrize("d", range(1, 20))
    def test_matches_eigvals(self, d):
        # an exact eigensystem, so the comparison sees the root solver alone
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            x = haar_unitary(d, rng)
            theta = np.sort(rng.uniform(-np.pi, np.pi, d))
            u = (x * np.exp(1j * theta)) @ x.conj().T
            system = EigenSystem(np.exp(1j * theta), x, tuple((j,) for j in range(d)))
            i = int(rng.integers(d))
            for direction in ("ccw", "cw"):
                for t in (1e-9, 1e-3, np.pi - 1e-9, np.pi, 2.0, 2 * np.pi - 1e-7, 2 * np.pi, 9.5):
                    got = secular_angles(system, i, direction, t)
                    assert circle_distance(got, reference_angles(u, i, direction, t)) <= 1e-12

    def test_root_on_the_chart_centre(self):
        # where the first chart's R is exactly 0, a root sits on the middle of
        # U's widest gap, at X = ±∞, and that chart cannot place it
        def exact_zero(seed):
            system = unitary_eig(conditioned_unitary(6, seed))
            spectrum = steering._OneHotSpectrum(system, 2, 1.0, widest_gap(system))
            first = spectrum.frames[0]
            t = 2 * np.arctan2(1.0, -first.offset)
            for step in range(-60, 61):
                t_k = t + step * np.spacing(t)
                if 1 / math.tan(t_k / 2) + first.offset == 0.0:
                    return seed, spectrum, t_k
            return None

        seed, spectrum, t = next(filter(None, map(exact_zero, range(200))))
        angles = spectrum.angles(t)
        u = conditioned_unitary(6, seed)
        assert circle_distance(angles, reference_angles(u, 2, "ccw", t)) <= 1e-12
        centre = spectrum.frames[0].center
        assert np.abs(np.angle(np.exp(1j * (angles - centre)))).min() <= 1e-12

    def test_unperturbed_at_zero(self):
        system = unitary_eig(conditioned_unitary(5, 4))
        assert np.array_equal(
            np.sort(secular_angles(system, 1, "cw", 0.0)),
            np.sort(np.mod(np.angle(system.values), 2 * np.pi)),
        )

    def test_diagonal_moves_one_eigenvalue(self):
        # weights are 0 or 1: every eigenvalue but the pushed one deflates
        theta = np.array([0.3, 1.1, -2.0, 2.9])
        u = np.diag(np.exp(1j * theta))
        for i in range(4):
            for direction, sign in (("ccw", 1.0), ("cw", -1.0)):
                expected = theta.copy()
                expected[i] += sign * 1.7
                got = secular_angles(unitary_eig(u), i, direction, 1.7)
                assert circle_distance(got, expected) <= 1e-14

    def test_identity_and_one_dimension(self):
        for d in (1, 3):
            got = secular_angles(unitary_eig(np.eye(d, dtype=complex)), 0, "ccw", 2.5)
            assert circle_distance(got, [2.5] + [0.0] * (d - 1)) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_cluster(self, seed):
        # a k-fold eigenvalue moves as one with the cluster's summed weight; its
        # other k − 1 copies stay, as eigvals of U·V(t) shows
        fixture = degenerate_fixture(6, 3, 1, seed=seed)
        system = unitary_eig(fixture.matrix)
        assert max(len(g) for g in system.groups) == 3
        residual = np.abs(fixture.matrix @ system.vectors - system.vectors * system.values).max()
        i = int(np.argmax(fixture.p))
        for direction in ("ccw", "cw"):
            for t in (0.4, np.pi, 5.0):
                got = secular_angles(system, i, direction, t)
                ref = reference_angles(fixture.matrix, i, direction, t)
                # the roots are exact for U's computed eigensystem, which is
                # off from U by its residual
                assert circle_distance(got, ref) <= 1e-12 + 4 * residual
                fixed = np.abs(np.angle(np.exp(1j * got) / fixture.eigenvalue)) <= 1e-12
                assert fixed.sum() >= 2

    def test_plan_eigensolves_once(self, monkeypatch):
        calls = []
        real = linalg._unitary_eig

        def counting(u, *args, **kwargs):
            calls.append(u.shape)
            return real(u, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("perturbed_unitary called")

        monkeypatch.setattr(steering, "_unitary_eig", counting)
        monkeypatch.setattr(linalg, "_unitary_eig", counting)
        monkeypatch.setattr(perturb, "perturbed_unitary", forbidden)
        result = plan(conditioned_unitary(16, 2))
        assert result.t_star is not None
        assert calls == [(16, 16)]

    def test_plan_takes_the_widest_gap_once(self, monkeypatch):
        calls = []
        real = steering.widest_gap
        monkeypatch.setattr(steering, "widest_gap", lambda system: calls.append(1) or real(system))
        result = plan(demo.DEMO_MATRIX)
        assert result.t_star is not None
        assert len(calls) == 1

    def test_plan_takes_the_cluster_representatives_once(self, monkeypatch):
        calls = []
        real = EigenSystem.__dict__["representatives"].func
        counting = functools.cached_property(lambda system: calls.append(1) or real(system))
        counting.__set_name__(EigenSystem, "representatives")
        monkeypatch.setattr(EigenSystem, "representatives", counting)
        result = plan(demo.DEMO_MATRIX)
        assert result.t_star is not None
        assert len(calls) == 1


class TestPerturbationCost:
    def test_closed_form_values(self):
        assert perturbation_cost(np.array([0.0, 1.0, 0.0]), np.pi) == pytest.approx(2.0)
        assert perturbation_cost(np.array([0.5, 0.5]), 0.0) == 0.0

    @given(seed=st.integers(0, 100), t=st.floats(0.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_operator_norm(self, seed, t):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        u = haar_unitary(d, rng)
        p = rng.dirichlet(np.ones(d))
        gen = PerturbationGenerator(p=p)
        measured = schatten_inf(u - perturbed_unitary(u, gen, t))
        assert abs(measured - perturbation_cost(p, t)) < 1e-10


class TestPlan:
    def test_demo_full_pipeline(self):
        result = plan(demo.DEMO_MATRIX)
        assert np.array_equal(result.p, [0.0, 1.0, 0.0])
        assert result.direction == "cw"
        assert 1.40 <= result.t_star <= 1.50
        assert result.verdict in (REACHED_INTERIOR, REACHED_BOUNDARY)
        assert result.perturbation_norm == pytest.approx(
            2 * abs(np.sin(result.t_star / 2)), abs=1e-12
        )

    def test_contained_origin_raises(self):
        with pytest.raises(NothingToSteerError):
            plan(np.diag(np.exp(2j * np.pi * np.arange(3) / 3)))

    def test_options_are_checked_before_the_gap_test(self):
        # the origin already lies in this range: a bad option must still be named
        roots = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        for horizon in (np.nan, -1.0, np.inf):
            with pytest.raises(ValueError, match="t_horizon must be positive and finite"):
                plan(roots, t_horizon=horizon)
        with pytest.raises(ValueError, match="tol_t must be positive and finite"):
            plan(roots, tol_t=0.0)

    def test_entry_points_reject_non_unitary(self):
        u = 1.01 * haar_unitary(3, 8)  # defect 0.02, above the relaxed 1e-4
        with pytest.raises(ValueError, match="not unitary"):
            plan(u)
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="not unitary"):
            track_trajectory(u, gen, t_end=1.0)

    def test_hand_case_consistent(self):
        result = plan(np.diag([1.0, np.exp(1j * np.pi / 2)]), tol_t=1e-4)
        assert abs(result.t_star - np.pi / 2) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_d2_closed_form_touch(self, seed):
        # for 2×2 U and one-hot e_i, tr(U·V(t)) = u_ii·e^{±it} + u_jj with
        # |u_ii| = |u_jj|, so the origin touches W exactly when the trace
        # vanishes: at T = ±arg(−u_jj/u_ii) mod 2π
        u = haar_unitary(2, seed)
        tol_t = 1e-3
        result = plan(u, tol_t=tol_t)
        i = int(np.argmax(result.p))
        sign = 1.0 if result.direction == "ccw" else -1.0
        touch = (sign * np.angle(-u[1 - i, 1 - i] / u[i, i])) % (2 * np.pi)
        # the gap test calls a margin within BOUNDARY_GAP_TOL a boundary hit,
        # which margin steps reach from below, a few 1e-10 ahead of T
        assert touch - 1e-8 <= result.t_star <= touch + tol_t
        assert result.verdict == REACHED_BOUNDARY
        gen = PerturbationGenerator(p=result.p, direction=result.direction)
        assert abs(np.trace(perturbed_unitary(u, gen, result.t_star))) <= 1e-9

    def test_first_touch_consistency(self):
        tol_t = 1e-3
        for u in (demo.DEMO_MATRIX, conditioned_unitary(16, 1)):
            result = plan(u, tol_t=tol_t)
            gen = PerturbationGenerator(p=result.p, direction=result.direction)
            at_star = contains_zero_general(perturbed_unitary(u, gen, result.t_star))
            assert at_star in (INSIDE, BOUNDARY_WITHIN_TOL)
            assert exact_margin(u, gen, result.t_star) <= BOUNDARY_GAP_TOL
            # margin steps (the margin is 1-Lipschitz) certify every earlier
            # time up to t* − tol_t outside
            t = 0.0
            for _ in range(10_000):
                if t >= result.t_star - tol_t:
                    break
                margin = exact_margin(u, gen, t)
                assert margin > BOUNDARY_GAP_TOL, f"touch at t = {t} before t* = {result.t_star}"
                t += margin
            else:
                pytest.fail(f"margin steps stalled at t = {t}")
            before = contains_zero_general(perturbed_unitary(u, gen, result.t_star - 10 * tol_t))
            assert before == OUTSIDE

    def test_targeted_gap_closes_monotonically(self):
        result = plan(demo.DEMO_MATRIX)
        gen = PerturbationGenerator(p=result.p, direction=result.direction)
        record = track_trajectory(demo.DEMO_MATRIX, gen, t_end=result.t_star)
        a, b = result.target_gap
        gap = record.unwrapped_args[b] - record.unwrapped_args[a]
        gap = np.where(gap < 0, gap + 2 * np.pi, gap)
        assert gap[0] > np.pi  # the certifying gap
        assert np.all(np.diff(gap) <= 1e-9)
        assert gap[-1] == pytest.approx(np.pi, abs=0.02)
