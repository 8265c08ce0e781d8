import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.optimize import minimize_scalar

from nrsteer import cli, demo, iofmt, linalg, numrange
from nrsteer.linalg import EigendecompositionError, _stack_slices, schatten_inf, unitary_eig
from nrsteer.numrange import (
    BOUNDARY_WITHIN_TOL,
    INSIDE,
    MEMBERSHIP_REL_TOL,
    ON_BOUNDARY,
    OUTSIDE,
    TRIDIAGONAL_MIN_DIM,
    contains_zero_general,
    contains_zero_unitary,
    origin_verdict,
    support_profile,
    widest_gap,
    _cell_lower_bounds,
    _hermitian_parts,
)
from nrsteer.perturb import PerturbationGenerator, perturbed_unitary
from nrsteer.testkit import brute_membership, haar_unitary


def demo_pushed(t=1.5):
    gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
    return perturbed_unitary(demo.DEMO_MATRIX, gen, t)


def ginibre(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)


def sweep_input(kind, d, seed):
    """A seeded non-normal, normal or Hermitian d×d matrix."""
    rng = np.random.default_rng(seed)
    g = ginibre(rng, d)
    if kind == "non-normal":
        return g
    if kind == "hermitian":
        return (g + g.conj().T) / 2
    q = haar_unitary(d, rng)
    return q @ np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)) @ q.conj().T


def herm_at(a, theta):
    """H(θ) = (e^{−iθ}A + e^{iθ}A†)/2; a θ of shape (k, 1, 1) gives a stack of k."""
    return (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / 2


def eigvalsh_support(a, theta):
    """h(θ) by a direct eigvalsh of H(θ), independent of the sweeps."""
    return float(np.linalg.eigvalsh(herm_at(a, theta))[-1])


def dense_support(a, n, batch=4096):
    """Angles and h(θ) on the uniform n-angle grid by batched eigvalsh, independent of the sweeps."""
    angles = np.arange(n) * (2 * np.pi / n)
    h = np.empty(n)
    for lo in range(0, n, batch):
        stack = herm_at(a, angles[lo : lo + batch, None, None])
        h[lo : lo + batch] = np.linalg.eigvalsh(stack)[:, -1]
    return angles, h


def known_membership(d, answer, seed):
    """Non-normal matrix whose answer to "is 0 in W(A)?" is known.

    inside: traceless, so tr(A)/d = 0 lies in W(A).  outside: R + c·e^{iφ}·I
    with c > ‖R‖, so W(A) lies in a disc around c·e^{iφ} that misses 0.
    """
    rng = np.random.default_rng(seed)
    g = ginibre(rng, d)
    if answer == INSIDE:
        return g - (np.trace(g) / d) * np.eye(d)
    r = g / schatten_inf(g)
    return r + rng.uniform(1.2, 1.6) * np.exp(1j * rng.uniform(-np.pi, np.pi)) * np.eye(d)


class TestSupportFunction:
    """h(θ) of simple ranges, and the spectrum inside W(A), read from :func:`support_profile`."""

    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2, 3.0])
    def test_identity(self, theta):
        # the identity turned by e^{iθ}: W is the point e^{iθ}, so h(φ) = cos(φ − θ)
        profile = support_profile(np.exp(1j * theta) * np.eye(3), 64)
        assert np.abs(profile.support_values - np.cos(profile.angles - theta)).max() < 1e-12
        assert np.abs(profile.boundary_points - np.exp(1j * theta)).max() < 1e-12

    def test_real_segment(self):
        # W(diag(1, −1)) = [−1, 1], so h(θ) = |cos θ|
        profile = support_profile(np.diag([1.0, -1.0]).astype(complex), 16)
        assert np.abs(profile.support_values - np.abs(np.cos(profile.angles))).max() < 1e-12

    def test_witness_point_respects_support(self):
        profile = support_profile(demo.DEMO_MATRIX, 17)
        attained = np.real(np.exp(-1j * profile.angles) * profile.boundary_points)
        assert np.abs(attained - profile.support_values).max() < 1e-9

    @given(seed=st.integers(0, 100), n=st.integers(16, 64))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_contained(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        profile = support_profile(a, n)
        eigs = np.linalg.eigvals(a)  # independent nonsymmetric solver as oracle
        projections = np.real(np.exp(-1j * profile.angles)[:, None] * eigs[None, :])
        assert np.all(projections.max(axis=1) <= profile.support_values + 1e-9)


def _convexity_defect(points):
    """Most negative ccw cross product over the deduplicated point cycle."""
    pts = [points[0]]
    for z in points[1:]:
        if abs(z - pts[-1]) > 1e-12:
            pts.append(z)
    if len(pts) > 1 and abs(pts[0] - pts[-1]) <= 1e-12:
        pts.pop()
    if len(pts) < 3:
        return 0.0
    worst = 0.0
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        cross = (b - a).real * (c - b).imag - (b - a).imag * (c - b).real
        worst = min(worst, cross)
    return worst


class TestSupportProfile:
    def test_profile_halfplane_consistency(self):
        profile = support_profile(demo.DEMO_MATRIX, 128)
        phases = np.exp(-1j * profile.angles)
        projections = np.real(phases[:, None] * profile.boundary_points[None, :])
        assert np.all(projections <= profile.support_values[:, None] + 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_points_convex(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        profile = support_profile(a, 256)
        assert _convexity_defect(profile.boundary_points) >= -1e-9 * max(1.0, schatten_inf(a) ** 2)

    def test_single_point_range(self):
        profile = support_profile(np.eye(2, dtype=complex), 64)
        assert np.abs(profile.boundary_points - 1.0).max() < 1e-9

    def test_minimum_angles_enforced(self):
        with pytest.raises(ValueError):
            support_profile(np.eye(2, dtype=complex), 8)


class TestSupportSweep:
    """Sweeps against a per-angle ``eigvalsh`` of H(θ) (:func:`eigvalsh_support`)."""

    def check_against_per_angle(self, a, n):
        scale = schatten_inf(a)
        profile = support_profile(a, n)
        angles = profile.angles
        assert np.array_equal(angles, np.arange(n) * (2 * np.pi / n))
        reference = np.array([eigvalsh_support(a, theta) for theta in angles])
        assert np.abs(profile.support_values - reference).max() <= 1e-12 * scale
        attained = np.real(np.exp(-1j * angles) * profile.boundary_points)
        assert np.abs(attained - profile.support_values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [16, 17, 720])
    @pytest.mark.parametrize("kind", ["non-normal", "normal", "hermitian"])
    def test_matches_per_angle(self, kind, n):
        self.check_against_per_angle(sweep_input(kind, 5, seed=n), n)

    def test_block_seams(self, monkeypatch):
        # below the crossover the sweep runs batched eigh blocks; shrink them
        # so that the 360 solved angles of a 720 grid span several
        d = TRIDIAGONAL_MIN_DIM - 1
        monkeypatch.setattr(linalg, "STACK_BYTES", 16 * d * d * 50)
        assert len(_stack_slices(360, 16 * d * d)) > 2
        self.check_against_per_angle(sweep_input("non-normal", d, seed=3), 720)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("kind", ["non-normal", "hermitian"])
    @pytest.mark.parametrize("d", [TRIDIAGONAL_MIN_DIM - 1, TRIDIAGONAL_MIN_DIM])
    def test_crossover_dims(self, d, kind, n):
        self.check_against_per_angle(sweep_input(kind, d, seed=n), n)

    def test_above_crossover(self):
        self.check_against_per_angle(sweep_input("non-normal", 64, seed=3), 720)

    @pytest.mark.parametrize("d,n", [(8, 20_000), (64, 4000)])
    def test_memory_bounded_by_one_block(self, d, n):
        # batched eigh at d = 8, the tridiagonal route at d = 64: each block's
        # eigenvectors become boundary points before the next block is solved
        a = sweep_input("non-normal", d, seed=n)
        tracemalloc.start()
        try:
            support_profile(a, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def solved_angles_by_tridiagonal(monkeypatch, a, n):
    """How many H(θ) a ``support_profile(a, n)`` reduces with ``zhetrd``."""
    calls = []
    original = lapack.zhetrd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lapack, "zhetrd", counted)
    support_profile(a, n)
    return len(calls)


class TestExtremePairs:
    """The tridiagonal route for d ≥ ``TRIDIAGONAL_MIN_DIM`` against batched ``eigh``."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_route_by_dimension(self, monkeypatch, n):
        solved = n // 2 if n % 2 == 0 else n
        below = sweep_input("non-normal", TRIDIAGONAL_MIN_DIM - 1, seed=0)
        at = sweep_input("non-normal", TRIDIAGONAL_MIN_DIM, seed=0)
        assert solved_angles_by_tridiagonal(monkeypatch, below, n) == 0
        assert solved_angles_by_tridiagonal(monkeypatch, at, n) == solved

    @pytest.mark.parametrize(
        "a",
        [
            sweep_input("non-normal", TRIDIAGONAL_MIN_DIM, seed=1),
            sweep_input("normal", 24, seed=2),
            sweep_input("hermitian", 33, seed=3),
            ginibre(np.random.default_rng(4), 64),
        ],
        ids=["non-normal", "normal", "hermitian", "d64"],
    )
    @pytest.mark.parametrize("n", [720, 721])
    def test_matches_eigh_route(self, monkeypatch, a, n):
        scale = schatten_inf(a)
        profile = support_profile(a, n)
        monkeypatch.setattr(numrange, "TRIDIAGONAL_MIN_DIM", 10**9)
        reference = support_profile(a, n)
        assert np.abs(profile.support_values - reference.support_values).max() <= 1e-12 * scale
        attained = np.real(np.exp(-1j * profile.angles) * profile.boundary_points)
        assert np.abs(attained - profile.support_values).max() <= 1e-12 * scale
        # the witness is unique only where λ₁ − λ₂ leaves no flat edge
        herm_re, herm_im = _hermitian_parts(a)
        stack = np.cos(profile.angles)[:, None, None] * herm_re
        w = np.linalg.eigvalsh(stack + np.sin(profile.angles)[:, None, None] * herm_im)
        unique = w[:, -1] - w[:, -2] >= 1e-6 * scale
        assert unique.mean() > 0.5
        moved = np.abs(profile.boundary_points - reference.boundary_points)
        assert moved[unique].max() <= 1e-9 * scale

    def test_scalar_matrix(self):
        # c·I: λ_min = λ_max at every angle and T is diagonal
        c = 0.3 - 0.7j
        a = c * np.eye(TRIDIAGONAL_MIN_DIM + 4)
        profile = support_profile(a, 720)
        expected = np.real(np.exp(-1j * profile.angles) * c)
        assert np.abs(profile.support_values - expected).max() < 1e-15
        assert np.abs(profile.boundary_points - c).max() < 1e-15
        assert origin_verdict(profile).verdict == OUTSIDE

    @pytest.mark.parametrize("n", [720, 721])
    def test_split_tridiagonal(self, n):
        # H(θ) of a block-diagonal A is block diagonal, so T splits; which
        # block holds λ_min and which λ_max changes around the circle
        rng = np.random.default_rng(5)
        a = np.zeros((20, 20), dtype=complex)
        a[:8, :8] = ginibre(rng, 8) + 1.5
        a[8:, 8:] = ginibre(rng, 12)
        _, _, off, _, _ = lapack.zhetrd(np.asfortranarray(_hermitian_parts(a)[0]), lower=1)
        assert off[7] == 0.0
        TestSupportSweep().check_against_per_angle(a, n)

    @pytest.mark.parametrize(
        "routine,failed_call",
        [
            pytest.param("zhetrd", 1, id="zhetrd"),
            pytest.param("dstemr", 1, id="dstemr"),
            # λ_max, solved after λ_min has succeeded
            pytest.param("dstemr", 2, id="dstemr-last"),
            pytest.param("zunmqr", 1, id="zunmqr"),
        ],
    )
    def test_lapack_failure_raises(self, monkeypatch, routine, failed_call):
        original = getattr(lapack, routine)
        calls = []

        def failing(*args, **kwargs):
            *outputs, info = original(*args, **kwargs)
            calls.append(args)
            return (*outputs, 1 if len(calls) == failed_call else info)

        monkeypatch.setattr(lapack, routine, failing)
        a = sweep_input("non-normal", TRIDIAGONAL_MIN_DIM, seed=0)
        message = rf"{routine} failed with info 1 at θ = 0.0"
        with pytest.raises(EigendecompositionError, match=message):
            support_profile(a, 16)
        assert len(calls) == failed_call
        if routine == "dstemr" and failed_call == 2:
            # λ_max is λ_min of −T: eigenpair 1 of the negated tridiagonal
            assert calls[1][5:7] == (1, 1)
            assert np.array_equal(calls[1][0], -calls[0][0])

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e155, 1e200, 1e300])
    @pytest.mark.parametrize("answer", [INSIDE, OUTSIDE])
    @pytest.mark.parametrize("d", [TRIDIAGONAL_MIN_DIM, 16, 64])
    def test_scale_free_verdicts(self, tmp_path, capsys, d, answer, scale):
        # W(cA) = c·W(A), so every scale has A's verdict; the tridiagonal
        # route must keep h accurate at 1e-300 and finite from 1e150 up
        a = known_membership(d, answer, seed=d) * scale
        path = tmp_path / "a.json"
        iofmt.write_matrix(path, a)
        out = tmp_path / "out"
        assert cli.main(["range", "--input", str(path), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"origin verdict: {answer}"
        rows = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1)
        tol = 1e-12 * schatten_inf(a)
        for theta, h, re_z, im_z in rows[[0, 97, 360, 361, 719]]:
            assert abs(h - eigvalsh_support(a, theta)) <= tol
            assert abs(np.real(np.exp(-1j * theta) * (re_z + 1j * im_z)) - h) <= tol

    def test_refinement_above_crossover(self):
        # a Hermitian A has W(A) = [λ_min, λ_max] ∋ 0, with min h = 0 at
        # θ = π/2, which no angle of an odd grid hits: bisection must reach it
        a = sweep_input("hermitian", TRIDIAGONAL_MIN_DIM + 4, seed=6)
        w = np.linalg.eigvalsh(a)
        assert w[0] < 0 < w[-1]
        result = origin_verdict(support_profile(a, 17))
        assert result.verdict == BOUNDARY_WITHIN_TOL
        assert result.n_angles > 17
        assert result.angle == pytest.approx(np.pi / 2, abs=1e-12)
        assert_certified(a, result)

    def test_near_miss_outside_above_crossover(self):
        # 1e-8·‖A‖ outside: no angle of the 720 grid certifies it
        a = shifted_to_margin(0, -1e-8, d=TRIDIAGONAL_MIN_DIM)
        profile = support_profile(a)
        assert profile.support_values.min() >= -MEMBERSHIP_REL_TOL * schatten_inf(a)
        result = origin_verdict(profile)
        assert result.verdict == OUTSIDE
        assert result.n_angles > numrange.ANGLES_DISPLAY
        assert_certified(a, result)


class TestUnitaryPolygon:
    """W(U) is the polygon of U's eigenvalue clusters, ``EigenSystem.representatives``."""

    def test_triangle(self):
        vertices = unitary_eig(np.diag([1.0, 1j, -1.0])).representatives
        assert np.allclose(vertices, [1.0, 1j, -1.0], atol=1e-12)

    def test_identity_single_vertex(self):
        vertices = unitary_eig(np.eye(3, dtype=complex)).representatives
        assert vertices.shape == (1,)
        assert vertices[0] == pytest.approx(1.0, abs=1e-12)

    def test_demo_triangle_ccw_convex(self):
        vertices = unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4).representatives
        assert vertices.shape == (3,)
        assert _convexity_defect(vertices) >= -1e-12

    @pytest.mark.parametrize("seed", [5, 6])
    def test_vertices_inside_profile(self, seed):
        # U is normal, so the sweep's h(θ) is attained at a vertex of the polygon
        u = haar_unitary(5, seed)
        vertices = unitary_eig(u).representatives
        profile = support_profile(u, 512)
        proj = np.real(np.exp(-1j * profile.angles)[:, None] * vertices[None, :])
        assert np.abs(proj.max(axis=1) - profile.support_values).max() <= 1e-9


class TestWidestGap:
    def test_wrap_gap(self):
        system = unitary_eig(np.diag(np.exp(1j * np.array([0.0, 0.5, 1.0]))))
        gap, start, end = widest_gap(system)
        assert gap == pytest.approx(2 * np.pi - 1.0, abs=1e-12)
        assert (start, end) == (2, 0)

    def test_single_cluster(self):
        gap, start, end = widest_gap(unitary_eig(np.eye(3, dtype=complex)))
        assert gap == pytest.approx(2 * np.pi)
        assert start == end == 0


class TestContainsZeroUnitary:
    def test_antipodal_pair_on_boundary(self):
        assert contains_zero_unitary(unitary_eig(np.diag([1.0, 1j, -1.0]))) == ON_BOUNDARY

    def test_cube_roots_inside(self):
        u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert contains_zero_unitary(unitary_eig(u)) == INSIDE

    def test_demo_outside(self):
        assert contains_zero_unitary(unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4)) == OUTSIDE

    def test_single_eigenvalue_outside(self):
        assert contains_zero_unitary(unitary_eig(np.eye(4, dtype=complex))) == OUTSIDE
        assert contains_zero_unitary(unitary_eig(np.eye(1, dtype=complex))) == OUTSIDE


class TestContainsZeroGeneral:
    def test_identity_outside(self):
        assert contains_zero_general(np.eye(2, dtype=complex)) == OUTSIDE

    def test_real_segment_boundary(self):
        assert contains_zero_general(np.diag([1.0, -1.0]).astype(complex)) == BOUNDARY_WITHIN_TOL

    def test_demo_pushed_inside(self):
        assert contains_zero_general(demo_pushed(1.5)) == INSIDE

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_gap_test(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(int(rng.integers(2, 9)), rng)
        gap = contains_zero_unitary(unitary_eig(u))
        sweep = contains_zero_general(u)
        if gap == ON_BOUNDARY or sweep == BOUNDARY_WITHIN_TOL:
            return
        assert gap == sweep

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("answer", [INSIDE, OUTSIDE])
    @pytest.mark.parametrize("d", [4, 16])
    def test_agrees_with_brute_membership(self, d, answer, seed):
        a = known_membership(d, answer, seed)
        assert contains_zero_general(a) == answer
        assert brute_membership(a) == answer


def shifted_to_margin(seed, margin, d=5):
    """A d×d non-normal matrix shifted so that min h = ``margin``·‖A‖.

    The argmin θ* of h is found on a dense odd grid and polished by a bounded
    scalar search; shifting A by c·e^{iθ*}·I adds c·cos(θ − θ*) to h, which
    keeps θ* a critical point and moves h(θ*) to the target.
    """
    g = ginibre(np.random.default_rng(seed), d)
    angles, h = dense_support(g, 20_001)
    k = int(np.argmin(h))
    polished = minimize_scalar(
        lambda t: eigvalsh_support(g, t),
        bounds=(angles[k] - 4e-4, angles[k] + 4e-4),
        method="bounded",
        options={"xatol": 1e-12},
    )
    shift = margin * schatten_inf(g) - polished.fun
    return g + shift * np.exp(1j * polished.x) * np.eye(d)


def assert_certified(a, result):
    """The verdict is the one its bracket certifies (see ``origin_verdict``)."""
    scale = schatten_inf(a)
    tol = MEMBERSHIP_REL_TOL * scale
    assert result.lower <= result.upper
    assert result.upper == pytest.approx(eigvalsh_support(a, result.angle), abs=1e-12 * scale)
    if result.verdict == OUTSIDE:
        assert eigvalsh_support(a, result.angle) < -tol
    elif result.verdict == INSIDE:
        assert result.lower > tol
    else:
        assert result.verdict == BOUNDARY_WITHIN_TOL
        assert -tol <= result.lower and result.upper <= tol


class TestOriginVerdict:
    @pytest.mark.parametrize("seed", range(3))
    def test_cell_bounds_match_dense_minimum(self, seed):
        # any points will do: the bound is the minimum over each cell of the
        # larger of the two neighbouring sinusoids, wherever it falls
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 40))
        points = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        bounds = _cell_lower_bounds(angles, points)
        ends = np.append(angles[1:], angles[0] + 2 * np.pi)
        for k in range(40):
            theta = np.linspace(angles[k], ends[k], 4001)
            phase = np.exp(-1j * theta)
            g = np.maximum((phase * points[k]).real, (phase * points[(k + 1) % 40]).real)
            # g moves by at most |z|·(cell width)/4000 between dense samples
            slack = np.abs(points).max() * (ends[k] - angles[k]) / 4000
            assert g.min() - slack <= bounds[k] <= g.min() + 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_miss_outside(self, seed):
        # 0 lies 1e-6·‖A‖ outside W(A), but every sample of the old
        # 2048-angle sign test has h > tol, so that test answered `inside`
        a = shifted_to_margin(seed, -1e-6)
        tol = MEMBERSHIP_REL_TOL * schatten_inf(a)
        assert dense_support(a, 2048)[1].min() > tol
        result = origin_verdict(support_profile(a))
        assert result.verdict == OUTSIDE
        assert result.n_angles > numrange.ANGLES_DISPLAY
        assert_certified(a, result)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_margin_within_tol(self, seed):
        a = shifted_to_margin(seed, 0.0)
        result = origin_verdict(support_profile(a))
        assert result.verdict == BOUNDARY_WITHIN_TOL
        assert_certified(a, result)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_touch_bracket_ordered(self, seed):
        # W of a Hermitian A is [λ_min, λ_max] ∋ 0, touched at θ = π/2, where
        # L (Rayleigh quotients) and U (eigenvalues) are both ε‖A‖ rounding noise
        a = sweep_input("hermitian", 16, seed)
        result = origin_verdict(support_profile(a, 17))
        assert result.verdict == BOUNDARY_WITHIN_TOL
        assert_certified(a, result)

    @pytest.mark.parametrize("n", [17, 721])
    def test_segment_on_odd_grid(self, n):
        # no grid angle hits the normal π/2 of the segment [−1, 1]; bisection must reach it
        segment = np.diag([1.0, -1.0]).astype(complex)
        result = origin_verdict(support_profile(segment, n))
        assert result.verdict == BOUNDARY_WITHIN_TOL
        assert result.n_angles > n
        assert_certified(segment, result)

    def test_refinement_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numrange, "MAX_REFINED_ANGLES", 0)
        segment = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(RuntimeError, match=r"min h in \["):
            origin_verdict(support_profile(segment, 17))

    def test_non_finite_profile_raises(self):
        # a NaN bracket selects no cell to bisect; it must not loop forever
        segment = np.diag([1.0, -1.0]).astype(complex)
        profile = support_profile(segment, 17)
        broken = dataclasses.replace(
            profile, support_values=np.full_like(profile.support_values, np.nan)
        )
        with pytest.raises(RuntimeError, match="undecided"):
            origin_verdict(broken)

    def test_profile_holds_its_own_matrix(self):
        # the refinement solves A again; writing into A after the sweep must not reach it
        segment = np.diag([1.0, -1.0]).astype(complex)
        profile = support_profile(segment, 17)
        before = origin_verdict(profile)
        assert before.n_angles > 17  # refined
        segment[:] = 2j * np.eye(2)
        assert origin_verdict(profile) == before

    @pytest.mark.parametrize(
        "kind", ["non-normal-0", "non-normal-1", "non-normal-2", "point", "triangle"]
    )
    @pytest.mark.parametrize("n", [16, 17, 720])
    def test_lower_bound_below_dense_minimum(self, n, kind):
        # a point or a triangle missing 0 has min h at a corner of W(A), where
        # the chord bound bottoms out at a trough arg z + π inside a cell
        if kind == "point":
            a = np.exp(1j) * np.eye(3)
        elif kind == "triangle":
            a = np.diag([1 + 1j, 2, 1.5 + 2j])
        else:
            a = ginibre(np.random.default_rng(int(kind[-1])), 6)
        profile = support_profile(a, n)
        result = origin_verdict(profile)
        dense_min = dense_support(a, 65536)[1].min()
        # L is a minimum of chord bounds; 1e-12·‖A‖ absorbs eigensolver rounding
        assert result.lower <= dense_min + 1e-12 * schatten_inf(a)
        assert_certified(a, result)

    @pytest.mark.parametrize("n", [16, 17, 720])
    def test_range_command_uses_the_profile(self, tmp_path, capsys, n):
        a = ginibre(np.random.default_rng(n), 6)
        path = tmp_path / "a.json"
        iofmt.write_matrix(path, a)
        out = tmp_path / "out"
        argv = ["range", "--input", str(path), "--angles", str(n), "--out-dir", str(out)]
        assert cli.main(argv) == 0
        matrix, _ = iofmt.read_matrix(path)
        profile = support_profile(matrix, n)
        fields = (profile.angles, profile.support_values, profile.boundary_points)
        snapshot = [arr.copy() for arr in fields]
        result = origin_verdict(profile)
        for arr, before in zip(fields, snapshot):
            assert np.array_equal(arr, before)
        iofmt.write_range_csv(tmp_path / "expected.csv", profile)
        assert (out / "boundary.csv").read_text() == (tmp_path / "expected.csv").read_text()
        stdout = capsys.readouterr().out.splitlines()
        assert f"origin verdict: {result.verdict}" in stdout
        assert f"over {result.n_angles} angles" in stdout[1]


class TestDistanceToZero:
    """dist(0, W(A)) = max(0, −min h), with min h the upper end of the verdict's bracket."""

    @staticmethod
    def distance(a, n=numrange.ANGLES_DISPLAY):
        return max(0.0, -origin_verdict(support_profile(a, n)).upper)

    def test_identity(self):
        assert self.distance(np.eye(3, dtype=complex)) == pytest.approx(1.0, abs=1e-9)

    def test_segment_geometry(self):
        d = self.distance(np.diag([1.0, 1j]))
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_inside_returns_zero(self):
        u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert self.distance(u) == 0.0

    def test_decreases_along_demo_push(self):
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
        dists = [
            self.distance(perturbed_unitary(demo.DEMO_MATRIX, gen, t), 1024)
            for t in np.linspace(0.0, 1.45, 12)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[0] > 0.2 and dists[-1] < 0.01

    @pytest.mark.parametrize("seed", range(8))
    def test_refinement_bounded_by_modulus(self, seed):
        # doubling the grid moves the sampled min h by at most the
        # support-function modulus bound R * (grid spacing) / 2
        rng = np.random.default_rng(seed)
        u = haar_unitary(int(rng.integers(2, 9)), rng)
        h1 = support_profile(u, 2048).support_values.min()
        h2 = support_profile(u, 4096).support_values.min()
        assert abs(h1 - h2) <= schatten_inf(u) * (2 * np.pi / 2048) / 2
