import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrsteer import demo
from nrsteer.linalg import schatten_inf, unitary_eig
from nrsteer.numrange import (
    BOUNDARY_WITHIN_TOL,
    INSIDE,
    ON_BOUNDARY,
    OUTSIDE,
    contains_zero_general,
    contains_zero_unitary,
    distance_to_zero,
    support_function,
    support_profile,
    support_values,
    unitary_range_polygon,
    widest_gap,
    _angles_per_block,
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
    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2, 3.0])
    def test_identity(self, theta):
        h, witness = support_function(np.eye(3, dtype=complex), theta)
        assert h == pytest.approx(np.cos(theta), abs=1e-12)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)

    def test_real_segment(self):
        h, _ = support_function(np.diag([1.0, -1.0]).astype(complex), 0.0)
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_witness_point_respects_support(self):
        a = demo.DEMO_MATRIX
        for theta in np.linspace(0, 2 * np.pi, 17):
            h, witness = support_function(a, theta)
            z = witness.conj() @ a @ witness
            assert np.real(np.exp(-1j * theta) * z) == pytest.approx(h, abs=1e-9)

    @given(seed=st.integers(0, 100), theta=st.floats(0, 2 * np.pi))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_contained(self, seed, theta):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h, _ = support_function(a, theta)
        eigs = np.linalg.eigvals(a)  # independent nonsymmetric solver as oracle
        assert np.real(np.exp(-1j * theta) * eigs).max() <= h + 1e-9


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
            support_values(np.eye(2, dtype=complex), 8)


class TestSupportSweep:
    """Batched sweeps against the per-angle :func:`support_function`."""

    def check_against_per_angle(self, a, n):
        scale = schatten_inf(a)
        angles, h = support_values(a, n)
        profile = support_profile(a, n)
        assert np.array_equal(angles, np.arange(n) * (2 * np.pi / n))
        assert np.array_equal(profile.angles, angles)
        reference = np.array([support_function(a, theta)[0] for theta in angles])
        assert np.abs(h - reference).max() <= 1e-12 * scale
        assert np.abs(profile.support_values - reference).max() <= 1e-12 * scale
        attained = np.real(np.exp(-1j * angles) * profile.boundary_points)
        assert np.abs(attained - profile.support_values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [16, 17, 720])
    @pytest.mark.parametrize("kind", ["non-normal", "normal", "hermitian"])
    def test_matches_per_angle(self, kind, n):
        self.check_against_per_angle(sweep_input(kind, 5, seed=n), n)

    def test_block_seams(self):
        # 720 angles at d = 64 solve 360 matrices, several blocks' worth
        assert 360 > 2 * _angles_per_block(64)
        self.check_against_per_angle(sweep_input("non-normal", 64, seed=3), 720)


class TestUnitaryPolygon:
    def test_triangle(self):
        poly = unitary_range_polygon(unitary_eig(np.diag([1.0, 1j, -1.0])))
        assert np.allclose(poly.vertices, [1.0, 1j, -1.0], atol=1e-12)

    def test_identity_single_vertex(self):
        poly = unitary_range_polygon(unitary_eig(np.eye(3, dtype=complex)))
        assert poly.vertices.shape == (1,)
        assert poly.vertices[0] == pytest.approx(1.0, abs=1e-12)

    def test_demo_triangle_ccw_convex(self):
        poly = unitary_range_polygon(unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4))
        assert poly.vertices.shape == (3,)
        assert _convexity_defect(poly.vertices) >= -1e-12

    @pytest.mark.parametrize("seed", [5, 6])
    def test_vertices_inside_profile(self, seed):
        u = haar_unitary(5, seed)
        poly = unitary_range_polygon(unitary_eig(u))
        angles, h = support_values(u, 512)
        proj = np.real(np.exp(-1j * angles)[:, None] * poly.vertices[None, :])
        assert np.all(proj <= h[:, None] + 1e-9)


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


class TestDistanceToZero:
    def test_identity(self):
        assert distance_to_zero(np.eye(3, dtype=complex)) == pytest.approx(1.0, abs=1e-9)

    def test_segment_geometry(self):
        d = distance_to_zero(np.diag([1.0, 1j]))
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_inside_returns_zero(self):
        u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert distance_to_zero(u) == 0.0

    def test_decreases_along_demo_push(self):
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]), direction="cw")
        dists = [
            distance_to_zero(perturbed_unitary(demo.DEMO_MATRIX, gen, t), 1024)
            for t in np.linspace(0.0, 1.45, 12)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[0] > 0.2 and dists[-1] < 0.01

    @pytest.mark.parametrize("seed", range(8))
    def test_refinement_bounded_by_modulus(self, seed):
        # doubling the grid moves the sampled distance by at most the
        # support-function modulus bound R * (grid spacing) / 2
        rng = np.random.default_rng(seed)
        u = haar_unitary(int(rng.integers(2, 9)), rng)
        d1 = distance_to_zero(u, 2048)
        d2 = distance_to_zero(u, 4096)
        assert abs(d1 - d2) <= schatten_inf(u) * (2 * np.pi / 2048) / 2
