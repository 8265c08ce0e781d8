import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from nrsteer import demo, linalg
from nrsteer.linalg import (
    CLUSTER_TOL,
    BranchCutWarning,
    EigendecompositionError,
    _cluster_on_circle,
    _herm_eig,
    _unitary_eig,
    _unitary_eig_stack,
    check_hermitian,
    check_unitary,
    geodesic_point,
    principal_args,
    principal_log_unitary,
    schatten_inf,
    unitary_eig,
    unitary_exp_herm,
)
from nrsteer.testkit import conditioned_unitary, degenerate_fixture, haar_unitary


def complex_mat(rows):
    return np.array(rows, dtype=np.complex128)


class TestValidation:
    def test_check_unitary_accepts_identity(self):
        check_unitary(np.eye(4, dtype=complex))

    def test_check_unitary_rejects_scaled(self):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(2 * np.eye(2, dtype=complex))

    def test_check_unitary_relaxed_tolerance(self):
        with pytest.raises(ValueError):
            check_unitary(demo.DEMO_MATRIX)  # 6-decimal data fails the strict check
        check_unitary(demo.DEMO_MATRIX, tol=1e-4)

    def test_check_hermitian(self):
        check_hermitian(complex_mat([[1, 2j], [-2j, 0.5]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(complex_mat([[0, 1], [0, 0]]))

    def test_unitary_exp_herm_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            unitary_exp_herm(complex_mat([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("scale", [1e78, 1e200])
    def test_check_unitary_rejects_overflowing_copies(self, scale):
        # U†U of these copies is 1e156 or overflows to inf; neither defect may pass as NaN
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(scale * complex_mat([[1, 2], [3, 4j]]), tol=1e-4)

    def test_check_hermitian_rejects_large_non_hermitian(self):
        # the defect's Gram matrix would reach 1e320 without scaling
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(1e160 * complex_mat([[0, 1], [0, 0]]))
        check_hermitian(1e160 * complex_mat([[1, 2j], [-2j, 0.5]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            check_unitary(np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            check_hermitian(complex_mat([[np.nan, 0], [0, 0]]))


class TestHermEig:
    """The unchecked Hermitian eigensolver behind ``unitary_eig`` and ``unitary_exp_herm``."""

    def test_identity(self):
        w, x = _herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(x.conj().T @ x, np.eye(3), atol=1e-12)

    def test_diagonal_sorting(self):
        w, x = _herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1, 2, 3])
        h = (x * w) @ x.conj().T
        assert np.abs(h - np.diag([3, 1, 2])).max() < 1e-12

    def test_exchange_matrix(self):
        w, x = _herm_eig(complex_mat([[0, 1], [1, 0]]))
        assert np.allclose(w, [-1, 1])
        for col, val in zip(x.T, w):
            assert np.allclose(np.abs(col), [1 / np.sqrt(2)] * 2, atol=1e-12)
            assert np.linalg.norm(complex_mat([[0, 1], [1, 0]]) @ col - val * col) < 1e-12

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (a + a.conj().T) / 2
        w, x = _herm_eig(h)
        assert schatten_inf((x * w) @ x.conj().T - h) < 1e-9


class TestUnitaryEig:
    def test_solver_failure_raises(self, monkeypatch):
        def no_convergence(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigendecompositionError, match="did not converge"):
            unitary_eig(haar_unitary(3, 0))

    def test_identity_single_cluster(self):
        system = unitary_eig(np.eye(2, dtype=complex))
        assert system.groups == ((0, 1),)
        assert np.allclose(system.values, 1.0, atol=1e-12)

    def test_diagonal_ccw_order(self):
        system = unitary_eig(np.diag([1.0, 1j, -1.0]))
        assert np.allclose(system.values, [1.0, 1j, -1.0], atol=1e-12)

    def test_demo_matrix_reconstruction(self):
        system = unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4)
        assert all(len(g) == 1 for g in system.groups)
        assert np.abs(np.abs(system.values) - 1).max() < 1e-4
        rebuilt = (system.vectors * system.values) @ system.vectors.conj().T
        assert schatten_inf(rebuilt - demo.DEMO_MATRIX) < 1e-4

    @pytest.mark.parametrize("seed,d", [(0, 2), (1, 3), (2, 5), (3, 8)])
    def test_haar_invariants(self, seed, d):
        u = haar_unitary(d, seed)
        system = unitary_eig(u)
        assert np.abs(np.abs(system.values) - 1).max() < 1e-10
        assert schatten_inf(system.vectors.conj().T @ system.vectors - np.eye(d)) < 1e-10
        rebuilt = (system.vectors * system.values) @ system.vectors.conj().T
        assert schatten_inf(rebuilt - u) < 1e-9
        args = np.angle(system.values)
        assert np.all(np.diff(args) >= -1e-15)  # ccw from smallest principal argument

    def test_conjugate_pair_same_real_part(self):
        # equal Hermitian parts put the pair in one run, which the Schur form splits
        theta = 0.8
        u = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        system = unitary_eig(u)
        assert np.allclose(sorted(system.values, key=lambda z: z.imag),
                           [np.exp(-1j * theta), np.exp(1j * theta)], atol=1e-12)

    @pytest.mark.parametrize("delta", [1e-5, 1e-7, 1e-9])
    def test_near_mirror_pair_residual(self, delta):
        # e^{iθ} and e^{−i(θ − δ)} have Hermitian parts δ·sin θ apart: their
        # eigenvectors of A mix by about eps/(δ·sin θ) unless resolved together
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = haar_unitary(8, rng)
            theta = rng.uniform(-np.pi, np.pi, 8)
            theta[1] = delta - theta[0]
            u = (x * np.exp(1j * theta)) @ x.conj().T
            system = unitary_eig(u)
            residual = np.abs(u @ system.vectors - system.vectors * system.values).max()
            assert residual <= 1e-12, (seed, residual)

    def test_degenerate_block_grouped(self):
        basis = haar_unitary(4, 11)
        vals = np.array([np.exp(0.4j)] * 3 + [np.exp(-2.0j)])
        u = (basis * vals) @ basis.conj().T
        system = unitary_eig(u)
        sizes = sorted(len(g) for g in system.groups)
        assert sizes == [1, 3]

    def test_eigenspace_isometry_invariants(self):
        basis = haar_unitary(5, 12)
        vals = np.concatenate([np.full(3, np.exp(0.9j)), np.exp([-1.2j, 2.1j])])
        u = (basis * vals) @ basis.conj().T
        system = unitary_eig(u)
        group = max(range(len(system.groups)), key=lambda g: len(system.groups[g]))
        cols = system.vectors[:, list(system.groups[group])]
        assert cols.shape[1] == 3
        assert schatten_inf(cols.conj().T @ cols - np.eye(3)) < 1e-10
        assert schatten_inf(u @ cols - system.representatives[group] * cols) < 1e-9


def _reference_ccw_order(values, vectors):
    """Order contract of unitary_eig as a plain tuple-key sort: principal
    argument in (−π, π], then the entries Re x₀, Im x₀, Re x₁, … break ties."""
    args = np.angle(values)
    args = np.where(args <= -np.pi, args + 2 * np.pi, args)
    keys = [
        (args[j],) + tuple(c for z in vectors[:, j] for c in (z.real, z.imag))
        for j in range(values.shape[0])
    ]
    return sorted(range(values.shape[0]), key=lambda j: keys[j])


class TestUnitaryEigOrder:
    def assert_reference_order(self, system, seed):
        # re-sorting a shuffled copy by the reference key must give the output back
        perm = np.random.default_rng(seed).permutation(system.dim)
        vals, vecs = system.values[perm], system.vectors[:, perm]
        ref = _reference_ccw_order(vals, vecs)
        assert np.array_equal(vals[ref], system.values)
        assert np.array_equal(vecs[:, ref], system.vectors)

    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.1, np.pi, -np.pi])
    def test_scalar_matrix(self, phi):
        system = unitary_eig(np.exp(1j * phi) * np.eye(5, dtype=complex))
        assert np.unique(np.angle(system.values)).size == 1  # all ties: entries decide
        self.assert_reference_order(system, seed=0)

    @pytest.mark.parametrize("d,k,l", [(3, 2, 1), (5, 3, 2), (6, 4, 1), (8, 5, 3)])
    def test_degenerate_fixture(self, d, k, l):
        fixture = degenerate_fixture(d, k, l, seed=10 * d + k)
        self.assert_reference_order(unitary_eig(fixture.matrix), seed=d)

    @pytest.mark.parametrize("seed", range(4))
    def test_haar(self, seed):
        self.assert_reference_order(unitary_eig(haar_unitary(6, seed)), seed=seed)


class TestStackedUnitaryEig:
    """A (K, d, d) stack gives every matrix the values and |eigenvectors|² it gets alone."""

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_matches_one_at_a_time(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        mats = [haar_unitary(d, rng), conditioned_unitary(d, rng), np.exp(0.3j) * np.eye(d)]
        if d >= 2:  # a near mirror pair: its A-eigenvalues need the Schur form
            x = haar_unitary(d, rng)
            theta = rng.uniform(-np.pi, np.pi, d)
            theta[1] = 1e-7 - theta[0]
            mats.append((x * np.exp(1j * theta)) @ x.conj().T)
        if d >= 3:  # an exactly (d − 1)-fold eigenvalue
            mats.append(degenerate_fixture(d, d - 1, 1, rng).matrix)
        schur_calls = []
        real_schur = linalg._schur_vectors
        monkeypatch.setattr(
            linalg, "_schur_vectors", lambda m: schur_calls.append(1) or real_schur(m)
        )
        values, vectors = _unitary_eig_stack(np.array(mats))
        assert (len(schur_calls) > 0) == (d >= 2)
        assert len(values) == len(vectors) == len(mats)
        for m, lam, x in zip(mats, values, vectors):
            alone_values, alone_vectors = _unitary_eig_stack(m[None])
            assert np.abs(lam - alone_values[0]).max() <= 1e-13
            assert np.abs(np.abs(x) ** 2 - np.abs(alone_vectors[0]) ** 2).max() <= 1e-13
            # in ccw order the stacked values cluster as unitary_eig's do
            ccw = lam[np.argsort(principal_args(lam))]
            system = _unitary_eig(m)
            assert tuple(map(tuple, _cluster_on_circle(ccw, CLUSTER_TOL))) == system.groups
            assert np.abs(ccw - system.values).max() <= 1e-13


class TestSchatten:
    def test_diagonal_values(self):
        assert abs(schatten_inf(np.diag([0.5, 2.0]).astype(complex)) - 2) < 1e-12
        assert schatten_inf(haar_unitary(4, 5)) == pytest.approx(1.0, abs=1e-12)

    def test_phase_difference_closed_form(self):
        m = np.eye(2) - np.diag([1.0, np.exp(1j * np.pi / 2)])
        assert abs(schatten_inf(m) - np.sqrt(2)) < 1e-12

    @given(seed=st.integers(0, 50), d=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_svd(self, seed, d):
        # numpy's SVD is an independent oracle for the A†A eigenvalue route
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert schatten_inf(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


    @pytest.mark.parametrize("scale", [2.0**-1070, 1e-300, 1e-150, 1e150, 1e300, 2.0**1020])
    def test_scale_equivariant(self, scale):
        # the Gram matrix of the scaled copy would underflow or overflow; the
        # power-of-two scaling inside keeps every norm finite and to rounding
        a = complex_mat([[1, 2], [3, 4j]])
        assert schatten_inf(scale * a) == pytest.approx(scale * schatten_inf(a), rel=1e-13)

    def test_power_of_two_scaling_keeps_rounding(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 5, 16):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gram = a.conj().T @ a
            unscaled = float(np.sqrt(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]))
            assert schatten_inf(a) == unscaled

    def test_non_finite_and_empty(self):
        assert schatten_inf(np.full((2, 2), np.inf + 0j)) == np.inf
        assert np.isnan(schatten_inf(np.array([[np.nan, 1.0]])))
        assert schatten_inf(np.zeros((0, 0))) == 0.0
        assert schatten_inf(np.zeros((3, 3))) == 0.0


class TestSchurVectors:
    def test_matches_scipy_schur_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for k in range(2, 9):
            for _ in range(20):
                x = haar_unitary(k, rng)
                theta = rng.uniform(-np.pi, np.pi, k)
                theta[: k // 2] = theta[0] + 1e-6 * rng.standard_normal(k // 2)
                noise = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                m = (x * np.exp(1j * theta)) @ x.conj().T + 1e-12 * noise
                assert np.array_equal(linalg._schur_vectors(m), schur(m, output="complex")[1])

    def test_failure_raises(self, monkeypatch):
        def zgees(select, a, lwork):
            return a, 0, np.diag(a), np.eye(len(a)), np.zeros(1), 3

        monkeypatch.setattr(linalg, "lapack", types.SimpleNamespace(zgees=zgees))
        with pytest.raises(EigendecompositionError, match="zgees failed with info 3"):
            linalg._schur_vectors(np.eye(2, dtype=complex))


class TestPrincipalLog:
    def test_identity_gives_zero(self):
        assert np.abs(principal_log_unitary(np.eye(3, dtype=complex))).max() < 1e-12

    def test_diagonal_phases(self):
        h = principal_log_unitary(np.diag([np.exp(0.3j), np.exp(-0.7j)]))
        assert np.allclose(np.diag(h).real, [0.3, -0.7], atol=1e-12)
        assert np.abs(h - np.diag(np.diag(h))).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(int(rng.integers(2, 9)), rng)
        h = principal_log_unitary(u)
        assert schatten_inf(unitary_exp_herm(h) - u) < 1e-9

    def test_branch_cut_warns_and_uses_pi(self):
        with pytest.warns(BranchCutWarning):
            h = principal_log_unitary(np.diag([-1.0 + 0j, 1.0 + 0j]))
        assert np.allclose(np.diag(h).real, [np.pi, 0.0], atol=1e-12)


class TestGeodesic:
    def test_endpoints(self):
        u = haar_unitary(4, 21)
        v = haar_unitary(4, 22)
        assert schatten_inf(geodesic_point(u, v, 0.0) - u) < 1e-9
        assert schatten_inf(geodesic_point(u, v, 1.0) - v) < 1e-9

    def test_scalar_phase_curve(self):
        alpha = 1.1
        v = np.diag([np.exp(1j * alpha)])
        for t in (0.25, 0.5, 0.9):
            point = geodesic_point(np.eye(1, dtype=complex), v, t)
            assert abs(point[0, 0] - np.exp(1j * t * alpha)) < 1e-12

    def test_midpoint_is_unitary(self):
        u = haar_unitary(3, 23)
        v = haar_unitary(3, 24)
        check_unitary(geodesic_point(u, v, 0.5), tol=1e-9)
