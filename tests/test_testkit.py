import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linear_sum_assignment

from nrsteer import linalg, verify
from nrsteer.linalg import CLUSTER_TOL, schatten_inf, unitary_eig
from nrsteer.numrange import OUTSIDE, contains_zero_general, contains_zero_unitary
from nrsteer.perturb import PerturbationGenerator, perturbed_unitary, track_trajectory
from nrsteer.testkit import (
    _separated_angles,
    assignment_paths,
    brute_membership,
    conditioned_unitary,
    degenerate_fixture,
    fd_velocity,
    haar_unitary,
    secular_paths,
)


class TestHaarUnitary:
    def test_unitary_within_tolerance(self):
        for d, seed in [(1, 0), (2, 1), (5, 2), (8, 3)]:
            u = haar_unitary(d, seed)
            assert schatten_inf(u.conj().T @ u - np.eye(d)) < 1e-12

    def test_scalar_case(self):
        u = haar_unitary(1, 7)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_seed_reproducibility(self):
        assert np.array_equal(haar_unitary(4, 123), haar_unitary(4, 123))
        assert not np.array_equal(haar_unitary(4, 123), haar_unitary(4, 124))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            haar_unitary(0)

    def test_eigenvalue_arguments_uniform(self):
        # one randomly chosen eigenvalue argument per draw is exactly uniform;
        # chi-squared sanity check at a deliberately loose threshold
        rng = np.random.default_rng(2024)
        draws = 10_000
        z = (rng.standard_normal((draws, 2, 2)) + 1j * rng.standard_normal((draws, 2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.einsum("nii->ni", r)
        us = q * (diag / np.abs(diag))[:, None, :]
        eigs = np.linalg.eigvals(us)  # independent solver as oracle
        picks = eigs[np.arange(draws), rng.integers(0, 2, draws)]
        counts, _ = np.histogram(np.angle(picks), bins=16, range=(-np.pi, np.pi))
        assert stats.chisquare(counts).pvalue > 0.001


class TestConditionedUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 64])
    def test_every_draw_misses_zero(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            u = conditioned_unitary(d, rng)
            assert schatten_inf(u.conj().T @ u - np.eye(d)) < 1e-12
            assert contains_zero_unitary(unitary_eig(u)) == OUTSIDE

    def test_seed_reproducibility(self):
        assert np.array_equal(conditioned_unitary(8, 5), conditioned_unitary(8, 5))
        assert not np.array_equal(conditioned_unitary(8, 5), conditioned_unitary(8, 6))


class TestDegenerateFixture:
    @pytest.mark.parametrize("d,k,l", [(3, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 3)])
    def test_construction_self_validates(self, d, k, l):
        fixture = degenerate_fixture(d, k, l, seed=d * 100 + k * 10 + l)
        assert fixture.multiplicity == k
        # the cluster that validated the multiplicity is kept for its users
        members = list(fixture.system.groups[fixture.group])
        assert len(members) == k
        assert np.abs(fixture.system.values[members] - fixture.eigenvalue).max() <= CLUSTER_TOL
        assert int(np.sum(fixture.p > 0)) == l
        assert fixture.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_multiplicity_recomputed(self):
        fixture = degenerate_fixture(5, 3, 1, seed=9)
        system = unitary_eig(fixture.matrix)
        sizes = sorted(len(g) for g in system.groups)
        assert sizes == [1, 1, 3]
        assert np.array_equal(fixture.system.values, system.values)

    def test_verify_reuses_the_fixture_eigensystem(self, monkeypatch):
        calls = []
        real = linalg._unitary_eig

        def counting(u):
            calls.append(u.shape)
            return real(u)

        monkeypatch.setattr(linalg, "_unitary_eig", counting)
        monkeypatch.setattr(verify, "_unitary_eig", counting)
        stationary, multiplicity = verify.run_stationarity_and_multiplicity(1, 10)
        assert stationary.passed and multiplicity.passed
        # per fixture: the validation, then one per probe time
        assert len(calls) == 10 * (1 + len(verify.PROBE_TIMES)) == 40

    def test_moving_eigenspace_fails_the_witness(self, monkeypatch):
        # below 0 no compressed speed counts as zero, so no fixture has a witness
        monkeypatch.setattr(verify, "STATIONARY_TOL", -1.0)
        stationary, multiplicity = verify.run_stationarity_and_multiplicity(1, 4)
        assert stationary.failures == 4 and stationary.max_residual == np.inf
        assert all("witness residual inf" in detail for detail in stationary.details)
        assert multiplicity.passed  # no probe time, no count below the multiplicity

    def test_fixture_runners_name_unusable_dims(self):
        with pytest.raises(ValueError, match=r"got dims \(1,\)"):
            verify.run_stationarity_and_multiplicity(0, 3, dims=(1,))
        with pytest.raises(ValueError, match=r"got dims \(2,\)"):
            verify.run_first_order_split(0, 3, dims=(2,))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            degenerate_fixture(3, 3, 3, seed=0)  # needs l < k
        with pytest.raises(ValueError):
            degenerate_fixture(3, 4, 1, seed=0)  # needs k <= d

    def test_many_distinct_eigenvalues(self):
        # 19 angles 0.3 apart fill 91% of the circle
        fixture = degenerate_fixture(30, 12, 3, seed=0)
        assert fixture.multiplicity == 12


class TestSeparatedAngles:
    @pytest.mark.parametrize("count", [1, 2, 5, 19, 20])
    def test_min_gap(self, count):
        rng = np.random.default_rng(count)
        for _ in range(50):
            angles = _separated_angles(rng, count, 0.3)
            assert angles.shape == (count,)
            assert np.all((angles > -np.pi) & (angles <= np.pi))
            diffs = np.abs(angles[:, None] - angles[None, :])
            circ = np.minimum(diffs, 2 * np.pi - diffs)
            np.fill_diagonal(circ, np.inf)
            assert circ.min() >= 0.3 - 1e-12  # rounding of the wrapped sums

    def test_impossible_separation_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            _separated_angles(rng, 21, 0.3)  # 21·0.3 > 2π
        with pytest.raises(ValueError):
            _separated_angles(rng, 4, np.pi / 2)  # exactly 2π leaves no slack


class TestFdVelocity:
    def test_identity_phases(self):
        p = np.array([0.2, 0.3, 0.5])
        gen = PerturbationGenerator(p=p)
        t, h = 0.5, 1e-4
        fd = fd_velocity(np.eye(3, dtype=complex), gen, t, h)
        expected = 1j * p * np.exp(1j * p * t)
        assert np.abs(np.sort_complex(fd) - np.sort_complex(expected)).max() < 10 * h**2

    def test_halving_h_quarters_error(self):
        rng = np.random.default_rng(55)
        u = haar_unitary(3, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(3)))
        t = 0.4

        def fd_error(h):
            fd = fd_velocity(u, gen, t, h)
            tiny = fd_velocity(u, gen, t, 1e-6)  # near-exact reference
            return np.abs(np.sort_complex(fd) - np.sort_complex(tiny)).max()

        e1, e2 = fd_error(2e-3), fd_error(1e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_window_starting_at_zero(self):
        # t = h: the t − h end is the first point of the t + h track
        rng = np.random.default_rng(56)
        u = haar_unitary(3, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(3)))
        h = 1e-4
        fd = fd_velocity(u, gen, h, h)
        record = track_trajectory(u, gen, t_end=h)
        assert np.abs(fd - record.velocities[:, -1]).max() < 10 * h**2

    def test_validates_window(self):
        gen = PerturbationGenerator(p=np.array([1.0]))
        with pytest.raises(ValueError):
            fd_velocity(np.eye(1, dtype=complex), gen, 0.1, 0.2)


class TestAssignmentPaths:
    def test_uniform_rigid_rotation(self):
        # uniform p turns the whole spectrum by t/d: path j stays the j-th in ccw order
        u = haar_unitary(5, 56)
        gen = PerturbationGenerator(p=np.full(5, 0.2), direction="cw")
        t_grid = np.linspace(0.0, 2.0, 41)
        paths = assignment_paths(u, gen, t_grid)
        expected = unitary_eig(u).values[:, None] * np.exp(-0.2j * t_grid)[None, :]
        assert np.abs(paths - expected).max() < 1e-12


class TestSecularPaths:
    @pytest.mark.parametrize("direction", ["ccw", "cw"])
    def test_labelled_roots_are_the_interlacing_spectrum(self, direction):
        # each column is the spectrum of U·V(t), and root j lies between θ_j
        # and its neighbour in the push's direction
        u = haar_unitary(5, 57)
        theta = np.angle(unitary_eig(u).values)
        t_grid = np.linspace(0.0, 6.0, 61)
        for i in range(5):
            gen = PerturbationGenerator(p=np.eye(5)[i], direction=direction)
            paths = secular_paths(u, gen, t_grid)
            for k, t in enumerate(t_grid):
                expected = np.linalg.eigvals(perturbed_unitary(u, gen, t))
                cost = np.abs(paths[:, k][:, None] - expected[None, :])
                assert cost[linear_sum_assignment(cost)].max() <= 1e-9
            turn = np.mod(gen.sign * (np.angle(paths) - theta[:, None]), 2 * np.pi)
            width = np.mod(gen.sign * (np.roll(theta, -int(gen.sign)) - theta), 2 * np.pi)
            assert np.all(turn[:, 1:] < width[:, None])

    def test_needs_a_one_hot_p(self):
        gen = PerturbationGenerator(p=np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            secular_paths(haar_unitary(3, 58), gen, np.linspace(0.0, 1.0, 3))


class TestBruteMembership:
    def test_reference_cases(self):
        assert brute_membership(np.eye(2, dtype=complex)) == "outside"
        assert brute_membership(np.diag([1.0, -1.0]).astype(complex)) == "boundary_within_tol"
        third_roots = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert brute_membership(third_roots) == "inside"

    def test_inside_allows_for_the_dip_between_samples(self):
        # a chord 5e-4 left of 0 whose support minimum lies midway between two
        # of 4096 angles: both samples there read +2.7e-4, the minimum is −5e-4
        eps, half_step = 5e-4, np.pi / 4096
        u = np.diag(np.exp(1j * (np.array([1, -1]) * (np.pi / 2 + eps) + half_step)))
        assert brute_membership(u, n_dense=4096) == "boundary_within_tol"
        assert brute_membership(u) == "outside"  # 16384 angles put one on the minimum

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_production_paths(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(int(rng.integers(2, 9)), rng)
        brute = brute_membership(u, n_dense=4096)
        gap = contains_zero_unitary(unitary_eig(u))
        sweep = contains_zero_general(u)
        if "boundary" in (brute, sweep) or gap == "on_boundary":
            return
        assert brute == gap == sweep
