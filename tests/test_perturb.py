import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nrsteer import demo, linalg, perturb, verify
from nrsteer.linalg import schatten_inf, unitary_eig
from nrsteer.numrange import BOUNDARY_GAP_TOL
from nrsteer.perturb import (
    MAX_TRACK_STEP,
    STEP_TOL,
    PerturbationGenerator,
    TrackingCollisionError,
    angular_speeds,
    compress_generator,
    perturbed_unitary,
    track_trajectory,
)
from nrsteer.steering import plan
from nrsteer.testkit import (
    assignment_paths,
    degenerate_fixture,
    fd_velocity,
    haar_unitary,
    secular_paths,
)
from nrsteer.verify import run_first_order_simple, run_first_order_split


def uniform_gen(d, direction="ccw"):
    return PerturbationGenerator(p=np.full(d, 1.0 / d), direction=direction)


def largest_cluster(system):
    """Columns spanning the largest cluster's eigenspace, and its eigenvalue."""
    group = max(range(len(system.groups)), key=lambda g: len(system.groups[g]))
    return system.vectors[:, list(system.groups[group])], system.representatives[group]


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationGenerator(p=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            PerturbationGenerator(p=np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            PerturbationGenerator(p=np.array([1.0]), direction="up")
        for bad in ([np.nan, 1.0, 0.0], [np.inf, 0.0], [-np.inf, 1.0]):
            with pytest.raises(ValueError):
                PerturbationGenerator(p=np.array(bad))

    def test_direction_aliases(self):
        gen = PerturbationGenerator(p=np.array([1.0]), direction="clockwise")
        assert gen.direction == "cw" and gen.sign == -1
        gen = PerturbationGenerator(p=np.array([1.0]), direction="counterclockwise")
        assert gen.direction == "ccw" and gen.sign == 1
        assert PerturbationGenerator(p=np.array([1.0]), direction="ccw").sign == 1


class TestPerturbedUnitary:
    def test_zero_time_identity(self):
        u = haar_unitary(3, 0)
        assert np.array_equal(perturbed_unitary(u, uniform_gen(3), 0.0), u)

    def test_one_hot_phase(self):
        gen = PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]))
        out = perturbed_unitary(np.eye(3, dtype=complex), gen, np.pi)
        assert np.allclose(out, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_stays_unitary(self):
        u = haar_unitary(4, 1)
        out = perturbed_unitary(u, uniform_gen(4), 2.3)
        assert schatten_inf(out.conj().T @ out - np.eye(4)) < 1e-12

    def test_clockwise_conjugates_phases(self):
        u = haar_unitary(3, 2)
        p = np.array([0.2, 0.3, 0.5])
        fwd = perturbed_unitary(u, PerturbationGenerator(p=p, direction="ccw"), 1.1)
        bwd = perturbed_unitary(u, PerturbationGenerator(p=p, direction="cw"), 1.1)
        assert np.allclose(bwd, u * np.exp(-1j * p * 1.1)[None, :], atol=1e-15)
        assert np.allclose(fwd * np.exp(-2j * p * 1.1)[None, :], bwd, atol=1e-12)


class TestSimpleVelocity:
    """The speed Σ p_i |x_i|² of a simple eigenvalue, from ``angular_speeds``."""

    def test_uniform_weights(self):
        x = haar_unitary(4, 3)[:, 0]
        assert angular_speeds(x, np.full(4, 0.25)) == pytest.approx(0.25, abs=1e-12)

    def test_disjoint_support(self):
        assert angular_speeds(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0.0])) == 0.0

    def test_demo_profile_entry(self):
        system = unitary_eig(demo.DEMO_MATRIX, unitarity_tol=1e-4)
        speeds = np.sort(angular_speeds(system.vectors, np.array([0.0, 1.0, 0.0])))
        expected = sorted(demo.REFERENCE_SPEED_PROFILE[:, 1])
        assert np.abs(speeds - expected).max() < 1e-4

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x /= np.linalg.norm(x)
        s = angular_speeds(x, rng.dirichlet(np.ones(5)))
        assert -1e-12 <= s <= 1 + 1e-12


class TestFirstOrder:
    """λ·exp(±i·s·t) is exact when U is diagonal: U·V(t) stays diagonal."""

    @staticmethod
    def moved(values, p, direction, t):
        gen = PerturbationGenerator(p=np.array(p), direction=direction)
        return np.diag(perturbed_unitary(np.diag(values), gen, t))

    def test_zero_speed_stays(self):
        assert angular_speeds(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0.0])) == 0.0
        for t in (0.0, 1.0, 7.0):
            assert self.moved([1j, 1, -1], [0.0, 1.0, 0.0], "ccw", t)[0] == 1j

    def test_quarter_turn(self):
        out = self.moved([1.0, -1.0], [1.0, 0.0], "ccw", np.pi / 2)
        assert out[0] == pytest.approx(1j, abs=1e-12) and out[1] == -1.0

    def test_clockwise_flip(self):
        out = self.moved([1.0, -1.0], [1.0, 0.0], "cw", np.pi / 2)
        assert out[0] == pytest.approx(-1j, abs=1e-12) and out[1] == -1.0

    def test_quadratic_remainder_on_random_instances(self):
        outcome = run_first_order_simple(seed=77, n_instances=6)
        assert outcome.passed, outcome.details


class TestCompression:
    def test_singleton_matches_angular_speeds(self):
        u = haar_unitary(4, 9)
        system = unitary_eig(u)
        p = np.random.default_rng(9).dirichlet(np.ones(4))
        cols = system.vectors[:, list(system.groups[0])]
        assert cols.shape[1] == 1
        speeds, vectors = compress_generator(cols, p)
        assert speeds[0] == pytest.approx(angular_speeds(cols[:, 0], p), abs=1e-15)
        assert np.abs(np.abs(vectors) - np.abs(cols)).max() <= 1e-15

    def test_identity_standard_basis(self):
        p = np.array([0.5, 0.2, 0.3])
        speeds, _ = compress_generator(np.eye(3, dtype=complex), p)
        assert np.allclose(speeds, sorted(p), atol=1e-15)

    def test_speeds_within_unit_interval(self):
        fixture = degenerate_fixture(5, 3, 1, seed=13)
        cols, _ = largest_cluster(unitary_eig(fixture.matrix))
        speeds, _ = compress_generator(cols, np.full(5, 0.2))
        assert np.all(speeds >= -1e-12) and np.all(speeds <= 1 + 1e-12)

    def test_split_vectors_stay_in_eigenspace(self):
        fixture = degenerate_fixture(4, 2, 1, seed=14)
        cols, _ = largest_cluster(unitary_eig(fixture.matrix))
        _, vectors = compress_generator(cols, np.full(4, 0.25))
        for col in vectors.T:
            residual = fixture.matrix @ col - fixture.eigenvalue * col
            assert np.linalg.norm(residual) < 1e-9

    def test_split_predictions_match_tracking(self):
        outcome = run_first_order_split(seed=78, n_instances=4)
        assert outcome.passed, outcome.details


class TestStationarity:
    def test_diagonal_disjoint_support(self):
        u = np.diag([1.0, 1j, -1j])
        system = unitary_eig(u)
        idx = next(g for g, grp in enumerate(system.groups) if abs(system.values[grp[0]] - 1) < 1e-12)
        cols = system.vectors[:, list(system.groups[idx])]
        p = np.array([0.0, 1.0, 0.0])
        speeds, vectors = compress_generator(cols, p)
        assert speeds[0] <= verify.STATIONARY_TOL
        witness = vectors[:, 0]
        assert np.abs(np.abs(witness) - [1, 0, 0]).max() < 1e-12
        moved = perturbed_unitary(u, PerturbationGenerator(p=p), 1.0) @ witness
        assert np.linalg.norm(moved - witness) < 1e-12

    def test_uniform_weights_always_move(self):
        u = haar_unitary(4, 15)
        system = unitary_eig(u)
        cols = system.vectors[:, :1]
        speeds, _ = compress_generator(cols, np.full(4, 0.25))
        assert speeds[0] == pytest.approx(0.25, abs=1e-12)
        assert speeds[0] > verify.STATIONARY_TOL
        # uniform p turns U rigidly: U·V(t) = e^{it/4}·U moves every eigenvalue
        moved = perturbed_unitary(u, uniform_gen(4), 1.0) @ cols[:, 0]
        assert np.allclose(moved, system.values[0] * np.exp(0.25j) * cols[:, 0], atol=1e-12)

    def test_residual_multiplicity_survives(self):
        fixture = degenerate_fixture(4, 3, 1, seed=17)
        gen = PerturbationGenerator(p=fixture.p)
        for t in (0.1, 1.0, 10.0):
            moved = unitary_eig(perturbed_unitary(fixture.matrix, gen, t), unitarity_tol=1e-9)
            close = np.sum(np.abs(moved.values - fixture.eigenvalue) <= 1e-8)
            assert close >= fixture.multiplicity - fixture.support_size == 2


class TestExactVelocity:
    """The exact velocities ±i·λ·Σ p_i |x_i|² that ``track_trajectory`` records."""

    def test_uniform_weights(self):
        record = track_trajectory(haar_unitary(4, 18), uniform_gen(4), t_end=0.5)
        assert np.abs(record.velocities - 0.25j * record.paths).max() < 1e-12

    def test_speed_budget(self):
        gen = PerturbationGenerator(p=np.random.default_rng(19).dirichlet(np.ones(5)))
        record = track_trajectory(haar_unitary(5, 19), gen, t_end=1.0)
        assert np.abs(np.abs(record.velocities).sum(axis=0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", [20, 21])
    def test_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        u = haar_unitary(d, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(d)))
        h = 1e-4
        t = 0.5
        fd = fd_velocity(u, gen, t, h)
        # both tracks keep the initial ccw labels, so path j is the same eigenvalue
        record = track_trajectory(u, gen, t_end=t)
        assert record.t_grid[-1] == t
        assert np.abs(fd - record.velocities[:, -1]).max() < 10 * h**2


class TestTrackTrajectory:
    def test_identity_split_paths(self):
        p = np.array([0.2, 0.3, 0.5])
        gen = PerturbationGenerator(p=p)
        record = track_trajectory(np.eye(3, dtype=complex), gen, t_end=1.0)
        # each path follows one weight's phase curve
        final_sorted = np.sort(np.angle(record.paths[:, -1]))
        assert np.allclose(final_sorted, np.sort(p * record.t_grid[-1]), atol=1e-12)
        speeds = np.abs(record.velocities[:, -1])
        assert np.allclose(np.sort(speeds), np.sort(p), atol=1e-12)

    def test_uniform_rigid_rotation(self):
        u = haar_unitary(4, 30)
        gen = uniform_gen(4)
        record = track_trajectory(u, gen, t_end=2.0)
        start = record.paths[:, :1]
        expected = start * np.exp(1j * record.t_grid / 4)[None, :]
        assert np.abs(record.paths - expected).max() < 1e-9

    def test_paths_stay_on_circle_and_bijective(self):
        u = haar_unitary(5, 31)
        gen = PerturbationGenerator(p=np.random.default_rng(31).dirichlet(np.ones(5)))
        record = track_trajectory(u, gen, t_end=2.0)
        assert np.abs(np.abs(record.paths) - 1).max() < 1e-9
        for k in range(record.n_steps):
            step_vals = record.paths[:, k]
            assert len(step_vals) == len(set(range(5)))  # one value per path index

    def test_starts_at_ccw_order(self):
        u = haar_unitary(4, 32)
        gen = uniform_gen(4)
        record = track_trajectory(u, gen, t_end=0.5)
        assert np.allclose(record.paths[:, 0], unitary_eig(u).values, atol=1e-12)

    def test_monotone_unwrapped_args(self):
        u = haar_unitary(5, 34)
        rng = np.random.default_rng(34)
        for direction, sign in (("ccw", 1.0), ("cw", -1.0)):
            gen = PerturbationGenerator(p=rng.dirichlet(np.ones(5)), direction=direction)
            record = track_trajectory(u, gen, t_end=1.5)
            drift = sign * np.diff(record.unwrapped_args, axis=1)
            assert drift.min() >= -1e-9

    def test_crossing_through_stationary_point(self):
        # the mover passes exactly through the parked eigenvalue; labels of
        # coincident values are interchangeable so tracking proceeds
        u = np.diag([1.0, np.exp(-0.1j)])
        gen = PerturbationGenerator(p=np.array([0.0, 1.0]))
        record = track_trajectory(u, gen, t_end=0.3)
        assert record.t_grid[-1] == pytest.approx(0.3)
        assert np.diff(record.unwrapped_args, axis=1).min() >= -1e-9

    def test_rejection_free_input_gets_the_uniform_grid(self):
        gen = PerturbationGenerator(p=np.random.default_rng(36).dirichlet(np.ones(4)))
        record = track_trajectory(haar_unitary(4, 36), gen, t_end=2.0)
        grid = np.cumsum([0.0] + [MAX_TRACK_STEP] * 40)  # repeated addition
        grid[-1] = 2.0  # the last step lands on t_end
        assert record.t_grid.tolist() == grid.tolist()
        assert record.max_step_residual <= STEP_TOL

    @pytest.mark.parametrize("seed", [37, 38, 39])
    def test_every_final_interval_passes_the_check(self, seed, monkeypatch):
        # degenerate start: a 4-fold cluster splits in the first step
        rng = np.random.default_rng(seed)
        fixture = degenerate_fixture(6, 4, 1, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(6)))
        solves = []
        real_eig = perturb._unitary_eig_stack
        monkeypatch.setattr(
            perturb, "_unitary_eig_stack", lambda u: solves.append(u.shape[0]) or real_eig(u)
        )
        record = track_trajectory(fixture.matrix, gen, t_end=2.0)
        # one eigensolve per grid point, U itself at t = 0 included
        assert sum(solves) == record.n_steps == 41
        h = np.diff(record.t_grid) * gen.p.sum()
        moves = np.diff(record.unwrapped_args, axis=1)
        assert np.all(moves >= -STEP_TOL) and np.all(moves <= h + STEP_TOL)
        assert np.abs(moves.sum(axis=0) - h).max() <= STEP_TOL
        # the unwrapped arguments advance by the moves of the recorded paths
        arcs = np.angle(record.paths[:, 1:] / record.paths[:, :-1])
        assert np.abs(arcs - moves).max() <= 1e-12

    def test_batch_seams_do_not_change_the_record(self, monkeypatch):
        rng = np.random.default_rng(40)
        fixture = degenerate_fixture(5, 3, 1, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(5)), direction="cw")
        whole = track_trajectory(fixture.matrix, gen, t_end=2.0)
        monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # one matrix per stack
        single = track_trajectory(fixture.matrix, gen, t_end=2.0)
        assert whole.t_grid.tolist() == single.t_grid.tolist()
        assert whole.max_step_residual == single.max_step_residual
        for a, b in ((whole.paths, single.paths), (whole.velocities, single.velocities),
                     (whole.unwrapped_args, single.unwrapped_args)):
            assert np.abs(a - b).max() <= 1e-13

    def test_failed_step_check_names_its_time(self, monkeypatch):
        # one eigenvalue turned 0.1 backward at one grid point: an eigensolver fault
        real_spectra = perturb._spectra

        def corrupted(u, gen, times):
            values, speeds = real_spectra(u, gen, times)
            values[17, 2] *= np.exp(-1j * gen.sign * 0.1)
            return values, speeds

        monkeypatch.setattr(perturb, "_spectra", corrupted)
        for direction in ("ccw", "cw"):
            with pytest.raises(TrackingCollisionError, match=r"tracking failed at t = 0\.85:"):
                track_trajectory(haar_unitary(4, 41), uniform_gen(4, direction), t_end=2.0)

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_close_pair_keeps_the_uniform_grid(self, delta):
        # a pair delta apart turns rigidly with the rest: no step shrinks for it
        x = haar_unitary(4, 42)
        u = (x * np.exp(1j * np.array([0.3, 0.3 + delta, 2.0, -2.0]))) @ x.conj().T
        gen = uniform_gen(4)
        record = track_trajectory(u, gen, t_end=2.0)
        assert record.n_steps == 41
        expected = np.linalg.eigvals(perturbed_unitary(u, gen, 2.0))
        cost = np.abs(record.paths[:, -1][:, None] - expected[None, :])
        assert cost[linear_sum_assignment(cost)].max() <= 1e-8
        # U·V(t) = exp(i·t/4)·U: each label keeps its own eigenvalue
        rigid = record.paths[:, :1] * np.exp(1j * record.t_grid / 4)[None, :]
        assert np.abs(record.paths - rigid).max() <= 1e-9

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_rank_ties_keep_labels(self, delta):
        # at d = 2 every pair of labels is in ccw order, and a near-scalar U
        # fits in less than one step's turn: several rank shifts give moves
        # >= 0 summing to h, and only the lift of the ccw order tells them apart
        for d, angles in ((2, [0.3, 0.3 + delta]), (4, 0.3 + delta * np.arange(4))):
            x = haar_unitary(d, 43)
            u = (x * np.exp(1j * np.asarray(angles))) @ x.conj().T
            for direction in ("ccw", "cw"):
                gen = uniform_gen(d, direction)
                record = track_trajectory(u, gen, t_end=2.0)
                assert record.n_steps == 41
                turn = np.exp(gen.sign * 1j * record.t_grid / d)[None, :]
                assert np.abs(record.paths - record.paths[:, :1] * turn).max() <= 1e-9

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_one_hot_close_pairs_match_the_secular_oracle(self, delta):
        # the secular roots of a one-hot push interlace U's spectrum, so their
        # labels cannot tie however close the pair, unlike an assignment's
        for d, angles in ((2, [0.3, 0.3 + delta]), (4, [0.3, 0.3 + delta, 2.0, -2.0])):
            x = haar_unitary(d, 43)
            u = (x * np.exp(1j * np.asarray(angles))) @ x.conj().T
            for direction, i in itertools.product(("ccw", "cw"), range(d)):
                gen = PerturbationGenerator(p=np.eye(d)[i], direction=direction)
                record = track_trajectory(u, gen, t_end=2.0)
                oracle = secular_paths(u, gen, record.t_grid)
                assert np.abs(record.paths - oracle).max() <= 1e-9

    @pytest.mark.parametrize("direction", ["ccw", "cw"])
    @pytest.mark.parametrize("d, degenerate", [(4, False), (16, False), (32, False), (6, True)])
    def test_every_row_matches_an_independent_eigensolve(self, d, degenerate, direction):
        # a 4-fold eigenvalue is split at every t > 0 by a Dirichlet p
        rng = np.random.default_rng(d)
        u = degenerate_fixture(d, 4, 1, rng).matrix if degenerate else haar_unitary(d, rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(d)), direction=direction)
        record = track_trajectory(u, gen, t_end=2.0)
        for k in range(int(degenerate), record.n_steps):
            values, vectors = np.linalg.eig(perturbed_unitary(u, gen, record.t_grid[k]))
            cost = np.abs(record.paths[:, k][:, None] - values[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-9
            # speeds p·|x|² of the simple eigenvalues, from eig's unit eigenvectors
            simple = (np.abs(values[:, None] - values[None, :]) + np.eye(d)).min(axis=1) > 1e-6
            miss = np.abs(record.speeds()[rows, k] - angular_speeds(vectors, gen.p)[cols])
            assert simple.any() and miss[simple[cols]].max() <= 1e-9

    @pytest.mark.parametrize("seed", [44, 45])
    def test_close_pair_with_unequal_weights_follows_its_branches(self, seed):
        # the pair 1e-3 apart splits inside the first step; an assignment
        # oracle 200 times finer than the grid resolves which branch is which
        x = haar_unitary(2, seed)
        u = (x * np.exp(1j * np.array([0.3, 0.301]))) @ x.conj().T
        for direction in ("ccw", "cw"):
            gen = PerturbationGenerator(p=np.array([0.3, 0.7]), direction=direction)
            record = track_trajectory(u, gen, t_end=0.5)
            oracle = assignment_paths(u, gen, np.linspace(0.0, 0.5, 2001))[:, ::200]
            assert np.abs(record.paths - oracle).max() <= 1e-9

    @pytest.mark.parametrize("direction", ["ccw", "cw"])
    def test_degenerate_start_speeds_follow_their_branches(self, direction):
        # a cluster's t = 0 speeds go to the labels whose branches move at them
        for seed in range(46, 50):
            rng = np.random.default_rng(seed)
            fixture = degenerate_fixture(6, 4, 1, rng)
            gen = PerturbationGenerator(p=rng.dirichlet(np.ones(6)), direction=direction)
            record = track_trajectory(fixture.matrix, gen, t_end=1e-6)
            first = gen.sign * np.diff(record.unwrapped_args[:, :2], axis=1)[:, 0] / 1e-6
            assert np.abs(first - record.speeds()[:, 0]).max() <= 1e-6

    def test_rejects_bad_inputs(self):
        u = haar_unitary(2, 35)
        for t_end in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                track_trajectory(u, uniform_gen(2), t_end=t_end)
        with pytest.raises(ValueError):
            track_trajectory(u, uniform_gen(3), t_end=1.0)

    @pytest.mark.parametrize("t_end", [1e-20, 1e-15])
    def test_end_within_the_snap_gets_one_step(self, t_end):
        record = track_trajectory(haar_unitary(3, 35), uniform_gen(3), t_end=t_end)
        assert record.t_grid.tolist() == [0.0, t_end]
        assert record.paths.shape == (3, 2)

    @pytest.mark.parametrize("t_end", [0.5, np.nextafter(0.5, 0.0)])
    def test_grid_at_a_step_multiple_and_just_below(self, t_end):
        # ten steps of 0.05 add up to 0.49999999999999994: both ends replace that sum
        grid = perturb._base_grid(t_end)
        expected = np.cumsum([0.0] + [MAX_TRACK_STEP] * 10)
        assert expected[-1] == np.nextafter(0.5, 0.0)
        expected[-1] = t_end
        assert grid.tolist() == expected.tolist()
        assert len(grid) <= perturb._grid_size(t_end)

    def test_row_bound_is_checked_before_the_grid_is_built(self, monkeypatch):
        def no_grid(t_end):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(perturb, "_base_grid", no_grid)
        with pytest.raises(ValueError, match="MAX_TRACK_ROWS"):
            track_trajectory(haar_unitary(3, 35), uniform_gen(3), t_end=1e9)
        # at d = 4 the bound admits 500000 grid points: 499982 get past the check, 500002 do not
        assert perturb.MAX_TRACK_ROWS == 4 * 500_000
        with pytest.raises(AssertionError, match="the grid was built"):
            track_trajectory(haar_unitary(4, 35), uniform_gen(4), t_end=24_999.0)
        with pytest.raises(ValueError, match="MAX_TRACK_ROWS"):
            track_trajectory(haar_unitary(4, 35), uniform_gen(4), t_end=25_000.0)


class TestClusterAcrossBranchCut:
    """A 2-fold cluster at −1 whose members sit 1e-10 either side of ±π."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        x = haar_unitary(4, rng)
        angles = np.array([np.pi - 1e-10, -np.pi + 1e-10, 2.5, -2.5])
        return (x * np.exp(1j * angles)) @ x.conj().T, rng.dirichlet(np.ones(4))

    def test_members_form_one_group(self):
        for seed in range(10):
            system = unitary_eig(self.instance(seed)[0])
            # ccw ranks 3 (π − 1e-10) and 0 (−π + 1e-10) merge across the cut
            assert sorted(system.groups) == [(1,), (2,), (3, 0)]

    @pytest.mark.parametrize("direction", ["ccw", "cw"])
    def test_start_speeds_are_the_compression(self, direction):
        for seed in range(10):
            u, p = self.instance(seed)
            system = unitary_eig(u)
            (group,) = [list(g) for g in system.groups if len(g) == 2]
            split, _ = compress_generator(system.vectors[:, group], p)
            gen = PerturbationGenerator(p=p, direction=direction)
            record = track_trajectory(u, gen, t_end=0.1)
            # ccw ranks get the split speeds ascending for ccw, descending for cw
            expected = split if direction == "ccw" else split[::-1]
            assert np.abs(record.speeds()[group, 0] - expected).max() <= 1e-12

    def test_plan_reaches_the_origin(self):
        for seed in range(10):
            u, _ = self.instance(seed)
            result = plan(u)
            sign = 1.0 if result.direction == "ccw" else -1.0
            pushed = u * np.exp(1j * sign * result.p * result.t_star)
            args = np.sort(np.angle(np.linalg.eigvals(pushed)))
            margin = np.diff(np.append(args, args[0] + 2 * np.pi)).max() - np.pi
            assert margin <= BOUNDARY_GAP_TOL
