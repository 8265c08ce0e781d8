"""The entry rule for unitary input, and the CLI contract on any input.

``steer``, ``trajectory`` and ``example`` admit a matrix A within
``RELAXED_UNITARITY_TOL`` of unitary and work on its polar factor; these
tests hold their answers to oracles built on an independent SVD polar factor
of A, on seeded noisy draws A = U + 4e-5·E/‖E‖ (defect about 8e-5).
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nrsteer import cli, iofmt
from nrsteer.linalg import RELAXED_UNITARITY_TOL, nearest_unitary, unitary_eig
from nrsteer.numrange import BOUNDARY_GAP_TOL, widest_gap
from nrsteer.perturb import PerturbationGenerator, perturbed_unitary, track_trajectory
from nrsteer.steering import plan, select_generator, speed_profile
from nrsteer.testkit import brute_membership, conditioned_unitary, haar_unitary


def noisy(u, rng, noise=4e-5):
    """U + noise·E/‖E‖ for a complex Gaussian E: ‖A†A − 1‖ ≈ 2·noise."""
    d = u.shape[0]
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return u + noise * e / np.linalg.norm(e, 2)


def svd_polar(a):
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def eigvals_margin(m):
    """Widest arc gap of the eigenvalues of m minus π, from numpy's nonsymmetric eigensolver."""
    args = np.sort(np.angle(np.linalg.eigvals(m)))
    return float(np.diff(np.append(args, args[0] + 2 * np.pi)).max() - np.pi)


def dense_min_support(a, n=2048):
    """min over n angles of h(θ) = λ_max((e^{−iθ}A + e^{iθ}A†)/2), as testkit.brute_membership sweeps."""
    angles = np.arange(n) * (2 * np.pi / n)
    stack = np.exp(-1j * angles)[:, None, None] * a
    stack = (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2
    return float(np.linalg.eigvalsh(stack)[:, -1].min())


def run_quiet(argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_rows(out_dir, d):
    rows = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",", skiprows=1, ndmin=2)
    return rows.reshape(-1, d, 5)


def row_miss(row, expected):
    """Largest distance of a grid row's eigenvalues from ``expected``, matched one to one."""
    cost = np.abs((row[:, 2] + 1j * row[:, 3])[:, None] - expected[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


class TestNearestUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 64])
    def test_matches_svd_polar(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            a = noisy(haar_unitary(d, rng), rng)
            assert np.linalg.norm(nearest_unitary(a) - svd_polar(a), 2) <= 1e-14

    def test_exact_unitary_moves_by_rounding(self):
        u = haar_unitary(16, 3)
        assert np.linalg.norm(nearest_unitary(u) - u, 2) <= 1e-14

    def test_gate_is_the_relaxed_tolerance(self):
        # (1 + s)·U has defect 2s + s² and polar factor U
        u = haar_unitary(4, 4)
        s = 0.49 * RELAXED_UNITARITY_TOL
        assert np.linalg.norm(nearest_unitary((1 + s) * u) - u, 2) <= 1e-14
        with pytest.raises(ValueError, match="not unitary"):
            nearest_unitary((1 + 0.51 * RELAXED_UNITARITY_TOL) * u)

    def test_library_tracker_admits_near_unitary(self):
        # tracked as its polar factor, where the parent checked at 1e-10
        rng = np.random.default_rng(5)
        a = noisy(haar_unitary(5, rng), rng)
        gen = PerturbationGenerator(p=rng.dirichlet(np.ones(5)))
        record = track_trajectory(a, gen, t_end=1.0)
        expected = np.linalg.eigvals(perturbed_unitary(svd_polar(a), gen, 1.0))
        cost = np.abs(record.paths[:, -1][:, None] - expected[None, :])
        assert cost[linear_sum_assignment(cost)].max() <= 1e-12


class TestNoisyInputs:
    """Seeded noisy draws: the inputs on which the unprojected matrix failed."""

    def test_trajectory_tracks_the_polar_factor(self, tmp_path):
        # 60 Haar draws at d = 3–16 with Dirichlet p; every grid row is a spectrum of polar(A)·V(t)
        path = str(tmp_path / "a.json")
        for k in range(60):
            rng = np.random.default_rng(7000 + k)
            d = 3 + k % 14
            a = noisy(haar_unitary(d, rng), rng)
            gen = PerturbationGenerator(p=rng.dirichlet(np.ones(d)))
            iofmt.write_matrix(path, a)
            p_text = ",".join(repr(w) for w in gen.p.tolist())
            argv = ["trajectory", "--input", path, "--p", p_text, "--horizon", "2",
                    "--out-dir", str(tmp_path)]
            code, _, err = run_quiet(argv)
            assert code == 0, f"draw {k}, d = {d}: exit {code}: {err}"
            polar = svd_polar(a)
            miss = max(
                row_miss(row, np.linalg.eigvals(perturbed_unitary(polar, gen, row[0, 0])))
                for row in read_rows(tmp_path, d)
            )
            assert miss <= 1e-12, f"draw {k}, d = {d}: a row misses eigvals by {miss:.3e}"

    def test_reached_verdicts_hold_within_delta(self):
        # 70 conditioned draws at d = 2–8: each "reached" is true for polar(A) and for A within δ
        reached = 0
        for k in range(70):
            rng = np.random.default_rng(8000 + k)
            d = 2 + k % 7
            a = noisy(conditioned_unitary(d, rng), rng)
            result = plan(a)
            if result.t_star is None:
                continue
            reached += 1
            polar = svd_polar(a)
            delta = np.linalg.norm(a - polar, 2)
            gen = PerturbationGenerator(p=result.p, direction=result.direction)
            margin = eigvals_margin(perturbed_unitary(polar, gen, result.t_star))
            assert margin <= BOUNDARY_GAP_TOL, f"draw {k}: margin {margin:.3e} at t*"
            h_min = dense_min_support(perturbed_unitary(a, gen, result.t_star))
            slack = delta + 1e-9 * np.linalg.norm(a, 2)
            assert h_min >= -slack, f"draw {k}: 0 is {-h_min:.3e} from W(A·V(t*)), δ = {delta:.1e}"
        assert reached == 70


class TestD2TieBreak:
    def test_pick_survives_projection(self):
        # both candidates tie at d = 2; rounding must not choose between them
        for seed in range(40):
            u = haar_unitary(2, seed)
            picks = []
            for m in (u, nearest_unitary(u)):
                system = unitary_eig(m)
                gen, _ = select_generator(system, speed_profile(system), widest_gap(system))
                picks.append((gen.p.tolist(), gen.direction))
            assert picks[0] == picks[1], f"seed {seed}: {picks}"
            assert picks[0][0] == [1.0, 0.0]


KINDS = ("unitary", "near-unitary", "normal", "non-normal", "rank-deficient")
ADMITTED = {"unitary", "near-unitary"}


def contract_input(kind, d, seed):
    """A seeded d×d matrix of the given kind at scale 1."""
    rng = np.random.default_rng(seed)
    u = conditioned_unitary(d, rng) if seed % 2 else haar_unitary(d, rng)
    if kind == "unitary":
        return u
    if kind == "near-unitary":
        return noisy(u, rng)
    if kind == "normal":
        return (u * rng.uniform(0.5, 2.0, d)) @ u.conj().T
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
    if kind == "rank-deficient":
        g[:, -1] = g[:, :-1] @ rng.standard_normal(d - 1)
    return g


class TestCliContract:
    """range, steer and trajectory on any input: exit 0, 2, 3 or 4, and verdicts an oracle confirms."""

    @given(
        kind=st.sampled_from(KINDS),
        d=st.integers(1, 8),
        exponent=st.one_of(st.just(0), st.integers(-300, 300)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_commands(self, kind, d, exponent, seed):
        a = contract_input(kind, d, seed) * 10.0**exponent
        admitted = kind in ADMITTED and exponent == 0
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.json")
            iofmt.write_matrix(path, a)
            io_opts = ["--input", path, "--out-dir", tmp]

            code, out, _ = run_quiet(["range", *io_opts])
            assert code == 0
            verdict = out.splitlines()[0].removeprefix("origin verdict: ")
            oracle = brute_membership(a, n_dense=4096)
            if "boundary_within_tol" not in (verdict, oracle):
                assert verdict == oracle

            code, out, err = run_quiet(["steer", *io_opts])
            if not admitted:
                assert code == 2 and "not unitary" in err
            else:
                polar = svd_polar(a)
                margin = eigvals_margin(polar)
                assert code in (0, 4)
                if abs(margin) > 1e-9:
                    assert code == (0 if margin > 0 else 4)
                if code == 0:
                    with open(os.path.join(tmp, "report.json")) as fh:
                        report = json.load(fh)
                    assert report["input"]["polar_distance"] <= RELAXED_UNITARITY_TOL
                    result = report["plan"]
                    if result["t_star"] is not None:
                        gen = PerturbationGenerator(np.array(result["p"]), result["direction"])
                        pushed = perturbed_unitary(polar, gen, result["t_star"])
                        assert eigvals_margin(pushed) <= BOUNDARY_GAP_TOL

            gen = PerturbationGenerator(p=np.random.default_rng(seed).dirichlet(np.ones(d)))
            p_text = ",".join(repr(w) for w in gen.p.tolist())
            code, _, err = run_quiet(["trajectory", *io_opts, "--p", p_text, "--horizon", "0.5"])
            if not admitted:
                assert code == 2 and "not unitary" in err
            else:
                assert code == 0, err
                last = read_rows(tmp, d)[-1]
                expected = np.linalg.eigvals(perturbed_unitary(svd_polar(a), gen, 0.5))
                assert row_miss(last, expected) <= 1e-12

    @given(
        kind=st.sampled_from(KINDS),
        d=st.integers(9, 16),
        exponent=st.one_of(st.just(0), st.integers(-300, 300)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_commands_across_crossover(self, kind, d, exponent, seed):
        # range changes eigensolver at numrange.TRIDIAGONAL_MIN_DIM; the body
        # is test_commands' own, run on these examples
        self.test_commands.hypothesis.inner_test(self, kind, d, exponent, seed)
