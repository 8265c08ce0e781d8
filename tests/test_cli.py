import hashlib
import json
import math
import re

import numpy as np
import pytest

from nrsteer import cli, demo, iofmt, linalg, numrange, perturb, steering, verify
from nrsteer.perturb import TrackingCollisionError
from nrsteer.testkit import degenerate_fixture


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    iofmt.write_matrix(path, demo.DEMO_MATRIX)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def exit_code(*argv):
    """Exit code of ``run_cli``, whether it returns it or argparse exits with it."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


class TestMatrixFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        iofmt.write_matrix(path, m)
        back, meta = iofmt.read_matrix(path)
        assert np.array_equal(back, m)
        assert meta == {}

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        doc = {"dim": 1, "entries": [[0.5, -0.25]], "label": "x", "source": "random", "note": 1}
        path.write_text(json.dumps(doc))
        back, meta = iofmt.read_matrix(path)
        assert back.tolist() == [[0.5 - 0.25j]]
        assert meta == {"label": "x", "source": "random"}

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2,\n "entries": [[1, 0,]]}')
        with pytest.raises(iofmt.MatrixFileError, match="line 2"):
            iofmt.read_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
        with pytest.raises(iofmt.MatrixFileError, match="expected 4 entries"):
            iofmt.read_matrix(path)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[1, 0], [0], [1, 0], [0, 1]], "entry 1 is not a [re, im] pair"),
            ([[1, 0], [0, 1, 2], [1, 0], [0, 1]], "entry 1 is not a [re, im] pair"),
            ([[1, 0], [0, 0], "x", [0, 1]], "entry 2 is not a [re, im] pair"),
            ([[1, 0], [0, 0], [1, 0], [0, 1e400]], "entry 3 is not finite"),
            ([[1, 0], ["nan", 0], [1, 0], [0, 1]], "entry 1 is not finite"),
            # entries are checked in order, whichever check fails first
            ([[1, 0], [float("inf"), 0], [1], [0, 1]], "entry 1 is not finite"),
            ([[1, 0], [1], [float("inf"), 0], [0, 1]], "entry 1 is not a [re, im] pair"),
            # parts that float() rejects: null, a list, an int too large for a float, text
            ([[1, 0], [None, 0], [1, 0], [0, 1]], "entry 1 is not a [re, im] pair"),
            ([[1, 0], [0, 0], [[1], 0], [0, 1]], "entry 2 is not a [re, im] pair"),
            ([[1, 0], [0, 0], [1, 0], [0, 10**400]], "entry 3 is not a [re, im] pair"),
            ([[1, 0], ["abc", 0], [1, 0], [0, 1]], "entry 1 is not a [re, im] pair"),
        ],
    )
    def test_bad_entry_reports_index(self, tmp_path, entries, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(iofmt.MatrixFileError, match=re.escape(message)):
            iofmt.read_matrix(path)

    @pytest.mark.parametrize(
        "entries",
        [
            [[1.5, -2], [True, 3], [-0.0, 0.0], [7, -0.0]],
            [["1.5", " -2 "], [True, 3], [-0.0, 0.0], [2**70, -0.0]],
        ],
        ids=["numbers", "strings-and-huge-int"],
    )
    def test_entries_convert_as_float_does(self, tmp_path, entries):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        matrix, _ = iofmt.read_matrix(path)
        expected = np.array([complex(float(re_), float(im)) for re_, im in entries])
        # bit for bit, so the signs of the zeros count
        assert matrix.shape == (2, 2)
        assert matrix.ravel().view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_cli_exit_code_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code = run_cli("range", "--input", str(path), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_PARSE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("[1, 2]", "expected a JSON object at top level"),
            ('{"entries": [[1, 0]]}', "missing or invalid 'dim'/'entries' fields"),
            ('{"dim": 0, "entries": []}', "dim must be positive, got 0"),
            ('{"dim": -2, "entries": []}', "dim must be positive, got -2"),
        ],
        ids=["missing-file", "not-an-object", "no-dim", "zero-dim", "negative-dim"],
    )
    def test_bad_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        code = run_cli("range", "--input", str(path), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_PARSE
        assert message in capsys.readouterr().err


class TestRangeCommand:
    def test_demo_figure_outputs(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("range", "--input", demo_file, "--out-dir", str(out), "--angles", "180")
        assert code == 0
        csv = (out / "boundary.csv").read_text().splitlines()
        assert csv[0] == "theta,h,re_z,im_z"
        assert len(csv) == 181
        svg = (out / "range.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg
        assert svg.count('fill="#cc3311"') == 3  # one marker per eigenvalue
        assert "outside" in capsys.readouterr().out

    def test_identity_single_point(self, tmp_path):
        path = tmp_path / "eye.json"
        iofmt.write_matrix(path, np.eye(2, dtype=complex))
        code = run_cli("range", "--input", str(path), "--out-dir", str(tmp_path), "--angles", "64")
        assert code == 0
        rows = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
        points = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert np.abs(points[:, 2] - 1.0).max() < 1e-9  # re(z) = 1
        assert np.abs(points[:, 3]).max() < 1e-9  # im(z) = 0

    @pytest.mark.parametrize(
        "d", [numrange.TRIDIAGONAL_MIN_DIM - 1, numrange.TRIDIAGONAL_MIN_DIM]
    )
    def test_eigensolver_failure_exit_code(self, tmp_path, capsys, d):
        # finite entries whose Hermitian parts overflow: the batched eigh below
        # the crossover and the tridiagonal route from it on both fail to solve
        path = tmp_path / "huge.json"
        iofmt.write_matrix(path, np.full((d, d), 1.5e308 + 1.5e308j))
        matrix, _ = iofmt.read_matrix(path)
        with np.errstate(all="ignore"):
            with pytest.raises(linalg.EigendecompositionError):
                numrange.support_profile(matrix)
            code = run_cli("range", "--input", str(path), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_scale_decides(self, tmp_path, capsys, scale):
        # W(cA) = c·W(A): the verdict is A's; the tolerance 1e-9·‖cA‖ must stay finite
        path = tmp_path / "huge.json"
        iofmt.write_matrix(path, scale * np.array([[1, 2], [3, 4j]]))
        code = run_cli("range", "--input", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert "origin verdict: outside" in capsys.readouterr().out


class TestSteerCommand:
    def test_demo_report(self, demo_file, tmp_path):
        out = tmp_path / "steer"
        code = run_cli("steer", "--input", demo_file, "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["plan"]["p"] == [0.0, 1.0, 0.0]
        assert report["plan"]["direction"] == "cw"
        assert 1.40 <= report["plan"]["t_star"] <= 1.50
        assert report["plan"]["verdict"] in ("reached_interior", "reached_boundary")
        assert report["input"]["sha256"]
        # the 6-decimal demo lies 6.0e-7 from its polar factor, the unitary steered
        assert 5e-7 <= report["input"]["polar_distance"] <= 7e-7
        assert set(report["settings"]) == {"horizon", "tol_t", "unitarity_tol"}

    def test_digest_bytes_unchanged(self):
        # the report's sha256 hashes every entry as format_float(re):format_float(im)
        m = np.empty((2, 3), dtype=complex)
        m.real = [[-0.0, 5e-324, 1e308], [7.0, 0.1, -1.7976931348623157e308]]
        m.imag = [[0.0, -2.2250738585072009e-308, 3.0], [-0.0, 1 / 3, 1e-300]]
        payload = ",".join(
            f"{iofmt.format_float(z.real)}:{iofmt.format_float(z.imag)}" for z in m.ravel()
        )
        assert payload.startswith("-0:0,4.9406564584124654e-324:") and ",7:-0," in payload
        expected = hashlib.sha256(payload.encode()).hexdigest()
        assert cli._digest(m) == expected
        assert cli._digest(m.T) == hashlib.sha256(
            ",".join(
                f"{iofmt.format_float(z.real)}:{iofmt.format_float(z.imag)}" for z in m.T.ravel()
            ).encode()
        ).hexdigest()

    @pytest.mark.parametrize("command", ["steer", "trajectory"])
    @pytest.mark.parametrize("scale", [1e78, 1e200])
    def test_overflowing_defect_exits_2(self, tmp_path, capsys, scale, command):
        # U†U − 1 of these copies has a NaN norm when squared unscaled; it must fail the gate
        path = tmp_path / "huge.json"
        iofmt.write_matrix(path, scale * np.array([[1, 2], [3, 4j]]))
        extra = ["--p", "0,1"] if command == "trajectory" else []
        code = run_cli(command, "--input", str(path), "--out-dir", str(tmp_path / "out"), *extra)
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not unitary" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_nothing_to_steer_exit_code(self, tmp_path, capsys):
        path = tmp_path / "roots.json"
        iofmt.write_matrix(path, np.diag(np.exp(2j * np.pi * np.arange(3) / 3)))
        code = run_cli("steer", "--input", str(path), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_NOTHING_TO_STEER
        assert "nothing to steer" in capsys.readouterr().err

    def test_short_horizon_not_reached(self, demo_file, tmp_path):
        out = tmp_path / "short"
        code = run_cli(
            "steer", "--input", demo_file, "--out-dir", str(out), "--horizon", "0.1"
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["plan"]["verdict"] == "not_reached_within_horizon"
        assert report["plan"]["t_star"] is None


class TestInputChecks:
    """Inputs the commands reject on entry: exit 2 with an error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dims", "2,x"],
            ["verify", "--dims", "0"],
            ["verify", "--trials", "-1"],
            ["trajectory", "--p", "0,a,1"],
            ["trajectory", "--p", "nan,1,0"],
            ["trajectory", "--p", "0,1,0", "--direction", "up"],
            ["trajectory", "--p", "0,1,0", "--horizon", "nan"],
            ["trajectory", "--p", "0,1,0", "--horizon", "inf"],
            ["steer", "--horizon", "nan"],
            ["steer", "--horizon", "inf"],
            ["steer", "--tol-t", "nan"],
        ],
        ids=lambda argv: "_".join(argv),
    )
    def test_rejected(self, demo_file, tmp_path, capsys, argv):
        if argv[0] != "verify":
            argv = argv + ["--input", demo_file, "--out-dir", str(tmp_path)]
        assert exit_code(*argv) == cli.EXIT_PARSE
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--horizon", "nan"], ["--horizon", "-1"], ["--horizon", "inf"], ["--tol-t", "0"]],
        ids="_".join,
    )
    def test_steer_options_rejected_when_nothing_to_steer(self, tmp_path, capsys, argv):
        path = tmp_path / "roots.json"
        iofmt.write_matrix(path, np.diag(np.exp(2j * np.pi * np.arange(3) / 3)))
        code = run_cli("steer", "--input", str(path), "--out-dir", str(tmp_path), *argv)
        assert code == cli.EXIT_PARSE
        assert "must be positive and finite" in capsys.readouterr().err

    def test_horizon_beyond_the_row_bound(self, demo_file, tmp_path, capsys):
        # 2e10 grid points: rejected before any is built
        code = run_cli(
            "trajectory", "--input", demo_file, "--p", "0,1,0", "--horizon", "1e9",
            "--out-dir", str(tmp_path),
        )
        assert code == cli.EXIT_PARSE
        assert "MAX_TRACK_ROWS" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_long_horizon_within_the_row_bound(self, demo_file, tmp_path):
        code = run_cli(
            "trajectory", "--input", demo_file, "--p", "0,1,0", "--horizon", "1e4",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        with open(tmp_path / "trajectory.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 3 * 200_002

    def test_horizon_within_the_snap_gets_one_step(self, demo_file, tmp_path):
        code = run_cli(
            "trajectory", "--input", demo_file, "--p", "0,1,0", "--horizon", "1e-20",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0] * 3 + [1e-20] * 3


class TestParserReuse:
    def test_calls_share_no_state(self, demo_file, tmp_path, capsys):
        # main builds its parser once per process: the options of one call
        # must not become the defaults of the next
        calls = [
            ("steer", "--horizon", "0.1", "--tol-t", "1e-2"),
            ("range", "--angles", "64"),
            ("steer",),
        ]

        def run(tag, fresh):
            outputs = []
            for k, call in enumerate(calls):
                if fresh:
                    cli._parser.cache_clear()
                out = tmp_path / f"{tag}{k}"
                assert run_cli(*call, "--input", demo_file, "--out-dir", str(out)) == 0
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                # steer prints its wall time
                stdout = re.sub(r"\(\d+\.\d+s\)", "(wall time)", stdout)
                files = {f.name: f.read_text() for f in sorted(out.iterdir())}
                outputs.append((stdout, files))
            return outputs

        cli._parser.cache_clear()
        shared = run("shared", fresh=False)
        assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 2)
        assert shared == run("fresh", fresh=True)
        settings = json.loads(shared[2][1]["report.json"])["settings"]
        assert settings["horizon"] == 2 * math.pi and settings["tol_t"] == 1e-3


class TestTrajectoryCommand:
    def test_identity_rigid_rotation(self, tmp_path):
        path = tmp_path / "eye.json"
        iofmt.write_matrix(path, np.eye(3, dtype=complex))
        code = run_cli(
            "trajectory",
            "--input", str(path),
            "--out-dir", str(tmp_path),
            "--p", "0.33333333333333331,0.33333333333333331,0.33333333333333337",
            "--horizon", "1.0",
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,j,re_lambda,im_lambda,speed"
        last = rows[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[4]) == pytest.approx(1 / 3, abs=1e-12)

    def test_last_rows_at_horizon(self, demo_file, tmp_path):
        # ten steps of 0.05 add up to 0.49999999999999994; the grid must end at 0.5
        code = run_cli(
            "trajectory",
            "--input", demo_file,
            "--out-dir", str(tmp_path),
            "--p", "0.3,0.3,0.4",
            "--horizon", "0.5",
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows[-3:]] == ["0.5"] * 3
        assert all(float(row.split(",")[0]) <= 0.5 for row in rows)

    def test_demo_monotone_clockwise(self, demo_file, tmp_path):
        code = run_cli(
            "trajectory",
            "--input", demo_file,
            "--out-dir", str(tmp_path),
            "--p", "0,1,0",
            "--direction", "clockwise",
            "--horizon", "1.45",
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        for j in range(3):
            path_rows = data[data[:, 1] == j]
            args = np.unwrap(np.arctan2(path_rows[:, 3], path_rows[:, 2]))
            assert np.all(np.diff(args) <= 1e-9)

    def test_stationary_row_has_zero_speed(self, tmp_path):
        fixture = degenerate_fixture(3, 2, 1, seed=5)
        path = tmp_path / "fixture.json"
        iofmt.write_matrix(path, fixture.matrix)
        p_text = ",".join(format(x, ".17g") for x in fixture.p)
        code = run_cli(
            "trajectory",
            "--input", str(path),
            "--out-dir", str(tmp_path),
            "--p", p_text,
            "--horizon", "0.2",
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        min_speed_per_step = [
            data[data[:, 0] == t][:, 4].min() for t in np.unique(data[:, 0])
        ]
        assert max(min_speed_per_step) < 1e-9

    def test_csv_bytes_unchanged(self, tmp_path):
        # every float column is written as format_float writes it
        t = np.array([0.0, 5e-324, 1e308])
        z = np.empty((2, 3), dtype=complex)
        z.real = [[-0.0, 5e-324, 1e308], [7.0, 0.1, -1.7976931348623157e308]]
        z.imag = [[0.0, -2.2250738585072009e-308, 3.0], [-0.0, 1 / 3, 1e16]]
        speed = np.array([[0.0, 2.0, 1e-310], [1.0, 0.25, 1e308]])
        record = perturb.TrajectoryRecord(
            t_grid=t, paths=z, velocities=1j * speed, unwrapped_args=np.zeros((2, 3)),
            max_step_residual=0.0,
        )
        iofmt.write_trajectory_csv(tmp_path / "trajectory.csv", record)
        expected = ["t,j,re_lambda,im_lambda,speed"] + [
            ",".join([iofmt.format_float(t[k]), str(j), iofmt.format_float(z[j, k].real),
                      iofmt.format_float(z[j, k].imag), iofmt.format_float(speed[j, k])])
            for k in range(3)
            for j in range(2)
        ]
        text = (tmp_path / "trajectory.csv").read_bytes().decode()
        assert text == "\n".join(expected) + "\n"
        assert text.startswith("t,j,re_lambda,im_lambda,speed\n0,0,-0,0,0\n0,1,7,-0,1\n")
        assert "\n4.9406564584124654e-324,0,4.9406564584124654e-324," in text
        assert ",10000000000000000," in text

    def test_csv_block_seams(self, tmp_path, monkeypatch):
        # 20 grid points of 3 rows: one block by default, eight of 7 rows and one of 4 below
        gen = perturb.PerturbationGenerator(p=np.array([0.0, 1.0, 0.0]))
        record = perturb.track_trajectory(demo.DEMO_MATRIX, gen, t_end=0.95)
        iofmt.write_trajectory_csv(tmp_path / "one.csv", record)
        monkeypatch.setattr(iofmt, "_CSV_BLOCK_ROWS", 7)
        iofmt.write_trajectory_csv(tmp_path / "many.csv", record)
        one = (tmp_path / "one.csv").read_bytes()
        assert one.count(b"\n") == 1 + 60
        assert (tmp_path / "many.csv").read_bytes() == one

    def test_collision_exit_code(self, demo_file, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise TrackingCollisionError("tracking collision near t = 0.1")

        monkeypatch.setattr(cli, "track_trajectory", boom)
        code = run_cli(
            "trajectory", "--input", demo_file, "--out-dir", str(tmp_path), "--p", "0,1,0"
        )
        assert code == cli.EXIT_COLLISION
        assert "tracking collision" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = run_cli("verify", "--seed", "0", "--trials", "6", "--dims", "2,3")
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_one_by_one_unitaries_pass(self, capsys):
        # a 1×1 unitary turns exactly at first order: the first-order runners skip d = 1
        code = run_cli("verify", "--trials", "4", "--dims", "1")
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 6

    def test_failure_prints_details(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "RATIO_WINDOW", (100.0, 200.0))  # no rung can qualify
        code = run_cli("verify", "--trials", "4", "--dims", "3")
        assert code == cli.EXIT_CHECK
        out = capsys.readouterr().out
        assert "FAIL first-order-simple: trials=2 failures=2 max_residual=inf" in out
        assert "    instance 0: no rung with quadratic ratio" in out

    def test_monotone_rotation_reads_the_oracle(self, capsys, monkeypatch):
        # oracle paths mirrored to turn cw; the tracker's own ccw paths are untouched
        real = verify.assignment_paths
        monkeypatch.setattr(verify, "assignment_paths", lambda *args: real(*args).conj())
        assert run_cli("verify", "--trials", "2", "--dims", "3") == cli.EXIT_CHECK
        out = capsys.readouterr().out
        assert "FAIL monotone-rotation: trials=2 failures=2" in out
        assert "PASS velocity-budget" in out

    def test_zero_trials_vacuous_with_warning(self, capsys):
        code = run_cli("verify", "--trials", "0")
        assert code == 0
        out = capsys.readouterr().out
        assert "vacuously" in out
        assert out.count("PASS") == 6


class TestExampleCommand:
    def test_checks_pass_and_files_written(self, tmp_path, capsys):
        out = tmp_path / "example"
        code = run_cli("example", "--out-dir", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "FAILED" not in text
        report = json.loads((out / "report.json").read_text())
        assert all(check["passed"] for check in report["checks"])
        assert 1.40 <= report["plan"]["t_star"] <= 1.50
        for name in report["files"]:
            assert (out / name).exists()

    def test_steer_on_the_demo_file_agrees(self, demo_file, tmp_path):
        # both enter through nearest_unitary, so they plan the same unitary
        assert run_cli("example", "--out-dir", str(tmp_path / "example")) == 0
        assert run_cli("steer", "--input", demo_file, "--out-dir", str(tmp_path / "steer")) == 0
        example, steer = (
            json.loads((tmp_path / name / "report.json").read_text()) for name in ("example", "steer")
        )
        assert example["plan"] == steer["plan"]
        for key in ("sha256", "dim", "polar_distance"):
            assert example["input"][key] == steer["input"][key]

    def test_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("example", "--out-dir", str(out1)) == 0
        assert run_cli("example", "--out-dir", str(out2)) == 0
        for name in ("report.json", "range_initial.csv", "range_initial.svg",
                     "range_perturbed.csv", "range_perturbed.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_checks_and_decomposes_the_demo_once(self, tmp_path, monkeypatch):
        # one unitarity check of the demo; one eigendecomposition of it and one
        # of the pushed matrix drawn in range_perturbed.svg
        calls = {}
        for name in ("check_unitary", "_unitary_eig"):
            original = getattr(linalg, name)
            calls[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (linalg, steering, perturb, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert run_cli("example", "--out-dir", str(tmp_path)) == 0
        assert calls == {"check_unitary": 1, "_unitary_eig": 2}
