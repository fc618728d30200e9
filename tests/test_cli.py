import contextlib
import gc
import io
import json
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from gdscert import gds_volume, sds_volume_formula, superrad, volume
from gdscert.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _write_state(tmp_path, n, chi, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "chi": list(chi)}))
    return str(path)


# well-formed JSON with the wrong types, or a number too large for a float;
# on the left the --n that bound needs
BAD_STATE_FILES = [
    (4, {"n": 4.5, "chi": [0.2] * 5}),
    (1, {"n": True, "chi": [0.5, 0.5]}),
    (4, {"n": "4", "chi": [0.2] * 5}),
    (2, {"n": 2, "chi": ["0.25", "0.5", "0.25"]}),
    (2, {"n": 2, "chi": [True, False, False]}),
    (2, {"n": 2, "chi": [10**400, 0, 0]}),
]


@pytest.mark.parametrize("command", ["certify", "ppt", "bound"])
@pytest.mark.parametrize("n, obj", BAD_STATE_FILES)
def test_mistyped_state_file_is_usage_error(runner, tmp_path, command, n, obj):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    args = [command, "--chi-file", str(path)]
    if command == "bound":
        args += ["--n", str(n)]
    assert runner.invoke(main, args).exit_code == 2


@pytest.mark.parametrize("command", ["certify", "ppt", "bound"])
def test_n_disagreeing_with_state_file_is_usage_error(runner, tmp_path, command):
    path = _write_state(tmp_path, 4, [1, 0, 0, 0, 0])
    result = runner.invoke(main, [command, "--n", "7", "--chi-file", path])
    assert result.exit_code == 2
    assert "--n disagrees with the state file" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["superrad", "certify", "ppt", "volume", "bound"])
@pytest.mark.parametrize("target", ["directory", "under a file"])
def test_unwritable_out_is_usage_error(runner, tmp_path, command, target):
    # exit 1 is a negative verdict, so a failed write must not read as one
    state = _write_state(tmp_path, 4, [0.0625, 0.25, 0.375, 0.25, 0.0625])
    args = {
        "superrad": ["superrad", "--n", "2", "--tau", "0:1:2:lin"],
        "certify": ["certify", "--chi-file", state],
        "ppt": ["ppt", "--chi-file", state],
        "volume": ["volume", "--estimator", "gds", "--n", "4"],
        "bound": ["bound", "--n", "4"],
    }[command]
    out = tmp_path if target == "directory" else tmp_path / "state.json" / "out.json"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"cannot write {out}" in result.stderr


# inputs from outside the program that once crashed with exit 1, which
# certify and ppt use for a negative verdict
BAD_INPUTS = {
    "volume-ppt-negative-seed": ["volume", "--estimator", "ppt", "--n", "2",
                                 "--samples", "10", "--seed", "-1"],
    "volume-sds-mc-negative-seed": ["volume", "--estimator", "sds-mc", "--n", "2",
                                    "--samples", "10", "--seed", "-1"],
}


@pytest.mark.parametrize("args", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout) == (2, "")


# sweeps whose last tau once overflowed the propagator: from about 3.6e37 at
# N = 4 and 6.0e36 at N = 10, and tau * rate itself at 1e308
HUGE_TAU_SWEEPS = {
    "superrad-1e40": ["superrad", "--n", "4", "--tau", "1:1e40:3:geom", "--format", "json"],
    "certify-1e40": ["certify", "--n", "4", "--superrad-tau", "1:1e40:3:geom",
                     "--format", "json"],
    "ppt-1e40": ["ppt", "--n", "10", "--superrad-tau", "1:1e40:3:geom"],
    "superrad-1e308": ["superrad", "--n", "2", "--tau", "1e-3:1e308:3:geom",
                       "--format", "json"],
    "certify-1e308": ["certify", "--n", "2", "--superrad-tau", "1e-3:1e308:3:geom",
                      "--format", "json"],
    "ppt-1e308": ["ppt", "--n", "2", "--superrad-tau", "1e-3:1e308:3:geom"],
}


@pytest.mark.parametrize("args", HUGE_TAU_SWEEPS.values(), ids=HUGE_TAU_SWEEPS.keys())
def test_huge_tau_sweep_ends_in_ground_state(runner, tmp_path, args):
    # every finite tau is a cascade time: the last point is e_N exactly, and
    # certify and ppt decide it as they decide e_N from a state file
    command, n = args[0], int(args[2])
    ground = [0.0] * n + [1.0]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    last = json.loads(result.stdout)[-1]
    if command == "superrad":
        assert last["chi"] == ground
        return
    path = _write_state(tmp_path, n, ground)
    expected = json.loads(runner.invoke(main, [command, "--chi-file", path]).stdout)
    del last["tau"]
    if command == "certify":
        assert last["verdict"] == expected["verdict"] == "CertifiedSeparable"
        assert last["x"] == [float(t["x"]) for t in expected["terms"]]
        assert last["y"] == [float(t["y"]) for t in expected["terms"]]
    else:
        assert last == expected


# one sweep or state per writer: the superrad table (CSV and JSON), the
# certify sweep table (CSV and JSON), the ppt sweep and a --chi-file result
OUT_ARGS = {
    "superrad-csv": ["superrad", "--n", "3", "--tau", "1e-3:10:4:geom"],
    "superrad-json": ["superrad", "--n", "3", "--tau", "0:5:3:lin", "--format", "json"],
    "certify-csv": ["certify", "--n", "6", "--superrad-tau", "1e-3:10:3:geom"],
    "certify-json": ["certify", "--n", "6", "--superrad-tau", "1e-3:10:3:geom",
                     "--format", "json"],
    "ppt-sweep": ["ppt", "--n", "5", "--superrad-tau", "1e-3:10:3:geom"],
    "ppt-file": ["ppt", "--chi-file", "{state}"],
}


@pytest.mark.parametrize("args", OUT_ARGS.values(), ids=OUT_ARGS.keys())
def test_out_file_matches_stdout(runner, tmp_path, monkeypatch, args):
    # an absolute --out ignores $GDSCERT_OUTDIR; a relative one lands under it
    state = _write_state(tmp_path, 2, [0.25, 0.5, 0.25])
    args = [a.format(state=state) for a in args]
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0 and printed.stdout
    monkeypatch.setenv("GDSCERT_OUTDIR", str(tmp_path / "outdir"))
    monkeypatch.chdir(tmp_path)
    absolute = tmp_path / "abs" / "out.txt"
    for out, path in [(str(absolute), absolute),
                      ("rel/out.txt", tmp_path / "outdir" / "rel" / "out.txt")]:
        written = runner.invoke(main, args + ["--out", out])
        assert (written.exit_code, written.stdout) == (0, "")
        assert path.read_bytes() == printed.stdout_bytes
    assert not (tmp_path / "rel").exists()


# N = 40: the one-call sweep and a lone state, over block sizes 1..21
@pytest.mark.parametrize("n", [*range(1, 11), 40])
def test_state_file_is_decided_like_its_sweep_point(runner, tmp_path, n):
    spec = "1e-3:10:3:geom"
    sweep = ["--n", str(n), "--superrad-tau", spec]
    points = json.loads(runner.invoke(main, ["superrad", "--n", str(n), "--tau", spec,
                                             "--format", "json"]).output)
    certified = json.loads(runner.invoke(main, ["certify", *sweep, "--format", "json"]).output)
    reports = json.loads(runner.invoke(main, ["ppt", *sweep]).output)
    for i, (point, row, entry) in enumerate(zip(points, certified, reports)):
        path = _write_state(tmp_path, n, point["chi"], name=f"point{i}.json")
        result = json.loads(runner.invoke(main, ["certify", "--chi-file", path]).output)
        assert result["verdict"] == row["verdict"]
        if row["verdict"] == "CertifiedSeparable":
            assert [float(t["x"]) for t in result["terms"]] == row["x"]
            assert [float(t["y"]) for t in result["terms"]] == row["y"]
        del entry["tau"]
        assert json.loads(runner.invoke(main, ["ppt", "--chi-file", path]).output) == entry


class TestSuperrad:
    def test_csv_shape_and_monotone_ground(self, runner):
        result = runner.invoke(main, ["superrad", "--n", "4", "--tau", "1e-3:10:50:geom"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "tau,chi_n0_0,chi_n0_1,chi_n0_2,chi_n0_3,chi_n0_4"
        assert len(lines) == 51
        ground = [float(l.split(",")[-1]) for l in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(ground, ground[1:]))

    def test_rows_normalized(self, runner):
        result = runner.invoke(main, ["superrad", "--n", "8", "--tau", "1e-2:5:20:geom"])
        assert result.exit_code == 0
        for line in result.output.strip().split("\n")[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert abs(sum(vals) - 1.0) <= 1e-9

    def test_excited_population_value(self, runner):
        result = runner.invoke(main, ["superrad", "--n", "4", "--tau", "0.1:1:5:lin"])
        first = result.output.strip().split("\n")[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)
        assert float(first[1]) == pytest.approx(0.670320046, abs=1e-8)

    def test_bad_grid_is_usage_error(self, runner):
        result = runner.invoke(main, ["superrad", "--n", "4", "--tau", "nonsense"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", ["nan:1:3:lin", "0:inf:3:lin"])
    def test_non_finite_grid_is_usage_error(self, runner, spec):
        result = runner.invoke(main, ["superrad", "--n", "4", "--tau", spec])
        assert result.exit_code == 2

    def test_zero_qubits_is_usage_error(self, runner):
        assert runner.invoke(main, ["superrad", "--n", "0"]).exit_code == 2

    def test_deterministic_output_file(self, runner, tmp_path):
        args = ["superrad", "--n", "4", "--tau", "1e-3:10:30:geom",
                "--out", str(tmp_path / "a.csv")]
        runner.invoke(main, args, catch_exceptions=False)
        first = (tmp_path / "a.csv").read_bytes()
        args[-1] = str(tmp_path / "b.csv")
        runner.invoke(main, args, catch_exceptions=False)
        assert first == (tmp_path / "b.csv").read_bytes()

    def test_json_format(self, runner):
        result = runner.invoke(main, ["superrad", "--n", "2", "--tau", "0.1:1:3:lin",
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload) == 3
        assert payload[0]["n"] == 2


class TestCertify:
    def test_superradiant_sweep_bounded_parameters(self, runner):
        result = runner.invoke(
            main, ["certify", "--n", "4", "--superrad-tau", "1e-3:10:40:geom"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "tau,x_1,x_2,x_3,y_1,y_2,y_3,verdict"
        for line in lines[1:]:
            cells = line.split(",")
            vals = [float(v) for v in cells[1:7]]
            assert min(vals) >= 0.0 and max(vals) <= 1.0
            assert abs(sum(vals[:3]) - 1.0) <= 1e-9
            assert cells[-1] == "CertifiedSeparable"

    def test_n8_sweep_weights_normalized(self, runner):
        result = runner.invoke(
            main, ["certify", "--n", "8", "--superrad-tau", "1e-2:5:15:geom"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        header = lines.index("tau,x_1,x_2,x_3,x_4,x_5,y_1,y_2,y_3,y_4,y_5,verdict")
        for line in lines[header + 1:]:
            vals = [float(v) for v in line.split(",")[1:11]]
            assert min(vals) >= 0.0 and max(vals) <= 1.0
            assert abs(sum(vals[:5]) - 1.0) <= 1e-9

    def test_large_n_leaves_stderr_empty(self, runner):
        # the criterion is complete at every N, so no caveat goes to stderr
        result = runner.invoke(
            main, ["certify", "--n", "5", "--superrad-tau", "0.1:1:3:lin"]
        )
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_entangled_state_exits_nonzero(self, runner, tmp_path):
        path = _write_state(tmp_path, 4, [0, 0, 0, 1, 0])
        result = runner.invoke(main, ["certify", "--chi-file", path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["verdict"] == "NotCertified"
        assert payload["reason"] in ("ParameterOutOfRange", "SolverDegenerate")

    def test_separable_state_json_certificate(self, runner, tmp_path):
        chi = list(np.array([1, 4, 6, 4, 1]) / 16)
        path = _write_state(tmp_path, 4, chi)
        result = runner.invoke(main, ["certify", "--chi-file", path, "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "CertifiedSeparable"
        assert payload["residual"] <= 1e-9

    def test_state_file_result_is_json_in_csv_format(self, runner, tmp_path):
        # --format shapes a sweep only; a --chi-file result is one JSON object
        path = _write_state(tmp_path, 4, list(np.array([1, 4, 6, 4, 1]) / 16))
        as_csv = runner.invoke(main, ["certify", "--chi-file", path, "--format", "csv"])
        as_json = runner.invoke(main, ["certify", "--chi-file", path, "--format", "json"])
        assert as_csv.exit_code == as_json.exit_code == 0
        assert as_csv.stdout == as_json.stdout
        assert json.loads(as_csv.stdout)["verdict"] == "CertifiedSeparable"

    def test_uncertified_sweep_points_are_null_in_json(self, runner):
        # a zero tolerance leaves every point uncertified; JSON has no NaN
        # token, so their parameters are null there and nan in CSV
        args = ["certify", "--n", "6", "--superrad-tau", "1e-3:10:4:geom", "--tol", "0"]
        result = runner.invoke(main, args + ["--format", "json"])
        assert result.exit_code == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(result.output, parse_constant=reject)
        assert len(payload) == 4
        for point in payload:
            assert point["verdict"] == "NotCertified"
            assert point["x"] == [None] * 4 and point["y"] == [None] * 4
        rows = runner.invoke(main, args).output.strip().split("\n")[1:]
        assert [row.split(",")[1:-1] for row in rows] == [["nan"] * 8] * 4

    def test_requires_exactly_one_source(self, runner):
        assert runner.invoke(main, ["certify", "--n", "4"]).exit_code == 2

    def test_malformed_state_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert runner.invoke(main, ["certify", "--chi-file", str(path)]).exit_code == 2

    def test_nan_population_is_usage_error(self, runner, tmp_path):
        path = _write_state(tmp_path, 2, [float("nan"), 0.5, 0.5])
        assert runner.invoke(main, ["certify", "--chi-file", path]).exit_code == 2

    def test_zero_qubits_is_usage_error(self, runner):
        result = runner.invoke(main, ["certify", "--n", "0", "--superrad-tau", "0.1:1:3:lin"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
    def test_bad_tolerance_is_usage_error(self, runner, tmp_path, tol):
        path = _write_state(tmp_path, 4, [0, 0, 1, 0, 0])
        result = runner.invoke(main, ["certify", "--chi-file", path, "--tol", tol])
        assert result.exit_code == 2


class TestPpt:
    def test_entangled_file_fails(self, runner, tmp_path):
        path = _write_state(tmp_path, 2, [0, 1, 0])
        result = runner.invoke(main, ["ppt", "--chi-file", path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["ppt"] is False
        assert payload["bipartitions"][0]["min_eig"] == pytest.approx(-0.5, abs=1e-10)

    def test_nan_population_is_usage_error(self, runner, tmp_path):
        path = _write_state(tmp_path, 2, [float("nan"), 0.5, 0.5])
        assert runner.invoke(main, ["ppt", "--chi-file", path]).exit_code == 2

    def test_zero_qubits_is_usage_error(self, runner):
        result = runner.invoke(main, ["ppt", "--n", "0", "--superrad-tau", "0.1:1:3:lin"])
        assert result.exit_code == 2

    def test_nan_tolerance_is_usage_error(self, runner, tmp_path):
        path = _write_state(tmp_path, 2, [0.25, 0.5, 0.25])
        assert runner.invoke(main, ["ppt", "--chi-file", path, "--tol", "nan"]).exit_code == 2

    def test_superradiant_sweep_ppt(self, runner):
        result = runner.invoke(
            main, ["ppt", "--n", "4", "--superrad-tau", "1e-2:5:10:geom"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert all(point["ppt"] for point in payload)


class TestVolume:
    def test_formula(self, runner):
        result = runner.invoke(main, ["volume", "--estimator", "sds-formula", "--n", "4"])
        payload = json.loads(result.output)
        assert payload["exact"] == "2/525"

    def test_gds(self, runner):
        result = runner.invoke(main, ["volume", "--estimator", "gds", "--n", "4"])
        assert json.loads(result.output)["exact"] == "1/24"

    @pytest.mark.parametrize("estimator, n, exact", [
        ("sds-formula", 200, sds_volume_formula),
        ("gds", 1600, gds_volume),
    ])
    def test_exact_value_at_large_n(self, runner, estimator, n, exact):
        # numerator or denominator has more than the 4300 digits that
        # str(int) and int(str) allow
        result = runner.invoke(main, ["volume", "--estimator", estimator, "--n", str(n)])
        assert result.exit_code == 0
        num, den = json.loads(result.output)["exact"].split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == exact(n)

    def test_seed_mandatory_for_mc(self, runner):
        result = runner.invoke(
            main, ["volume", "--estimator", "ppt", "--n", "2", "--samples", "1000"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("estimator", ["ppt", "sds-mc"])
    def test_zero_samples_is_usage_error(self, runner, estimator):
        result = runner.invoke(main, ["volume", "--estimator", estimator, "--n", "4",
                                      "--samples", "0", "--seed", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--estimator", "ppt", "--n", "0", "--samples", "10", "--seed", "1"],
        ["--estimator", "gds", "--n", "-2"],
    ])
    def test_bad_qubit_count_is_usage_error(self, runner, args):
        assert runner.invoke(main, ["volume", *args]).exit_code == 2

    def test_mc_deterministic(self, runner):
        args = ["volume", "--estimator", "sds-mc", "--n", "4",
                "--samples", "20000", "--seed", "7"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        assert json.loads(out1)["mean"] == pytest.approx(2 / 525, rel=0.2)

    def test_sds_mc_large_n_is_nonzero(self, runner):
        result = runner.invoke(main, ["volume", "--estimator", "sds-mc", "--n", "40",
                                      "--samples", "1000", "--seed", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["mean"] > 0.0


class TestBound:
    def test_table(self, runner):
        result = runner.invoke(main, ["bound", "--n", "4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        bounds = {b["n0"]: b["max_separable"] for b in payload["bounds"]}
        assert bounds[2] == pytest.approx(3 / 8, abs=1e-15)
        assert bounds[0] == pytest.approx(1.0, abs=1e-15)

    def test_violation_exits_nonzero(self, runner, tmp_path):
        path = _write_state(tmp_path, 4, [0, 0, 1, 0, 0])
        result = runner.invoke(main, ["bound", "--n", "4", "--chi-file", path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["violations"][0]["n0"] == 2

    def test_nan_population_is_usage_error(self, runner, tmp_path):
        path = _write_state(tmp_path, 2, [float("nan"), 0.5, 0.5])
        result = runner.invoke(main, ["bound", "--n", "2", "--chi-file", path])
        assert result.exit_code == 2

    def test_zero_qubits_is_usage_error(self, runner):
        assert runner.invoke(main, ["bound", "--n", "0"]).exit_code == 2

    def test_outdir_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("GDSCERT_OUTDIR", str(tmp_path))
        result = runner.invoke(main, ["bound", "--n", "2", "--out", "bounds.json"])
        assert result.exit_code == 0
        assert (tmp_path / "bounds.json").exists()


def test_in_process_calls_release_redirected_streams():
    # click keeps a cached wrapper per default stream, and for a StringIO the
    # wrapper is the stream itself, so an echo without file= never frees it
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a sweep writes stdout; a bad grid writes a usage error to stderr
        for spec in ("1e-3:10:2:geom", "nonsense"):
            with pytest.raises(SystemExit):
                main.main(args=["certify", "--n", "5", "--superrad-tau", spec],
                          prog_name="gdscert")
    assert out.getvalue() and err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("args", [
    ["volume", "--estimator", "ppt", "--n", "1030", "--samples", "1", "--seed", "0"],
    ["certify", "--chi-file", "STATE"],
    ["ppt", "--chi-file", "STATE"],
    ["certify", "--n", "1100", "--superrad-tau", "1e-3:10:5:geom"],
])
def test_float_overflowing_binomials_are_usage_errors(runner, tmp_path, monkeypatch, args):
    # C(N, N//2) exceeds the float range from N = 1030 on: exit 2 before any
    # cascade or draw, not a traceback with the negative verdict's exit 1
    def never(*_):
        raise AssertionError("computed before the usage error")

    monkeypatch.setattr(superrad, "trajectory", never)
    monkeypatch.setattr(volume, "ppt_gds_volume", never)
    state = _write_state(tmp_path, 1030, [1.0] + [0.0] * 1030)
    result = runner.invoke(main, [state if a == "STATE" else a for a in args])
    assert (result.exit_code, result.stdout) == (2, "")
    assert "is too large" in result.stderr
