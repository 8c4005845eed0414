import json
import math
import subprocess
import sys

import pytest

from cfcomm.cli import CSV_HEADER, MAX_GRID_POINTS, build_parser, main

COS8_PI_8 = 0.5307900429449552
SIN_SQ_01 = 0.009966711079379185


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_block_k4(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--k", "4", "--delta", "0", "--bob", "block")
        assert code == 0
        record = json.loads(out)
        assert record["p_D1"] == pytest.approx(COS8_PI_8, abs=1e-12)
        assert record["bob"] == "block"
        assert record["include_final_block"] is False

    def test_pass_k4(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--k", "4", "--delta", "0.1", "--bob", "pass")
        assert code == 0
        assert json.loads(out)["p_D0"] == pytest.approx(SIN_SQ_01, abs=1e-12)

    def test_k_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--k", "0", "--delta", "0", "--bob", "block"])
        assert excinfo.value.code == 2

    def test_malformed_bob_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--k", "2", "--delta", "0", "--bob", "maybe"])
        assert excinfo.value.code == 2

    def test_renormalized_column_omitted_at_certain_abort(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--k", "1", "--delta", "0", "--bob", "block")
        assert "p_D1_renormalized" not in json.loads(out)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--k", "2", "--delta", "0", "--bob", "block", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2


class TestSweep:
    def test_zeno_monotonicity(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "1:16", "--delta", "0", "--bob", "block")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 17
        p_d1 = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(b > a for a, b in zip(p_d1[1:], p_d1[2:]))

    def test_delta_range_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--delta", "0:0.3:0.1", "--bob", "pass")
        assert code == 0
        assert len(out.strip().split("\n")) == 5  # header + 4 rows

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--k", "1:8", "--delta", "0.1", "--bob", "block")
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            p_d1, p_d3, renorm = float(fields[5]), float(fields[6]), float(fields[8])
            assert renorm == pytest.approx(p_d1 / (1 - p_d3), abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--delta", "0", "--bob", "pass", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and len(rows) == 1

    # Each of these would expand to about 1e12 points; the count is checked
    # before any list is built.
    @pytest.mark.parametrize("k,delta", [("1", "0:1.5:1e-12"), ("1:1000000000000", "0")])
    def test_oversized_range_is_usage_error(self, capsys, k, delta):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", k, "--delta", delta, "--bob", "block"])
        assert excinfo.value.code == 2
        assert str(MAX_GRID_POINTS) in capsys.readouterr().err

    def test_oversized_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", "1:1000", "--delta", "0:1.5:0.01", "--bob", "block"])
        assert excinfo.value.code == 2
        assert "151000 points" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:inf", "nan:1", "0:1:nan"])
    def test_non_finite_range_is_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", "1", "--delta", spec, "--bob", "block"])
        assert excinfo.value.code == 2


class TestTrace:
    def test_block_one_bit_verdict_true(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "4", "--bob", "block", "--outcome", "B")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["c_visiting_paths"] == 0

    def test_pass_zero_bit_verdict_true(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "4", "--delta", "0.1", "--bob", "pass", "--outcome", "A")
        assert code == 0

    def test_destructive_interference_control(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "2", "--bob", "pass", "--outcome", "B")
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert abs(complex(doc["total_amplitude"]["re"], doc["total_amplitude"]["im"])) <= 1e-10

    def test_zero_amplitude_outcome_is_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "3", "--bob", "block", "--final-block", "--outcome", "C")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["vacuous"] is True
        assert doc["probability"] == 0.0

    def test_block_one_bit_is_not_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "4", "--bob", "block", "--outcome", "B")
        assert code == 0
        doc = json.loads(out)
        assert doc["vacuous"] is False
        assert doc["probability"] == pytest.approx(COS8_PI_8, abs=1e-12)

    def test_past_the_enumeration_bound(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "13", "--bob", "block", "--outcome", "B")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["c_visiting_paths"] == 0

    def test_at_the_cycle_bound(self, capsys):
        # Every step of a splitter run with the final block has four nonzero
        # entries, so 2^(K-1) paths reach B and one of them never visits C.
        code, out, _ = run_cli(
            capsys, "trace", "--k", "4096", "--bob", "split:0.4", "--final-block", "--outcome", "B"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["c_visiting_paths"] == 2**4095 - 1
        assert len(str(doc["c_visiting_paths"])) == 1233  # below the 4,300-digit int/str limit

    def test_unknown_outcome_at_the_cycle_bound(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--k", "4096", "--bob", "block", "--outcome", "L4097")
        assert code == 1
        assert out == ""
        assert err == "error: unknown mode 'L4097'; basis has A, B, C, L1..L4096\n"


class TestChip:
    def test_verified_compilation(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--k", "4", "--bob", "block")
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is True
        assert doc["residual"] <= 1e-9

    def test_tiny_splitter_angle_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--k", "2", "--bob", "split:3e-9", "--final-block")
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_emit_only(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--k", "1", "--bob", "pass", "--emit-only")
        assert code == 0
        doc = json.loads(out)
        assert "residual" not in doc
        assert sum(len(col) for col in doc["program"]["columns"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-9", "tight"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as excinfo:
            main(["chip", "--k", "2", "--bob", "block", "--tol", tol])
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--k", "2", "--bob", "pass", "--tol", "0")
        doc = json.loads(out)
        assert doc["equivalent"] is (doc["residual"] == 0.0)
        assert code == (0 if doc["equivalent"] else 1)

    def test_program_schema(self, capsys):
        _, out, _ = run_cli(capsys, "chip", "--k", "2", "--bob", "block", "--emit-only")
        program = json.loads(out)["program"]
        assert program["mode_count"] == 5
        first = program["columns"][0][0]
        assert set(first) == {"pair", "theta", "phi", "role"}


class TestTomo:
    def test_analytic_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7853981633974483", "--shots", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trace_distance"] <= 1e-10
        assert doc["shots_per_basis"] == 0

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7853981633974483",
            "--shots", "1000000", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trace_distance"] <= 0.01
        assert set(doc["counts"]) == {"Z", "X", "Y"}

    def test_insufficient_statistics_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "tomo", "--k", "4", "--delta", "0.0005", "--bob", "pass", "--shots", "1", "--seed", "3"
        )
        assert code == 1
        assert "postselected" in err

    @pytest.mark.parametrize("flag", ["--shots", "--seed"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "many"])
    def test_bad_count_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["tomo", "--k", "2", "--bob", "block", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_empty_subspace_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "tomo", "--k", "1", "--delta", "0", "--bob", "block", "--shots", "0")
        assert code == 1

    def test_shots_past_the_multinomial_limit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tomo", "--k", "2", "--delta", "0.2", "--bob", "block", "--shots", str(2**63)])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            "cfcomm tomo: error: argument --shots: shots per basis must lie in [0, 2**63 - 1], got 9223372036854775808\n"
        )

    def test_shots_at_the_multinomial_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7853981633974483",
            "--shots", str(2**63 - 1), "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["shots_per_basis"] == 2**63 - 1
        assert all(0 < sum(pair) <= 2**63 - 1 for pair in doc["counts"].values())
        assert doc["trace_distance"] <= 1e-6


def dense_cap_message(k):
    return f"dense matrices are limited to K <= 512 (515 modes), got {k + 3} modes (K = {k})"


def cycle_bound_message(k):
    return (
        "protocol runs are limited to K <= 4096, past which round-off in the K rotations "
        f"can push the norm defect beyond 1e-12; got K = {k}"
    )


class TestUsageErrors:
    """Each flag's value passes the library's own check, and a bad one is a
    usage error that names the flag and carries the library's message."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["run", "--k", "0", "--bob", "block"], "argument --k: cycle count K must be >= 1, got 0"),
            (["run", "--k", "2", "--delta", "2", "--bob", "block"],
             "argument --delta: delta must lie in [0, pi/2), got 2.0"),
            (["run", "--k", "2", "--bob", "split:2"], "argument --bob: splitter angle must lie in [0, pi/2], got 2.0"),
            (["sweep", "--k", "0:3", "--bob", "block"], "argument --k: cycle count K must be >= 1, got 0"),
            (["chip", "--k", "2", "--bob", "block", "--tol", "-1"],
             "argument --tol: tolerance must be finite and >= 0, got -1.0"),
            (["tomo", "--k", "2", "--bob", "block", "--shots", "-1"],
             "argument --shots: shots per basis must lie in [0, 2**63 - 1], got -1"),
            (["tomo", "--k", "2", "--bob", "block", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"cfcomm {argv[0]}: error: {message}\n")


class TestCycleBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--k", "4097"],
            ["sweep", "--k", "4096:4097"],
            ["chip", "--emit-only", "--k", "4097"],
            ["trace", "--k", "4097", "--outcome", "B"],
        ],
    )
    def test_above_the_bound(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--bob", "block")
        assert code == 1
        assert out == ""
        assert err == f"error: {cycle_bound_message(4097)}\n"

    def test_tomo_at_the_bound(self, capsys):
        # Tomography propagates one column, so the dense cap does not apply.
        code, out, _ = run_cli(capsys, "tomo", "--k", "4096", "--bob", "block", "--delta", "0.3", "--shots", "0")
        assert code == 0
        assert json.loads(out)["trace_distance"] <= 1e-10


class TestDenseCap:
    @pytest.mark.parametrize("argv", [["chip"], ["tomo", "--shots", "0"]])
    def test_huge_k_is_runtime_error(self, capsys, argv):
        # Rejected by the cycle bound of build_steps before any mesh, column
        # or dense matrix is built.
        code, out, err = run_cli(capsys, *argv, "--k", "100000", "--bob", "block")
        assert code == 1
        assert out == ""
        assert err == f"error: {cycle_bound_message(100000)}\n"

    def test_emit_only_past_the_dense_cap(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--emit-only", "--k", "600", "--bob", "block")
        assert code == 0
        columns = json.loads(out)["program"]["columns"]
        assert sum(len(col) for col in columns) == 1 + 600 + 5 * 599 - 4

    def test_chip_past_the_dense_cap(self, capsys):
        code, out, err = run_cli(capsys, "chip", "--k", "600", "--bob", "block")
        assert code == 1
        assert out == ""
        assert err == f"error: {dense_cap_message(600)}\n"

    def test_chip_at_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "chip", "--k", "512", "--bob", "split:0.4", "--final-block")
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_tomo_at_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "tomo", "--k", "512", "--bob", "block", "--delta", "0.3", "--shots", "0")
        assert code == 0
        assert json.loads(out)["trace_distance"] <= 1e-10


class TestOutputPlumbing:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--k", "1:4", "--delta", "0", "--bob", "block", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(CSV_HEADER)

    def test_out_into_missing_directory_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--k", "1", "--delta", "0", "--bob", "block", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_repeated_invocations_are_identical(self, capsys):
        args = ["tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7853981633974483",
                "--shots", "5000", "--seed", "11"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_reused_parser_matches_fresh_processes(self, capsys):
        # The parser is built once per process; flags and defaults of one
        # call must not carry into the next, so each call, run twice over,
        # prints what it prints in a fresh process.
        assert build_parser() is build_parser()
        calls = [
            ("sweep", "--k", "2:3", "--bob", "split:0.7", "--final-block", "--delta", "0:0.2:0.1"),
            ("run", "--k", "3", "--bob", "split:0.7"),
            ("sweep", "--k", "3", "--bob", "split:0.7"),
        ]
        fresh = {
            argv: subprocess.run([sys.executable, "-m", "cfcomm", *argv], capture_output=True, text=True, check=True).stdout
            for argv in calls
        }
        for argv in calls + calls:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == fresh[argv]

    def test_subprocess_byte_identical(self):
        argv = [sys.executable, "-m", "cfcomm", "tomo", "--k", "2", "--delta", "0.2",
                "--bob", "split:0.7853981633974483", "--shots", "20000", "--seed", "5"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
