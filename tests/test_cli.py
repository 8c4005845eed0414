import argparse
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import pytest

from cfcomm import modes, protocol
from cfcomm.chip import TomographyResult
from cfcomm.cli import _CSV_ROWS, CSV_HEADER, MAX_GRID_POINTS, _json, build_parser, main
from cfcomm.histories import CounterfactualityReport
from cfcomm.modes import ModeBasis
from cfcomm.protocol import BLOCK, PASS, ProtocolConfig, run, splitter, sweep
from oracle import cycle_bound_message, dense_cap_message

COS8_PI_8 = 0.5307900429449552
SIN_SQ_01 = 0.009966711079379185


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def library_record(k, delta, bob, final, dist):
    """The record the CLI prints for one point, built from the library's
    distribution."""
    record = {"K": k, "delta": delta, "bob": bob.label(), "include_final_block": final, "p_D0": dist.p_D0,
              "p_D1": dist.p_D1, "p_D3": dist.p_D3, "p_loss_total": dist.p_loss_total}
    if dist.p_D3 < 1.0:
        record["p_D1_renormalized"] = dist.p_D1 / (1.0 - dist.p_D3)
    return record


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

    def test_renormalized_cell_empty_at_certain_abort(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--k", "1", "--delta", "0", "--bob", "block", "--format", "csv")
        assert code == 0
        assert out.split("\n")[1].split(",") == ["1", "0", "block", "false", "0", "0", "1", "0", ""]

    def test_tiny_delta_keeps_d0_off_zero(self, capsys):
        # cos(pi/2 - 5e-16) is about 5e-16, not a zero.
        code, out, _ = run_cli(capsys, "run", "--k", "4", "--delta", "5e-16", "--bob", "block")
        assert code == 0
        p_d0 = json.loads(out)["p_D0"]
        assert p_d0 > 0
        assert p_d0 == pytest.approx(math.cos(math.pi / 2 - 5e-16) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "k, delta, bob, final",
        [
            (512, 0.05, splitter(0.7), True),
            (3, 0.3, splitter(0.7), False),
            (17, 1.2, BLOCK, True),
            (64, 0.3, PASS, False),
            (4096, 1.2, splitter(1e-9), True),
            (2, 0.05, PASS, True),
        ],
        ids=["512-split-final", "3-split", "17-block-final", "64-pass", "4096-weak-split-final", "2-pass-final"],
    )
    def test_record_is_the_library_run(self, capsys, k, delta, bob, final):
        # JSON prints each float by repr, so equal text is equal bits.
        argv = ["run", "--k", str(k), "--delta", repr(delta), "--bob", bob.label()] + ["--final-block"] * final
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        want = library_record(k, delta, bob, final, run(ProtocolConfig(k, delta, bob, final))[1])
        assert out == json.dumps(want, indent=2) + "\n"

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

    def test_rows_are_held_one_k_at_a_time(self, capsys):
        # 6,144 rows of up to K + 3 probabilities each: kept whole until the
        # output is written, their distributions alone took about 30 MB.
        argv = ["sweep", "--k", "1:256", "--delta", "0:1.5:0.0652", "--bob", "split:0.7"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 256 * 24
        assert peak <= 12_000_000, peak

    def test_one_k_is_held_one_block_at_a_time(self, capsys):
        # 501 rows of 4,099 probabilities: formed for the whole K at once, the
        # amplitude and probability matrices alone took about 33 MB.
        argv = ["sweep", "--k", "4096", "--delta", "0:1.5:0.003", "--bob", "block"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 501
        assert peak <= 12_000_000, peak

    def test_configs_are_held_one_k_at_a_time(self, capsys):
        # Built up front, the 1,024 configs and the step ops each keeps after
        # its evolution peaked at about 78 MB; one K at a time, about 1 MB.
        argv = ["sweep", "--k", "1:1024", "--delta", "0", "--bob", "block"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1024
        assert peak <= 8_000_000, peak

    def test_each_value_is_checked_once(self, capsys, monkeypatch):
        # The parser checks each K and delta; the one config checks its K and
        # its delta of 0.0, and its mode basis the K again.  The sweep core
        # checks none of them a second time.
        calls = []

        def counted(name, check):
            return lambda value: calls.append(name) or check(value)

        monkeypatch.setattr(protocol, "check_delta", counted("delta", protocol.check_delta))
        counted_k = counted("K", modes.check_cycle_count)
        monkeypatch.setattr(modes, "check_cycle_count", counted_k)
        monkeypatch.setattr(protocol, "check_cycle_count", counted_k)
        code, out, _ = run_cli(capsys, "sweep", "--k", "7", "--delta", "0:1.5:0.1", "--bob", "split:0.7")
        assert code == 0
        assert len(out.splitlines()) == 1 + 16
        assert (calls.count("delta"), calls.count("K")) == (17, 3)

    def test_every_row_has_every_cell(self, capsys):
        # Under pass the delta-0 rows abort for certain: their renormalized
        # cell is there, and empty.
        _, out, _ = run_cli(capsys, "sweep", "--k", "1:3", "--delta", "0:0.3:0.3", "--bob", "pass")
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        cells = [line.split(",") for line in lines[1:]]
        assert [len(row) for row in cells] == [len(CSV_HEADER.split(","))] * 6
        assert [row[-1] == "" for row in cells] == [True, False] * 3

    # 33 deltas: at K = 4096 a block holds 15 rows, so the K's rows span
    # three blocks; each --k is a multi-K sweep.
    @pytest.mark.parametrize("final", [False, True], ids=["", "final"])
    @pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.7)], ids=["block", "pass", "split"])
    def test_rows_are_the_library_sweep(self, capsys, bob, final):
        deltas = [i * 0.046875 for i in range(33)]
        final_cell = "true" if final else "false"
        for spec, ks in (("1:2", [1, 2]), ("64:4096:4032", [64, 4096])):
            argv = ["sweep", "--k", spec, "--delta", "0:1.5:0.046875", "--bob", bob.label()] + ["--final-block"] * final
            rows = sweep(ks, deltas, bob, final)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == CSV_HEADER and len(lines) == 1 + len(rows)
            for line, row in zip(lines[1:], rows):
                d = row.distribution
                floats = ["%.17g" % p for p in (d.p_D0, d.p_D1, d.p_D3, d.p_loss_total)]
                renorm = "%.17g" % (d.p_D1 / (1.0 - d.p_D3)) if d.p_D3 < 1.0 else ""
                assert line.split(",") == [str(row.k), "%.17g" % row.delta, bob.label(), final_cell, *floats, renorm]
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            records = [library_record(row.k, row.delta, bob, final, row.distribution) for row in rows]
            assert out == json.dumps(records, indent=2) + "\n"

    def test_rows_are_printed_without_records(self, capsys, monkeypatch):
        # The CLI prints each checked row of probabilities as it comes: no
        # SweepRow and no OutcomeDistribution is built on the way.
        cases = [
            ["run", "--k", "64", "--delta", "0.3", "--bob", "pass"],
            ["run", "--k", "4096", "--delta", "1.2", "--bob", "split:0.7", "--final-block"],
            ["sweep", "--k", "1:64", "--delta", "0:1.5:0.1", "--bob", "block"],
            ["sweep", "--k", "4096", "--delta", "0:1.5:0.046875", "--bob", "split:0.7", "--final-block"],
        ]
        cases += [argv + ["--format", "csv" if argv[0] == "run" else "json"] for argv in cases]
        want = [run_cli(capsys, *argv) for argv in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        monkeypatch.setattr(protocol.SweepRow, "__init__", refuse)
        monkeypatch.setattr(protocol.OutcomeDistribution, "__init__", refuse)
        monkeypatch.setattr(protocol, "_distribution", refuse)
        for argv, (code, out, err) in zip(cases, want):
            assert code == 0 and err == ""
            assert run_cli(capsys, *argv) == (code, out, err)

    def test_float_cells_are_17_significant_digits(self):
        grid = [
            5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.nextafter(1.0, 0.0), 1.0,
            math.nextafter(1.0, 2.0), 0.0, -0.0, 0.1, 1 / 3, 1e-17, 123456789.125, math.inf, -math.inf, math.nan,
        ]
        for i, v in enumerate(grid):
            w = grid[-1 - i]
            for final, renorm in (("false", ()), ("true", (w,))):
                values = (4096 - i, v, "split:0.7", final, v, w, -v, w, *renorm)
                want = [str(4096 - i), format(v, ".17g"), "split:0.7", final, format(v, ".17g"),
                        format(w, ".17g"), format(-v, ".17g"), format(w, ".17g"), format(w, ".17g") if renorm else ""]
                assert (_CSV_ROWS[len(values)] % values).split(",") == want

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

    def test_oversized_grid_is_reported_by_sweep(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", "1:1000", "--delta", "0:1.5:0.01", "--bob", "block"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cfcomm sweep ")
        assert err.splitlines()[-1] == "cfcomm sweep: error: sweep grid has 151000 points, more than 100000"

    @pytest.mark.parametrize("spec", ["0:inf", "nan:1", "0:1:nan"])
    def test_non_finite_range_is_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", "1", "--delta", spec, "--bob", "block"])
        assert excinfo.value.code == 2


class TestRanges:
    """K and delta ranges share one grammar: 'a', 'a:b' or 'a:b:step'."""

    @pytest.mark.parametrize(
        "flag, spec, values",
        [
            ("--k", "1:10:3", [1, 4, 7, 10]),
            ("--k", "1:9:3", [1, 4, 7]),
            ("--k", "2:4", [2, 3, 4]),
            ("--k", "5", [5]),
            ("--k", "1:3:" + "9" * 400, [1]),
            ("--delta", "0:0.3", [0.0, 0.1, 0.2, 0.30000000000000004]),
            ("--delta", "0:0.3:0.1", [0.0, 0.1, 0.2, 0.30000000000000004]),
            ("--delta", "-0", [0.0]),
        ],
    )
    def test_range_points(self, flag, spec, values):
        ns = build_parser().parse_args(["sweep", "--k", "1", "--bob", "block", flag, spec])
        assert [repr(v) for v in getattr(ns, flag[2:])] == [repr(v) for v in values]  # types and signs too

    @pytest.mark.parametrize(
        "argv, zero",
        [
            (["run", "--k", "3", "--bob", "block"], "0"),
            (["run", "--k", "3", "--bob", "split:0.7", "--format", "csv"], "0"),
            (["sweep", "--k", "1:3", "--bob", "split:0.7"], "0"),
            (["sweep", "--k", "1:3", "--bob", "pass", "--format", "json"], "0"),
            (["sweep", "--k", "2", "--bob", "block"], "0:0.2"),
        ],
    )
    def test_negative_zero_delta_prints_as_zero(self, capsys, argv, zero):
        assert run_cli(capsys, *argv, "--delta=-" + zero) == run_cli(capsys, *argv, "--delta=" + zero)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--k", "2"],
            ["run", "--k", "3", "--final-block", "--format", "csv"],
            ["sweep", "--k", "1:3", "--delta", "0:0.2", "--format", "json"],
        ],
    )
    def test_negative_zero_splitter_angle_prints_as_zero(self, capsys, argv):
        assert run_cli(capsys, *argv, "--bob", "split:-0") == run_cli(capsys, *argv, "--bob", "split:0")

    # 1e20 points overflow len(range(...)), and a 400-digit stop overflows
    # int / int true division; both are counted exactly instead.
    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--k", "3:1"),
            ("--k", "1:2:0"),
            ("--k", "1:2:-1"),
            ("--k", "1:2:3:4"),
            ("--k", "1:"),
            ("--k", "1.5:3"),
            ("--k", "1:100000000000000000000"),
            ("--k", "1:" + "9" * 400),
            ("--delta", "0:1:0"),
            ("--delta", "0.3:0.1"),
            ("--delta", "0:1:inf"),
            ("--delta", "0:0.1:0.1:0.1"),
        ],
    )
    def test_bad_range_is_usage_error(self, capsys, flag, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k", "1", "--bob", "block", flag, spec])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: " in err
        assert "Traceback" not in err


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

    def test_tiny_splitter_angle_reaches_the_loss_mode(self, capsys):
        # sin(9.9e-16) is not a zero: one path runs through C into L1.
        code, out, _ = run_cli(
            capsys, "trace", "--k", "4", "--delta", "0.3", "--bob", "split:9.9e-16", "--outcome", "L1"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["c_visiting_paths"] == 1
        assert doc["verdict"] is False
        assert doc["probability"] > 0

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
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--k", "4096", "--bob", "block", "--outcome", "L4097"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cfcomm ")
        assert err.splitlines()[-1] == (
            "cfcomm trace: error: argument --outcome: unknown mode 'L4097'; basis has A, B, C, L1..L4096"
        )


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

    # At K = 1 the {A, B} amplitudes are exactly zero; at K = 4 under pass they
    # are round-off, which analytic tomography once reported as a state.
    @pytest.mark.parametrize(("k", "bob", "norm"), [("1", "block", "0.000e+00"), ("4", "pass", "1.110e-16")])
    @pytest.mark.parametrize("shots", ["0", "100000"])
    def test_empty_postselection_message(self, capsys, k, bob, norm, shots):
        code, out, err = run_cli(capsys, "tomo", "--k", k, "--bob", bob, "--shots", shots)
        assert (code, out) == (1, "")
        assert err == f"error: {{A, B}} amplitude norm {norm} <= 1e-12: nothing to postselect on\n"

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


def value_flags():
    """(subcommand, flag) for every flag of every subcommand that takes a value."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and action.nargs != 0
    ]


# One bad value per flag that takes a value.  Every --out path parses; one
# that cannot be written is exit 1, as
# TestOutputPlumbing.test_out_into_missing_directory_is_an_error checks.
BAD_FLAG_VALUES = {"--k": "0", "--delta": "2", "--bob": "jump", "--outcome": "Q", "--format": "xml",
                   "--tol": "-1", "--shots": "-1", "--seed": "-1"}
FLAGS_WITHOUT_BAD_VALUE = {"--out"}


class TestEveryBadFlagValue:
    """A bad value for any flag of any subcommand is a usage error."""

    def test_table_covers_every_value_flag(self):
        assert {flag for _, flag in value_flags()} == set(BAD_FLAG_VALUES) | FLAGS_WITHOUT_BAD_VALUE

    @pytest.mark.parametrize(
        "command, flag", [row for row in value_flags() if row[1] not in FLAGS_WITHOUT_BAD_VALUE], ids=str
    )
    def test_bad_value_is_usage_error(self, capsys, command, flag):
        argv = [command, "--k", "4", "--bob", "block", *(["--outcome", "B"] if command == "trace" else [])]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, BAD_FLAG_VALUES[flag]])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: " in err.splitlines()[-1]


class TestCycleBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--k", "4097"],
            ["run", "--k", "4097", "--format", "csv"],
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

    def test_loss_label_far_above_the_bound(self, capsys, monkeypatch):
        # The outcome label is checked before the bound, and in O(1): listing
        # the 10^9 labels would exhaust memory.
        monkeypatch.setattr(ModeBasis, "labels", property(lambda self: pytest.fail("index listed the labels")))
        for outcome in ("L1", "L1000000000"):
            code, out, err = run_cli(capsys, "trace", "--k", "1000000000", "--bob", "block", "--outcome", outcome)
            assert (code, out, err) == (1, "", f"error: {cycle_bound_message(10**9)}\n")
        for outcome in ("Q", "L1000000001"):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", "--k", "1000000000", "--bob", "block", "--outcome", outcome])
            assert excinfo.value.code == 2
            assert f"argument --outcome: unknown mode '{outcome}'" in capsys.readouterr().err

    def test_tomo_at_the_bound(self, capsys):
        # Tomography propagates one column, so the dense cap does not apply.
        code, out, _ = run_cli(capsys, "tomo", "--k", "4096", "--bob", "block", "--delta", "0.3", "--shots", "0")
        assert code == 0
        assert json.loads(out)["trace_distance"] <= 1e-10


class TestDenseCap:
    @pytest.mark.parametrize("argv", [["chip"], ["tomo", "--shots", "0"]])
    def test_huge_k_is_runtime_error(self, capsys, argv):
        # Rejected by the cycle bound of ProtocolConfig.step_ops before any mesh, column
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

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--k", "3", "--bob", "split:0.7", "--final-block"], 0),
            (["run", "--k", "3", "--bob", "pass", "--format", "csv"], 0),
            (["sweep", "--k", "1:4", "--delta", "0:0.3", "--bob", "block"], 0),
            (["sweep", "--k", "2", "--bob", "pass", "--format", "json"], 0),
            (["trace", "--k", "4", "--bob", "block", "--outcome", "B", "--format", "json"], 0),
            (["trace", "--k", "2", "--bob", "pass", "--outcome", "B"], 3),
            (["chip", "--k", "3", "--bob", "split:0.7"], 0),
            (["chip", "--k", "3", "--bob", "block", "--emit-only", "--format", "json"], 0),
            (["tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7", "--shots", "1000", "--seed", "3"], 0),
        ],
    )
    def test_out_writes_the_stdout_bytes(self, capsys, tmp_path, argv, code):
        _, expected, _ = run_cli(capsys, *argv)
        target = tmp_path / "out"
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "argv, record_type",
        [
            (["trace", "--k", "4", "--bob", "split:0.7", "--outcome", "B"], CounterfactualityReport),
            (["tomo", "--k", "2", "--delta", "0.2", "--bob", "split:0.7", "--shots", "0"], TomographyResult),
        ],
    )
    def test_json_keys_are_the_record_fields_in_order(self, capsys, argv, record_type):
        _, out, _ = run_cli(capsys, *argv)
        assert list(json.loads(out)) == [field.name for field in dataclasses.fields(record_type)]

    def test_encoder_rejects_other_values(self):
        with pytest.raises(TypeError) as err:
            _json(object())
        assert str(err.value) == "object is not JSON serializable"

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

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 kernels and dispatch targets")
    def test_tomo_bytes_do_not_depend_on_the_kernel(self):
        # The default kernels, another OpenBLAS core type, and numpy with every
        # SIMD target it can dispatch to disabled, each in the child only.
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__
        variants = [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}]
        for args in [
            "tomo --k 8 --delta 0.3 --bob split:0.7 --shots 1000 --seed 3",
            "tomo --k 64 --bob split:0.7 --final-block --shots 0",
            "tomo --k 4096 --bob block --final-block --shots 0",
            "tomo --k 512 --bob split:0.7 --shots 100000 --seed 7",
        ]:
            outputs = [
                subprocess.run([sys.executable, "-m", "cfcomm", *args.split()], capture_output=True, check=True,
                               env={**os.environ, **extra}).stdout
                for extra in variants
            ]
            assert outputs[1] == outputs[0], f"{args}: OPENBLAS_CORETYPE=Haswell"
            assert outputs[2] == outputs[0], f"{args}: numpy dispatch disabled"

    def test_subprocess_byte_identical(self):
        argv = [sys.executable, "-m", "cfcomm", "tomo", "--k", "2", "--delta", "0.2",
                "--bob", "split:0.7853981633974483", "--shots", "20000", "--seed", "5"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
