"""Command-line front end: run, sweep, trace, chip, and tomo subcommands.

All angles are radians.  Exit codes: 0 success (or verdict true), 1 domain or
runtime error, 2 usage error, 3 counterfactuality verdict false.  Output is
deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable

import numpy as np

from . import chip, histories, modes, protocol

CSV_HEADER = "K,delta,bob,final_block,p_D0,p_D1,p_D3,p_loss_total,p_D1_renorm"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERDICT_FALSE = 3

# Largest number of points a sweep range may expand to, and the largest
# K x delta grid a sweep may run; both are checked before any list is built.
MAX_GRID_POINTS = 100_000


def _fmt(value: float) -> str:
    # 17 significant digits round-trips any double.
    return format(float(value), ".17g")


def _flag(*steps: Callable) -> Callable[[str], object]:
    """An argparse ``type=`` converter: the flag's text passed through each of
    ``steps`` in turn, the library's own checks among them; any
    ``ValueError`` they raise is a usage error."""

    def convert(text: str) -> object:
        value = text
        try:
            for step in steps:
                value = step(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    return convert


def _bob_action(text: str) -> protocol.BobAction:
    if text in ("block", "pass"):
        return protocol.BobAction(text)
    if text.startswith("split:"):
        return protocol.splitter(float(text.partition(":")[2]))
    raise ValueError(f"bob must be 'block', 'pass' or 'split:<beta>', got {text!r}")


def _int_range(text: str) -> list[int]:
    """'a', 'a:b' (inclusive) or 'a:b:step'."""
    parts = text.split(":")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad integer range {text!r}") from None
    if len(numbers) == 1:
        values = numbers
    elif len(numbers) in (2, 3):
        start, stop = numbers[0], numbers[1]
        step = numbers[2] if len(numbers) == 3 else 1
        if step < 1 or stop < start:
            raise ValueError(f"bad integer range {text!r}")
        points = range(start, stop + 1, step)
        if len(points) > MAX_GRID_POINTS:
            raise ValueError(f"range {text!r} has {len(points)} points, more than {MAX_GRID_POINTS}")
        values = list(points)
    else:
        raise ValueError(f"bad integer range {text!r}")
    return [modes.check_cycle_count(v) for v in values]


def _float_range(text: str) -> list[float]:
    """'a', 'a:b' (step 0.1) or 'a:b:step', stop included up to rounding."""
    parts = text.split(":")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad range {text!r}") from None
    if len(numbers) == 1:
        values = numbers
    elif len(numbers) in (2, 3):
        start, stop = numbers[0], numbers[1]
        step = numbers[2] if len(numbers) == 3 else 0.1
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}")
        intervals = (stop - start) / step + 1e-9
        if not intervals < MAX_GRID_POINTS:
            raise ValueError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(intervals)) + 1
        values = [start + i * step for i in range(count)]
    else:
        raise ValueError(f"bad range {text!r}")
    return [protocol.check_delta(v) for v in values]


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _matrix_json(matrix: np.ndarray) -> list:
    return [[_complex_json(complex(entry)) for entry in row] for row in matrix]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_record(row: protocol.SweepRow, bob: protocol.BobAction, final_block: bool) -> dict:
    dist = row.distribution
    record = {
        "K": row.k,
        "delta": row.delta,
        "bob": bob.label(),
        "include_final_block": final_block,
        "p_D0": dist.p_D0,
        "p_D1": dist.p_D1,
        "p_D3": dist.p_D3,
        "p_loss_total": dist.p_loss_total,
    }
    if dist.p_D3 < 1.0:
        record["p_D1_renormalized"] = dist.p_D1 / (1.0 - dist.p_D3)
    return record


def _record_csv_row(record: dict) -> str:
    renorm = record.get("p_D1_renormalized")
    fields = [
        str(record["K"]),
        _fmt(record["delta"]),
        record["bob"],
        "true" if record["include_final_block"] else "false",
        _fmt(record["p_D0"]),
        _fmt(record["p_D1"]),
        _fmt(record["p_D3"]),
        _fmt(record["p_loss_total"]),
        _fmt(renorm) if renorm is not None else "",
    ]
    return ",".join(fields)


def _emit_sweep(ns: argparse.Namespace, k_values: list[int], delta_values: list[float], single: bool) -> int:
    """Run the grid through ``protocol.sweep`` and emit one record per point;
    JSON is a list, or the lone record itself when ``single`` is set."""
    rows = protocol.sweep(k_values, delta_values, ns.bob, ns.final_block)
    records = [_run_record(row, ns.bob, ns.final_block) for row in rows]
    if ns.format == "csv":
        lines = [CSV_HEADER] + [_record_csv_row(r) for r in records]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(records[0] if single else records, indent=2) + "\n"
    _emit(text, ns.out)
    return EXIT_OK


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=_flag(int, modes.check_cycle_count), required=True,
                     help="number of inner cycles (K >= 1)")
    sub.add_argument("--delta", type=_flag(float, protocol.check_delta), default=0.0,
                     help="outer rotation offset, radians in [0, pi/2)")
    sub.add_argument("--bob", type=_flag(_bob_action), required=True, help="block | pass | split:<beta radians>")
    sub.add_argument("--final-block", dest="final_block", action="store_true",
                     help="let Bob interact once more after the K-th inner rotation")


def _add_output_flags(sub: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    sub.add_argument("--format", choices=formats, default=default, help=f"output format (default {default})")
    sub.add_argument("--out", default=None, help="write output to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    after it: ``parse_args`` returns a fresh namespace each time and no
    default is mutated."""
    parser = argparse.ArgumentParser(prog="cfcomm", description="Counterfactual communication protocol toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="run a single configuration and print its outcome record")
    _add_config_flags(p_run)
    _add_output_flags(p_run, ("json", "csv"), "json")

    p_sweep = commands.add_parser("sweep", help="run a (K, delta) grid and emit one record per point")
    p_sweep.add_argument("--k", type=_flag(_int_range), required=True, help="K value or range a:b[:step]")
    p_sweep.add_argument("--delta", type=_flag(_float_range), default=[0.0], help="delta value or range a:b[:step]")
    p_sweep.add_argument("--bob", type=_flag(_bob_action), required=True, help="block | pass | split:<beta radians>")
    p_sweep.add_argument("--final-block", dest="final_block", action="store_true")
    _add_output_flags(p_sweep, ("csv", "json"), "csv")

    p_trace = commands.add_parser("trace", help="path-history counterfactuality report for one outcome")
    _add_config_flags(p_trace)
    p_trace.add_argument("--outcome", required=True, help="outcome mode label (A, B, C or Ln)")
    _add_output_flags(p_trace, ("json",), "json")

    p_chip = commands.add_parser("chip", help="compile onto the MZI mesh and verify against the modal evolution")
    _add_config_flags(p_chip)
    p_chip.add_argument("--tol", type=_flag(float, chip.check_tolerance), default=1e-9,
                        help="verification residual tolerance")
    p_chip.add_argument("--emit-only", dest="emit_only", action="store_true", help="emit the program, skip verification")
    _add_output_flags(p_chip, ("json",), "json")

    p_tomo = commands.add_parser("tomo", help="simulate tomography of Alice's output qubit on the mesh")
    _add_config_flags(p_tomo)
    p_tomo.add_argument("--shots", type=_flag(int, chip.check_shots), default=100000,
                        help="shots per basis; 0 = analytic expectations")
    p_tomo.add_argument("--seed", type=_flag(int, chip.check_seed), default=0, help="sampling seed (>= 0)")
    _add_output_flags(p_tomo, ("json",), "json")

    return parser


def _config_from(ns: argparse.Namespace) -> protocol.ProtocolConfig:
    return protocol.ProtocolConfig(ns.k, ns.delta, ns.bob, ns.final_block)


def _cmd_run(ns: argparse.Namespace) -> int:
    return _emit_sweep(ns, [ns.k], [ns.delta], single=True)


def _cmd_sweep(ns: argparse.Namespace) -> int:
    return _emit_sweep(ns, ns.k, ns.delta, single=False)


def _cmd_trace(ns: argparse.Namespace) -> int:
    report = histories.counterfactuality_report(_config_from(ns), ns.outcome)
    doc = {
        "outcome_mode": report.outcome_mode,
        "total_amplitude": _complex_json(report.total_amplitude),
        "c_visiting_amplitude": _complex_json(report.c_visiting_amplitude),
        "c_visiting_paths": report.c_visiting_paths,
        "verdict": report.verdict,
        "probability": report.probability,
        "vacuous": report.vacuous,
    }
    _emit(json.dumps(doc, indent=2) + "\n", ns.out)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_chip(ns: argparse.Namespace) -> int:
    config = _config_from(ns)
    program = chip.compile_program(config)
    doc: dict = {"program": program.to_json_dict()}
    if ns.emit_only:
        _emit(json.dumps(doc, indent=2) + "\n", ns.out)
        return EXIT_OK
    report = chip.verify(chip.mesh_unitary(program), config, tol=ns.tol)
    doc["residual"] = report.residual
    doc["equivalent"] = report.equivalent
    _emit(json.dumps(doc, indent=2) + "\n", ns.out)
    return EXIT_OK if report.equivalent else EXIT_ERROR


def _cmd_tomo(ns: argparse.Namespace) -> int:
    result = chip.simulate_tomography(_config_from(ns), ns.shots, ns.seed)
    doc = {
        "counts": {basis: list(pair) for basis, pair in result.counts.items()},
        "shots_per_basis": result.shots_per_basis,
        "reconstructed_rho": _matrix_json(result.reconstructed_rho),
        "exact_rho": _matrix_json(result.exact_rho),
        "trace_distance": result.trace_distance,
        "postselected_fraction": result.postselected_fraction,
    }
    _emit(json.dumps(doc, indent=2) + "\n", ns.out)
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "chip": _cmd_chip,
    "tomo": _cmd_tomo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "sweep" and len(ns.k) * len(ns.delta) > MAX_GRID_POINTS:
        parser.error(f"sweep grid has {len(ns.k) * len(ns.delta)} points, more than {MAX_GRID_POINTS}")
    try:
        return _HANDLERS[ns.command](ns)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
