"""Command-line front end: run, sweep, trace, chip, and tomo subcommands.

All angles are radians.  Exit codes: 0 success (or verdict true), 1 domain or
runtime error, 2 usage error, 3 counterfactuality verdict false.  Output is
deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Callable, Iterable

from . import modes, protocol

CSV_HEADER = "K,delta,bob,final_block,p_D0,p_D1,p_D3,p_loss_total,p_D1_renorm"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERDICT_FALSE = 3

# Largest number of points a sweep range may expand to, and the largest
# K x delta grid a sweep may run; both are checked before any list is built.
MAX_GRID_POINTS = 100_000


def _json(value: object) -> object:
    """The ``default=`` hook of ``json.dumps``: a dataclass becomes
    ``{field: ...}`` in declaration order, a complex number
    ``{"re": ..., "im": ...}`` and an array (anything with ``.tolist()``)
    nested lists; any other value raises ``TypeError``."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if dataclasses.is_dataclass(value):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _flag(*steps: Callable) -> Callable[[str], object]:
    """An argparse ``type=`` converter: the flag's text passed through each of
    ``steps`` in turn; any ``ValueError`` they raise is a usage error."""

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


def _range(text: str, number: type, default_step: float, check: Callable) -> list:
    """'a', 'a:b' or 'a:b:step' (step ``default_step``): a, a + step, ... up to
    b, b included up to rounding, each value passed through ``check``.  An
    integer range is counted exactly, and every range is counted against
    ``MAX_GRID_POINTS`` before its list is built."""
    try:
        numbers = [number(part) for part in text.split(":")]
    except ValueError:
        numbers = []
    if len(numbers) == 1:
        return [check(numbers[0])]
    if len(numbers) not in (2, 3):
        raise ValueError(f"bad range {text!r}")
    start, stop, step = (*numbers, default_step)[:3]
    if stop < start or not step > 0 or not (number is int or all(map(math.isfinite, (start, stop, step)))):
        raise ValueError(f"bad range {text!r}")
    intervals = (stop - start) // step if number is int else (stop - start) / step + 1e-9
    if not intervals < MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    return [check(start + i * step) for i in range(int(intervals) + 1)]


# A record's keys, and its CSV line by number of values: floats as "%.17g"
# (17 digits round-trip any double), an empty cell for no renormalized p_D1.
_RECORD_KEYS = ("K", "delta", "bob", "include_final_block", "p_D0", "p_D1", "p_D3", "p_loss_total", "p_D1_renormalized")
_CSV_ROWS = {8: "%d,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g,", 9: "%d,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g"}


def _record_values(k: int, delta: float, row: list[float], bob: str, final: object) -> tuple:
    """One (K, delta, row) of ``protocol._sweep_rows`` or ``_point`` as a
    record's values in ``_RECORD_KEYS`` order, the renormalized p_D1 only if
    p_D3 < 1."""
    p_d1, p_d3 = row[1], row[2]
    values = (k, delta, bob, final, row[0], p_d1, p_d3, math.fsum(row[3:]))
    return values + (p_d1 / (1.0 - p_d3),) if p_d3 < 1.0 else values


def _sweep_output(ns: argparse.Namespace, rows: Iterable[tuple]) -> tuple[object, int]:
    """One record per (K, delta, row) of ``rows``, taken one by one: CSV text,
    or for JSON a list, or ``run``'s lone record."""
    label = ns.bob.label()
    if ns.format == "csv":
        final = "true" if ns.final_block else "false"
        lines = [CSV_HEADER]
        for k, delta, row in rows:
            values = _record_values(k, delta, row, label, final)
            lines.append(_CSV_ROWS[len(values)] % values)
        return "\n".join(lines) + "\n", EXIT_OK
    records = [dict(zip(_RECORD_KEYS, _record_values(*point, label, ns.final_block))) for point in rows]
    return (records[0] if ns.command == "run" else records), EXIT_OK


def _config_from(ns: argparse.Namespace) -> protocol.ProtocolConfig:
    return protocol.ProtocolConfig(ns.k, ns.delta, ns.bob, ns.final_block)


# Each handler returns (payload, exit code): the payload is CSV text or a
# document that ``main`` encodes as JSON through ``_json``.  ``histories`` and
# ``chip`` are imported only in the handlers that use them, so ``run`` and
# ``sweep`` load neither; ``run`` and ``trace`` load no numpy.


def _cmd_run(ns: argparse.Namespace) -> tuple[object, int]:
    return _sweep_output(ns, [(ns.k, ns.delta, protocol._point(_config_from(ns))[1])])


def _cmd_sweep(ns: argparse.Namespace) -> tuple[object, int]:
    return _sweep_output(ns, protocol._sweep_rows(ns.k, ns.delta, ns.bob, ns.final_block))


def _cmd_trace(ns: argparse.Namespace) -> tuple[object, int]:
    from . import histories

    report = histories.counterfactuality_report(_config_from(ns), ns.outcome)
    return report, EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_chip(ns: argparse.Namespace) -> tuple[object, int]:
    from . import chip

    config = _config_from(ns)
    program = chip.compile_program(config)
    doc: dict = {"program": program.to_json_dict()}
    if ns.emit_only:
        return doc, EXIT_OK
    report = chip.verify(chip.mesh_unitary(program), config, tol=ns.tol)
    doc["residual"] = report.residual
    doc["equivalent"] = report.equivalent
    return doc, EXIT_OK if report.equivalent else EXIT_ERROR


def _cmd_tomo(ns: argparse.Namespace) -> tuple[object, int]:
    from . import chip

    return chip.simulate_tomography(_config_from(ns), ns.shots, ns.seed), EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    after it: ``parse_args`` returns a fresh namespace each time and no
    default is mutated."""
    parser = argparse.ArgumentParser(prog="cfcomm", description="Counterfactual communication protocol toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    # The flags of one subcommand only, declared after the shared ones.
    own_flags = {
        "trace": [("--outcome", dict(required=True, help="outcome mode label (A, B, C or Ln)"))],
        "chip": [
            ("--tol", dict(type=_flag(float, modes.check_tolerance), default=1e-9,
                           help="verification residual tolerance")),
            ("--emit-only", dict(action="store_true", help="emit the program, skip verification")),
        ],
        "tomo": [
            ("--shots", dict(type=_flag(int, modes.check_shots), default=100000,
                             help="shots per basis; 0 = analytic expectations")),
            ("--seed", dict(type=_flag(int, modes.check_seed), default=0, help="sampling seed (>= 0)")),
        ],
    }
    for name, handler, formats, help_text in (
        ("run", _cmd_run, ("json", "csv"), "run a single configuration and print its outcome record"),
        ("sweep", _cmd_sweep, ("csv", "json"), "run a (K, delta) grid and emit one record per point"),
        ("trace", _cmd_trace, ("json",), "path-history counterfactuality report for one outcome"),
        ("chip", _cmd_chip, ("json",), "compile onto the MZI mesh and verify against the modal evolution"),
        ("tomo", _cmd_tomo, ("json",), "simulate tomography of Alice's output qubit on the mesh"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler, parser=sub)
        if name == "sweep":
            sub.add_argument("--k", type=_flag(lambda text: _range(text, int, 1, modes.check_cycle_count)),
                             required=True, help="K value or range a:b[:step]")
            sub.add_argument("--delta", type=_flag(lambda text: _range(text, float, 0.1, protocol.check_delta)),
                             default=[0.0], help="delta value or range a:b[:step]")
        else:
            sub.add_argument("--k", type=_flag(int, modes.check_cycle_count), required=True,
                             help="number of inner cycles (K >= 1)")
            sub.add_argument("--delta", type=_flag(float, protocol.check_delta), default=0.0,
                             help="outer rotation offset, radians in [0, pi/2)")
        sub.add_argument("--bob", type=_flag(_bob_action), required=True, help="block | pass | split:<beta radians>")
        sub.add_argument("--final-block", action="store_true",
                         help="let Bob interact once more after the K-th inner rotation")
        for flag, options in own_flags.get(name, ()):
            sub.add_argument(flag, **options)
        sub.add_argument("--format", choices=formats, default=formats[0], help=f"output format (default {formats[0]})")
        sub.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and return its
    exit code; a usage error, reported by its subcommand, raises ``SystemExit(2)``."""
    ns = build_parser().parse_args(argv)
    if ns.command == "sweep" and len(ns.k) * len(ns.delta) > MAX_GRID_POINTS:
        ns.parser.error(f"sweep grid has {len(ns.k) * len(ns.delta)} points, more than {MAX_GRID_POINTS}")
    if ns.command == "trace":
        try:  # the labels depend on K, so no type= converter can check them
            modes.ModeBasis(ns.k).index(ns.outcome)
        except ValueError as err:
            ns.parser.error(f"argument --outcome: {err}")
    try:
        payload, code = ns.handler(ns)
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, default=_json) + "\n"
        if ns.out is None:
            sys.stdout.write(text)
        else:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
