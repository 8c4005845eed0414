"""The four benchmark workloads, built from a seed.

Every workload is a fixed list of operations.  An operation calls the
public functions of cfcomm through the helpers below, which put a span
around each layer call; with the null tracer they are plain calls.  Each
operation has a check of its output, and a probe: extra layer
measurements (step construction, unitary checks, apply replay, the
histories under a report) that run only in traced runs, outside the
operation's own span.

Inputs (delta, splitter angle beta, tomography seeds) come from
``random.Random`` seeded with the workload name and the seed, so the same
seed gives the same inputs.  delta stays at least 0.05 away from 0 so that
no protocol angle snaps to an exact zero and the path and step counts are
the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from cfcomm import chip, cli, histories, modes, protocol

SHOTS = 1_000_000
PATH_SUM_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
MESH_TOL = 1e-9
TOMOGRAPHY_TOL = 0.01


@dataclass(frozen=True)
class Op:
    size: int  # cycle count K; warm-up runs the ops of the two smallest sizes
    call: Callable[[Any], Any]  # tracer -> output
    check: Callable[[Any], bool]
    probe: Callable[[Any], None]  # tracer -> None, traced runs only


# --- one helper per layer call ----------------------------------------------


def run(tr, cfg):
    with tr.span("protocol.run"):
        return protocol.run(cfg)


def evolution_unitary(tr, cfg):
    with tr.span("protocol.evolution_unitary"):
        return protocol.evolution_unitary(cfg)


def sweep(tr, k_values, deltas, bob):
    with tr.span("protocol.sweep") as sp:
        rows = protocol.sweep(k_values, deltas, bob)
    sp.count("protocol.sweep_points", len(rows))
    return rows


def cli_main(tr, argv):
    with tr.span("cli.main") as sp:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    text = out.getvalue()
    if tr.on:
        sp.count("cli.output_bytes", len(text.encode()))
    return code, text


def report(tr, cfg, outcome):
    with tr.span("histories.report"):
        return histories.counterfactuality_report(cfg, outcome)


def enumerate_paths(tr, cfg, outcome):
    with tr.span("histories.enumerate") as sp:
        found = histories.enumerate_histories(cfg)
    sp.count("histories.paths", len(found))
    sp.count("histories.useful", sum(1 for h in found if h.path[-1] == outcome))


def compile_program(tr, cfg):
    with tr.span("chip.compile") as sp:
        program = chip.compile_program(cfg)
    if tr.on:
        sp.count("chip.mzis", len(program.settings))
        sp.count("chip.columns", len(program.columns))
    return program


def mesh_unitary(tr, program):
    with tr.span("chip.mesh_unitary"):
        return chip.mesh_unitary(program)


def verify(tr, u_mesh, cfg):
    with tr.span("chip.verify"):
        result = chip.verify(u_mesh, cfg, tol=MESH_TOL)
    tr.peak("chip.verify_residual_max", result.residual)
    return result


def tomography(tr, cfg, shots, seed):
    with tr.span("chip.tomography"):
        return chip.simulate_tomography(cfg, shots, seed)


def steps_probe(tr, cfg):
    """Build the steps, re-check each distinct step matrix, replay them."""
    with tr.span("protocol.build_steps") as sp:
        steps = protocol.build_steps(cfg)
    sp.count("protocol.steps", len(steps))
    distinct = list({id(s.op.matrix): s.op.matrix for s in steps}.values())
    with tr.span("modes.unitary_check") as sp:
        for matrix in distinct:
            modes.UnitaryOp(matrix)
    sp.count("modes.dense_bytes", sum(m.nbytes for m in distinct))
    with tr.span("modes.apply") as sp:
        state = modes.basis_state(cfg.mode_basis(), "A")
        for step in steps:
            state = modes.apply(step.op, state)
    sp.count("modes.apply_calls", len(steps))


def floor_probe(tr, seed):
    """One small call into every layer, so each per-layer metric is measured
    on every workload, including those that do not use the layer."""
    rng = random.Random(f"floor/{seed}")
    delta = rng.uniform(0.4, 1.2)
    cfg = protocol.ProtocolConfig(4, delta, protocol.BLOCK)
    steps_probe(tr, cfg)
    run(tr, cfg)
    evolution_unitary(tr, cfg)
    cli_main(tr, ["sweep", "--k", "4", "--delta", repr(delta), "--bob", "block"])
    sweep(tr, [4], [delta], protocol.BLOCK)
    enumerate_paths(tr, cfg, "B")
    report(tr, cfg, "B")
    program = compile_program(tr, cfg)
    verify(tr, mesh_unitary(tr, program), cfg)
    tomography(tr, cfg, 1000, rng.randrange(2**32))


# --- references -------------------------------------------------------------


def reference(cfg: protocol.ProtocolConfig) -> tuple[float, float, float, float]:
    """(p_D0, p_D1, p_D3, p_loss_total): ``closed_form`` for block and pass;
    for a splitter, the A/B/C amplitudes carried cycle by cycle, C damped by
    cos(beta) at each interaction."""
    if cfg.bob.kind != "splitter":
        d = protocol.closed_form(cfg)
        return d.p_D0, d.p_D1, d.p_D3, d.p_loss_total
    a, b, c = math.cos(cfg.phi), math.sin(cfg.phi), 0.0
    ct, st, damp = math.cos(cfg.theta), math.sin(cfg.theta), math.cos(cfg.bob.beta)
    for n in range(1, cfg.k + 1):
        b, c = ct * b - st * c, st * b + ct * c
        if n < cfg.k or cfg.include_final_block:
            c *= damp
    return a * a, b * b, c * c, 1.0 - (a * a + b * b + c * c)


def _close(got, want, tol) -> bool:
    return all(abs(g - w) <= tol for g, w in zip(got, want, strict=True))


def _actions(rng: random.Random) -> list[protocol.BobAction]:
    return [protocol.BLOCK, protocol.PASS, protocol.splitter(rng.uniform(0.2, 1.3))]


# --- zeno_sweep ---------------------------------------------------------------


def _zeno_check(k, bob, deltas, seen, key, out) -> bool:
    code, text = out
    if seen.setdefault(key, text) != text:  # byte-identical output across repeats
        return False
    lines = text.splitlines()
    if code != cli.EXIT_OK or lines[0] != cli.CSV_HEADER or len(lines) != len(deltas) + 1:
        return False
    for line, delta in zip(lines[1:], deltas):
        fields = line.split(",")
        if fields[0] != str(k) or float(fields[1]) != delta or fields[2:4] != [bob.label(), "false"]:
            return False
        got = [float(f) for f in fields[4:8]]
        if not _close(got, reference(protocol.ProtocolConfig(k, delta, bob)), CLOSED_FORM_TOL):
            return False
    return True


def _zeno_probe(k, deltas, bob, tr) -> None:
    sweep(tr, [k], deltas, bob)
    for delta in deltas:
        steps_probe(tr, protocol.ProtocolConfig(k, delta, bob))


def zeno_sweep(seed: int) -> list[Op]:
    """`cfcomm sweep` in process, one call per (K, action): K 1..64, 16 deltas."""
    rng = random.Random(f"zeno_sweep/{seed}")
    start, step = rng.uniform(0.05, 0.3), rng.uniform(0.02, 0.06)
    spec = f"{start!r}:{start + 15 * step!r}:{step!r}"
    deltas = [start + i * step for i in range(16)]
    actions = _actions(rng)
    seen: dict[tuple[int, str], str] = {}
    ops = []
    for k in range(1, 65):
        for bob in actions:
            argv = ["sweep", "--k", str(k), "--delta", spec, "--bob", bob.label()]
            ops.append(Op(
                size=k,
                call=partial(cli_main, argv=argv),
                check=partial(_zeno_check, k, bob, deltas, seen, (k, bob.label())),
                probe=partial(_zeno_probe, k, deltas, bob),
            ))
    return ops


# --- deep_chain ---------------------------------------------------------------


def _deep_call(cfg, tr):
    state, dist = run(tr, cfg)
    column = evolution_unitary(tr, cfg).matrix[:, 0].copy()
    return state.amplitudes, dist, column


def _deep_check(cfg, out) -> bool:
    amplitudes, dist, column = out
    got = (dist.p_D0, dist.p_D1, dist.p_D3, dist.p_loss_total)
    return _close(got, reference(cfg), CLOSED_FORM_TOL) and _close(column, amplitudes, CLOSED_FORM_TOL)


def deep_chain(seed: int) -> list[Op]:
    """`run` and `evolution_unitary` at K 96..192 (step 32), three actions."""
    rng = random.Random(f"deep_chain/{seed}")
    actions = _actions(rng)
    ops = []
    for k in range(96, 193, 32):
        for bob in actions:
            cfg = protocol.ProtocolConfig(k, rng.uniform(0.05, 1.2), bob)
            ops.append(Op(k, partial(_deep_call, cfg), partial(_deep_check, cfg), partial(steps_probe, cfg=cfg)))
    return ops


# --- mesh_chip ----------------------------------------------------------------


def _mesh_call(cfg, tomo_seed, tr):
    program = compile_program(tr, cfg)
    result = verify(tr, mesh_unitary(tr, program), cfg)
    tomo = tomography(tr, cfg, SHOTS, tomo_seed)
    return result, tomo.trace_distance


def _mesh_check(out) -> bool:
    result, distance = out
    return result.equivalent and result.residual <= MESH_TOL and distance <= TOMOGRAPHY_TOL


def _mesh_probe(cfg, tr) -> None:
    evolution_unitary(tr, cfg)
    steps_probe(tr, cfg)


def mesh_chip(seed: int) -> list[Op]:
    """compile -> mesh_unitary -> verify -> tomography (1e6 shots), K 4..64."""
    rng = random.Random(f"mesh_chip/{seed}")
    actions = _actions(rng)
    ops = []
    for k in range(4, 65, 4):
        for bob in actions:
            # delta >= 0.4 keeps enough postselected shots under pass
            cfg = protocol.ProtocolConfig(k, rng.uniform(0.4, 1.2), bob)
            ops.append(Op(k, partial(_mesh_call, cfg, rng.randrange(2**32)), _mesh_check, partial(_mesh_probe, cfg)))
    return ops


# --- path_trace ---------------------------------------------------------------


def _trace_check(cfg, outcome, amplitude, out) -> bool:
    if abs(out.total_amplitude - amplitude) > PATH_SUM_TOL:
        return False
    if cfg.bob.kind == "block" and outcome in ("A", "B"):
        return out.verdict and out.c_visiting_paths == 0
    return True


def _trace_probe(cfg, outcome, tr) -> None:
    enumerate_paths(tr, cfg, outcome)
    steps_probe(tr, cfg)


def path_trace(seed: int) -> list[Op]:
    """`counterfactuality_report` for every outcome mode, K 1..12, three actions."""
    rng = random.Random(f"path_trace/{seed}")
    actions = _actions(rng)
    ops = []
    for k in range(1, 13):
        for bob in actions:
            cfg = protocol.ProtocolConfig(k, rng.uniform(0.05, 1.2), bob)
            state, _ = protocol.run(cfg)
            for outcome in cfg.mode_basis().labels:
                ops.append(Op(
                    size=k,
                    call=partial(report, cfg=cfg, outcome=outcome),
                    check=partial(_trace_check, cfg, outcome, state.amplitude(outcome)),
                    probe=partial(_trace_probe, cfg, outcome),
                ))
    return ops


WORKLOADS = {
    "zeno_sweep": zeno_sweep,
    "deep_chain": deep_chain,
    "mesh_chip": mesh_chip,
    "path_trace": path_trace,
}
