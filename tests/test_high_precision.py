"""``run``, ``sweep``, ``counterfactuality_report`` and the mesh's input
column held to a 40-digit re-evolution of the protocol, on a grid up to
K = 64 and on a thinned grid at K = 512 and ``MAX_CYCLES``.

The oracle evolves the photon with mpmath at 40 digits, independently of
``ProtocolConfig.step_ops``: the outer rotation by phi = pi/2 - delta on
(A, B), then K inner rotations by theta = pi/2K on (B, C), each but the last
(or every one, with the final block) followed by Bob's step on (C, Ln).  phi
and theta are computed in mpmath from the double delta and K, beta is the
double beta, except that the double pi/2 stands for pi/2 itself: the
convention ``modes.exact_cos_sin`` encodes.
"""

import itertools
import math

import pytest

from cfcomm.chip import _tomography_column
from cfcomm.histories import counterfactuality_report
from cfcomm.protocol import BLOCK, MAX_CYCLES, PASS, ProtocolConfig, run, splitter, sweep

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
# On this grid every 40-digit amplitude is either first order in the angles
# (above 2e-17), or at most second order in a tiny beta or zero up to the
# oracle's round-off (below 1e-29).  ``run`` must keep the first kind off an
# exact zero; the second lies under its rounding of O(1) terms and may cancel.
FIRST_ORDER = 1e-24

ACTIONS = [BLOCK, PASS, splitter(0.7), splitter(9.9e-16)]
ACTION_IDS = ["block", "pass", "split-0.7", "split-9.9e-16"]
KS = [1, 2, 3, 4, 5, 8, 17, 32, 64]
DELTAS = [0.0, 5e-16, 0.3]


def mp_cos_sin(double, exact):
    """cos and sin of the angle ``exact``, whose double is ``double``; exactly
    (0, 1) when ``double`` is the double pi/2."""
    if double == math.pi / 2:
        return mpmath.mpf(0), mpmath.mpf(1)
    return mpmath.cos(exact), mpmath.sin(exact)


def mp_rotate(amps, i, j, cos_sin):
    """|i> -> cos|i> + sin|j>, |j> -> -sin|i> + cos|j>, as ``rotation_block``."""
    c, s = cos_sin
    amps[i], amps[j] = c * amps[i] - s * amps[j], s * amps[i] + c * amps[j]


def mp_evolution(config):
    """The final amplitudes over A, B, C, L1..LK at ``DIGITS`` digits."""
    k, beta = config.k, config.bob.beta
    outer = mp_cos_sin(config.phi, mpmath.pi / 2 - mpmath.mpf(config.delta))
    inner = mp_cos_sin(config.theta, mpmath.pi / (2 * k))
    amps = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (k + 2)
    mp_rotate(amps, 0, 1, outer)
    for n in range(1, k + 1):
        mp_rotate(amps, 1, 2, inner)
        if n == k and not config.include_final_block:
            break
        if config.bob.kind == "block":
            amps[2], amps[2 + n] = amps[2 + n], amps[2]
        elif config.bob.kind == "splitter":
            mp_rotate(amps, 2, 2 + n, mp_cos_sin(beta, mpmath.mpf(beta)))
    return amps


def check_run(config, want):
    """``run``'s amplitudes within 1e-12 of the 40-digit ``want``; returns them."""
    got = run(config)[0].amplitudes.tolist()
    for slot, (g, w) in enumerate(zip(got, want, strict=True)):
        assert abs(g - complex(w)) <= 1e-12, (config, slot, g, w)
    return got


def check_sweep_row(row, bob, final_block):
    with mpmath.workdps(DIGITS):
        want = [abs(w) ** 2 for w in mp_evolution(ProtocolConfig(row.k, row.delta, bob, final_block))]
    got = row.distribution.as_array().tolist()
    for slot, (g, w) in enumerate(zip(got, want, strict=True)):
        assert abs(g - float(w)) <= 1e-12, (row.k, row.delta, slot, g, w)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ACTIONS, ids=ACTION_IDS)
def test_run_matches_a_40_digit_evolution(bob, final_block):
    for k, delta in itertools.product(KS, DELTAS):
        config = ProtocolConfig(k, delta, bob, final_block)
        with mpmath.workdps(DIGITS):
            want = mp_evolution(config)
        for slot, (g, w) in enumerate(zip(check_run(config, want), want)):
            assert not 1e-29 < abs(w) < 2e-17, (k, delta, slot, w)  # the gap FIRST_ORDER sits in
            assert g != 0 or abs(w) < FIRST_ORDER, (k, delta, slot, w)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ACTIONS, ids=ACTION_IDS)
def test_sweep_rows_match_a_40_digit_evolution(bob, final_block):
    for row in sweep(KS, DELTAS, bob, final_block):
        check_sweep_row(row, bob, final_block)


def mp_never_c(config, label):
    """The 40-digit amplitude of the paths to ``label`` that never visit C:
    cos(phi) at A, sin(phi) cos(theta)^K at B, and none elsewhere."""
    if label == "A":
        return mp_cos_sin(config.phi, mpmath.pi / 2 - mpmath.mpf(config.delta))[0]
    if label == "B":
        s_phi = mp_cos_sin(config.phi, mpmath.pi / 2 - mpmath.mpf(config.delta))[1]
        return s_phi * mp_cos_sin(config.theta, mpmath.pi / (2 * config.k))[0] ** config.k
    return mpmath.mpf(0)


def check_report(config, want, labels):
    """The report's total amplitude at each of ``labels`` within 1e-12 of the
    40-digit ``want`` (all modes), and its never-C amplitude at A and B."""
    with mpmath.workdps(DIGITS):
        never = {label: mp_never_c(config, label) for label in ("A", "B")}
    basis = config.mode_basis()
    for label in labels:
        w = want[basis.index(label)]
        report = counterfactuality_report(config, label)
        assert abs(report.total_amplitude - complex(w)) <= 1e-12, (config, label, report, w)
        if label in never:
            got_never = report.total_amplitude - report.c_visiting_amplitude
            assert abs(got_never - complex(never[label])) <= 1e-12, (config, label, report, never[label])


def check_column(config, want):
    # The mesh equals the evolution up to diagonal phases, so each entry of
    # its input column is held by magnitude, and the A and B entries, which
    # tomography reads as one qubit, by their common output phase.
    want = [complex(w) for w in want]
    column = _tomography_column(config).tolist()
    for slot, (g, w) in enumerate(zip(column, want, strict=True)):
        assert abs(abs(g) - abs(w)) <= 1e-12, (config, slot, g, w)
    if min(abs(want[0]), abs(want[1])) > 1e-3:
        assert abs(column[0] / want[0] - column[1] / want[1]) <= 1e-12, (config, column[:2], want[:2])


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ACTIONS, ids=ACTION_IDS)
def test_report_matches_a_40_digit_evolution(bob, final_block):
    for k, delta in itertools.product(KS, DELTAS):
        config = ProtocolConfig(k, delta, bob, final_block)
        with mpmath.workdps(DIGITS):
            want = mp_evolution(config)
        check_report(config, want, config.mode_basis().labels)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ACTIONS, ids=ACTION_IDS)
def test_mesh_input_column_matches_a_40_digit_evolution(bob, final_block):
    for k, delta in itertools.product(KS, DELTAS):
        config = ProtocolConfig(k, delta, bob, final_block)
        with mpmath.workdps(DIGITS):
            want = mp_evolution(config)
        check_column(config, want)


@pytest.mark.parametrize("bob", [BLOCK, splitter(0.7)], ids=["block", "split-0.7"])
@pytest.mark.parametrize("k", [512, MAX_CYCLES])
def test_the_cycle_bound_matches_a_40_digit_evolution(k, bob):
    # The thinned grid: final block on, delta 0 and 0.3, the report at A, B, C,
    # L1 and LK.  The four cases take about 1 s in all on a 2-core x86 VM.
    # The worst true errors there were, at K = 4096: run 1.7e-13, sweep
    # 3.4e-13, column magnitude 1.7e-13, common A/B phase 6.9e-13.
    deltas = [0.0, 0.3]
    for delta, row in zip(deltas, sweep([k], deltas, bob, True), strict=True):
        config = ProtocolConfig(k, delta, bob, True)
        with mpmath.workdps(DIGITS):
            want = mp_evolution(config)
        check_run(config, want)
        check_sweep_row(row, bob, True)
        check_report(config, want, ["A", "B", "C", "L1", f"L{k}"])
        check_column(config, want)
