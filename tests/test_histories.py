import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm.histories import (
    EnumerationLimitError,
    amplitude_by_paths,
    counterfactuality_report,
    enumerate_histories,
)
from cfcomm.protocol import BLOCK, PASS, ProtocolConfig, run, splitter
from oracle import cycle_bound_message, four_call_report

SIN_01 = 0.09983341664682815  # sin(0.1)

ALL_ACTIONS = [PASS, BLOCK, splitter(math.pi / 4)]


class TestEnumerate:
    def test_k1_pass_two_histories(self):
        # A->B->B carries cos(pi/2) = 0 and is pruned.
        histories = enumerate_histories(ProtocolConfig(1, 0.1, PASS))
        assert sorted(h.path for h in histories) == [("A", "A", "A"), ("A", "B", "C")]

    def test_k1_pass_straight_path_amplitude(self):
        histories = {h.path: h.amplitude for h in enumerate_histories(ProtocolConfig(1, 0.1, PASS))}
        assert histories[("A", "A", "A")] == pytest.approx(math.cos(math.pi / 2 - 0.1), abs=1e-15)

    def test_k2_block_loss_path_amplitude(self):
        config = ProtocolConfig(2, 0.1, BLOCK)
        histories = {h.path: h.amplitude for h in enumerate_histories(config)}
        expected = math.sin(config.phi) * math.sin(config.theta)
        assert histories[("A", "B", "C", "L1", "L1")] == pytest.approx(expected, abs=1e-15)

    def test_every_history_has_one_label_per_slice(self):
        config = ProtocolConfig(3, 0.1, BLOCK)
        for h in enumerate_histories(config):
            assert len(h.path) == 6 + 1  # steps + initial slice
            assert h.path[0] == "A"

    def test_enumeration_bound(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_histories(ProtocolConfig(13, 0.0, PASS))

    def test_bound_is_inclusive(self):
        enumerate_histories(ProtocolConfig(12, 0.0, BLOCK))


class TestAmplitudeByPaths:
    def test_pass_outcome_a(self):
        histories = enumerate_histories(ProtocolConfig(4, 0.1, PASS))
        assert amplitude_by_paths(histories, "A") == pytest.approx(SIN_01, abs=1e-12)

    def test_block_outcome_b(self):
        histories = enumerate_histories(ProtocolConfig(2, 0.0, BLOCK))
        assert amplitude_by_paths(histories, "B") == pytest.approx(0.5, abs=1e-12)

    def test_empty_sum_is_zero(self):
        histories = enumerate_histories(ProtocolConfig(2, 0.0, BLOCK))
        assert amplitude_by_paths(histories, "A") == 0.0  # cos(phi) = 0 path pruned

    @pytest.mark.parametrize("bob", ALL_ACTIONS, ids=["pass", "block", "split"])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_path_sum_equals_state_vector(self, k, delta, bob):
        config = ProtocolConfig(k, delta, bob)
        histories = enumerate_histories(config)
        state, _ = run(config)
        for index, label in enumerate(config.mode_basis().labels):
            path_sum = amplitude_by_paths(histories, label)
            assert abs(path_sum - complex(state.amplitudes[index])) <= 1e-10

    def test_path_sum_with_final_block(self):
        config = ProtocolConfig(4, 0.1, BLOCK, include_final_block=True)
        histories = enumerate_histories(config)
        state, _ = run(config)
        for index, label in enumerate(config.mode_basis().labels):
            assert abs(amplitude_by_paths(histories, label) - complex(state.amplitudes[index])) <= 1e-10


class TestCounterfactuality:
    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_bit_never_saw_c(self, k, final):
        report = counterfactuality_report(ProtocolConfig(k, 0.1, BLOCK, final), "B")
        assert report.c_visiting_paths == 0
        assert report.verdict is True

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zero_bit_never_saw_c(self, k):
        report = counterfactuality_report(ProtocolConfig(k, 0.1, PASS), "A")
        assert report.c_visiting_paths == 0
        assert report.verdict is True

    def test_zero_amplitude_outcome_is_vacuous(self):
        # With the final block C ends empty: no path reaches it at all.
        report = counterfactuality_report(ProtocolConfig(3, 0.0, BLOCK, True), "C")
        assert report.verdict is True
        assert report.vacuous is True
        assert report.probability == 0.0

    def test_block_one_bit_is_not_vacuous(self):
        config = ProtocolConfig(3, 0.0, BLOCK)
        report = counterfactuality_report(config, "B")
        assert report.verdict is True
        assert report.vacuous is False
        assert report.probability == pytest.approx(abs(run(config)[0].amplitude("B")) ** 2, abs=1e-12)

    def test_pass_outcome_b_interferes_destructively(self):
        config = ProtocolConfig(2, 0.1, PASS)
        report = counterfactuality_report(config, "B")
        assert abs(report.total_amplitude) <= 1e-10
        assert report.c_visiting_paths == 1
        assert report.verdict is False
        expected = -math.sin(config.phi) * math.sin(config.theta) ** 2
        assert report.c_visiting_amplitude == pytest.approx(expected, abs=1e-12)

    def test_total_matches_direct_evolution(self):
        config = ProtocolConfig(5, 0.2, splitter(0.9))
        state, _ = run(config)
        for label in config.mode_basis().labels:
            report = counterfactuality_report(config, label)
            assert abs(report.total_amplitude - state.amplitude(label)) <= 1e-10

    @pytest.mark.parametrize("k", [1, 12, 4096])
    def test_outcome_a_runs_no_path_count_pass(self, monkeypatch, k):
        # A's one path, through cos(phi), never visits C: its report comes
        # from the outer block, with no pass over the inner ops.
        config = ProtocolConfig(k, 0.3, splitter(0.7), True)
        want = counterfactuality_report(config, "A")
        monkeypatch.setattr("cfcomm.histories.apply_blocks", lambda *args: pytest.fail("ran a path-count pass"))
        assert repr(counterfactuality_report(config, "A")) == repr(want)
        assert want.c_visiting_paths == 0 and want.c_visiting_amplitude == 0 and want.verdict is True
        with pytest.raises(pytest.fail.Exception, match="ran a path-count pass"):
            counterfactuality_report(config, "B")

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            counterfactuality_report(ProtocolConfig(2, 0.1, PASS), "Q")

    def test_cycle_bound(self):
        # Past the enumeration bound up to MAX_CYCLES, and no further.
        for k in (13, 4096):
            config = ProtocolConfig(k, 0.1, splitter(0.4), True)
            state, _ = run(config)
            for label in ("A", "B", "C", f"L{k}"):
                assert counterfactuality_report(config, label).total_amplitude == state.amplitude(label)
        with pytest.raises(ValueError) as err:
            counterfactuality_report(ProtocolConfig(4097, 0.1, PASS), "B")
        assert str(err.value) == cycle_bound_message(4097)


class TestPathStructure:
    def test_pass_path_count_bound(self):
        previous = 0
        for k in range(1, 9):
            histories = enumerate_histories(ProtocolConfig(k, 0.1, PASS))
            surviving = [h for h in histories if h.path[-1] in ("A", "B", "C")]
            assert len(surviving) <= 1 + 2**k
            assert len(surviving) >= previous
            previous = len(surviving)


REPORT_ACTIONS = [BLOCK, PASS] + [splitter(beta) for beta in (0.0, 1e-9, 0.7, math.pi / 2)]


@st.composite
def report_cases(draw):
    k = draw(st.one_of(st.integers(1, 64), st.sampled_from([255, 1000, 4096])))
    config = ProtocolConfig(k, draw(st.sampled_from([0.0, 0.3, 1.5])), draw(st.sampled_from(REPORT_ACTIONS)),
                            draw(st.booleans()))
    labels = config.mode_basis().labels if k <= 12 else ("A", "B", "C", "L1", f"L{k}")
    return config, draw(st.sampled_from(labels))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(report_cases())
@example((ProtocolConfig(4096, 0.3, splitter(0.7), True), "B"))
@example((ProtocolConfig(4096, 1.5, BLOCK, True), "L4096"))
@example((ProtocolConfig(1000, 0.0, splitter(1e-9), False), "C"))
@example((ProtocolConfig(12, 0.0, splitter(math.pi / 2), True), "L12"))
@example((ProtocolConfig(1, 0.0, splitter(0.0), False), "B"))
@example((ProtocolConfig(1, 0.3, BLOCK, False), "B"))  # cos(theta) is exactly 0 at K = 1
@example((ProtocolConfig(1, 0.3, splitter(0.7), True), "B"))
@example((ProtocolConfig(5, 0.0, PASS, False), "A"))  # cos(phi) is exactly 0
@example((ProtocolConfig(5, 1e-17, BLOCK, True), "A"))  # pi/2 - 1e-17 rounds to pi/2
@example((ProtocolConfig(7, 1.5707963267948963, splitter(0.7), False), "A"))  # the largest delta
# The never-C term (about +0.955) and the C-visiting one cancel to a total of -2.4e-15.
@example((ProtocolConfig(4096, 0.3, PASS, False), "B"))
@example((ProtocolConfig(6, 0.3, splitter(0.0), True), "B"))
@example((ProtocolConfig(6, 0.3, splitter(math.pi / 2), True), "B"))
def test_report_matches_the_four_call_form(case):
    # repr compares every float bit for bit, the sign of a zero included.
    config, outcome = case
    assert repr(counterfactuality_report(config, outcome)) == repr(four_call_report(config, outcome))


@pytest.mark.parametrize("final", [False, True])
@pytest.mark.parametrize(
    "bob", [BLOCK, PASS, splitter(0.7), splitter(1e-9)], ids=["block", "pass", "split-0.7", "split-1e-9"]
)
def test_report_total_is_the_run_amplitude_bit_for_bit(bob, final):
    for k in (1, 2, 3, 5, 17, 64, 512, 4096):
        for delta in (0.0, 0.3, 1.2, 1e-17, 1.5707963267948963):
            config = ProtocolConfig(k, delta, bob, final)
            state = run(config)[0]
            for label in ("A", "B", "C", "L1", f"L{k}"):
                assert repr(counterfactuality_report(config, label).total_amplitude) == repr(state.amplitude(label))
