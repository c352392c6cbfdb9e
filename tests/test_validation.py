"""End-to-end protocol rounds: recovery, knowledge evolution, error rates."""

import numpy as np
import pytest

from mwrelay import (
    SlotIndexer,
    SystemConfig,
    fixed_frame,
    known_set,
    partner_index,
    qpsk_frame,
    run_round_noiseless,
    run_round_noisy,
)
import mwrelay.validation as validation
from mwrelay.channel import STREAM_CHANNEL, draw_small_scale, substream
from mwrelay.exceptions import InvalidConfigError, SingularSystemError
from mwrelay.validation import QPSK, KnowledgeState


def test_qpsk_constellation_unit_energy():
    assert np.allclose(np.abs(QPSK), 1.0)
    frame = qpsk_frame(100, substream(1, 0, 0))
    assert np.allclose(np.abs(frame.symbols), 1.0)
    assert frame.constellation == "QPSK"
    fixed = fixed_frame(6)
    assert fixed.constellation == "unit-test-fixed"
    assert np.array_equal(fixed.symbols, QPSK[np.arange(6) % 4])


def test_noiseless_recovery_small():
    config = SystemConfig(M=32, K=5, p_u=1.0, p_r=10.0)
    outcome = run_round_noiseless(config, np.ones(5), seed=0)
    assert outcome.max_deviation <= 1e-9
    assert outcome.slots_used == 3
    assert np.allclose(outcome.recovered, outcome.true_symbols[None, :], atol=1e-9)


def test_noiseless_two_users_skip_zf():
    config = SystemConfig(M=8, K=2, p_u=1.0, p_r=10.0)
    outcome = run_round_noiseless(config, np.ones(2), seed=1)
    assert outcome.slots_used == 2
    assert outcome.max_deviation <= 1e-12
    # One cancelation slot finishes the exchange; no residual snapshot follows.
    assert len(outcome.knowledge_history) == 2
    assert outcome.knowledge_history[-1] == (frozenset({1, 2}), frozenset({1, 2}))


def test_knowledge_matches_schedule_k7():
    config = SystemConfig(M=32, K=7, p_u=1.0, p_r=10.0)
    outcome = run_round_noiseless(config, np.ones(7), seed=3)
    idx = SlotIndexer(7)
    for t in range(idx.sic_slots + 1):
        for k in range(1, 8):
            assert outcome.knowledge_history[t][k - 1] == frozenset(known_set(k, t, 7))
    assert all(s == frozenset(range(1, 8)) for s in outcome.knowledge_history[-1])


def test_knowledge_only_grows():
    config = SystemConfig(M=32, K=9, p_u=1.0, p_r=10.0)
    outcome = run_round_noiseless(config, np.ones(9), seed=5)
    for earlier, later in zip(outcome.knowledge_history, outcome.knowledge_history[1:]):
        for a, b in zip(earlier, later):
            assert a <= b


def test_residual_unknown_count():
    for K in range(3, 11):
        idx = SlotIndexer(K)
        assert idx.n_unknowns == K - idx.sic_slots - 1
        assert idx.sic_slots >= idx.n_unknowns


def test_noiseless_uses_fixed_frame():
    config = SystemConfig(M=16, K=4, p_u=1.0, p_r=10.0)
    frame = fixed_frame(4)
    outcome = run_round_noiseless(config, np.ones(4), seed=2, frame=frame)
    assert np.array_equal(outcome.true_symbols, frame.symbols)
    assert outcome.max_deviation <= 1e-10


def test_slot_estimates_carry_interference():
    # Pre-decision slot estimates are interference-limited, unlike the
    # zero-forcing output; they should be visibly off the true symbols.
    config = SystemConfig(M=24, K=8, p_u=1.0, p_r=10.0)
    outcome = run_round_noiseless(config, np.ones(8), seed=6)
    idx = SlotIndexer(8)
    targets = np.array([
        [outcome.true_symbols[idx.partner(k, t) - 1] for t in range(1, idx.sic_slots + 1)]
        for k in range(1, 9)
    ])
    assert np.max(np.abs(outcome.slot_estimates - targets)) > 1e-3


def test_slot_estimates_match_remaining_interference():
    # Reference loop that never cancels: what is left in slot t is the target
    # plus every symbol user k does not hold yet, each on its slot-t beam.
    K = 7
    config = SystemConfig(M=12, K=K, p_u=1.0, p_r=3.0)
    outcome = run_round_noiseless(config, np.ones(K), seed=2)
    assert outcome.attempts == 1
    G = draw_small_scale(12, K, substream(2, STREAM_CHANNEL, 0))
    cross = G.conj().T @ G
    x = outcome.true_symbols
    for k in range(1, K + 1):
        for t in range(1, SlotIndexer(K).sic_slots + 1):
            held = known_set(k, t - 1, K)
            left = sum(cross[k - 1, partner_index(v, -t, K) - 1] * x[v - 1]
                       for v in range(1, K + 1) if v not in held)
            expected = left / cross[k - 1, k - 1].real
            assert abs(outcome.slot_estimates[k - 1, t - 1] - expected) < 1e-12


def test_noisy_high_power_error_free():
    config = SystemConfig(M=64, K=5, p_u=1.0, p_r=10.0)
    ser = run_round_noisy(config, np.ones(5), trials=200, seed=7, p_r=1e7)
    assert ser.shape == (5, 4)
    assert ser.mean() < 0.02


def test_noisy_unused_channel_guesses():
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0)
    ser = run_round_noisy(config, np.ones(5), trials=400, seed=8, p_r=0.0)
    assert abs(ser.mean() - 0.75) < 0.05


def test_noisy_monotone_in_relay_power():
    config = SystemConfig(M=32, K=5, p_u=1.0, p_r=1.0)
    levels = [run_round_noisy(config, np.ones(5), trials=300, seed=9, p_r=p).mean()
              for p in (0.1, 1.0, 100.0)]
    assert levels[0] >= levels[1] >= levels[2]


def test_noisy_more_antennas_helps():
    beta = np.ones(5)
    small = run_round_noisy(SystemConfig(M=8, K=5, p_u=1.0, p_r=2.0), beta, trials=1000, seed=10)
    big = run_round_noisy(SystemConfig(M=16, K=5, p_u=1.0, p_r=2.0), beta, trials=1000, seed=10)
    assert big.mean() <= small.mean()


def test_noisy_rejects_negative_power():
    config = SystemConfig(M=8, K=3, p_u=1.0, p_r=1.0)
    with pytest.raises(ValueError):
        run_round_noisy(config, np.ones(3), trials=5, seed=1, p_r=-0.5)


def test_noisy_rejects_zero_trials():
    config = SystemConfig(M=8, K=3, p_u=1.0, p_r=1.0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_round_noisy(config, np.ones(3), trials=0, seed=1)


def test_knowledge_state_api():
    state = KnowledgeState(3)
    assert state.decoded(1) == frozenset({1})
    state.learn(1, 3)
    assert state.decoded(1) == frozenset({1, 3})
    snap = state.snapshot()
    state.learn(2, 1)
    assert snap[1] == frozenset({2})


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
@pytest.mark.parametrize("run", [
    lambda config, beta: run_round_noiseless(config, beta, seed=1),
    lambda config, beta: run_round_noisy(config, beta, trials=50, seed=1),
], ids=["noiseless", "noisy"])
def test_rounds_reject_bad_gains(run, bad):
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0)
    with pytest.raises(InvalidConfigError):
        run(config, np.array([1.0, 1.0, bad, 1.0, 1.0]))


def test_singular_policy_noiseless_resamples_noisy_propagates(monkeypatch):
    real = validation.build_zf_stage
    calls = []

    def first_call_singular(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise SingularSystemError("forced")
        return real(*args, **kwargs)

    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0)
    monkeypatch.setattr(validation, "build_zf_stage", first_call_singular)
    outcome = run_round_noiseless(config, np.ones(5), seed=4)
    assert outcome.attempts == 2
    assert outcome.max_deviation <= 1e-9

    calls.clear()
    with pytest.raises(SingularSystemError, match="forced"):
        run_round_noisy(config, np.ones(5), trials=3, seed=4)


def test_noisy_error_counts_reproducible():
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=2.0)
    counts = run_round_noisy(config, np.ones(5), 40, seed=3) * 40
    expected = [[4, 3, 26, 22], [8, 2, 21, 23], [5, 2, 16, 22], [3, 0, 20, 14], [4, 5, 15, 19]]
    assert np.array_equal(counts, expected)
