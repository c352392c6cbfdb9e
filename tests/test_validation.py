"""End-to-end protocol rounds: recovery, knowledge evolution, error rates."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mwrelay import (
    SlotIndexer,
    SystemConfig,
    build_zf_stage,
    known_set,
    partner_index,
    qpsk_frame,
    relay_precode,
    run_round_noiseless,
    run_round_noisy,
)
import mwrelay.channel as channel
import mwrelay.rates as rates
import mwrelay.validation as validation
from mwrelay.channel import (_INV_SQRT2, STREAM_CHANNEL, STREAM_ROUND, draw_gram_factor,
                             draw_small_scale, substream)
from mwrelay.exceptions import InvalidConfigError, SingularSystemError
from mwrelay.validation import QPSK
from oracles import compose_channel


def round_draws(M, K, beta, trials, seed):
    """Yield (G, frame, noise) of rounds 0..trials-1 as the rounds draw them.

    Block b of B rounds draws from (seed, STREAM_ROUND, b) its B Bartlett
    factors R, then its (B, K) frames, then its (B, K, sic_slots) noise.
    The channel G = [R; 0] diag(sqrt(beta)) (M >= K), or R diag(sqrt(beta))
    (M < K), has exactly the round's Gram, so the physical chain run on it
    is the round.
    """
    B = validation._block_rounds(M, K)
    T = SlotIndexer(K).sic_slots
    for b, start in enumerate(range(0, trials, B)):
        rng = substream(seed, STREAM_ROUND, b)
        R = draw_gram_factor(M, K, rng, B)
        x = qpsk_frame(B * K, rng).reshape(B, K)
        noise = rng.standard_normal((B, K, 2 * T)).view(complex) * _INV_SQRT2
        for r in range(min(B, trials - start)):
            H = np.zeros((M, K), dtype=complex)
            H[:R.shape[1]] = R[r]
            yield compose_channel(H, beta), x[r], noise[r]


def physical_draws(M, K, beta, trials, seed):
    """Yield (G, frame, noise) of rounds whose M x K channels are drawn entry by entry.

    Round r draws from (seed, STREAM_CHANNEL, r) its channel, its frame and
    its (K, sic_slots) noise: the same law as the rounds, another stream.
    """
    T = SlotIndexer(K).sic_slots
    for trial in range(trials):
        rng = substream(seed, STREAM_CHANNEL, trial)
        G = compose_channel(draw_small_scale(M, K, rng), beta)
        yield G, qpsk_frame(K, rng), draw_small_scale(K, T, rng)


def test_qpsk_constellation_unit_energy():
    assert np.allclose(np.abs(QPSK), 1.0)
    frame = qpsk_frame(100, substream(1, 0, 0))
    assert frame.shape == (100,) and frame.dtype == complex
    assert np.allclose(np.abs(frame), 1.0)


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
    G, _, _ = next(round_draws(12, K, np.ones(K), 1, 2))
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
    config = SystemConfig(M=64, K=5, p_u=1.0, p_r=1e7)
    ser = run_round_noisy(config, np.ones(5), trials=200, seed=7)
    assert ser.shape == (5, 4)
    assert ser.mean() < 0.02


def test_noisy_unused_channel_guesses():
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=1e-12)
    ser = run_round_noisy(config, np.ones(5), trials=400, seed=8)
    assert abs(ser.mean() - 0.75) < 0.05


def test_noisy_monotone_in_relay_power():
    levels = [run_round_noisy(SystemConfig(M=32, K=5, p_u=1.0, p_r=p), np.ones(5), trials=300,
                              seed=9).mean()
              for p in (0.1, 1.0, 100.0)]
    assert levels[0] >= levels[1] >= levels[2]


def test_noisy_more_antennas_helps():
    beta = np.ones(5)
    small = run_round_noisy(SystemConfig(M=8, K=5, p_u=1.0, p_r=2.0), beta, trials=1000, seed=10)
    big = run_round_noisy(SystemConfig(M=16, K=5, p_u=1.0, p_r=2.0), beta, trials=1000, seed=10)
    assert big.mean() <= small.mean()


def test_noisy_rejects_zero_trials():
    config = SystemConfig(M=8, K=3, p_u=1.0, p_r=1.0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_round_noisy(config, np.ones(3), trials=0, seed=1)


@pytest.mark.parametrize("trials", [-3, True, False, 2.5, 3.0, "3", None, np.float64(4.0)],
                         ids=["negative", "true", "false", "fraction", "integral-float", "str",
                              "none", "numpy-float"])
def test_noisy_rejects_non_integer_trials(trials):
    # True used to run one round, 2.5 and "3" raised raw TypeErrors.
    config = SystemConfig(M=8, K=3, p_u=1.0, p_r=1.0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_round_noisy(config, np.ones(3), trials=trials, seed=1)


def test_noisy_takes_numpy_integer_trials():
    config = SystemConfig(M=8, K=3, p_u=1.0, p_r=1.0)
    assert np.array_equal(run_round_noisy(config, np.ones(3), trials=np.int32(7), seed=1),
                          run_round_noisy(config, np.ones(3), trials=7, seed=1))


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("run", [
    lambda config, beta: run_round_noiseless(config, beta, seed=1),
    lambda config, beta: run_round_noisy(config, beta, trials=50, seed=1),
], ids=["noiseless", "noisy"])
def test_rounds_reject_bad_gains(run, bad):
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0)
    with pytest.raises(InvalidConfigError):
        run(config, np.array([1.0, 1.0, bad, 1.0, 1.0]))


def test_singular_policy_both_rounds_propagate(monkeypatch):
    # The block decoder factors every residual Gram through rates._factor_gram;
    # a singular Gram raises at once and no round draws another block.
    draws = []
    real_draw = validation.draw_gram_block

    def counting_draw(M, K, seed, stream, block, n):
        draws.append((M, K, n))
        return real_draw(M, K, seed, stream, block, n)

    def no_channel(*args):
        raise AssertionError("a round drew an M x K channel")

    def singular(gram):
        raise SingularSystemError("forced")

    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0)
    B = validation._block_rounds(16, 5)
    monkeypatch.setattr(validation, "draw_gram_block", counting_draw)
    monkeypatch.setattr(channel, "draw_small_scale", no_channel)
    monkeypatch.setattr(rates, "_factor_gram", singular)
    assert not hasattr(validation, "draw_small_scale")
    with pytest.raises(SingularSystemError, match="forced"):
        run_round_noiseless(config, np.ones(5), seed=4)
    # Round 0's block of Grams: exactly one draw, and no channel.
    assert draws == [(16, 5, B)]
    with pytest.raises(SingularSystemError, match="forced"):
        run_round_noisy(config, np.ones(5), trials=3, seed=4)
    assert draws == [(16, 5, B)] * 2


def test_subnormal_residual_grams_raise():
    # At a subnormal relay power the residual Grams' pivots are subnormal:
    # their solve returns NaN, which would read as a correct decision.
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=1e-320)
    with pytest.raises(SingularSystemError):
        run_round_noisy(config, np.ones(10), 200, 3)
    with pytest.raises(SingularSystemError):
        run_round_noiseless(config, np.ones(10), 3)


@pytest.mark.parametrize("seed", [1, 3, 11])
@pytest.mark.parametrize("K", [2, 5, 8])
def test_noiseless_frame_follows_round_zero_channel(K, seed):
    # The noiseless round draws its block's factors, then its frames, from
    # (seed, STREAM_ROUND, 0), as round 0 of run_round_noisy does.
    B = validation._block_rounds(12, K)
    rng = substream(seed, STREAM_ROUND, 0)
    draw_gram_factor(12, K, rng, B)
    outcome = run_round_noiseless(SystemConfig(M=12, K=K, p_u=1.0, p_r=3.0), np.ones(K), seed)
    assert np.array_equal(outcome.true_symbols, qpsk_frame(B * K, rng)[:K])


def test_noisy_error_counts_reproducible():
    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=2.0)
    counts = run_round_noisy(config, np.ones(5), 40, seed=3) * 40
    expected = [[1, 0, 19, 22], [4, 3, 15, 16], [4, 2, 21, 16], [5, 2, 20, 21], [1, 1, 19, 20]]
    assert np.array_equal(counts, expected)


def test_noisy_error_counts_at_benchmark_shape():
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
    counts = run_round_noisy(config, np.ones(10), 20, seed=3) * 20
    expected = [[0, 0, 0, 0, 0, 4, 5, 5, 4], [0, 0, 0, 0, 0, 1, 3, 1, 4],
                [0, 0, 0, 0, 0, 3, 1, 3, 5], [0, 0, 0, 0, 0, 4, 4, 5, 5],
                [0, 0, 0, 0, 0, 4, 5, 4, 2], [0, 0, 0, 0, 0, 3, 1, 3, 4],
                [0, 0, 0, 0, 0, 5, 3, 2, 3], [0, 0, 0, 0, 0, 1, 1, 3, 2],
                [0, 0, 0, 0, 0, 6, 3, 1, 3], [0, 0, 0, 0, 0, 6, 2, 2, 5]]
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("K", range(2, 13))
def test_read_plan_matches_beam_table(K):
    # The plan is built from the order table and two offset rules; the
    # beam table is its oracle, so a drift in either rule fails here.
    plan = validation._read_plan(K)
    order, cancel, mixing = plan
    idx = SlotIndexer(K)
    T = idx.sic_slots
    rows = K * np.arange(K)[:, None, None]
    assert np.array_equal(cancel, rows + idx.beams[:, :T, :T + 1])
    assert np.array_equal(mixing, rows + idx.beams[:, :T, T + 1:])
    # Targets, held and sent symbols are the column slices 1..T, 0..T and 1..K-1 of order.
    assert np.array_equal(order, idx.order)
    assert validation._read_plan(K) is plan
    for table in plan:
        assert not table.flags.writeable


def test_rounds_do_not_read_beam_table(monkeypatch):
    def no_beams(self):
        raise AssertionError("the rounds read SlotIndexer.beams")

    config = SystemConfig(M=16, K=5, p_u=1.0, p_r=2.0)
    expected = run_round_noisy(config, np.ones(5), 9, seed=3)
    monkeypatch.setattr(SlotIndexer, "beams", property(no_beams))
    validation._read_plan.cache_clear()
    assert np.array_equal(run_round_noisy(config, np.ones(5), 9, seed=3), expected)
    run_round_noiseless(config, np.ones(5), seed=3)


@pytest.mark.parametrize("K", [2, 10])
def test_rounds_reject_overflowing_grams(K):
    # p_r / (M sum(beta)) overflows, so every scaled Gram entry is inf or NaN;
    # a NaN estimate would read as a correct decision.
    config = SystemConfig(M=100, K=K, p_u=1.0, p_r=1e308)
    beta = np.full(K, 1e-10)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            run_round_noisy(config, beta, 5, seed=1)
        with pytest.raises(ValueError, match="non-finite"):
            run_round_noiseless(config, beta, seed=1)


@pytest.mark.parametrize("K", [2, 5, 10])
def test_round_forms_one_gram_and_one_solve(K, monkeypatch):
    # Each block forms the Grams of its B rounds in one product of their
    # factors, and is factored and solved by one call each over its
    # (B, K, n, n) stack. No inverse is formed, nothing precodes a broadcast,
    # and nothing forms per-user Gram rows from a channel again.
    M = 16
    B = validation._block_rounds(M, K)
    trials = 2 * B + 1
    calls = {name: [] for name in ("gram", "factor", "solve", "inv", "precode", "products")}

    def counting(name, real):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return wrapper

    real_block = validation.draw_gram_block

    def counted_block(*args):
        grams, rng = real_block(*args)
        calls["gram"].append(grams.shape)
        return grams, rng

    monkeypatch.setattr(validation, "draw_gram_block", counted_block)
    monkeypatch.setattr(rates, "_factor_gram", counting("factor", rates._factor_gram))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(rates, "relay_precode", counting("precode", rates.relay_precode))
    monkeypatch.setattr(rates, "_column_products", counting("products", rates._column_products))
    run_round_noisy(SystemConfig(M=M, K=K, p_u=1.0, p_r=2.0), np.ones(K), trials=trials, seed=3)
    n = SlotIndexer(K).n_unknowns
    stacks = [(B, K, n, n), (B, K, n, n), (1, K, n, n)]
    assert calls["gram"] == [(B, K, K)] * 3
    assert calls["factor"] == stacks
    assert calls["solve"] == stacks
    assert calls["inv"] == calls["precode"] == calls["products"] == []


@pytest.mark.parametrize("K", [2, 5, 10])
def test_received_tables_from_gram_match_precoded_broadcast(K):
    # G^H (sqrt(c) G X) = sqrt(c) (G^H G) X: the rounds form received tables
    # from their Grams instead of precoding each broadcast.
    M, p_r = 3 * K, 4.0
    rng = np.random.default_rng(K)
    beta = rng.uniform(0.05, 20.0, K)
    G = compose_channel(draw_small_scale(M, K, rng), beta)
    X = qpsk_frame(K * 6, rng).reshape(K, 6)
    scale = math.sqrt(p_r / (M * beta.sum()))
    expected = G.conj().T @ relay_precode(G, beta, p_r, X)
    np.testing.assert_allclose(scale * (G.conj().T @ G) @ X, expected,
                               rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
@pytest.mark.parametrize("K", range(2, 13))
def test_noiseless_solve_matches_dense_combiner(K, spread):
    # The rounds solve each residual system with one checked solve; the dense
    # oracle's combiner on the physically precoded broadcast gives the same
    # unknowns. The canceled terms grow with the gain spread, and so do the
    # digits their subtraction loses.
    beta = np.logspace(-1.5, 1.5, K) if spread else np.ones(K)
    tolerance = 1e-12 * beta.max() / beta.min()
    idx = SlotIndexer(K)
    T, users = idx.sic_slots, np.arange(K)
    for M in sorted({K + 1, 3 * K, 100}):
        config = SystemConfig(M=M, K=K, p_u=1.0, p_r=3.0)
        outcome = run_round_noiseless(config, beta, seed=K)
        G, _, _ = next(round_draws(M, K, beta, 1, K))
        x = outcome.true_symbols
        scale = math.sqrt(config.p_r / (M * beta.sum()))
        cross = G.conj().T @ G
        received = G.conj().T @ relay_precode(G, beta, config.p_r, x[idx.order[:, 1:T + 1]])
        held = cross[users[:, None, None], idx.beams[:, :T, :T + 1]] * x[idx.order[:, None, :T + 1]]
        residual = received - scale * held.sum(axis=-1)
        combiner = build_zf_stage(G, users + 1).combiner()
        expected = np.einsum("knm,km->kn", combiner, residual) / scale
        recovered = outcome.recovered[users[:, None], idx.order[:, T + 1:]]
        np.testing.assert_allclose(recovered, expected, rtol=0, atol=tolerance)


def reference_error_counts(config, beta, draws):
    """(K, K-1) wrong-decision counts from a per-round decode of the physical chain.

    ``draws`` yields each round's (G, frame, noise). Each round precodes its
    frame with ``relay_precode``, builds every user's zero-forcing stage with
    ``build_zf_stage`` on its channel G, and decides by an argmin over the
    distances to all four scaled points.
    """
    M, K, p_r = config.M, config.K, config.p_r
    idx = SlotIndexer(K)
    T = idx.sic_slots
    scale = math.sqrt(p_r / (M * float(np.sum(beta))))
    users = np.arange(K)[:, None, None]
    slots = np.arange(T)
    counts = np.zeros((K, K - 1), dtype=int)
    for G, x, noise in draws:
        stage = build_zf_stage(G, np.arange(1, K + 1))
        cross = G.conj().T @ G
        received = G.conj().T @ relay_precode(G, beta, p_r, x[idx.order[:, 1:T + 1]])
        received += noise
        held = scale * cross[users, idx.beams[:, :T, :T + 1]] * x[idx.order[:, None, :T + 1]]
        canceled = np.cumsum(held, axis=2)
        slot = (received - canceled[:, slots, slots]) / np.diag(cross).real[:, None]
        zf = np.einsum("knm,km->kn", stage.combiner(), received - canceled[:, :, T])
        distances = np.abs(np.hstack([slot, zf])[..., None] - scale * QPSK)
        counts += QPSK[np.argmin(distances, axis=-1)] != x[idx.order[:, 1:]]
    return counts


@pytest.mark.parametrize("p_r", [2.0, 1e-12])
@pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
@pytest.mark.parametrize("K, M", [(2, 8), (3, 12), (5, 16), (10, 100)])
def test_block_decoder_matches_per_round_reference(K, M, spread, p_r):
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=p_r)
    beta = np.logspace(-1.5, 1.5, K) if spread else np.ones(K)
    B = validation._block_rounds(M, K)
    assert B > 1
    for trials in (B - 1, B, B + 1, 2 * B + 1, 1):
        counts = reference_error_counts(config, beta, round_draws(M, K, beta, trials, 5))
        assert np.array_equal(run_round_noisy(config, beta, trials, 5), counts / trials)


@pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
@pytest.mark.parametrize("K, M, p_r", [(3, 6, 2.0), (5, 12, 4.0), (10, 30, 20.0)])
def test_noisy_error_rates_match_physical_channels(K, M, p_r, spread):
    # The rounds sample their Grams through the Bartlett factor; the physical
    # chain on channels drawn entry by entry has the same error rates. The
    # two sides use different streams, so each cell agrees within 5 binomial
    # standard deviations of the difference of two independent rates.
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=p_r)
    beta = np.logspace(-1.5, 1.5, K) if spread else np.ones(K)
    seeds, trials = range(20), 100
    rounds = len(seeds) * trials
    counts = sum(run_round_noisy(config, beta, trials, seed) * trials for seed in seeds)
    reference = sum(reference_error_counts(config, beta, physical_draws(M, K, beta, trials, seed))
                    for seed in seeds)
    pooled = (counts + reference) / (2 * rounds)
    tolerance = 5.0 * np.sqrt(2.0 * pooled * (1.0 - pooled) / rounds)
    assert 0.02 < pooled.mean() < 0.5
    assert np.all(np.abs(counts - reference) / rounds <= tolerance)


@pytest.mark.parametrize("K, M", [(5, 16), (10, 100)])
def test_round_draws_do_not_depend_on_trials(K, M):
    # A block is drawn whole and then sliced, so round r's Gram, frame and
    # noise depend only on (seed, M, K, r). Each Gram carries the broadcast
    # scale sqrt(c).
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=2.0)
    beta = np.logspace(-1.5, 1.5, K)
    scale = math.sqrt(config.p_r / (M * beta.sum()))
    B = validation._block_rounds(M, K)
    rounds = {}
    for trials in (B - 1, B, 2 * B + 1):
        rounds[trials] = [tuple(a[r].copy() for a in block)
                          for block in validation._round_blocks(config, beta, trials, 7)
                          for r in range(len(block[0]))]
        assert len(rounds[trials]) == trials
    for r, (cross, noise, x) in enumerate(rounds[2 * B + 1]):
        for trials in (B - 1, B):
            if r < trials:
                assert all(np.array_equal(a, b) for a, b in zip(rounds[trials][r], (cross, noise, x)))
        G, frame, expected_noise = next(itertools.islice(round_draws(M, K, beta, r + 1, 7), r, None))
        np.testing.assert_allclose(cross, scale * (G.conj().T @ G), rtol=1e-12,
                                   atol=1e-12 * scale * beta.max())
        assert np.array_equal(x, frame) and np.array_equal(noise, expected_noise)


@pytest.mark.parametrize("K, M", [(2, 3), (5, 16), (10, 100)])
def test_round_grams_are_scaled_gram_blocks(K, M):
    # Round r's Gram is entry r % B of block r // B from the one block
    # sampler, times sqrt(c) sqrt(beta_i) sqrt(beta_j), bit for bit; the
    # round count ends in the middle of the last block.
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=2.0)
    beta = np.logspace(-1.5, 1.5, K)
    amplitude = np.sqrt(beta)
    scaling = math.sqrt(rates._broadcast_scale(beta, config.p_r, M)) * amplitude[:, None] * amplitude
    B = validation._block_rounds(M, K)
    trials = 2 * B + max(1, B // 2)
    grams = np.concatenate([block[0] for block in validation._round_blocks(config, beta, trials, 7)])
    assert len(grams) == trials and trials % B
    for r, gram in enumerate(grams):
        expected = scaling * channel.draw_gram_block(M, K, 7, STREAM_ROUND, r // B, B)[0][r % B]
        assert np.array_equal(gram, expected)


@pytest.mark.parametrize("K, M", [(5, 16), (10, 100)])
def test_round_blocks_do_not_alias(K, M):
    # A caller may keep a block while the next one is drawn: each block's
    # Grams, noise and frames are arrays of its own.
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=2.0)
    B = validation._block_rounds(M, K)
    held, copies = [], []
    for block in validation._round_blocks(config, np.ones(K), 2 * B + 1, 7):
        held.append(block)
        copies.append(tuple(a.copy() for a in block))
    assert len(held) == 3
    for block, copy in zip(held, copies):
        assert all(np.array_equal(a, b) for a, b in zip(block, copy))


def test_noisy_peak_memory_flat_in_trials():
    # Rounds keep only their Gram and noise, so the peak is set by one block
    # and does not grow with the number of rounds.
    M, K = 100, 10
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0)
    run_round_noisy(config, np.ones(K), 5, 1)
    peaks = []
    for trials in (300, 3000):
        tracemalloc.start()
        try:
            run_round_noisy(config, np.ones(K), trials, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(peaks) <= 6 * 16 * M * K
