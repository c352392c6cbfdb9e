"""Monte Carlo estimators: determinism, kernel fidelity, sum-SE assembly."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrelay import (
    BoundReport,
    GeometryModel,
    LinkEstimate,
    SystemConfig,
    build_zf_stage,
    cdf_experiment,
    estimate_link_se,
    sum_se,
    sum_se_once,
)
from mwrelay.channel import (
    STREAM_GRAM,
    draw_gram_factor,
    draw_small_scale,
    substream,
)
from mwrelay import montecarlo
from mwrelay.exceptions import InvalidConfigError, SingularSystemError
from mwrelay.montecarlo import (
    GRAM_BLOCK,
    _offset_table,
    _rate_blocks,
    _zf_noise_gains,
)
from mwrelay.rates import check_pivots
from mwrelay.schedule import SCHEMES as SCHEDULE_SCHEMES
from mwrelay.schedule import SlotIndexer, compose_sum_se
from oracles import (
    compose_channel,
    conventional_dl_sinr,
    instantaneous_se,
    proposed_dl_sinr,
    uplink_bound,
    uplink_sinr,
    zf_sinr,
)

CONFIG = SystemConfig(M=24, K=5, p_u=1.0, p_r=10.0)
BETA = np.array([0.5, 1.0, 2.0, 0.8, 1.3])


def link_estimate(uplink, downlink, stderr, trials):
    """LinkEstimate with the given means and one standard error everywhere."""
    return LinkEstimate(uplink, np.full(uplink.shape, stderr),
                        downlink, np.full(downlink.shape, stderr), trials)


def bartlett_channel(M, K, seed, trial):
    """Trial's Bartlett factor from its Gram block, zero-padded to an M x K channel.

    It has the Gram the Monte Carlo path scores for that trial, and M rows,
    so the scalar operations read the right broadcast scale from it.
    """
    block, pos = divmod(trial, GRAM_BLOCK)
    R = draw_gram_factor(M, K, substream(seed, STREAM_GRAM, block), GRAM_BLOCK)[pos]
    return np.vstack([R, np.zeros((M - R.shape[0], K))])


def scalar_rate_tables(config, beta, scheme, trials, seed):
    """Reference path: per-trial rates through the scalar operations."""
    K = config.K
    idx = SlotIndexer(K)
    ul = np.empty((trials, K))
    dl = np.empty((trials, K, K - 1))
    for trial in range(trials):
        G = compose_channel(bartlett_channel(config.M, K, seed, trial), beta)
        for k in range(1, K + 1):
            ul[trial, k - 1] = math.log2(1 + uplink_sinr(G, config.p_u, k))
            if scheme == "conventional":
                for t in range(1, K):
                    dl[trial, k - 1, t - 1] = math.log2(
                        1 + conventional_dl_sinr(G, beta, config.p_r, k, t)
                    )
            else:
                for t in range(1, idx.sic_slots + 1):
                    dl[trial, k - 1, t - 1] = math.log2(
                        1 + proposed_dl_sinr(G, beta, config.p_r, k, t)
                    )
                stage = build_zf_stage(G, k)
                for n in range(1, idx.n_unknowns + 1):
                    dl[trial, k - 1, idx.sic_slots + n - 1] = math.log2(
                        1 + zf_sinr(stage, beta, config.p_r, config.M, n)
                    )
    return ul, dl


@pytest.mark.parametrize("scheme", ["conventional", "proposed"])
def test_kernel_matches_scalar_operations(scheme):
    # The offset arithmetic of every slot, end to end, at small, even and odd K.
    trials = 6
    for K in (2, 3, 4, 5, 10, 11):
        config = SystemConfig(M=24, K=K, p_u=1.0, p_r=10.0)
        beta = np.resize(BETA, K)
        estimate = estimate_link_se(config, beta, (scheme,), trials, seed=99)[scheme]
        ul_ref, dl_ref = scalar_rate_tables(config, beta, scheme, trials, seed=99)
        assert np.allclose(estimate.uplink, ul_ref.mean(axis=0), rtol=1e-10), K
        assert np.allclose(estimate.downlink, dl_ref.mean(axis=0), rtol=1e-10), K


@settings(max_examples=200, deadline=None)
@given(K=st.integers(2, 6), extra=st.sampled_from([0, 1, 20]),
       log_beta=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
       power=st.sampled_from([1.0, 1e8]), seed=st.integers(0, 2**32 - 1))
def test_interference_slots_match_oracle_under_wide_spreads(K, extra, log_beta, power, seed):
    # Per trial, the kernel's uplink, conventional-slot and cancelation-slot
    # SE equal the scalar oracle under gains spread over 8 decades, huge
    # powers and M close to K. The zero-forcing cells are stubbed out: their
    # agreement depends on conditioning, which the ZF tests above cover.
    M, beta, idx = K + extra, 10.0 ** np.array(log_beta[:K]), SlotIndexer(K)
    config = SystemConfig(M=M, K=K, p_u=power, p_r=power)
    H = draw_small_scale(M, K, np.random.default_rng(seed))
    cross = _offset_table((H.conj().T @ H)[None])
    blocks = slot_table(config, cross, beta[None], ("conventional",))
    uplink, conv = blocks["uplink"][0, :, 0], blocks["conventional"][0, ..., 0]
    with mock.patch.object(montecarlo, "_zf_noise_gains", lambda cross_re, cross_im, betas:
                           np.ones((len(betas), cross_re.shape[-1], K, idx.n_unknowns))):
        prop = slot_table(config, cross, beta[None], ("proposed",))["proposed"][0, ..., 0]
    G = H * np.sqrt(beta)
    for k in range(1, K + 1):
        assert uplink[k - 1] == pytest.approx(
            instantaneous_se(uplink_sinr(G, power, k)), rel=1e-10)
        for t in range(1, K):
            assert conv[k - 1, t - 1] == pytest.approx(
                instantaneous_se(conventional_dl_sinr(G, beta, power, k, t)), rel=1e-10)
        for t in range(1, idx.sic_slots + 1):
            assert prop[k - 1, t - 1] == pytest.approx(
                instantaneous_se(proposed_dl_sinr(G, beta, power, k, t)), rel=1e-10)


def test_same_seed_same_estimates():
    a = estimate_link_se(CONFIG, BETA, ("proposed",), 50, seed=4)["proposed"]
    b = estimate_link_se(CONFIG, BETA, ("proposed",), 50, seed=4)["proposed"]
    assert np.array_equal(a.uplink, b.uplink) and np.array_equal(a.uplink_stderr, b.uplink_stderr)


def test_worker_count_invariance(monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "1")
    one = estimate_link_se(CONFIG, BETA, ("proposed",), 300, seed=6)["proposed"]
    monkeypatch.setenv("MWRELAY_THREADS", "8")
    for span_bytes in (1, montecarlo._SPAN_BYTES):  # 1: under one profile's slot table
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", span_bytes)
        eight = estimate_link_se(CONFIG, BETA, ("proposed",), 300, seed=6)["proposed"]
        for field in ("uplink", "uplink_stderr", "downlink", "downlink_stderr"):
            assert np.array_equal(getattr(one, field), getattr(eight, field))


def test_resolve_workers_reads_the_variable(monkeypatch):
    for value, workers in (("3", 3), (" 2 ", 2), ("0", 1), ("-4", 1)):
        monkeypatch.setenv("MWRELAY_THREADS", value)
        assert montecarlo.resolve_workers() == workers
    monkeypatch.setenv("MWRELAY_THREADS", "two")
    with pytest.raises(InvalidConfigError, match="MWRELAY_THREADS must be an integer, got 'two'"):
        montecarlo.resolve_workers()
    with pytest.raises(InvalidConfigError, match="MWRELAY_THREADS"):
        estimate_link_se(CONFIG, BETA, ("proposed",), 5, seed=1)
    with pytest.raises(InvalidConfigError, match="MWRELAY_THREADS"):
        cdf_experiment(CONFIG, GeometryModel(), 2, 5, seed=1)


def scored_grams(monkeypatch, run, trials):
    """The Grams of a run's first ``trials`` trials, in trial order, captured where they are drawn."""
    real = montecarlo.draw_gram_block
    blocks = {}

    def recorded(M, K, seed, stream, block, n):
        assert (stream, n) == (STREAM_GRAM, GRAM_BLOCK)
        blocks[block] = real(M, K, seed, stream, block, n)
        return blocks[block]

    monkeypatch.setattr(montecarlo, "draw_gram_block", recorded)
    run()
    monkeypatch.setattr(montecarlo, "draw_gram_block", real)
    return np.concatenate([blocks[b][0] for b in sorted(blocks)])[:trials]


def test_trial_gram_independent_of_trial_count_workers_and_estimator(monkeypatch):
    # Trial i's Gram is a function of (seed, M, K, i) alone.
    def link(trials, threads):
        monkeypatch.setenv("MWRELAY_THREADS", str(threads))
        return scored_grams(monkeypatch,
                            lambda: estimate_link_se(CONFIG, BETA, ("proposed",), trials, seed=7),
                            trials)

    reference = link(100, 1)
    assert reference.shape == (100, CONFIG.K, CONFIG.K)
    for trials, threads in ((100, 8), (1000, 1), (1000, 8)):
        grams = link(trials, threads)
        assert len(grams) == trials
        assert np.array_equal(grams[:100], reference)
    assert np.array_equal(link(1000, 1), link(1000, 8))
    placement = scored_grams(
        monkeypatch, lambda: cdf_experiment(CONFIG, GeometryModel(), 2, 1000, seed=7), 1000)
    assert np.array_equal(placement, link(1000, 8))


def test_single_trial_flagged():
    one = estimate_link_se(CONFIG, BETA, ("proposed",), 1, seed=2)["proposed"]
    assert one.trials == 1 and np.all(one.uplink_stderr == 0.0)
    many = estimate_link_se(CONFIG, BETA, ("proposed",), 10, seed=2)["proposed"]
    assert many.trials == 10 and np.all(many.uplink_stderr > 0)


def test_uplink_respects_jensen_bound():
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
    estimate = estimate_link_se(config, np.ones(10), ("proposed",), 3000, seed=12)["proposed"]
    bound = uplink_bound(np.ones(10), 1.0, 100, 1)
    assert np.all(bound <= estimate.uplink + 2 * estimate.uplink_stderr)


def test_proposed_slot_one_equals_conventional():
    prop = estimate_link_se(CONFIG, BETA, ("proposed",), 40, seed=3)["proposed"]
    conv = estimate_link_se(CONFIG, BETA, ("conventional",), 40, seed=3)["conventional"]
    assert np.array_equal(prop.downlink[:, 0], conv.downlink[:, 0])
    assert np.array_equal(prop.downlink_stderr[:, 0], conv.downlink_stderr[:, 0])


def test_stderr_scales_like_sqrt_trials():
    small = estimate_link_se(CONFIG, BETA, ("proposed",), 2000, seed=8)["proposed"]
    large = estimate_link_se(CONFIG, BETA, ("proposed",), 4000, seed=8)["proposed"]
    for s, l in zip(small.uplink_stderr, large.uplink_stderr):
        ratio = l / s
        assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)


def test_sum_se_min_collapse():
    # When every downlink rate dominates, the sum reduces to the pre-logged
    # uplink total repeated over K-1 slots.
    K = 4
    est = link_estimate(np.full(K, 1.0), np.full((K, K - 1), 5.0), stderr=0.01, trials=100)
    conv = sum_se(est, "conventional")
    assert conv.sum_se == pytest.approx((K - 1) * K * 1.0 / K, rel=1e-12)
    prop = sum_se(est, "proposed")
    assert prop.pre_log == pytest.approx(1 / 3)
    assert prop.sum_se / conv.sum_se == pytest.approx(4 / 3, rel=1e-12)


def test_sum_se_prelog_ratio_k10():
    K = 10
    est = link_estimate(np.full(K, 2.0), np.full((K, K - 1), 1.5), stderr=0.0, trials=10)
    conv = sum_se(est, "conventional")
    prop = sum_se(est, "proposed")
    assert prop.sum_se / conv.sum_se == pytest.approx(10 / 6, rel=1e-12)


def test_sum_se_symmetric_users():
    config = SystemConfig(M=32, K=6, p_u=1.0, p_r=10.0)
    report = sum_se_once(config, np.ones(6), "proposed", 500, seed=21)
    per_user = report.min_rates.sum(axis=1)
    assert np.allclose(per_user, per_user[0], rtol=0.05)
    assert report.sum_se == pytest.approx(report.pre_log * report.min_rates.sum(), rel=1e-12)


def test_sum_se_validates_coverage():
    ul = np.ones(4)
    short = np.ones((4, 2))
    with pytest.raises(ValueError):
        sum_se(link_estimate(ul, short, stderr=0.0, trials=5), "proposed")
    with pytest.raises(ValueError):
        sum_se(link_estimate(ul[:3], short, stderr=0.0, trials=5), "proposed")
    with pytest.raises(ValueError):
        sum_se(link_estimate(ul, np.ones((4, 3)), stderr=0.0, trials=5), "mixed")


def test_schemes_must_be_distinct():
    # A repeated name used to be scored once per repeat and returned once.
    with pytest.raises(ValueError, match="distinct"):
        estimate_link_se(CONFIG, BETA, ("proposed",) * 3, 20, seed=1)
    with pytest.raises(ValueError, match="distinct"):
        cdf_experiment(CONFIG, GeometryModel(), 2, 20, seed=1,
                       schemes=("conventional", "conventional"))
    for bad in ((), "proposed", ("proposed", "hybrid")):
        with pytest.raises(ValueError):
            estimate_link_se(CONFIG, BETA, bad, 20, seed=1)


@pytest.mark.parametrize("K", range(2, 13))
def test_sum_se_entry_points_compose_alike(K):
    # Monte Carlo estimates, closed-form reports and a stack of P profiles all
    # reach the sum SE through schedule.compose_sum_se, so they agree exactly.
    assert montecarlo.SCHEMES is SCHEDULE_SCHEMES
    idx, P = SlotIndexer(K), 6
    rng = np.random.default_rng(K)
    uplink = rng.uniform(0.1, 8.0, (P, K))
    conventional = rng.uniform(0.1, 8.0, (P, K, K - 1))
    cancelation = rng.uniform(0.1, 8.0, (P, K, idx.sic_slots))
    zf = rng.uniform(0.1, 8.0, (P, K, idx.n_unknowns))
    tables = {"conventional": conventional, "proposed": np.concatenate([cancelation, zf], -1)}
    for scheme, slots in (("conventional", K), ("proposed", idx.sic_slots + 1)):
        pre_log, stacked = compose_sum_se(uplink, tables[scheme], scheme)
        assert pre_log == 1.0 / slots and stacked.shape == (P,)
        for p in range(P):
            report = BoundReport(uplink[p], conventional[p], cancelation[p], zf[p])
            estimate = link_estimate(uplink[p], tables[scheme][p], stderr=0.0, trials=5)
            assert np.array_equal(report.downlink(scheme), tables[scheme][p])
            composed = sum_se(estimate, scheme)
            assert composed.pre_log == pre_log
            assert composed.sum_se == report.sum_se(scheme) == stacked[p]
    report = BoundReport(uplink[0], conventional[0], cancelation[0], zf[0])
    estimate = link_estimate(uplink[0], conventional[0], stderr=0.0, trials=5)
    for call in (lambda: compose_sum_se(uplink, conventional, "hybrid"),
                 lambda: sum_se(estimate, "hybrid"),
                 lambda: report.sum_se("hybrid"),
                 lambda: report.downlink("hybrid")):
        with pytest.raises(ValueError, match="unknown scheme"):
            call()


def test_cdf_rejects_anything_but_a_geometry_model():
    # None used to score every profile with unit gains on the same Grams, so
    # each of its samples repeated one sum SE; profiles now always come from
    # a GeometryModel.
    for geometry in (None, "geometry", np.ones(CONFIG.K)):
        with pytest.raises(InvalidConfigError, match="geometry must be a GeometryModel"):
            cdf_experiment(CONFIG, geometry, 7, 60, seed=5)


def test_cdf_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        cdf_experiment(CONFIG, GeometryModel(), 3, 0, seed=1)


_COUNT_RUNS = [
    lambda n: estimate_link_se(CONFIG, np.ones(5), ("proposed",), n, seed=1)["proposed"].downlink,
    lambda n: cdf_experiment(CONFIG, GeometryModel(), n, 20, seed=1)["proposed"].samples,
    lambda n: cdf_experiment(CONFIG, GeometryModel(), 2, n, seed=1)["proposed"].samples,
]
_COUNT_IDS = ["link-trials", "cdf-profiles", "cdf-trials"]


@pytest.mark.parametrize("count", [0, -3, True, False, 2.5, 3.0, "3", None, np.float64(4.0)],
                         ids=["zero", "negative", "true", "false", "fraction", "integral-float",
                              "str", "none", "numpy-float"])
@pytest.mark.parametrize("run", _COUNT_RUNS, ids=_COUNT_IDS)
def test_estimators_reject_non_integer_counts(run, count):
    # True used to run one trial or score one profile; 2.5 and "3" raised raw TypeErrors.
    with pytest.raises(ValueError, match="must be >= 1 and an integer"):
        run(count)


@pytest.mark.parametrize("run", _COUNT_RUNS, ids=_COUNT_IDS)
def test_estimators_take_numpy_integer_counts(run):
    assert np.array_equal(run(np.int32(3)), run(3))


def test_link_estimate_trials_is_a_plain_int():
    estimate = estimate_link_se(CONFIG, np.ones(5), ("proposed",), np.int64(3), seed=1)
    assert type(estimate["proposed"].trials) is int and estimate["proposed"].trials == 3


def test_cdf_substream_determinism():
    geometry = GeometryModel()
    first = cdf_experiment(CONFIG, geometry, 6, 50, seed=9)["proposed"]
    doubled = cdf_experiment(CONFIG, geometry, 12, 50, seed=9)["proposed"]
    assert np.array_equal(first.samples, doubled.samples[:6])


def test_cdf_matches_direct_scoring():
    from mwrelay.channel import STREAM_PROFILE, draw_large_scale

    geometry = GeometryModel()
    for K in (4, 5, 7, 10):
        config = SystemConfig(M=24, K=K, p_u=1.0, p_r=10.0)
        result = cdf_experiment(config, geometry, 4, 80, seed=14)["proposed"]
        for p in range(4):
            beta = draw_large_scale(geometry, K, substream(14, STREAM_PROFILE, p))
            direct = sum_se_once(config, beta, "proposed", 80, seed=14).sum_se
            assert result.samples[p] == direct


def test_cdf_k_ordering_smoke():
    geometry = GeometryModel()
    values = {}
    for K in (5, 10):
        config = SystemConfig(M=64, K=K, p_u=1.0, p_r=10.0)
        values[K] = cdf_experiment(config, geometry, 60, 150, seed=10)["proposed"].likely_95
    assert values[10] > values[5]


def test_sorted_samples_and_percentile():
    result = cdf_experiment(CONFIG, GeometryModel(), 20, 40, seed=2)["proposed"]
    ordered = result.sorted_samples
    assert np.all(np.diff(ordered) >= 0)
    assert ordered[0] <= result.likely_95 <= ordered[-1]


@pytest.mark.parametrize("K", range(2, 14))
def test_zf_noise_gains_match_oracle(K):
    # Every profile, trial and user against the scalar ZF stage: K = 2 has
    # no unknowns, K = 3 one, and odd K gives square residual systems.
    rng = np.random.default_rng(40 + K)
    betas = rng.uniform(0.2, 3.0, size=(3, K))
    channels = [draw_small_scale(24, K, rng) for _ in range(4)]
    gram_h = np.stack([H.conj().T @ H for H in channels])
    gains = _zf_noise_gains(*_offset_table(gram_h), betas)
    assert gains.shape == (3, 4, K, SlotIndexer(K).n_unknowns)
    for p, beta in enumerate(betas):
        for t, H in enumerate(channels):
            G = H * np.sqrt(beta)
            for k in range(1, K + 1):
                np.testing.assert_allclose(gains[p, t, k - 1], build_zf_stage(G, k).noise_gain,
                                           rtol=1e-10)


def test_zf_noise_gains_independent_of_batch_shape():
    # A trial's gains must not depend on which profiles or trials share its
    # batch, so chunked placement scoring equals one-profile estimation.
    # The batch is large enough (3 x 10 x 1000 entries) that a version of the
    # kernel built on numpy's mixed real-complex loops fails this check.
    K = 10
    rng = np.random.default_rng(8)
    betas = rng.uniform(0.2, 3.0, size=(3, K))
    H = draw_small_scale(24, K * 1000, rng).reshape(24, 1000, K).transpose(1, 0, 2)
    gram_h = H.conj().transpose(0, 2, 1) @ H
    whole = _zf_noise_gains(*_offset_table(gram_h), betas)
    for p in range(3):
        assert np.array_equal(_zf_noise_gains(*_offset_table(gram_h), betas[p:p + 1])[0], whole[p])
    for lo, hi in ((0, 3), (3, 500), (500, 1000)):
        assert np.array_equal(_zf_noise_gains(*_offset_table(gram_h[lo:hi]), betas), whole[:, lo:hi])


def gather_zf_noise_gains(gram_h, betas):
    """The zero-forcing kernel in its gather form: every residual entry read from the
    Grams by (user, beam), and each lower Gram entry summed row by row, highest offset first."""
    idx = SlotIndexer(gram_h.shape[-1])
    cols = idx.order[:, idx.sic_slots + np.arange(idx.n_unknowns) - np.arange(idx.sic_slots)[:, None]]
    K, rows, n = cols.shape
    users = np.arange(K)[:, None, None]
    x_re, x_im = (x[:, users, cols].transpose(3, 2, 1, 0) for x in (gram_h.real, gram_h.imag))
    root = np.sqrt(betas)
    weight = (root[:, :, None, None] * root[:, cols]).transpose(3, 2, 0, 1)[..., None]

    def row_sum(w, part):
        total = w[0] * part[0]
        for r in range(1, len(part)):
            total += w[r] * part[r]
        return total

    gram = {}
    for i in range(n):
        for j in range(i + 1):
            w = weight[i] * weight[j]
            gram[i, j] = (row_sum(w, x_re[i] * x_re[j] + x_im[i] * x_im[j]),
                          row_sum(w, x_re[i] * x_im[j] - x_im[i] * x_re[j]) if i != j else None)
    low, inv = {}, {}
    for j in range(n):
        pivot = gram[j, j][0]
        for m in range(j):
            pivot -= low[j, m][0] ** 2 + low[j, m][1] ** 2
        least = pivot if j == 0 else np.minimum(least, pivot)
        largest = pivot if j == 0 else np.maximum(largest, pivot)
        check_pivots(least, largest)
        inv[j] = 1.0 / np.sqrt(pivot)
        for i in range(j + 1, n):
            a_re, a_im = gram[i, j]
            for m in range(j):
                (p_re, p_im), (q_re, q_im) = low[i, m], low[j, m]
                a_re -= p_re * q_re + p_im * q_im
                a_im -= p_im * q_re - p_re * q_im
            low[i, j] = (a_re * inv[j], a_im * inv[j])
    gains = np.empty((n, len(betas), K, len(gram_h)))
    for j in range(n):
        col = {}
        gains[j] = inv[j] ** 2
        for i in range(j + 1, n):
            acc_re, acc_im = low[i, j][0] * inv[j], low[i, j][1] * inv[j]
            for m in range(j + 1, i):
                (l_re, l_im), (v_re, v_im) = low[i, m], col[m]
                acc_re += l_re * v_re - l_im * v_im
                acc_im += l_re * v_im + l_im * v_re
            scale = -inv[i]
            col[i] = (acc_re * scale, acc_im * scale)
            gains[j] += col[i][0] ** 2 + col[i][1] ** 2
    return gains.transpose(1, 3, 2, 0)


def table_rates(config, cross, betas, scheme):
    """The kernel in its table form, the oracle for ``_rate_blocks``: per-trial uplink SE
    (P, K, T) and one scheme's downlink SE (P, K, K-1, T) of the (P, K) profiles ``betas`` on
    the offset table ``cross``, every interference a running sum over offsets."""
    cross_re, cross_im = cross
    K, T = cross_re.shape[0], cross_re.shape[-1]
    P, order = len(betas), SlotIndexer(K).order
    pair = np.stack([betas * betas[:, order[:, s]] for s in range(K)])[..., None]
    cross_power = cross_re**2 + cross_im**2
    norms = betas[:, :, None] * cross_re[0]
    c = (config.p_r / (config.M * betas.sum(axis=1)))[:, None, None]
    interference = 0.0
    for s in range(1, K):
        interference = interference + pair[s] * cross_power[s]
    uplink = np.log2(1.0 + config.p_u * norms**2 / (config.p_u * interference + norms))
    slots = K - 1 if scheme == "conventional" else SlotIndexer(K).sic_slots
    dl = np.zeros((K - 1, P, K, T))
    below = above = 0.0
    for s in range(1, K - 1):
        below = below + pair[s] * cross_power[s]
        if K - 1 - s <= slots:
            dl[K - 2 - s] = below
    if scheme == "conventional":
        for t in range(2, K):
            above = above + pair[K - t + 1] * cross_power[K - t + 1]
            dl[t - 1] += above
    signal = c * norms**2
    for t in range(slots):
        dl[t] = np.log2(1.0 + signal / (c * dl[t] + 1.0))
    if scheme == "proposed":
        step = max(1, montecarlo._ZF_BLOCK_ENTRIES // (P * K))
        for lo in range(0, T, step):
            noise_gain = _zf_noise_gains(cross_re[..., lo:lo + step], cross_im[..., lo:lo + step],
                                         betas).transpose(3, 0, 2, 1)
            dl[slots:, ..., lo:lo + step] = np.log2(1.0 + c / noise_gain)
    return uplink, dl.transpose(1, 2, 0, 3)


def slot_table(config, cross, betas, schemes):
    """``_rate_blocks`` with ``np.copy`` as its reduction, so each block is copied before the
    next is made: the (P, K, T) uplink under "uplink", each scheme's blocks joined into
    (P, K, K-1, T) under its name."""
    blocks = {}
    for key, rates in _rate_blocks(config, cross, betas, schemes, np.copy):
        blocks.setdefault(key, []).append(rates)
    return {key: parts[0] if key == "uplink" else np.concatenate(parts, axis=2)
            for key, parts in blocks.items()}


def proposed_table(config, gram_h, betas):
    """The proposed scheme's (P, K, K-1, T) ``slot_table`` of the Grams ``gram_h``."""
    return slot_table(config, _offset_table(gram_h), betas, ("proposed",))["proposed"]


def rates_or_verdict(kernel, *args):
    try:
        return kernel(*args)
    except SingularSystemError:
        return "singular"


# Each scheme alone, and both, the one set whose cancelation slots read the conventional rows.
SCHEME_SETS = (("conventional",), ("proposed",), ("conventional", "proposed"))


@pytest.mark.parametrize("K", range(2, 16))
def test_slot_rates_equal_table_form(K, monkeypatch):
    # Block by block, the generator takes the table form's IEEE operations in
    # its order, the uplink included, under each scheme set: at M from K to
    # 100, gains spread over 0, 2 and 8 decades and p_r = 1e8, with the
    # factor's trial chunks cut small so that from K = 3 it runs in several.
    # K = 2 has one slot and no interference, and K = 3 a slot with one
    # interfering term, in either scheme.
    monkeypatch.setattr(montecarlo, "_ZF_BLOCK_ENTRIES", 500)
    trials = 64
    for M in (K, K + 1, 3 * K, 100):
        config = SystemConfig(M=M, K=K, p_u=1.0, p_r=1e8)
        for decades in (0, 2, 8):
            rng = np.random.default_rng([K, M, decades, 1])
            betas = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=(3, K))
            H = draw_small_scale(M, K * trials, rng).reshape(M, trials, K).transpose(1, 0, 2)
            cross = _offset_table(H.conj().transpose(0, 2, 1) @ H)
            tables = {scheme: rates_or_verdict(table_rates, config, cross, betas, scheme)
                      for scheme in SCHEMES}
            for schemes in SCHEME_SETS:
                case = (M, decades, schemes)
                blocks = rates_or_verdict(slot_table, config, cross, betas, schemes)
                singular = any(isinstance(tables[scheme], str) for scheme in schemes)
                assert isinstance(blocks, str) == singular, case
                if singular:
                    continue
                assert set(blocks) == {"uplink", *schemes}, case
                for scheme in schemes:
                    uplink, downlink = tables[scheme]
                    assert np.array_equal(blocks["uplink"], uplink), case
                    assert np.array_equal(blocks[scheme], downlink), case


def test_zf_noise_gains_leave_inputs_unchanged():
    # The factor overwrites its own Gram entries in place, never the offset
    # table or gains it reads, so scoring the same arrays twice agrees.
    K = 10
    rng = np.random.default_rng(9)
    betas = rng.uniform(0.2, 3.0, size=(3, K))
    H = draw_small_scale(24, K * 50, rng).reshape(24, 50, K).transpose(1, 0, 2)
    inputs = (*_offset_table(H.conj().transpose(0, 2, 1) @ H), betas)
    saved = [x.tobytes() for x in inputs]
    first = _zf_noise_gains(*inputs)
    assert [x.tobytes() for x in inputs] == saved
    assert np.array_equal(_zf_noise_gains(*inputs), first)


@pytest.mark.parametrize("K", range(2, 16))
def test_offset_zf_kernel_equals_gather_form(K):
    # The Toeplitz offset form must take the same IEEE operations in the same
    # order as the gather form, so its rates are bit-identical and it flags the
    # same blocks singular: generic draws at M from K to 100 under gains spread
    # over 0, 2 and 8 decades and p_r = 1e8, and draws whose columns are all
    # equal up to 1e-9, where every residual system with two or more unknowns
    # fails the pivot rule.
    trials, verdicts = 64, set()
    assert trials <= montecarlo._ZF_BLOCK_ENTRIES // (3 * K)  # one zero-forcing block
    for M in (K, K + 1, 3 * K, 100):
        config = SystemConfig(M=M, K=K, p_u=1.0, p_r=1e8)
        for decades in (0, 2, 8):
            rng = np.random.default_rng([K, M, decades])
            betas = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=(3, K))
            H = draw_small_scale(M, K * trials, rng).reshape(M, trials, K).transpose(1, 0, 2)
            for channels in (H, H[..., :1] + 1e-9 * H):
                gram_h = channels.conj().transpose(0, 2, 1) @ channels
                offset = rates_or_verdict(proposed_table, config, gram_h, betas)
                with mock.patch.object(montecarlo, "_zf_noise_gains",
                                       lambda *_: gather_zf_noise_gains(gram_h, betas)):
                    gather = rates_or_verdict(proposed_table, config, gram_h, betas)
                assert isinstance(offset, str) == isinstance(gather, str), (M, decades)
                assert isinstance(offset, str) or np.array_equal(offset, gather), (M, decades)
                verdicts.add(isinstance(offset, str))
    assert verdicts == ({False, True} if SlotIndexer(K).n_unknowns >= 2 else {False})


@pytest.mark.parametrize("K", [5, 6, 10, 20, 30])
def test_singular_verdict_matches_oracle(K):
    # Equal channel columns under uniform gains make every residual system
    # rank one. Columns equal up to 1e-6 leave pivots that are positive but
    # 1e-14 to 1e-12 of the largest, so only the PIVOT_RTOL rule flags them. A
    # generic draw is well conditioned. The kernel and the scalar oracle must
    # agree on all three, with the pivots checked before any root.
    config = SystemConfig(M=16, K=K, p_u=1.0, p_r=10.0)
    betas = np.array([np.ones(K), np.full(K, 0.5)])
    assert SlotIndexer(K).n_unknowns >= 2
    rng = np.random.default_rng(K)
    equal = np.repeat(draw_small_scale(16, 1, rng), K, axis=1)
    cases = ((equal, True), (equal + 1e-6 * draw_small_scale(16, K, rng), True),
             (draw_small_scale(16, K, rng), False))
    for H, singular in cases:
        gram_h = (H.conj().T @ H)[None]
        if singular:
            with pytest.raises(SingularSystemError) as info:
                proposed_table(config, gram_h, betas)
            assert info.value.condition > 1e12 or math.isinf(info.value.condition)
        else:
            assert np.all(np.isfinite(proposed_table(config, gram_h, betas)))
        for beta in betas:
            for k in range(1, K + 1):
                if singular:
                    with pytest.raises(SingularSystemError):
                        build_zf_stage(H * np.sqrt(beta), k)
                else:
                    build_zf_stage(H * np.sqrt(beta), k)


@pytest.mark.parametrize("K", [3, 4, 5])
def test_zf_cells_match_oracle_near_square(K):
    # At M = K and K + 1, gains spread over 8 decades and p_r 1 and 1e8, the
    # kernel and the dense stage reach the same singular verdict on every
    # draw, and each regular zero-forcing cell agrees within what its
    # conditioning explains: 4 eps absolute (rounding 1 + SINR before the log)
    # plus 4 eps kappa SE, where kappa is the residual Gram's condition number
    # times the worst ||g_k|| ||g_j|| / |g_k^H g_j| of user k's cross products.
    # Over 3000 draws per shape and power the relative error reached 3e-10 at
    # K = 5 (kappa up to 1e10), and never more than 1.5 eps kappa SE above 2 eps.
    idx, eps = SlotIndexer(K), np.finfo(float).eps
    for M in (K, K + 1):
        for p_r in (1.0, 1e8):
            config = SystemConfig(M=M, K=K, p_u=1.0, p_r=p_r)
            rng = np.random.default_rng([K, M, int(p_r)])
            for _ in range(100):
                beta = 10.0 ** rng.uniform(-4, 4, K)
                H = draw_small_scale(M, K, rng)
                kernel = rates_or_verdict(proposed_table, config, (H.conj().T @ H)[None], beta[None])
                G = H * np.sqrt(beta)
                cells, kappa = [], []
                try:
                    for k in range(1, K + 1):
                        stage = build_zf_stage(G, k)
                        spread = (np.linalg.norm(G[:, k - 1]) * np.linalg.norm(G, axis=0)
                                  / np.abs(G[:, k - 1].conj() @ G))
                        kappa.append(np.linalg.cond(stage.mixing.conj().T @ stage.mixing)
                                     * spread.max())
                        cells.append([instantaneous_se(zf_sinr(stage, beta, p_r, M, n))
                                      for n in range(1, idx.n_unknowns + 1)])
                except SingularSystemError:
                    cells = "singular"
                assert isinstance(kernel, str) == isinstance(cells, str), (M, p_r)
                if not isinstance(cells, str):
                    cells = np.array(cells)
                    error = np.abs(kernel[0, :, idx.sic_slots:, 0] - cells)
                    assert np.all(error <= 4 * eps * (1 + np.array(kappa)[:, None] * cells)), (M, p_r)


def test_zf_slot_rate_m_stable_below_asymptote():
    # The zero-forcing slot rate converges in distribution to an
    # M-independent limit that sits well under the mean-Gram asymptote
    # log2(6) ~ 2.585 at K=10: the residual Gram never hardens.
    from mwrelay import zf_asymptotic_rate

    config_small = SystemConfig(M=128, K=10, p_u=1.0, p_r=10.0)
    config_large = SystemConfig(M=1024, K=10, p_u=1.0, p_r=10.0)
    beta = np.ones(10)
    tp = SlotIndexer(10).sic_slots
    rates = {}
    for config in (config_small, config_large):
        dl = estimate_link_se(config, beta, ("proposed",), 1500, seed=13)["proposed"].downlink
        rates[config.M] = np.mean(dl[:, tp:])
    assert abs(rates[128] - rates[1024]) / rates[1024] < 0.05
    asym = zf_asymptotic_rate(beta, 10.0, 10, 1, 1)
    assert rates[1024] < asym - 0.5


def test_two_user_downlink_single_slot():
    config = SystemConfig(M=16, K=2, p_u=1.0, p_r=10.0)
    beta = np.ones(2)
    prop = estimate_link_se(config, beta, ("proposed",), 30, seed=1)["proposed"]
    conv = estimate_link_se(config, beta, ("conventional",), 30, seed=1)["conventional"]
    assert prop.downlink.shape == (2, 1)
    assert prop.downlink[0, 0] == conv.downlink[0, 0]
    report = sum_se(prop, "proposed")
    assert report.pre_log == 0.5


SCHEMES = ("conventional", "proposed")


# One-profile K = 20 chunks and two-profile K = 10 chunks hold enough entries
# for the pool; one-profile K = 10 chunks run on the calling thread.
def pool_estimate(K):
    config = SystemConfig(M=100, K=K, p_u=1.0, p_r=10.0)
    return estimate_link_se(config, np.linspace(0.5, 1.5, K), SCHEMES, 300, seed=9)


def pool_cdf(profiles, trials):
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
    return cdf_experiment(config, GeometryModel(), profiles, trials, seed=9, schemes=SCHEMES)


POOL_SHAPES = {  # name -> (run, pool sizes opened at 2 and 8 threads)
    "estimate-k20": (lambda: pool_estimate(20), [2, 2]),
    "cdf-2-profiles-k10": (lambda: pool_cdf(2, 300), [2, 2]),
    "cdf-40-profiles-one-block-k10": (lambda: pool_cdf(40, 200), []),
    "estimate-k10": (lambda: pool_estimate(10), []),
}


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_results_equal_on_and_off_the_pool(shape, monkeypatch):
    run, pools = POOL_SHAPES[shape]
    opened = []
    real = montecarlo.ThreadPoolExecutor
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        lambda max_workers: opened.append(max_workers) or real(max_workers))
    results = {}
    for threads in (1, 2, 8):
        monkeypatch.setenv("MWRELAY_THREADS", str(threads))
        results[threads] = run()
    # A unit is one Gram block, so 300 trials make two units and 200 trials one,
    # which runs on the calling thread however many profiles it scores.
    assert opened == pools
    for threads in (2, 8):
        for scheme, result in results[threads].items():
            for field, value in vars(result).items():
                assert np.array_equal(value, getattr(results[1][scheme], field))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("K", [2, 10])
def test_shared_draw_matches_single_scheme_runs(K, workers, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", str(workers))
    config = SystemConfig(M=24, K=K, p_u=1.0, p_r=10.0)
    beta = np.linspace(0.5, 1.5, K)
    both = estimate_link_se(config, beta, SCHEMES, 70, seed=5)
    assert list(both) == list(SCHEMES)
    for scheme in SCHEMES:
        alone = estimate_link_se(config, beta, (scheme,), 70, seed=5)[scheme]
        for field in ("uplink", "uplink_stderr", "downlink", "downlink_stderr"):
            assert np.array_equal(getattr(both[scheme], field), getattr(alone, field))
        assert both[scheme].trials == alone.trials == 70
    for field in ("uplink", "uplink_stderr"):
        assert np.array_equal(getattr(both["conventional"], field), getattr(both["proposed"], field))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("K", [2, 10])
def test_cdf_shared_draw_matches_single_scheme_runs(K, workers, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", str(workers))
    config = SystemConfig(M=24, K=K, p_u=1.0, p_r=10.0)
    both = cdf_experiment(config, GeometryModel(), 5, 40, seed=8, schemes=SCHEMES)
    assert list(both) == list(SCHEMES)
    for scheme in SCHEMES:
        alone = cdf_experiment(config, GeometryModel(), 5, 40, seed=8, schemes=(scheme,))[scheme]
        assert np.array_equal(both[scheme].samples, alone.samples)


# One profile per chunk at K = 10, the default budget (chunks of 19 and 18), and all in one chunk.
SLOT_TABLE_BYTES = 8 * 9 * 10 * GRAM_BLOCK


def test_cdf_samples_independent_of_chunk_split(monkeypatch):
    # Raw samples, not the rounded CSV, at several worker counts and chunk
    # budgets; 80 trials make fewer Gram blocks than workers, 700 more.
    config = SystemConfig(M=24, K=10, p_u=1.0, p_r=10.0)
    default = montecarlo._SPAN_BYTES
    for trials in (80, 700):
        run = lambda: cdf_experiment(config, GeometryModel(), 37, trials, seed=6, schemes=SCHEMES)
        monkeypatch.setenv("MWRELAY_THREADS", "1")
        reference = run()
        for span_bytes in (SLOT_TABLE_BYTES, default, 37 * SLOT_TABLE_BYTES):
            monkeypatch.setattr(montecarlo, "_SPAN_BYTES", span_bytes)
            for workers in (1, 2, 3, 8):
                monkeypatch.setenv("MWRELAY_THREADS", str(workers))
                result = run()
                for scheme in SCHEMES:
                    assert np.array_equal(result[scheme].samples, reference[scheme].samples)
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", default)


@pytest.mark.parametrize("trials", [1, 2, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 1000])
def test_merged_moments_match_two_pass_reduction(trials, monkeypatch):
    # The per-trial tables each chunk scores, captured as they are made, reduced
    # in one two-pass numpy step over all trials.
    monkeypatch.setenv("MWRELAY_THREADS", "1")
    tables = {"uplink": [], **{scheme: [] for scheme in SCHEMES}}
    real = montecarlo._rate_blocks

    def rate_blocks(config, cross, betas, schemes, reduce):
        blocks = {}
        for key, rates in real(config, cross, betas, schemes, np.copy):
            blocks.setdefault(key, []).append(rates[0])
            yield key, reduce(rates)
        tables["uplink"].append(blocks.pop("uplink")[0])
        for scheme, parts in blocks.items():
            tables[scheme].append(np.concatenate(parts, axis=1))

    monkeypatch.setattr(montecarlo, "_rate_blocks", rate_blocks)
    estimates = estimate_link_se(CONFIG, BETA, SCHEMES, trials, seed=13)
    samples = {key: np.concatenate(parts, axis=-1) for key, parts in tables.items()}
    assert samples["uplink"].shape == (CONFIG.K, trials)

    def check(mean, stderr, values):
        np.testing.assert_allclose(mean, values.mean(axis=-1), rtol=1e-13, atol=0)
        if trials == 1:
            assert np.all(stderr == 0.0)
        else:
            np.testing.assert_allclose(
                stderr, values.std(axis=-1, ddof=1) / np.sqrt(trials), rtol=1e-13, atol=0)

    for scheme in SCHEMES:
        check(estimates[scheme].uplink, estimates[scheme].uplink_stderr, samples["uplink"])
        check(estimates[scheme].downlink, estimates[scheme].downlink_stderr, samples[scheme])


def test_cdf_over_several_profile_spans_matches_direct_scoring(monkeypatch):
    # 70 profiles at K = 10 fill more than one chunk of profiles; 300 trials
    # make two Gram blocks, each drawn once, so every sample merges two blocks.
    from mwrelay.channel import STREAM_PROFILE, draw_large_scale

    monkeypatch.setenv("MWRELAY_THREADS", "2")
    config = SystemConfig(M=40, K=10, p_u=1.0, p_r=10.0)
    geometry = GeometryModel()
    blocks = []
    real = montecarlo.draw_gram_block
    monkeypatch.setattr(montecarlo, "draw_gram_block",
                        lambda M, K, seed, stream, block, n:
                        blocks.append(block) or real(M, K, seed, stream, block, n))
    result = cdf_experiment(config, geometry, 70, 300, seed=15, schemes=SCHEMES)
    assert sorted(blocks) == [0, 1]
    for p in range(70):
        beta = draw_large_scale(geometry, 10, substream(15, STREAM_PROFILE, p))
        for scheme in SCHEMES:
            assert result[scheme].samples[p] == sum_se_once(config, beta, scheme, 300, seed=15).sum_se


@pytest.mark.parametrize("threads", ["1", "2", "8"])
@pytest.mark.parametrize("profiles, trials", [(70, 80), (70, 600), (1, 300)])
def test_cdf_draws_each_gram_block_once(profiles, trials, threads, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", threads)
    real = montecarlo.draw_gram_block
    calls = []

    def counted(*args):
        # A draw is identified by its shape and its substream (seed, stream, block).
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(montecarlo, "draw_gram_block", counted)
    cdf_experiment(SystemConfig(M=40, K=10, p_u=1.0, p_r=10.0), GeometryModel(), profiles, trials,
                   seed=2, schemes=SCHEMES)
    assert len(calls) == len(set(calls)) == -(-trials // GRAM_BLOCK)
    assert all(n == GRAM_BLOCK for *_, n in calls)


def test_only_link_estimates_form_m2(monkeypatch):
    # A placement sample needs cell means alone, so cdf chunks skip M2; link
    # estimates keep it for their standard errors.
    spreads = []
    real = montecarlo._moments
    monkeypatch.setattr(montecarlo, "_moments",
                        lambda samples, spread: spreads.append(spread) or real(samples, spread))
    cdf_experiment(CONFIG, GeometryModel(), 3, 300, seed=4, schemes=SCHEMES)
    assert spreads and not any(spreads)
    spreads.clear()
    estimate_link_se(CONFIG, BETA, SCHEMES, 300, seed=4)
    assert spreads and all(spreads)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_estimate_peak_memory_flat_in_trials(scheme, monkeypatch):
    import tracemalloc

    monkeypatch.setenv("MWRELAY_THREADS", "1")
    config = SystemConfig(M=100, K=20, p_u=1.0, p_r=10.0)
    estimate_link_se(config, np.ones(20), (scheme,), 10, seed=3)  # warm the caches
    peaks = []
    for trials in (5000, 20000):
        tracemalloc.start()
        try:
            estimate_link_se(config, np.ones(20), (scheme,), trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def placement_peak(monkeypatch, profiles, schemes=("proposed",)):
    """tracemalloc peak of a one-worker K = 10 cdf over one Gram block."""
    import tracemalloc

    monkeypatch.setenv("MWRELAY_THREADS", "1")
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
    cdf_experiment(config, GeometryModel(), 2, 10, seed=3, schemes=schemes)  # warm the caches
    tracemalloc.start()
    try:
        cdf_experiment(config, GeometryModel(), profiles, GRAM_BLOCK, seed=3, schemes=schemes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("schemes", SCHEME_SETS, ids="+".join)
def test_placement_span_peak_memory(schemes, monkeypatch):
    # 40 profiles x one Gram block, scored in two chunks of 20. The peak read
    # 5.8 MB (conventional), 6.9 MB (proposed) and 7.0 MB (both) on numpy 2.4;
    # one chunk of 40, whose (K-1, P, K, T) prefix rows alone are 7.4 MB, read
    # 11.5 MB under both schemes.
    assert placement_peak(monkeypatch, 40, schemes) < 10e6


def test_placement_peak_memory_flat_in_profiles(monkeypatch):
    # Chunks cap the slot tables, so ten times the profiles add only their
    # (P, K, K-1) means: 6.9 MB against 7.2 MB on numpy 2.4, where one chunk
    # per 61 profiles read 11.1 MB against 14.5 MB.
    few, many = placement_peak(monkeypatch, 40), placement_peak(monkeypatch, 400)
    assert abs(many - few) < 0.05 * few


@pytest.mark.parametrize("schemes", ["proposed", (), ("proposed", "hybrid")])
def test_estimators_reject_bad_scheme_lists(schemes):
    with pytest.raises(ValueError):
        estimate_link_se(CONFIG, BETA, schemes, 5, seed=1)
    with pytest.raises(ValueError):
        cdf_experiment(CONFIG, GeometryModel(), 2, 5, seed=1, schemes=schemes)


@pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan])
def test_estimate_rejects_bad_gains(bad):
    beta = BETA.copy()
    beta[2] = bad
    with pytest.raises(InvalidConfigError):
        estimate_link_se(CONFIG, beta, ("proposed",), 5, seed=1)


@pytest.mark.parametrize("size", [CONFIG.K - 1, CONFIG.K + 1])
def test_estimate_rejects_wrong_gain_count(size):
    with pytest.raises(InvalidConfigError, match=f"beta has {size} gains, expected K={CONFIG.K}"):
        estimate_link_se(CONFIG, np.ones(size), ("proposed",), 5, seed=1)
