"""Closed forms: Jensen bounds, inverse-norm moments, cross-product statistics."""

import math
import re

import numpy as np
import pytest

from mwrelay import (
    SystemConfig,
    analytic_sum_se,
    bound_report,
    estimate_link_se,
    inverse_norm_moments,
    zf_asymptotic_rate,
)
from mwrelay.channel import STREAM_CHANNEL, draw_small_scale, substream
from mwrelay.exceptions import InvalidConfigError
from mwrelay.schedule import SlotIndexer
from oracles import conventional_dl_bound, proposed_dl_bound, uplink_bound, zf_asymptotic_cell


def test_uplink_bound_values():
    assert uplink_bound(np.ones(10), 1.0, 100, 1) == pytest.approx(math.log2(1 + 99 / 10), rel=1e-12)
    assert uplink_bound(np.ones(10), 1.0, 100, 1) == pytest.approx(3.4463, abs=5e-5)
    # Single user: no interference term at all.
    assert uplink_bound(np.array([2.0]), 3.0, 50, 1) == pytest.approx(math.log2(1 + 3 * 49 * 2), rel=1e-12)
    assert uplink_bound(np.ones(4), 1e-12, 10, 1) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        uplink_bound(np.ones(4), 1.0, 1, 1)


def test_conventional_bound_values():
    got = conventional_dl_bound(np.ones(10), 10.0, 100, 10, 1, 1)
    assert got == pytest.approx(math.log2(1 + 97020 / 8840), rel=1e-12)
    assert got == pytest.approx(3.5821, abs=5e-4)
    # K=2: empty interference sum.
    got = conventional_dl_bound(np.ones(2), 4.0, 10, 2, 1, 1)
    assert got == pytest.approx(math.log2(1 + 4 * 9 * 8 / (10 * 2)), rel=1e-12)
    # Vanishing own gain sends the bound to zero.
    beta = np.array([1e-9, 1.0, 1.0])
    assert conventional_dl_bound(beta, 10.0, 64, 3, 1, 1) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        conventional_dl_bound(np.ones(4), 1.0, 2, 4, 1, 1)


def test_proposed_bound_values():
    beta = np.ones(10)
    assert proposed_dl_bound(beta, 10.0, 100, 10, 1, 2) == pytest.approx(
        math.log2(1 + 97020 / 7860), rel=1e-12
    )
    assert proposed_dl_bound(beta, 10.0, 100, 10, 1, 2) == pytest.approx(3.7379, abs=5e-4)
    # t = sic_slots = 5: four interferers left.
    assert proposed_dl_bound(beta, 10.0, 100, 10, 1, 5) == pytest.approx(
        math.log2(1 + 97020 / 4920), rel=1e-12
    )
    for k in range(1, 11):
        assert proposed_dl_bound(beta, 10.0, 100, 10, k, 1) == pytest.approx(
            conventional_dl_bound(beta, 10.0, 100, 10, k, 1), rel=1e-12
        )


def test_proposed_bound_monotone_in_slot():
    beta = np.linspace(0.3, 2.0, 9)
    for k in range(1, 10):
        values = [proposed_dl_bound(beta, 5.0, 60, 9, k, t) for t in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_conventional_bound_constant_in_slot_for_uniform_beta():
    beta = np.ones(8)
    reference = conventional_dl_bound(beta, 3.0, 32, 8, 2, 1)
    for t in range(2, 8):
        assert conventional_dl_bound(beta, 3.0, 32, 8, 2, t) == pytest.approx(reference, rel=1e-12)


def test_zf_asymptote_values():
    assert zf_asymptotic_rate(np.ones(10), 10.0, 10, 1, 1) == pytest.approx(math.log2(6), rel=1e-12)
    assert zf_asymptotic_rate(np.ones(10), 10.0, 10, 3, 4) == pytest.approx(2.5850, abs=5e-5)
    beta = np.array([1.0, 2.0, 3.0])
    assert zf_asymptotic_rate(beta, 6.0, 3, 1, 1) == pytest.approx(math.log2(3), rel=1e-12)
    tiny = np.array([1e-9, 1.0, 1.0])
    assert zf_asymptotic_rate(tiny, 10.0, 3, 1, 1) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        zf_asymptotic_rate(np.ones(10), 10.0, 10, 1, 5)
    # A fractional or bool index, a negative or NaN power: a TypeError, user 1, NaN before.
    for bad in ({"n": 1.0}, {"n": True}, {"p_r": -10.0}, {"p_r": math.nan}):
        with pytest.raises(InvalidConfigError):
            zf_asymptotic_rate(**{"beta": np.ones(10), "p_r": 10.0, "K": 10, "k": 1, "n": 1, **bad})
    # A bool power ran as p_r = 1, a string raised a bare TypeError and an
    # array a bare truth-value ValueError.
    for bad in (True, "1", np.array([1.0, 2.0])):
        with pytest.raises(InvalidConfigError, match="p_r must be a real number"):
            zf_asymptotic_rate(np.ones(10), bad, 10, 1, 1)
    # Every cell is the per-cell oracle's, bit for bit.
    rng = np.random.default_rng(3)
    for K in (3, 4, 7, 10):
        beta = 10.0 ** rng.uniform(-4, 4, K)
        for k in range(1, K + 1):
            for n in range(1, SlotIndexer(K).n_unknowns + 1):
                assert (zf_asymptotic_rate(beta, 10.0, K, k, n)
                        == zf_asymptotic_cell(beta, 10.0, K, k, n))


def test_inverse_norm_moments_closed_forms():
    assert inverse_norm_moments(3, 1.0) == pytest.approx((0.5, 0.5), rel=1e-12)
    second, fourth = inverse_norm_moments(100, 2.0)
    assert second == pytest.approx(1 / 198, rel=1e-12)
    assert fourth == pytest.approx(1 / (99 * 98 * 4), rel=1e-12)
    # The alternative algebraic form M / ((M-1)^3 - (M-1)) is identical:
    # (M-1)^3 - (M-1) = (M-1) M (M-2).
    M = 17
    second, fourth = inverse_norm_moments(M, 1.0)
    assert fourth == pytest.approx(M / ((M - 1) ** 3 - (M - 1)), rel=1e-12)
    with pytest.raises(ValueError):
        inverse_norm_moments(2, 1.0)
    assert inverse_norm_moments(17.0, 1.0) == (second, fourth)
    # A fractional M, an infinite or NaN input: moments of no column were returned before.
    for M, beta_k in [(3.5, 1.0), (10, math.inf), (math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(InvalidConfigError):
            inverse_norm_moments(M, beta_k)
    # A bool gain ran as beta_k = 1, a string raised a bare TypeError and an
    # array a bare truth-value ValueError.
    for bad in (True, "1", np.array([1.0, 2.0])):
        with pytest.raises(InvalidConfigError, match="beta_k must be a real number"):
            inverse_norm_moments(10, bad)


def test_inverse_norm_moments_monte_carlo():
    rng = substream(31, STREAM_CHANNEL, 0)
    M, beta_k = 50, 1.0
    draws = 200_000
    H = draw_small_scale(M, draws, rng)
    norms = (np.abs(H) ** 2).sum(axis=0) * beta_k
    second, fourth = inverse_norm_moments(M, beta_k)
    assert abs((1.0 / norms).mean() - second) / second < 0.01
    assert abs((1.0 / norms**2).mean() - fourth) / fourth < 0.02


def test_trace_statistic_mean_and_spread():
    # The trace-lemma statistic |g_k^H g_j|^2 / M has mean exactly beta_k * beta_j,
    # but single draws keep order-one spread at any M (the cross product never hardens).
    rng = substream(32, STREAM_CHANNEL, 1)
    beta = np.array([1.0, 2.0, 0.5, 1.5])
    draws = 20_000
    values = np.empty(draws)
    for d in range(draws):
        G = draw_small_scale(64, 4, rng) * np.sqrt(beta)
        values[d] = abs(G[:, 0].conj() @ G[:, 1]) ** 2 / 64
    expected = beta[0] * beta[1]
    stderr = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - expected) < 4 * stderr
    assert abs(values.mean() - expected) / expected < 0.05
    assert values.std(ddof=1) / values.mean() > 0.5


_BETA4 = np.array([1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("bound", [
    lambda k: uplink_bound(_BETA4, 1.0, 10, k),
    lambda k: conventional_dl_bound(_BETA4, 10.0, 10, 4, k, 1),
    lambda k: proposed_dl_bound(_BETA4, 10.0, 10, 4, k, 1),
    lambda k: zf_asymptotic_rate(_BETA4, 10.0, 4, k, 1),
], ids=["uplink", "conventional", "proposed", "zf_asymptotic"])
def test_bounds_reject_user_outside_range(bound, k):
    # k = 0 would otherwise wrap around to user K through negative indexing.
    with pytest.raises(ValueError, match=f"user {k} outside 1..4"):
        bound(k)


@pytest.mark.parametrize("k", [1.5, True], ids=["fraction", "bool"])
def test_bounds_reject_non_integer_user(k):
    # 1.5 used to raise IndexError and True to stand for user 1.
    with pytest.raises(ValueError, match="outside 1..4"):
        uplink_bound(_BETA4, 1.0, 8, k)


def test_cross_term_mean_zero():
    # (1/M) g_j^H g_k g_k^H g_j' has zero mean for j != j'.
    rng = substream(33, STREAM_CHANNEL, 2)
    draws = 20_000
    M = 32
    values = np.empty(draws, dtype=complex)
    for d in range(draws):
        G = draw_small_scale(M, 3, rng)
        values[d] = (G[:, 1].conj() @ G[:, 0]) * (G[:, 0].conj() @ G[:, 2]) / M
    stderr = values.real.std(ddof=1) / math.sqrt(draws)
    assert abs(values.real.mean()) < 4 * stderr
    assert abs(values.imag.mean()) < 4 * stderr


def test_bound_report_shapes_and_finiteness():
    config = SystemConfig(M=64, K=9, p_u=1.0, p_r=10.0)
    beta = np.linspace(0.2, 2.0, 9)
    report = bound_report(config, beta)
    assert report.uplink.shape == (9,)
    assert report.dl_conventional.shape == (9, 8)
    assert report.dl_proposed.shape == (9, 4)
    assert report.zf_asymptotic.shape == (9, 4)
    for block in (report.uplink, report.dl_conventional, report.dl_proposed, report.zf_asymptotic):
        assert np.all(np.isfinite(block))
        assert np.all(block >= 0)


def test_analytic_sum_se_composition():
    config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
    beta = np.ones(10)
    report = bound_report(config, beta)
    ul = report.uplink[0]
    by_hand = (
        sum(min(ul, v) for v in report.dl_proposed[0])
        + sum(min(ul, v) for v in report.zf_asymptotic[0])
    ) * 10 / 6
    assert analytic_sum_se(config, beta, "proposed") == pytest.approx(by_hand, rel=1e-12)
    conv_hand = sum(min(ul, v) for v in report.dl_conventional[0]) * 10 / 10
    assert analytic_sum_se(config, beta, "conventional") == pytest.approx(conv_hand, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_sum_se(config, beta, "hybrid")


def test_jensen_ordering_smoke():
    # Every Jensen bound sits below its Monte Carlo counterpart plus noise
    # allowance; checked at a small configuration here, at the headline
    # configurations in the acceptance suite.
    config = SystemConfig(M=48, K=5, p_u=1.0, p_r=10.0)
    beta = np.array([0.5, 1.0, 1.5, 0.8, 1.2])
    report = bound_report(config, beta)
    for scheme in ("conventional", "proposed"):
        estimate = estimate_link_se(config, beta, (scheme,), 3000, seed=17)[scheme]
        for k in range(5):
            assert report.uplink[k] <= estimate.uplink[k] + 2 * estimate.uplink_stderr[k]
            slots = report.dl_conventional[k] if scheme == "conventional" else report.dl_proposed[k]
            for t, bound in enumerate(slots, start=1):
                assert bound <= estimate.downlink[k, t - 1] + 2 * estimate.downlink_stderr[k, t - 1]


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("bound", [
    lambda beta: uplink_bound(beta, 1.0, 16, 1),
    lambda beta: conventional_dl_bound(beta, 10.0, 16, 4, 1, 1),
    lambda beta: proposed_dl_bound(beta, 10.0, 16, 4, 1, 1),
    lambda beta: zf_asymptotic_rate(beta, 10.0, 4, 1, 1),
    lambda beta: bound_report(SystemConfig(M=16, K=4, p_u=1.0, p_r=10.0), beta),
], ids=["uplink", "conventional", "proposed", "zf_asymptotic", "report"])
def test_bounds_reject_bad_gains(bound, bad):
    # The checked_gains check: InvalidConfigError, which is a ValueError.
    with pytest.raises(InvalidConfigError):
        bound(np.array([1.0, bad, 1.0, 1.0]))


def per_cell_report(config, beta):
    """Every closed form evaluated cell by cell through the scalar oracles."""
    M, K = config.M, config.K
    idx = SlotIndexer(K)
    users = range(1, K + 1)
    return (
        [uplink_bound(beta, config.p_u, M, k) for k in users],
        [[conventional_dl_bound(beta, config.p_r, M, K, k, t) for t in range(1, K)] for k in users],
        [[proposed_dl_bound(beta, config.p_r, M, K, k, t) for t in range(1, idx.sic_slots + 1)]
         for k in users],
        [[zf_asymptotic_cell(beta, config.p_r, K, k, n) for n in range(1, idx.n_unknowns + 1)]
         for k in users],
    )


@pytest.mark.parametrize("K", range(2, 16))
def test_bound_report_equals_per_cell_functions(K):
    # The batched tables take the scalar operations in their order, so every
    # cell is bit-equal, over gains spread across 0, 2 and 8 decades.
    rng = np.random.default_rng(K)
    for decades in (0, 2, 8):
        beta = 10.0 ** rng.uniform(-decades / 2, decades / 2, K)
        for M in sorted({3, K + 1, 3 * K, 100, 1000}):
            for power in (0.1, 10.0, 1e8):
                config = SystemConfig(M=M, K=K, p_u=power, p_r=power)
                report = bound_report(config, beta)
                tables = (report.uplink, report.dl_conventional, report.dl_proposed,
                          report.zf_asymptotic)
                for table, cells in zip(tables, per_cell_report(config, beta)):
                    expected = np.array(cells).reshape(table.shape)
                    assert np.array_equal(table, expected), (M, decades, power)


@pytest.mark.parametrize("M, message", [
    (1, "uplink bound needs M >= 2"),
    (2, "downlink bounds need M >= 3 (fourth-moment identity)"),
])
def test_bound_report_rejects_small_arrays(M, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bound_report(SystemConfig(M=M, K=4, p_u=1.0, p_r=10.0), np.ones(4))
