"""Closed forms: Jensen bounds, inverse-norm moments, cross-product statistics."""

import math

import numpy as np
import pytest

from mwrelay import (
    SystemConfig,
    analytic_sum_se,
    bound_report,
    conventional_dl_bound,
    estimate_link_se,
    inverse_norm_moments,
    proposed_dl_bound,
    sum_se,
    trace_lemma_statistic,
    uplink_bound,
    zf_asymptotic_rate,
)
from mwrelay.channel import STREAM_CHANNEL, draw_small_scale, substream


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
    # The statistic's mean is exactly beta_k * beta_j, but single draws keep
    # order-one spread at any M (the cross product never hardens).
    rng = substream(32, STREAM_CHANNEL, 1)
    beta = np.array([1.0, 2.0, 0.5, 1.5])
    draws = 20_000
    values = np.empty(draws)
    for d in range(draws):
        G = draw_small_scale(64, 4, rng) * np.sqrt(beta)
        values[d] = trace_lemma_statistic(G, 1, 1)
    expected = beta[0] * beta[1]
    stderr = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - expected) < 4 * stderr
    assert abs(values.mean() - expected) / expected < 0.05
    assert values.std(ddof=1) / values.mean() > 0.5


def test_trace_statistic_orthogonal_vectors():
    G = np.zeros((6, 3), dtype=complex)
    G[0, 0] = 1.0
    G[1, 1] = 1.0
    G[2, 2] = 1.0
    assert trace_lemma_statistic(G, 1, 1) == 0.0


def test_trace_statistic_rejects_self_offset():
    G = np.ones((4, 3), dtype=complex)
    with pytest.raises(ValueError):
        trace_lemma_statistic(G, 1, 3)


_BETA4 = np.array([1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("bound", [
    lambda k: uplink_bound(_BETA4, 1.0, 10, k),
    lambda k: conventional_dl_bound(_BETA4, 10.0, 10, 4, k, 1),
    lambda k: proposed_dl_bound(_BETA4, 10.0, 10, 4, k, 1),
    lambda k: zf_asymptotic_rate(_BETA4, 10.0, 4, k, 1),
    lambda k: trace_lemma_statistic(np.ones((8, 4), dtype=complex), k, 1),
], ids=["uplink", "conventional", "proposed", "zf_asymptotic", "trace_lemma"])
def test_bounds_reject_user_outside_range(bound, k):
    # k = 0 would otherwise wrap around to user K through negative indexing.
    with pytest.raises(ValueError, match=f"user {k} outside 1..4"):
        bound(k)


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
        estimate = estimate_link_se(config, beta, scheme, 3000, seed=17)
        for k in range(5):
            assert report.uplink[k] <= estimate.uplink[k] + 2 * estimate.uplink_stderr[k]
            slots = report.dl_conventional[k] if scheme == "conventional" else report.dl_proposed[k]
            for t, bound in enumerate(slots, start=1):
                assert bound <= estimate.downlink[k, t - 1] + 2 * estimate.downlink_stderr[k, t - 1]
