"""Bartlett-sampled Grams against the direct M x K draw they replace.

The Monte Carlo path scores Grams R^H R from ``channel.draw_gram_factor``;
``channel.draw_small_scale`` followed by H^H H is its oracle. The two give
different numbers for a seed, so they are compared in distribution: Gram
entry moments, and two-sample Kolmogorov-Smirnov statistics on uplink,
conventional-slot and zero-forcing-slot rates. Rates are increasing in the
SINR, so their KS statistic is the SINRs'.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from mwrelay import SystemConfig, estimate_link_se
from mwrelay import montecarlo
from mwrelay.channel import (_INV_SQRT2, STREAM_GRAM, STREAM_ROUND, draw_gram_block,
                             draw_gram_factor, draw_small_scale, substream)
from mwrelay.exceptions import InvalidConfigError, SingularSystemError
from mwrelay.montecarlo import _offset_table, _rate_blocks
from mwrelay.schedule import SlotIndexer

K = 10
# (M, K) = (100, 10) and (300, 10) are the figure sizes; M = K and K + 1 sit
# at the edge of the Wishart law, and M = 7 < K leaves R upper trapezoidal.
CASES = [(100, K), (300, K), (K, K), (K + 1, K), (7, K)]
TRIALS = 2000
# Two-sample KS critical value at level 0.001: sqrt(-ln(0.0005) / 2).
KS_LEVEL_COEFF = math.sqrt(-math.log(0.0005) / 2)


def direct_grams(M, K, n, seed):
    """n Grams H^H H of direct M x K draws."""
    H = draw_small_scale(M, K * n, np.random.default_rng(seed))
    H = H.reshape(M, n, K).transpose(1, 0, 2)
    return H.conj().transpose(0, 2, 1) @ H


def bartlett_grams(M, K, n, seed):
    R = draw_gram_factor(M, K, np.random.default_rng(seed), n)
    return R.conj().transpose(0, 2, 1) @ R


def per_trial(blocks):
    """Per-trial uplink (T, K) and downlink (T, K, K-1) SE of one profile, from its
    ``_rate_blocks`` blocks, each copied as it was made, listed by key."""
    return {key: parts[0][0].T if key == "uplink"
            else np.concatenate([rates[0] for rates in parts], axis=1).transpose(2, 0, 1)
            for key, parts in blocks.items()}


def kernel_blocks(config, gram_h, schemes):
    """``_rate_blocks`` of unit-gain Grams, each block copied as it is made, listed by key."""
    blocks = {}
    ones = np.ones((1, config.K))
    for key, rates in _rate_blocks(config, _offset_table(gram_h), ones, schemes, np.copy):
        blocks.setdefault(key, []).append(rates)
    return blocks


def kernel_rates(M, gram_h):
    """Per-trial uplink (T, K) and both schemes' downlink (T, K, K-1) rates of unit-gain Grams."""
    config = SystemConfig(M=M, K=gram_h.shape[-1], p_u=1.0, p_r=10.0)
    return per_trial(kernel_blocks(config, gram_h, ("conventional", "proposed")))


@functools.lru_cache(maxsize=None)
def oracle_rates(M, K):
    return kernel_rates(M, direct_grams(M, K, TRIALS, seed=1000 + M))


def rate_samples(rates):
    """One i.i.d. sample per trial of each compared rate: user 1's uplink,
    a mid conventional slot and the first zero-forcing slot."""
    K = rates["uplink"].shape[-1]
    sic = SlotIndexer(K).sic_slots
    return {"uplink": rates["uplink"][:, 0],
            "conventional": rates["conventional"][:, 0, K // 2],
            "zero-forcing": rates["proposed"][:, 0, sic]}


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def assert_same_law(samples, reference):
    n, m = len(next(iter(samples.values()))), len(next(iter(reference.values())))
    critical = KS_LEVEL_COEFF * math.sqrt((n + m) / (n * m))
    for name, values in samples.items():
        stat = ks_statistic(values, reference[name])
        assert stat < critical, f"{name}: KS statistic {stat:.4f} >= {critical:.4f}"


def test_ks_statistic_known_values():
    assert ks_statistic(np.arange(10.0), np.arange(10.0)) == 0.0
    assert ks_statistic(np.arange(10.0), np.arange(10.0) + 100) == 1.0
    assert ks_statistic(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 0.5


def entry_moments(gram_h):
    """Per-trial first and second moments of every diagonal and upper entry."""
    K = gram_h.shape[-1]
    diag = np.einsum("tkk->tk", gram_h).real
    rows, cols = np.triu_indices(K, 1)
    upper = gram_h[:, rows, cols]
    return {"diag": diag, "diag^2": diag**2,
            "re": upper.real, "im": upper.imag,
            "|w|^2": np.abs(upper) ** 2, "re(w^2)": (upper**2).real, "im(w^2)": (upper**2).imag}


@pytest.mark.parametrize("M, K", CASES + [(1, 4), (3, 3)])
def test_gram_entry_moments_match_direct_draw(M, K):
    # Exact values under CW_K(M, I): E W_ii = M, E W_ii^2 = M^2 + M,
    # E W_ij = 0, E |W_ij|^2 = M and E W_ij^2 = 0 (circular symmetry).
    n = 4000
    exact = {"diag": M, "diag^2": M * M + M, "re": 0, "im": 0,
             "|w|^2": M, "re(w^2)": 0, "im(w^2)": 0}
    sampled = entry_moments(bartlett_grams(M, K, n, seed=M))
    direct = entry_moments(direct_grams(M, K, n, seed=M + 1))
    for name, value in exact.items():
        a, b = sampled[name], direct[name]
        se_a, se_b = a.std(axis=0) / math.sqrt(n), b.std(axis=0) / math.sqrt(n)
        diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
        assert np.all(diff <= 5 * np.hypot(se_a, se_b)), name
        assert np.all(np.abs(a.mean(axis=0) - value) <= 5 * se_a), name


@pytest.mark.parametrize("M, K", [(1, 3), (2, 5), (5, 5), (9, 5)])
def test_gram_factor_shape_and_support(M, K):
    R = draw_gram_factor(M, K, np.random.default_rng(M), 50)
    rows = min(M, K)
    assert R.shape == (50, rows, K)
    diag = np.einsum("tii->ti", R[:, :, :rows])
    assert np.all(diag.imag == 0) and np.all(diag.real > 0)
    below = np.tril(np.ones((rows, K), dtype=bool), -1)
    assert np.all(R[:, below] == 0)
    assert np.all(R[:, ~below & ~np.eye(rows, K, dtype=bool)] != 0)


def complex_gram_factor(M, K, rng, n):
    """The Bartlett factor written entry by entry as complex values: the reference layout."""
    rows = min(M, K)
    R = np.zeros((n, rows, K), dtype=complex)
    for i in range(rows):
        R[:, i, i] = np.sqrt(rng.gamma(M - i, size=n))
    upper = np.triu_indices(rows, 1, K)
    z = rng.standard_normal((2, n, upper[0].size))
    R[:, upper[0], upper[1]] = (z[0] + 1j * z[1]) * _INV_SQRT2
    return R


@pytest.mark.parametrize("M, K", [(100, 10), (300, 10), (5, 10), (24, 30), (3, 2), (1, 1)])
def test_gram_factor_equals_complex_layout(M, K):
    # Same generator calls, same values, zero signs included; the second draw
    # reads the upper-triangle indices cached by the first.
    for seed in (M * K, M * K + 1):
        R = draw_gram_factor(M, K, np.random.default_rng(seed), 256).view(float)
        reference = complex_gram_factor(M, K, np.random.default_rng(seed), 256).view(float)
        assert np.array_equal(R, reference)
        assert np.array_equal(np.signbit(R), np.signbit(reference))


def test_gram_factor_memory_flat_in_calls():
    # The symbol rounds draw one small block of factors per substream, so
    # the sampler runs thousands of times per run; what it leaves allocated
    # must not grow with the calls (each array-shape gamma call leaves one
    # more tuple on the interpreter's free list).
    def draw(blocks):
        for b in blocks:
            draw_gram_factor(100, 10, substream(1, STREAM_ROUND, b), 4)

    draw(range(5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draw(range(75))
        few = tracemalloc.get_traced_memory()[0] - base
        draw(range(75, 3000))
        many = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert many <= few


@pytest.mark.parametrize("bad", [(0, 3, 5), (4, 0, 5), (4, 3, 0), (4.5, 3, 2), (True, 3, 2),
                                 (3, 2.0, 2), (3, 3, 2.5), (np.float64(4), 3, 2)])
def test_gram_factor_rejects_empty_sizes(bad):
    # A fractional M used to give Gamma(4.5), Gamma(3.5), ... on the
    # diagonal: the Gram of no real array.
    M, K, n = bad
    with pytest.raises(InvalidConfigError):
        draw_gram_factor(M, K, np.random.default_rng(0), n)


@pytest.mark.parametrize("M, K", [(0, 3), (4, 0), (True, 3), (4.5, 3), (3, 2.0),
                                  (np.float64(4), 3)])
def test_small_scale_rejects_what_gram_factor_rejects(M, K):
    # The oracle draw applies the sampler's size rule (the cases above);
    # a bool or a float used to raise a bare TypeError here.
    with pytest.raises(InvalidConfigError):
        draw_small_scale(M, K, np.random.default_rng(0))


@pytest.mark.parametrize("M, K, n", [(1, 1, 1), (7, 10, 4), (100, 10, 3)])
@pytest.mark.parametrize("stream, block", [(STREAM_GRAM, 0), (STREAM_ROUND, 5)])
def test_gram_block_is_product_of_its_factors(M, K, n, stream, block):
    # A block's Grams are R^H R of the factors drawn first from its
    # substream, and the generator it returns continues from there.
    grams, rng = draw_gram_block(M, K, 9, stream, block, n)
    reference = substream(9, stream, block)
    R = draw_gram_factor(M, K, reference, n)
    assert grams.shape == (n, K, K)
    assert np.array_equal(grams, R.conj().transpose(0, 2, 1) @ R)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(rng.standard_normal(4), reference.standard_normal(4))


def test_gram_factor_takes_numpy_integer_sizes():
    R = draw_gram_factor(np.int64(4), np.int32(3), np.random.default_rng(0), np.uint8(2))
    assert np.array_equal(R, draw_gram_factor(4, 3, np.random.default_rng(0), 2))


@pytest.mark.parametrize("M, K", CASES)
def test_sampler_rates_match_direct_draw(M, K):
    rates = kernel_rates(M, bartlett_grams(M, K, TRIALS, seed=2000 + M))
    assert_same_law(rate_samples(rates), rate_samples(oracle_rates(M, K)))


@pytest.mark.parametrize("M, K", CASES)
def test_estimator_rates_match_direct_draw(M, K, monkeypatch):
    # The rates estimate_link_se itself scores, captured at the kernel.
    captured = {"uplink": [], "conventional": [], "proposed": []}
    real = montecarlo._rate_blocks

    def rate_blocks(config, cross, betas, schemes, reduce):
        blocks = {}
        for key, rates in real(config, cross, betas, schemes, np.copy):
            blocks.setdefault(key, []).append(rates)
            yield key, reduce(rates)
        for key, rates in per_trial(blocks).items():
            captured[key].append(rates)

    monkeypatch.setattr(montecarlo, "_rate_blocks", rate_blocks)
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0)
    monkeypatch.setenv("MWRELAY_THREADS", "1")
    estimates = estimate_link_se(config, np.ones(K), ("conventional", "proposed"), TRIALS, seed=3)
    rates = {name: np.concatenate(parts) for name, parts in captured.items()}
    assert rates["uplink"].shape == (TRIALS, K)
    np.testing.assert_allclose(estimates["proposed"].uplink, rates["uplink"].mean(axis=0),
                               rtol=1e-12)
    for scheme in ("conventional", "proposed"):
        np.testing.assert_allclose(estimates[scheme].downlink, rates[scheme].mean(axis=0),
                                   rtol=1e-12)
    assert_same_law(rate_samples(rates), rate_samples(oracle_rates(M, K)))


@pytest.mark.parametrize("K", [3, 10])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_edge_sizes_match_direct_draw_verdicts(K, offset):
    # At M = K - 1, K and K + 1 the proposed scheme raises SingularSystemError
    # exactly where the direct draw does, and the conventional scheme and the
    # uplink stay finite without RuntimeWarning (an error under this suite).
    M = K + offset
    trials = 300
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0)
    try:
        kernel_blocks(config, direct_grams(M, K, trials, seed=4), ("proposed",))
        direct_singular = False
    except SingularSystemError:
        direct_singular = True
    try:
        estimate_link_se(config, np.ones(K), ("proposed",), trials, seed=4)
        singular = False
    except SingularSystemError:
        singular = True
    assert singular == direct_singular
    conv = estimate_link_se(config, np.ones(K), ("conventional",), trials, seed=4)["conventional"]
    assert np.all(np.isfinite(conv.uplink)) and np.all(conv.uplink > 0)
    assert np.all(np.isfinite(conv.downlink)) and np.all(conv.downlink > 0)
