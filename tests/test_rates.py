"""Per-realization SINR machinery against hand and brute-force oracles."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mwrelay import (
    GeometryModel,
    SingularSystemError,
    SlotIndexer,
    SystemConfig,
    build_zf_stage,
    cdf_experiment,
    estimate_link_se,
    relay_precode,
    run_round_noiseless,
    run_round_noisy,
)
import mwrelay.montecarlo as montecarlo
import mwrelay.rates as rates
from mwrelay.channel import STREAM_CHANNEL, draw_small_scale, substream
from oracles import (
    DegenerateChannelError,
    conventional_dl_sinr,
    instantaneous_se,
    proposed_dl_sinr,
    uplink_sinr,
    zf_sinr,
)


def two_branch_partner(k, t, K):
    """Independent two-branch routing map used only by oracles here."""
    s = k + t
    while s <= 0:
        s += K
    return s % K if s % K != 0 else K


def random_channel(M, K, seed):
    return draw_small_scale(M, K, substream(seed, STREAM_CHANNEL, 0))


def test_uplink_single_user_no_interference():
    G = np.array([[1.0], [1.0]], dtype=complex)
    assert uplink_sinr(G, 1.0, 1) == pytest.approx(2.0)


def test_uplink_orthogonal_columns():
    G = np.diag([2.0, 3.0]).astype(complex)
    assert uplink_sinr(G, 1.0, 1) == pytest.approx(4.0)
    assert uplink_sinr(G, 1.0, 2) == pytest.approx(9.0)


def test_uplink_hand_oracle():
    # ||g_1||^4 = 1, |g_1^H g_2|^2 = 1, ||g_1||^2 = 1.
    G = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert uplink_sinr(G, 1.0, 1) == pytest.approx(0.5)


def test_uplink_sums_other_users_directly():
    # ||g_1||^4 is about 1e31 times user 1's interference, so subtracting it
    # from a total over every user loses the interference to rounding.
    H = draw_small_scale(64, 4, np.random.default_rng(3))
    G = H * np.sqrt([1e8, 1e-8, 1e-8, 1e-8])
    cross = G[:, 0].conj() @ G
    n2 = cross[0].real
    interference = math.fsum(abs(c) ** 2 for c in cross[1:])
    exact = math.log2(1 + 1e8 * n2**2 / (1e8 * interference + n2))
    assert exact == pytest.approx(57.545, abs=1e-3)
    assert instantaneous_se(uplink_sinr(G, 1e8, 1)) == pytest.approx(exact, rel=1e-12)


def test_uplink_zero_column_rejected():
    G = np.zeros((3, 2), dtype=complex)
    G[:, 1] = 1.0
    with pytest.raises(DegenerateChannelError):
        uplink_sinr(G, 1.0, 1)


def brute_force_dl_sinr(G, beta, p_r, k, t, excluded_symbols):
    M, K = G.shape
    c = p_r / (M * float(np.sum(beta)))
    gk = G[:, k - 1]
    n2 = float(np.real(gk.conj() @ gk))
    interference = 0.0
    for i in range(1, K + 1):
        if two_branch_partner(i, t, K) in excluded_symbols:
            continue
        interference += float(abs(gk.conj() @ G[:, i - 1]) ** 2)
    return c * n2**2 / (c * interference + 1.0)


def test_conventional_matches_enumeration_oracle():
    beta = np.array([1.0, 0.5, 2.0])
    G = random_channel(4, 3, seed=21) * np.sqrt(beta)
    for k in range(1, 4):
        for t in range(1, 3):
            expected = brute_force_dl_sinr(
                G, beta, 7.0, k, t,
                {two_branch_partner(k, t, 3), two_branch_partner(k - t, t, 3)},
            )
            assert conventional_dl_sinr(G, beta, 7.0, k, t) == pytest.approx(expected, rel=1e-12)


def test_conventional_no_interferers_k2():
    G = random_channel(6, 2, seed=3)
    beta = np.ones(2)
    c = 10.0 / (6 * 2)
    n2 = float(np.linalg.norm(G[:, 0]) ** 2)
    assert conventional_dl_sinr(G, beta, 10.0, 1, 1) == pytest.approx(c * n2**2, rel=1e-12)


def test_conventional_orthogonal_columns():
    G = np.zeros((4, 3), dtype=complex)
    G[0, 0] = G[1, 1] = G[2, 2] = 1.0
    beta = np.ones(3)
    c = 5.0 / (4 * 3)
    for k in range(1, 4):
        assert conventional_dl_sinr(G, beta, 5.0, k, 1) == pytest.approx(c, rel=1e-12)


def test_conventional_interference_term_count():
    # Exactly K-2 terms: on an all-ones rank-one channel every cross product
    # equals M^2, so the interference sum is (K-2) * M^2 exactly.
    M, K = 3, 5
    G = np.ones((M, K), dtype=complex)
    beta = np.ones(K)
    c = 2.0 / (M * K)
    got = conventional_dl_sinr(G, beta, 2.0, 1, 2)
    expected = c * M**2 / (c * (K - 2) * M**2 + 1.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_proposed_equals_conventional_at_slot_one():
    G = random_channel(8, 7, seed=5)
    beta = np.linspace(0.5, 2.0, 7)
    Gc = G * np.sqrt(beta)
    for k in range(1, 8):
        assert proposed_dl_sinr(Gc, beta, 10.0, k, 1) == conventional_dl_sinr(Gc, beta, 10.0, k, 1)


def test_proposed_matches_enumeration_oracle_k3():
    G = random_channel(4, 3, seed=13)
    beta = np.ones(3)
    for k in range(1, 4):
        expected = brute_force_dl_sinr(
            G, beta, 3.0, k, 1,
            {two_branch_partner(k - 1 + d, 1, 3) for d in range(2)},
        )
        assert proposed_dl_sinr(G, beta, 3.0, k, 1) == pytest.approx(expected, rel=1e-12)


def test_proposed_monotone_in_slot():
    G = random_channel(16, 9, seed=8)
    beta = np.ones(9)
    idx = SlotIndexer(9)
    for k in range(1, 10):
        values = [proposed_dl_sinr(G, beta, 10.0, k, t) for t in range(1, idx.sic_slots + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_proposed_dominates_conventional_every_slot():
    G = random_channel(12, 8, seed=30)
    beta = np.ones(8)
    for k in range(1, 9):
        for t in range(1, SlotIndexer(8).sic_slots + 1):
            assert proposed_dl_sinr(G, beta, 4.0, k, t) >= conventional_dl_sinr(G, beta, 4.0, k, t) - 1e-15


def test_slot_range_validation():
    G = random_channel(4, 4, seed=1)
    beta = np.ones(4)
    with pytest.raises(ValueError):
        conventional_dl_sinr(G, beta, 1.0, 1, 4)
    with pytest.raises(ValueError):
        proposed_dl_sinr(G, beta, 1.0, 1, 3)  # sic slots = 2 for K=4
    # Index 0 or -1 would wrap silently in the schedule tables, so the checks
    # must come before any table read.
    for dl_sinr in (conventional_dl_sinr, proposed_dl_sinr):
        with pytest.raises(ValueError):
            dl_sinr(G, beta, 1.0, 1, 0)
        for k in (0, 5):
            with pytest.raises(ValueError):
                dl_sinr(G, beta, 1.0, k, 1)
    for k in (0, 5):
        with pytest.raises(ValueError):
            build_zf_stage(G, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [
    lambda G: uplink_sinr(G, 1.0, 1),
    lambda G: conventional_dl_sinr(G, np.ones(5), 1.0, 1, 2),
    lambda G: proposed_dl_sinr(G, np.ones(5), 1.0, 1, 2),
    lambda G: build_zf_stage(G, 1),
], ids=["uplink", "conventional", "proposed", "zf_stage"])
def test_non_finite_channel_rejected(fn, bad):
    G = random_channel(8, 5, seed=3)
    G[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fn(G)


def test_zf_stage_k3_closed_form():
    G = random_channel(6, 3, seed=2)
    for k in range(1, 4):
        stage = build_zf_stage(G, k)
        partner = (k % 3) + 1
        inner = abs(G[:, k - 1].conj() @ G[:, partner - 1]) ** 2
        assert stage.noise_gain[0] == pytest.approx(1.0 / inner, rel=1e-12)


def test_zf_stage_empty_for_k2():
    G = random_channel(8, 2, seed=2)
    stage = build_zf_stage(G, 1)
    assert stage.n_unknowns == 0
    assert stage.noise_gain.size == 0
    assert stage.combiner().shape == (0, 1)


def test_zf_noise_gain_matches_dense_inverse():
    # Oracle builds the offset-ordered coefficient matrix from scratch and
    # inverts the Gram densely.
    rng = substream(77, STREAM_CHANNEL, 5)
    for K in (5, 8, 10):
        idx = SlotIndexer(K)
        M = 8 if K == 5 else 2 * K
        G = draw_small_scale(M, K, rng)
        for k in (1, K // 2 + 1):
            A = np.array([
                [G[:, k - 1].conj() @ G[:, two_branch_partner(k, r + n - 1, K) - 1]
                 for n in range(1, idx.n_unknowns + 1)]
                for r in range(1, idx.sic_slots + 1)
            ])
            dense = np.linalg.inv(A.conj().T @ A)
            stage = build_zf_stage(G, k)
            assert np.allclose(stage.noise_gain, np.diag(dense).real, rtol=1e-10)


def test_zf_combiner_inverts_mixing():
    G = random_channel(16, 9, seed=4)
    for k in range(1, 10):
        stage = build_zf_stage(G, k)
        eye = stage.combiner() @ stage.mixing
        assert np.max(np.abs(eye - np.eye(stage.n_unknowns))) < 1e-9


def test_zf_stage_factors_its_gram_once(monkeypatch):
    calls = []
    factor = rates._factor_gram

    def counting(gram):
        calls.append(gram.shape)
        return factor(gram)

    monkeypatch.setattr(rates, "_factor_gram", counting)
    stage = build_zf_stage(random_channel(16, 9, seed=4), 1)
    stage.combiner()
    assert calls == [(stage.n_unknowns, stage.n_unknowns)]


@pytest.mark.parametrize("K", range(2, 14))
def test_stacked_zf_stage_matches_per_user_stages(K):
    # K = 2 leaves no unknowns; at odd K the residual systems are square.
    G = random_channel(K + 6, K, seed=20 + K)
    idx = SlotIndexer(K)
    users = np.arange(1, K + 1)
    stacked = build_zf_stage(G, users)
    assert stacked.n_unknowns == idx.n_unknowns
    combiners = stacked.combiner()
    for k in users:
        single = build_zf_stage(G, int(k))
        for field in ("mixing", "inverse", "noise_gain"):
            np.testing.assert_allclose(getattr(stacked, field)[k - 1], getattr(single, field),
                                       rtol=1e-12, atol=0)
        np.testing.assert_allclose(combiners[k - 1], single.combiner(), rtol=1e-12, atol=1e-15)
        eye = combiners[k - 1] @ stacked.mixing[k - 1]
        assert np.max(np.abs(eye - np.eye(idx.n_unknowns)), initial=0.0) < 1e-9
        for n in range(1, idx.n_unknowns + 1):
            assert zf_sinr(stacked, np.ones(K), 4.0, K + 6, n)[k - 1] == pytest.approx(
                zf_sinr(single, np.ones(K), 4.0, K + 6, n), rel=1e-12)


@pytest.mark.parametrize("K", [5, 6, 10])
def test_stacked_zf_stage_singular_when_any_user_is(K):
    # Equal columns make every residual system rank one, and columns equal up
    # to 1e-6 leave pivots only the PIVOT_RTOL rule flags; a zeroed column
    # makes only its own user's system singular. The stacked call must raise
    # exactly when some per-user call does.
    rng = np.random.default_rng(K)
    equal = np.repeat(draw_small_scale(16, 1, rng), K, axis=1)
    one_zero = draw_small_scale(16, K, rng)
    one_zero[:, 2] = 0.0
    cases = (equal, equal + 1e-6 * draw_small_scale(16, K, rng), one_zero,
             draw_small_scale(16, K, rng))
    users = np.arange(1, K + 1)
    seen = []
    for G in cases:
        verdicts = []
        for k in users:
            try:
                build_zf_stage(G, int(k))
                verdicts.append(False)
            except SingularSystemError:
                verdicts.append(True)
        seen.append(verdicts)
        if any(verdicts):
            with pytest.raises(SingularSystemError):
                build_zf_stage(G, users)
        else:
            build_zf_stage(G, users)
    assert seen == [[True] * K, [True] * K, [k == 3 for k in users], [False] * K]


def test_stacked_zf_stage_rejects_bad_users():
    G = random_channel(8, 4, seed=3)
    for users in (np.array([1, 5]), np.array([0, 2]), np.array([[1, 2]])):
        with pytest.raises(ValueError):
            build_zf_stage(G, users)


@pytest.mark.parametrize("k", [1.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("fn", [lambda G, k: uplink_sinr(G, 1.0, k), build_zf_stage],
                         ids=["uplink", "zf_stage"])
def test_non_integer_user_rejected(fn, k):
    # 1.5 used to raise IndexError and True to stand for user 1.
    with pytest.raises(ValueError, match="outside 1..4"):
        fn(random_channel(8, 4, seed=3), k)


def test_zf_singular_gram_detected():
    # Identical columns collapse the residual coefficients to rank one.
    base = random_channel(6, 1, seed=6)[:, 0]
    G = np.stack([base] * 5, axis=1)
    with pytest.raises(SingularSystemError) as info:
        build_zf_stage(G, 1)
    assert info.value.condition > 1e10 or math.isinf(info.value.condition)


def test_subnormal_pivot_singular():
    # A subnormal pivot passes the relative rule but its solve can return
    # NaN, so it fails as a zero pivot does.
    with pytest.raises(SingularSystemError):
        rates.check_pivots(np.array(5e-324), np.array(1e-320))
    rates.check_pivots(np.array(np.finfo(float).tiny), np.array(1e-300))


def test_overflowing_condition_is_inf():
    # largest / least overflows a float: the failure raises SingularSystemError
    # with an infinite condition, with no overflow warning first.
    for least, largest in ((1e-300, 1e20), (1e-310, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError) as info:
                rates.check_pivots(np.array(least), np.array(largest))
        assert info.value.condition == math.inf


def _never_regular(least, largest):
    raise SingularSystemError("forced")


@pytest.mark.parametrize("run", [
    lambda config: estimate_link_se(config, np.ones(5), ("proposed",), 40, seed=1),
    lambda config: cdf_experiment(config, GeometryModel(), 3, 40, seed=1),
    lambda config: run_round_noisy(config, np.ones(5), trials=3, seed=1),
    lambda config: run_round_noiseless(config, np.ones(5), seed=1),
    lambda config: build_zf_stage(random_channel(config.M, 5, seed=1), np.arange(1, 6)),
], ids=["estimate_link_se", "cdf_experiment", "run_round_noisy", "run_round_noiseless",
        "build_zf_stage"])
def test_every_zf_path_raises_on_a_singular_pivot(run, monkeypatch):
    # One policy: the first Gram that fails check_pivots raises; nothing redraws.
    monkeypatch.setattr(rates, "check_pivots", _never_regular)
    monkeypatch.setattr(montecarlo, "check_pivots", _never_regular)
    with pytest.raises(SingularSystemError, match="forced"):
        run(SystemConfig(M=16, K=5, p_u=1.0, p_r=10.0))


def test_zf_sinr_constructed_identity():
    # For K=3 the noise gain is 1/|g_k^H g_j|^2; pick the cross product so
    # the SINR lands exactly at 1.
    M, K, p_r = 4, 3, 8.0
    target = M * 3.0 / p_r
    G = np.zeros((M, K), dtype=complex)
    G[0, 0] = 1.0
    G[0, 1] = math.sqrt(target)
    G[1, 2] = 1.0
    stage = build_zf_stage(G, 1)
    assert zf_sinr(stage, np.ones(3), p_r, M, 1) == pytest.approx(1.0, rel=1e-12)


def test_zf_sinr_quartic_homogeneity():
    G = random_channel(12, 7, seed=9)
    beta = np.ones(7)
    scale = 1.7 - 0.3j
    s1 = build_zf_stage(G, 2)
    s2 = build_zf_stage(scale * G, 2)
    gain = abs(scale) ** 4
    assert np.allclose(s2.noise_gain * gain, s1.noise_gain, rtol=1e-10)
    for n in range(1, s1.n_unknowns + 1):
        assert zf_sinr(s2, beta, 5.0, 12, n) == pytest.approx(
            gain * zf_sinr(s1, beta, 5.0, 12, n), rel=1e-10
        )


def test_zf_sinr_matches_combiner_row_norm():
    G = random_channel(10, 8, seed=14)
    beta = np.full(8, 0.8)
    stage = build_zf_stage(G, 3)
    rows = stage.combiner()
    c = 6.0 / (10 * beta.sum())
    for n in range(1, stage.n_unknowns + 1):
        explicit = c / float(np.linalg.norm(rows[n - 1]) ** 2)
        assert zf_sinr(stage, beta, 6.0, 10, n) == pytest.approx(explicit, rel=1e-10)


def test_zf_sinr_index_validation():
    G = random_channel(8, 5, seed=15)
    stage = build_zf_stage(G, 1)
    with pytest.raises(ValueError):
        zf_sinr(stage, np.ones(5), 1.0, 8, stage.n_unknowns + 1)


def test_instantaneous_se_values():
    assert instantaneous_se(0.0) == 0.0
    assert instantaneous_se(1.0) == 1.0
    assert instantaneous_se(3.0) == 2.0
    assert np.allclose(instantaneous_se(np.array([0.0, 3.0])), [0.0, 2.0])
    for bad in (-0.1, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            instantaneous_se(bad)


def test_relay_precode_single_column():
    G = np.array([[1.0], [2.0]], dtype=complex)
    out = relay_precode(G, np.array([2.0]), 8.0, np.array([1.0]))
    assert np.allclose(out, math.sqrt(8.0 / (2 * 2.0)) * G[:, 0])


def test_relay_precode_zero_symbols():
    G = random_channel(4, 3, seed=2)
    out = relay_precode(G, np.ones(3), 2.0, np.zeros(3))
    assert np.array_equal(out, np.zeros(4))


def test_relay_precode_frames_as_columns():
    G = random_channel(7, 5, seed=12)
    beta = np.array([0.4, 1.0, 2.5, 0.7, 1.3])
    rng = np.random.default_rng(12)
    frames = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out = relay_precode(G, beta, 3.0, frames)
    assert out.shape == (7, 3)
    for s in range(3):
        np.testing.assert_allclose(out[:, s], relay_precode(G, beta, 3.0, frames[:, s]),
                                   rtol=1e-12, atol=0)
    for bad in (frames[:4], np.vstack([frames, frames[:1]]), frames[None], np.ones(4), 1.0):
        with pytest.raises(ValueError):
            relay_precode(G, beta, 3.0, bad)


@pytest.mark.parametrize("K", [2, 9, 10, 17, 39])
def test_broadcast_scale_of_a_stack_is_its_rows(K):
    # The rate kernel reads one scale per profile of a (P, K) stack, and each
    # must be the scale that profile gets alone, over gains spread across 10 decades.
    rng = np.random.default_rng(K)
    for P in (1, 3, 40):
        betas = 10.0 ** rng.uniform(-5, 5, (P, K))
        for p_r in (1.0, 3.0, 40.0):
            stacked = rates._broadcast_scale(betas, p_r, 100)
            assert stacked.shape == (P,)
            assert np.array_equal(stacked, [rates._broadcast_scale(row, p_r, 100) for row in betas])


def test_relay_precode_average_power():
    # E||s||^2 = p_r because E||g_i||^2 = M beta_i.
    rng = substream(55, STREAM_CHANNEL, 9)
    M, K, p_r = 16, 6, 4.0
    beta = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 0.8])
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        G = draw_small_scale(M, K, rng) * np.sqrt(beta)
        x = np.exp(2j * np.pi * rng.uniform(size=K))
        total += float(np.linalg.norm(relay_precode(G, beta, p_r, x)) ** 2)
    assert abs(total / trials - p_r) / p_r < 0.02


def test_package_import_leaves_scipy_unloaded():
    # The package depends on numpy alone: neither the figure paths (sweep-m,
    # cdf, batched ZF kernel included) nor the scalar zero-forcing oracle and
    # the symbol rounds that decode through it load scipy.
    code = (
        "import sys, numpy as np, mwrelay, mwrelay.cli\n"
        "config = mwrelay.SystemConfig(M=12, K=6, p_u=1.0, p_r=10.0)\n"
        "mwrelay.estimate_link_se(config, np.ones(6), ('proposed',), 8, seed=1)\n"
        "mwrelay.cdf_experiment(config, mwrelay.GeometryModel(), 3, 8, seed=1)\n"
        "G = mwrelay.draw_small_scale(12, 6, mwrelay.substream(1, 0, 0))\n"
        "mwrelay.build_zf_stage(G, 1).combiner()\n"
        "mwrelay.run_round_noiseless(config, np.ones(6), seed=1)\n"
        "mwrelay.run_round_noisy(config, np.ones(6), trials=4, seed=1)\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"
