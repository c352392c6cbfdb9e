"""Acceptance suite: one test per validation criterion, stated tolerances.

Each test prints one PASS/FAIL line (run with -s to stream them). Criteria
1-3 probe the large-array treatment of the zero-forcing stage: the mean-Gram
asymptote overstates the simulated zero-forcing rates at these user counts
(the Gram entries keep order-one spread however large M gets), so those
checks fail and document the gap; the remaining criteria pass.
"""

import numpy as np
import pytest

from mwrelay import (
    GeometryModel,
    SlotIndexer,
    SystemConfig,
    analytic_sum_se,
    bound_report,
    build_zf_stage,
    cdf_experiment,
    draw_small_scale,
    estimate_link_se,
    run_round_noiseless,
    sum_se,
)
from mwrelay.channel import STREAM_CHANNEL, substream
from mwrelay.cli import parse_and_dispatch

P_U = 1.0   # 0 dB
P_R = 10.0  # 10 dB
TRIALS = 10_000
SEED = 1


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def link_tables():
    """Monte Carlo estimates for the headline grid, shared across criteria."""
    tables = {}
    for K in (5, 10):
        beta = np.ones(K)
        for M in (100, 200, 300):
            config = SystemConfig(M=M, K=K, p_u=P_U, p_r=P_R)
            cell = {"config": config, "beta": beta}
            cell.update(estimate_link_se(config, beta, ("conventional", "proposed"), TRIALS, SEED))
            tables[(K, M)] = cell
    return tables


def test_criterion_1_bound_tightness(link_tables):
    """Analytic sum SE within 5% of Monte Carlo; Jensen bounds below MC + 2se."""
    failures = []
    details = []
    for (K, M), cell in sorted(link_tables.items()):
        config, beta = cell["config"], cell["beta"]
        idx = SlotIndexer(K)
        bounds = bound_report(config, beta)
        for scheme in ("conventional", "proposed"):
            estimate = cell[scheme]
            mc = sum_se(estimate, scheme).sum_se
            analytic = analytic_sum_se(config, beta, scheme)
            rel = abs(analytic - mc) / mc
            details.append(f"K={K} M={M} {scheme}: mc={mc:.3f} analytic={analytic:.3f} rel={rel:.2%}")
            if rel > 0.05:
                failures.append(details[-1])
            for k in range(1, K + 1):
                if bounds.uplink[k - 1] > estimate.uplink[k - 1] + 2 * estimate.uplink_stderr[k - 1]:
                    failures.append(f"uplink bound above MC at K={K} M={M} k={k}")
                slots = bounds.dl_conventional if scheme == "conventional" else bounds.dl_proposed
                n_slots = K - 1 if scheme == "conventional" else idx.sic_slots
                for t in range(1, n_slots + 1):
                    mean = estimate.downlink[k - 1, t - 1]
                    stderr = estimate.downlink_stderr[k - 1, t - 1]
                    if slots[k - 1, t - 1] > mean + 2 * stderr:
                        failures.append(
                            f"{scheme} slot bound above MC at K={K} M={M} k={k} t={t}"
                        )
    ok = not failures
    report(1, ok, "; ".join(details[:4]) + (f" … +{len(details) - 4} cells" if len(details) > 4 else ""))
    assert ok, "criterion 1 violations:\n" + "\n".join(failures)


def test_criterion_2_near_doubling(link_tables):
    """Proposed/conventional sum-SE ratio in [1.5, 2.0] at K=10, M=100."""
    cell = link_tables[(10, 100)]
    proposed = sum_se(cell["proposed"], "proposed")
    conventional = sum_se(cell["conventional"], "conventional")
    assert proposed.pre_log / conventional.pre_log == pytest.approx(10 / 6, rel=1e-12)
    ratio = proposed.sum_se / conventional.sum_se
    ok = 1.5 <= ratio <= 2.0
    report(2, ok, f"ratio={ratio:.4f} (pre-log alone 10/6={10 / 6:.4f})")
    assert ok, f"sum-SE ratio {ratio:.4f} outside [1.5, 2.0]"


def _mean_scaled_noise_gain(M, K, trials, seed):
    idx = SlotIndexer(K)
    totals = np.zeros(idx.n_unknowns)
    count = 0
    for trial in range(trials):
        G = draw_small_scale(M, K, substream(seed, STREAM_CHANNEL, trial))
        for k in range(1, K + 1):
            totals += M * build_zf_stage(G, k).noise_gain
            count += 1
    return totals / count


def test_criterion_3_zf_gram_convergence():
    """Trial-averaged M * noise_gain within 5% of 1/(beta_k * sic_slots) at M=1024."""
    limit = 0.2  # K=10, unit gains: 1 / (1 * 5)
    coarse = _mean_scaled_noise_gain(64, 10, 300, seed=SEED)
    fine = _mean_scaled_noise_gain(1024, 10, 300, seed=SEED)
    rel_fine = np.abs(fine - limit) / limit
    rel_coarse = np.abs(coarse - limit) / limit
    ok = bool(np.all(rel_fine <= 0.05) and np.all(rel_fine < rel_coarse))
    report(
        3, ok,
        f"M=1024 avg={np.round(fine, 3)} vs limit {limit} (rel {np.round(rel_fine, 2)}); "
        f"M=64 rel {np.round(rel_coarse, 2)}",
    )
    assert ok, (
        f"M*noise_gain at M=1024 averaged {fine} (limit {limit}); "
        f"relative errors {rel_fine} vs {rel_coarse} at M=64"
    )


def test_criterion_4_inverse_norm_moments():
    """Empirical inverse-norm moments at M=50 over 1e6 draws."""
    M, draws = 50, 1_000_000
    batch = 100_000
    inv2 = 0.0
    inv4 = 0.0
    for b in range(draws // batch):
        H = draw_small_scale(M, batch, substream(SEED, STREAM_CHANNEL, b))
        norms = (np.abs(H) ** 2).sum(axis=0)
        inv2 += float((1.0 / norms).sum())
        inv4 += float((1.0 / norms**2).sum())
    inv2 /= draws
    inv4 /= draws
    target2, target4 = 1 / 49, 1 / (49 * 48)
    rel2 = abs(inv2 - target2) / target2
    rel4 = abs(inv4 - target4) / target4
    ok = rel2 < 0.01 and rel4 < 0.02
    report(4, ok, f"E 1/|g|^2 rel err {rel2:.4%}, E 1/|g|^4 rel err {rel4:.4%}")
    assert ok


def test_criterion_5_zf_exactness():
    """Combiner inverts the mixing matrix; noise gains match dense inverses."""
    rng = substream(SEED, STREAM_CHANNEL, 424242)
    worst_eye = 0.0
    worst_gain = 0.0
    checked = 0
    while checked < 100:
        K = int(rng.integers(3, 13))
        M = int(rng.integers(K, 65))
        G = draw_small_scale(M, K, rng)
        k = int(rng.integers(1, K + 1))
        stage = build_zf_stage(G, k)
        eye_err = float(np.max(np.abs(stage.combiner() @ stage.mixing - np.eye(stage.n_unknowns))))
        dense = np.diag(np.linalg.inv(stage.mixing.conj().T @ stage.mixing)).real
        gain_err = float(np.max(np.abs(stage.noise_gain - dense) / dense))
        worst_eye = max(worst_eye, eye_err)
        worst_gain = max(worst_gain, gain_err)
        checked += 1
    ok = worst_eye <= 1e-9 and worst_gain <= 1e-10
    report(5, ok, f"worst |ZA - I| = {worst_eye:.2e}, worst noise-gain rel err = {worst_gain:.2e}")
    assert ok


def test_criterion_6_end_to_end_recovery():
    """Noiseless rounds recover every symbol in sic_slots + 1 slots, 50 seeds."""
    worst = 0.0
    for K in range(2, 11):
        config = SystemConfig(M=32, K=K, p_u=P_U, p_r=P_R)
        beta = np.ones(K)
        expected_slots = SlotIndexer(K).proposed_slots
        for seed in range(50):
            outcome = run_round_noiseless(config, beta, seed)
            worst = max(worst, outcome.max_deviation)
            assert outcome.slots_used == expected_slots
            assert all(s == frozenset(range(1, K + 1)) for s in outcome.knowledge_history[-1])
    ok = worst <= 1e-9
    report(6, ok, f"worst deviation {worst:.2e} over K=2..10 x 50 seeds")
    assert ok


def test_criterion_7_cdf_ordering():
    """95%-likely sum SE strictly increases over K = 5 -> 7 -> 10 at M=100."""
    geometry = GeometryModel()
    likely = {}
    for K in (5, 7, 10):
        config = SystemConfig(M=100, K=K, p_u=P_U, p_r=P_R)
        likely[K] = cdf_experiment(config, geometry, 2000, 1000, SEED)["proposed"].likely_95
    ok = likely[5] < likely[7] < likely[10]
    report(7, ok, f"95%-likely sum SE: K=5 {likely[5]:.3f} < K=7 {likely[7]:.3f} < K=10 {likely[10]:.3f}")
    assert ok


def test_criterion_8_deterministic_csv(tmp_path, monkeypatch):
    """Byte-identical CSV at worker counts 1 and 8 and across repeat runs."""
    experiments = {
        "sweep": ["sweep-m", "--k", "5", "--m", "32:64:32", "--trials", "400",
                  "--seed", "2", "--scheme", "both"],
        "cdf": ["cdf", "--k", "5", "--m", "48", "--profiles", "40", "--trials", "100",
                "--seed", "2", "--beta", "geometry"],
    }
    ok = True
    for name, args in experiments.items():
        outputs = []
        for label, workers in (("w1", "1"), ("w1b", "1"), ("w8", "8")):
            monkeypatch.setenv("MWRELAY_THREADS", workers)
            path = tmp_path / f"{name}_{label}.csv"
            assert parse_and_dispatch(args + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    report(8, ok, "sweep-m and cdf byte-identical at worker counts 1, 1, 8")
    assert ok
