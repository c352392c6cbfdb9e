"""Schedule algebra: routing map, known sets, residual-system offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrelay import (
    InvalidConfigError,
    SlotIndexer,
    SystemConfig,
    known_set,
    partner_index,
    remaining_unknowns,
    slot_count,
    zf_coefficient_offset,
)

users = st.integers(min_value=2, max_value=40)


def test_slot_count_values():
    assert slot_count(10) == 5
    assert slot_count(5) == 2
    assert slot_count(2) == 1


def test_slot_count_rejects_small_k():
    with pytest.raises(InvalidConfigError):
        slot_count(1)
    with pytest.raises(InvalidConfigError):
        slot_count(0)


@pytest.mark.parametrize("K", [float("inf"), float("nan"), True, 1, 2.5],
                         ids=["inf", "nan", "true", "one", "fraction"])
@pytest.mark.parametrize("make", [
    slot_count,
    SlotIndexer,
    lambda K: partner_index(1, 1, K),
    lambda K: SystemConfig(M=16, K=K, p_u=1.0, p_r=1.0),
], ids=["slot_count", "indexer", "partner", "config"])
def test_user_count_rule_shared(make, K):
    # The schedule used to raise OverflowError for inf and a bare ValueError
    # for NaN, where SystemConfig raised InvalidConfigError.
    with pytest.raises(InvalidConfigError, match="user count must be an integer >= 2|K must be"):
        make(K)


def test_partner_index_examples():
    # Two-branch form: (k+t) mod K unless k+t == K, in which case K.
    assert partner_index(1, 1, 5) == 2
    assert partner_index(3, 2, 5) == 5
    assert partner_index(4, 3, 5) == 2
    assert partner_index(-1, 2, 5) == 1


def test_partner_matches_two_branch_definition():
    for K in range(2, 12):
        for k in range(1, K + 1):
            for t in range(1, K):
                branch = (k + t) % K if (k + t) != K else K
                if branch == 0:
                    branch = K
                assert partner_index(k, t, K) == branch


@given(users, st.integers(-100, 100), st.integers(-100, 100))
def test_partner_self_symbol_identity(K, k, t):
    assert partner_index(k - t, t, K) == ((k - 1) % K) + 1


@given(users, st.integers(-50, 50))
def test_partner_is_bijection_per_slot(K, t):
    image = {partner_index(k, t, K) for k in range(1, K + 1)}
    assert image == set(range(1, K + 1))


def test_known_set_examples():
    assert known_set(1, 1, 5) == {1, 2}
    assert known_set(2, 2, 5) == {2, 3, 4}
    assert known_set(4, 2, 5) == {4, 5, 1}


def test_known_set_contents():
    # Own symbol plus everything decoded in slots 1..t.
    for K in (2, 5, 8, 11):
        for k in range(1, K + 1):
            for t in range(0, slot_count(K) + 1):
                held = known_set(k, t, K)
                assert len(held) == t + 1
                assert k in held
                assert held == {k} | {partner_index(k, d, K) for d in range(1, t + 1)}


def test_known_set_slot_range():
    with pytest.raises(ValueError):
        known_set(1, slot_count(5) + 1, 5)
    with pytest.raises(ValueError):
        known_set(1, -1, 5)


def test_remaining_unknowns_examples():
    assert remaining_unknowns(1, 5) == [4, 5]
    assert remaining_unknowns(1, 10) == [7, 8, 9, 10]
    assert remaining_unknowns(1, 2) == []


@given(users, st.integers(1, 40))
def test_partition_into_known_and_unknown(K, k):
    k = (k - 1) % K + 1
    held = known_set(k, slot_count(K), K)
    rest = remaining_unknowns(k, K)
    assert len(rest) == K - slot_count(K) - 1
    assert held.isdisjoint(rest)
    assert held | set(rest) == set(range(1, K + 1))


def test_zf_offset_examples():
    tp = slot_count(10)
    assert zf_coefficient_offset(tp, 1, tp) == 1
    assert zf_coefficient_offset(1, 10 - tp - 1, tp) == 10 - 2
    assert zf_coefficient_offset(1, 1, 2) == 2


def test_zf_offset_column_sets():
    idx = SlotIndexer(10)
    for n in range(1, idx.n_unknowns + 1):
        offsets = {idx.offset(m, n) for m in range(1, idx.sic_slots + 1)}
        assert offsets == set(range(n, n + idx.sic_slots))


def test_zf_offset_range_checks():
    with pytest.raises(ValueError):
        zf_coefficient_offset(0, 1, 3)
    with pytest.raises(ValueError):
        zf_coefficient_offset(4, 1, 3)
    with pytest.raises(ValueError):
        zf_coefficient_offset(1, 0, 3)
    with pytest.raises(ValueError):
        SlotIndexer(10).offset(1, 5)


@given(users)
@settings(max_examples=30)
def test_indexer_slot_budget(K):
    idx = SlotIndexer(K)
    assert idx.sic_slots >= idx.n_unknowns
    assert idx.proposed_slots == idx.sic_slots + 1
    assert idx.conventional_slots == K
    assert idx.proposed_slots <= idx.conventional_slots


@given(users, st.data())
@settings(max_examples=50)
def test_tables_match_scalar_oracle(K, data):
    idx = SlotIndexer(K)
    order, beams = idx.order, idx.beams
    assert order.shape == (K, K) and beams.shape == (K, K - 1, K)
    k = data.draw(st.integers(1, K), label="k")
    held = (order[k - 1] + 1).tolist()
    assert held == [partner_index(k, t, K) for t in range(K)]
    for t in range(1, K):
        assert [partner_index(b + 1, t, K) for b in beams[k - 1, t - 1]] == held
    for t in range(idx.sic_slots + 1):
        assert set(held[:t + 1]) == known_set(k, t, K)
    T = idx.sic_slots
    zf_beams = [[idx.beam(k, m, n) - 1 for n in range(1, idx.n_unknowns + 1)]
                for m in range(1, T + 1)]
    assert beams[k - 1, :T, T + 1:].tolist() == zf_beams
    for table in (order, beams):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    assert SlotIndexer(K).beams is beams


def test_gram_invariant_under_row_order():
    # Slot-ordered rows are the reverse of offset-ordered rows; the Gram
    # matrix cannot tell them apart.
    rng = np.random.default_rng(7)
    for K in (5, 8, 11):
        idx = SlotIndexer(K)
        M = 16
        G = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / np.sqrt(2)
        k = 2
        cross = G[:, k - 1].conj() @ G
        slot_rows = np.array([
            [cross[idx.beam(k, m, n) - 1] for n in range(1, idx.n_unknowns + 1)]
            for m in range(1, idx.sic_slots + 1)
        ])
        offset_rows = np.array([
            [cross[partner_index(k, r + n - 1, K) - 1] for n in range(1, idx.n_unknowns + 1)]
            for r in range(1, idx.sic_slots + 1)
        ])
        assert np.allclose(slot_rows, offset_rows[::-1], rtol=0, atol=0)
        g1 = slot_rows.conj().T @ slot_rows
        g2 = offset_rows.conj().T @ offset_rows
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-12)
