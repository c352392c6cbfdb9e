"""Closed-form rate bounds and large-antenna asymptotics.

The uplink and broadcast-slot bounds are Jensen lower bounds on the ergodic
spectral efficiencies, expressed through the exact inverse-norm moments of
a scaled complex-Gaussian column. The zero-forcing stage has no closed
form; ``zf_asymptotic_rate`` is the large-array limit obtained by replacing
the residual Gram with its mean.  That replacement is optimistic at small
user counts — the Gram entries keep order-one relative spread however large
the array gets — so unlike the Jensen bounds it is not a guaranteed lower
bound (see the validation suite, which quantifies the gap).
"""

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .schedule import SlotIndexer, known_set, partner_index, slot_count

__all__ = [
    "uplink_bound",
    "conventional_dl_bound",
    "proposed_dl_bound",
    "zf_asymptotic_rate",
    "inverse_norm_moments",
    "trace_lemma_statistic",
    "BoundReport",
    "bound_report",
    "analytic_sum_se",
]


def _beta_array(beta):
    beta = np.asarray(getattr(beta, "beta", beta), dtype=float)
    if beta.ndim != 1 or not np.all(beta > 0):
        raise ValueError("beta must be a 1-D array of positive gains")
    return beta


def _check_user(k, K):
    if not 1 <= k <= K:
        raise ValueError(f"user {k} outside 1..{K}")


def uplink_bound(beta, p_u, M, k):
    """Jensen lower bound on the uplink ergodic SE of user k, bit/s/Hz."""
    if M < 2:
        raise ValueError("uplink bound needs M >= 2")
    beta = _beta_array(beta)
    _check_user(k, beta.size)
    others = beta.sum() - beta[k - 1]
    return float(np.log2(1.0 + p_u * (M - 1) * beta[k - 1] / (p_u * others + 1.0)))


def conventional_dl_bound(beta, p_r, M, K, k, t):
    """Jensen lower bound for conventional slot t (K - 2 interference terms)."""
    if M < 3:
        raise ValueError("downlink bounds need M >= 3 (fourth-moment identity)")
    beta = _beta_array(beta)
    if beta.size != K:
        raise ValueError(f"beta has {beta.size} entries, expected K={K}")
    _check_user(k, K)
    if not 1 <= t <= K - 1:
        raise ValueError(f"slot {t} outside 1..{K - 1}")
    interfering = beta.sum() - beta[k - 1] - beta[partner_index(k, -t, K) - 1]
    num = p_r * (M - 1) * (M - 2) * beta[k - 1] ** 2
    den = p_r * (M - 2) * beta[k - 1] * interfering + M * beta.sum()
    return float(np.log2(1.0 + num / den))


def proposed_dl_bound(beta, p_r, M, K, k, t):
    """Jensen lower bound for cancelation slot t (K - t - 1 interference terms)."""
    if M < 3:
        raise ValueError("downlink bounds need M >= 3 (fourth-moment identity)")
    beta = _beta_array(beta)
    if beta.size != K:
        raise ValueError(f"beta has {beta.size} entries, expected K={K}")
    _check_user(k, K)
    limit = slot_count(K)
    if not 1 <= t <= limit:
        raise ValueError(f"slot {t} outside 1..{limit}")
    held = known_set(k, t, K)
    interfering = sum(
        beta[i - 1] for i in range(1, K + 1) if partner_index(i, t, K) not in held
    )
    num = p_r * (M - 1) * (M - 2) * beta[k - 1] ** 2
    den = p_r * (M - 2) * beta[k - 1] * interfering + M * beta.sum()
    return float(np.log2(1.0 + num / den))


def zf_asymptotic_rate(beta, p_r, K, k, n):
    """Large-array mean-Gram rate of the n-th zero-forcing unknown, bit/s/Hz.

    M-independent: log2(1 + p_r * beta_k * sum of the sic_slots partner
    gains at offsets n .. n + sic_slots - 1, over sum(beta)).
    """
    beta = _beta_array(beta)
    if beta.size != K:
        raise ValueError(f"beta has {beta.size} entries, expected K={K}")
    _check_user(k, K)
    idx = SlotIndexer(K)
    if not 1 <= n <= idx.n_unknowns:
        raise ValueError(f"unknown index {n} outside 1..{idx.n_unknowns}")
    partners = sum(beta[partner_index(k, n + i - 1, K) - 1] for i in range(1, idx.sic_slots + 1))
    return float(np.log2(1.0 + p_r * beta[k - 1] * partners / beta.sum()))


def inverse_norm_moments(M, beta_k):
    """Exact (E{1/||g_k||^2}, E{1/||g_k||^4}) for a CN(0, beta_k I_M) column.

    1/((M-1) beta_k) and 1/((M-1)(M-2) beta_k^2); the fourth moment needs
    M >= 3 to exist.
    """
    if M < 3:
        raise ValueError("inverse-norm moments need M >= 3")
    if not beta_k > 0:
        raise ValueError("beta_k must be positive")
    return 1.0 / ((M - 1) * beta_k), 1.0 / ((M - 1) * (M - 2) * beta_k**2)


def trace_lemma_statistic(G, k, i):
    """Sample value of |g_k^H g_j|^2 / M with j the offset-i partner of k.

    Its mean is exactly beta_k * beta_j at every M; the sample itself keeps
    order-one relative spread (exponential-type), so single draws do not
    concentrate around the mean.
    """
    M, K = G.shape
    _check_user(k, K)
    j = partner_index(k, i, K)
    if j == k:
        raise ValueError("offset i must not map user k onto itself")
    inner = G[:, k - 1].conj() @ G[:, j - 1]
    return float(abs(inner) ** 2) / M


@dataclass(frozen=True)
class BoundReport:
    """Closed-form rates for every (user, slot) cell of both schemes, bit/s/Hz.

    ``dl_proposed`` covers the cancelation slots 1..sic_slots and
    ``zf_asymptotic`` the remaining unknowns; ``dl_conventional`` covers all
    K - 1 conventional slots.
    """

    uplink: np.ndarray
    dl_conventional: np.ndarray
    dl_proposed: np.ndarray
    zf_asymptotic: np.ndarray


def bound_report(config, beta):
    """Evaluate every closed-form expression for one configuration."""
    beta = _beta_array(beta)
    M, K = config.M, config.K
    idx = SlotIndexer(K)
    uplink = np.array([uplink_bound(beta, config.p_u, M, k) for k in range(1, K + 1)])
    dl_conv = np.array(
        [[conventional_dl_bound(beta, config.p_r, M, K, k, t) for t in range(1, K)]
         for k in range(1, K + 1)]
    )
    dl_prop = np.array(
        [[proposed_dl_bound(beta, config.p_r, M, K, k, t) for t in range(1, idx.sic_slots + 1)]
         for k in range(1, K + 1)]
    )
    zf_asym = np.array(
        [[zf_asymptotic_rate(beta, config.p_r, K, k, n) for n in range(1, idx.n_unknowns + 1)]
         for k in range(1, K + 1)]
    )
    return BoundReport(uplink=uplink, dl_conventional=dl_conv,
                       dl_proposed=dl_prop, zf_asymptotic=zf_asym)


def analytic_sum_se(config, beta, scheme):
    """Closed-form sum SE: per-cell min(uplink, downlink), summed, pre-logged.

    The proposed scheme composes the cancelation-slot bounds with the
    zero-forcing asymptote and pre-log 1/(sic_slots + 1); the conventional
    scheme uses its K - 1 slot bounds with pre-log 1/K.
    """
    report = bound_report(config, beta)
    idx = SlotIndexer(config.K)
    if scheme == "proposed":
        table = np.concatenate([report.dl_proposed, report.zf_asymptotic], axis=1)
        pre_log = 1.0 / idx.proposed_slots
    elif scheme == "conventional":
        table = report.dl_conventional
        pre_log = 1.0 / idx.conventional_slots
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(pre_log * np.minimum(report.uplink[:, None], table).sum())
