"""Closed-form rate bounds and large-antenna asymptotics.

The uplink and broadcast-slot bounds are Jensen lower bounds on the ergodic
spectral efficiencies, expressed through the exact inverse-norm moments of
a scaled complex-Gaussian column (``inverse_norm_moments``).
``bound_report`` evaluates them for every (user, slot) cell of a
configuration in one array pass; their per-cell forms are kept with the
tests, as its oracle. The zero-forcing stage has no closed form; its table
``zf_asymptotic`` is the large-array limit with the residual Gram replaced by
its mean (``zf_asymptotic_rate`` returns one cell). That is optimistic at small
user counts — the Gram entries keep order-one relative spread however large
the array gets — so unlike the Jensen bounds it is not a guaranteed lower
bound (see the validation suite, which quantifies the gap).
``BoundReport.downlink`` lays out a scheme's slots as ``LinkEstimate``
does, and ``schedule.compose_sum_se`` turns them into its sum SE
(``analytic_sum_se``).
"""

from dataclasses import dataclass

import numpy as np

from .channel import _checked_integral, _is_count, checked_gains, checked_positive
from .exceptions import InvalidConfigError
from .schedule import SlotIndexer, checked_user_index, compose_sum_se

__all__ = ["zf_asymptotic_rate", "inverse_norm_moments", "BoundReport", "bound_report",
           "analytic_sum_se"]


def _ordered_sum(terms):
    """Sum over the last axis, added left to right as Python's ``sum`` adds them."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def zf_asymptotic_rate(beta, p_r, K, k, n):
    """Large-array mean-Gram rate of the n-th zero-forcing unknown, bit/s/Hz.

    M-independent: log2(1 + p_r * beta_k * sum of the sic_slots partner gains at offsets
    n .. n + sic_slots - 1, over sum(beta)), user k's cell of ``BoundReport.zf_asymptotic``.
    n is an integer in 1..n_unknowns and p_r is positive and finite, else InvalidConfigError.
    """
    beta = checked_gains(beta, K)
    checked_user_index(k, K)
    idx = SlotIndexer(K)
    if not (_is_count(n) and n <= idx.n_unknowns):
        raise InvalidConfigError(f"unknown index {n!r} outside 1..{idx.n_unknowns}")
    return float(_zf_table(beta, checked_positive(p_r, "p_r"), idx)[k - 1, n - 1])


def _zf_table(beta, p_r, idx):
    """Mean-Gram zero-forcing rates, (K, n_unknowns); partner gains are added left to right."""
    offsets = np.arange(1, idx.n_unknowns + 1)[:, None] + np.arange(idx.sic_slots)
    partners = _ordered_sum(beta[idx.order][:, offsets])
    return np.log2(1.0 + p_r * beta[:, None] * partners / beta.sum())


def inverse_norm_moments(M, beta_k):
    """Exact (E{1/||g_k||^2}, E{1/||g_k||^4}) for a CN(0, beta_k I_M) column.

    1/((M-1) beta_k) and 1/((M-1)(M-2) beta_k^2); the fourth moment needs
    M >= 3 to exist. M is an integer >= 3 (integral floats pass) and beta_k
    positive and finite, else InvalidConfigError.
    """
    M = _checked_integral(M, 3, "antenna count")
    checked_positive(beta_k, "beta_k")
    return 1.0 / ((M - 1) * beta_k), 1.0 / ((M - 1) * (M - 2) * beta_k**2)


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

    def downlink(self, scheme):
        """(K, K-1) slot table as in ``LinkEstimate``; proposed: dl_proposed | zf_asymptotic."""
        if scheme == "conventional":
            return self.dl_conventional
        if scheme == "proposed":
            return np.concatenate([self.dl_proposed, self.zf_asymptotic], axis=1)
        raise ValueError(f"unknown scheme {scheme!r}")

    def sum_se(self, scheme):
        """Closed-form sum SE of ``downlink(scheme)``, composed by ``schedule.compose_sum_se``."""
        return float(compose_sum_se(self.uplink, self.downlink(scheme), scheme)[1])


def bound_report(config, beta):
    """Evaluate every closed-form expression for one configuration.

    Each table is one array pass that takes the per-cell bounds' operations
    in their order, so it matches them cell by cell: interfering and partner
    gains are added one beam at a time, left to right.
    """
    M, K, p_u, p_r = config.M, config.K, config.p_u, config.p_r
    beta = checked_gains(beta, K)
    if M < 2:
        raise ValueError("uplink bound needs M >= 2")
    if M < 3:
        raise ValueError("downlink bounds need M >= 3 (fourth-moment identity)")
    idx = SlotIndexer(K)
    S, total, gain = idx.sic_slots, beta.sum(), beta[:, None]
    uplink = np.log2(1.0 + p_u * (M - 1) * beta / (p_u * (total - beta) + 1.0))
    num = p_r * (M - 1) * (M - 2) * gain**2

    def downlink(interfering):
        return np.log2(1.0 + num / (p_r * (M - 2) * gain * interfering + M * total))

    # In slot t beam j carries user k's offset argsort(beams)[j]; all but offsets 0..t interfere.
    outside = np.argsort(idx.beams[:, :S], axis=-1) > np.arange(1, S + 1)[:, None]
    return BoundReport(uplink=uplink,
                       dl_conventional=downlink(total - gain - beta[idx.beams[:, :, 0]]),
                       dl_proposed=downlink(_ordered_sum(np.where(outside, beta, 0.0))),
                       zf_asymptotic=_zf_table(beta, p_r, idx))


def analytic_sum_se(config, beta, scheme):
    """Closed-form sum SE of one configuration; see ``BoundReport.sum_se``."""
    return bound_report(config, beta).sum_se(scheme)
