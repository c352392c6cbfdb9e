"""Scalar oracles of the link's rate formulas: one realization, one cell at a time.

The package ships each formula once, in batched form: the Monte Carlo
kernel in ``mwrelay.montecarlo`` and the closed-form tables of
``mwrelay.bounds.bound_report``. The per-cell forms below are what the
tests compare those with, so they import nothing from ``montecarlo`` or
from ``bound_report``'s code: the SINRs read a channel matrix G through
``rates._column_products`` and the broadcast scale, the bounds read the
gains through ``channel.checked_gains``, and both take the schedule from
``SlotIndexer``. User and slot indices are 1-based, and a channel with a
non-finite entry is rejected. The dense reference chains build that G
from a direct draw H with ``compose_channel``.
"""

import numpy as np

from mwrelay.channel import checked_gains
from mwrelay.exceptions import InvalidConfigError
from mwrelay.rates import _broadcast_scale, _column_products
from mwrelay.schedule import SlotIndexer, checked_user_index


class DegenerateChannelError(ValueError):
    """A channel realization violates an operation's preconditions (e.g. a zero column)."""


def compose_channel(H, beta):
    """G: column k of H scaled by sqrt(beta_k); exact, no sampling. Gains pass ``checked_gains``."""
    H = np.asarray(H)
    beta = checked_gains(beta)
    if H.ndim != 2 or H.shape[1] != beta.size:
        raise InvalidConfigError(
            f"shape mismatch: H is {H.shape}, beta has {beta.size} entries"
        )
    return H * np.sqrt(beta)[None, :]


def uplink_sinr(G, p_u, k):
    """Post-MRC SINR of user k's symbol at the relay.

    p_u * ||g_k||^4 over (p_u * sum_{i != k} |g_k^H g_i|^2 + ||g_k||^2).
    """
    cross = _column_products(G, k)
    n2 = float(cross[k - 1].real)
    if n2 == 0.0:
        raise DegenerateChannelError(f"column {k} of the channel matrix is zero")
    return p_u * n2**2 / (p_u * _outside_power(cross, [k - 1]) + n2)


def _outside_power(cross, window):
    """Sum of |cross[i]|^2 over the beams i outside ``window``, in ascending beam order."""
    return sum(float(abs(c) ** 2) for c in np.delete(cross, window))


def _broadcast_sinr(G, beta, p_r, k, held):
    """Downlink SINR of user k with the beams of the symbols it holds out of the interference.

    ``held`` indexes user k's (K-1, K) beam table, ``SlotIndexer.beams[k-1]``,
    at the slot and the held symbols whose beams drop out.
    """
    cross = _column_products(G, k)
    n2 = float(cross[k - 1].real)
    c = _broadcast_scale(beta, p_r, G.shape[0])
    interference = _outside_power(cross, SlotIndexer(G.shape[1]).beams[k - 1][held])
    return c * n2**2 / (c * interference + 1.0)


def conventional_dl_sinr(G, beta, p_r, k, t):
    """Downlink SINR of user k in conventional broadcast slot t.

    After self-interference removal only the beams of users k and k-t
    (cyclically) drop out, leaving K-2 interference terms.
    """
    K = G.shape[1]
    if not 1 <= t <= K - 1:
        raise ValueError(f"slot {t} outside 1..{K - 1}")
    return _broadcast_sinr(G, beta, p_r, k, (t - 1, [0, t]))


def proposed_dl_sinr(G, beta, p_r, k, t):
    """Downlink SINR of user k in cancelation slot t.

    Every symbol user k already holds (its own plus those decoded in slots
    1..t-1, plus the current desired one) leaves the interference sum, so
    only K - (t + 1) terms remain. Coincides with the conventional SINR at
    t = 1 and is nondecreasing in t on any fixed realization.
    """
    T = SlotIndexer(G.shape[1]).sic_slots
    if not 1 <= t <= T:
        raise ValueError(f"slot {t} outside 1..{T}")
    return _broadcast_sinr(G, beta, p_r, k, (t - 1, slice(t + 1)))


def zf_sinr(stage, beta, p_r, M, n):
    """Post-combining SINR of the n-th recovered unknown.

    The combiner leaves a clean symbol at scale sqrt(p_r / (M sum(beta)))
    plus noise with power noise_gain[n], so the SINR is their ratio. A
    stacked stage gives one SINR per user.
    """
    if not 1 <= n <= stage.n_unknowns:
        raise ValueError(f"unknown index {n} outside 1..{stage.n_unknowns}")
    return _broadcast_scale(beta, p_r, M) / stage.noise_gain[..., n - 1]


def instantaneous_se(sinr):
    """Spectral efficiency log2(1 + sinr) in bit/s/Hz; accepts arrays."""
    sinr = np.asarray(sinr)
    if not np.all(sinr >= 0):
        raise ValueError("SINR must be nonnegative, not NaN")
    out = np.log2(1.0 + sinr)
    return float(out) if out.ndim == 0 else out


def _check_antennas(M, least):
    """Raise a bound's ValueError for M below ``least``: 2 for the uplink, 3 for the downlink."""
    if M < 2:
        raise ValueError("uplink bound needs M >= 2")
    if M < least:
        raise ValueError("downlink bounds need M >= 3 (fourth-moment identity)")


def uplink_bound(beta, p_u, M, k):
    """Jensen lower bound on the uplink ergodic SE of user k, bit/s/Hz."""
    _check_antennas(M, 2)
    beta = checked_gains(beta)
    checked_user_index(k, beta.size)
    others = beta.sum() - beta[k - 1]
    return float(np.log2(1.0 + p_u * (M - 1) * beta[k - 1] / (p_u * others + 1.0)))


def conventional_dl_bound(beta, p_r, M, K, k, t):
    """Jensen lower bound for conventional slot t (K - 2 interference terms)."""
    _check_antennas(M, 3)
    beta = checked_gains(beta, K)
    checked_user_index(k, K)
    if not 1 <= t <= K - 1:
        raise ValueError(f"slot {t} outside 1..{K - 1}")
    interfering = beta.sum() - beta[k - 1] - beta[SlotIndexer(K).beams[k - 1, t - 1, 0]]
    num = p_r * (M - 1) * (M - 2) * beta[k - 1] ** 2
    den = p_r * (M - 2) * beta[k - 1] * interfering + M * beta.sum()
    return float(np.log2(1.0 + num / den))


def proposed_dl_bound(beta, p_r, M, K, k, t):
    """Jensen lower bound for cancelation slot t (K - t - 1 interference terms)."""
    _check_antennas(M, 3)
    beta = checked_gains(beta, K)
    checked_user_index(k, K)
    idx = SlotIndexer(K)
    if not 1 <= t <= idx.sic_slots:
        raise ValueError(f"slot {t} outside 1..{idx.sic_slots}")
    # Gains of the beams outside the held window, summed in ascending beam order.
    interfering = sum(np.delete(beta, idx.beams[k - 1, t - 1, :t + 1]))
    num = p_r * (M - 1) * (M - 2) * beta[k - 1] ** 2
    den = p_r * (M - 2) * beta[k - 1] * interfering + M * beta.sum()
    return float(np.log2(1.0 + num / den))


def zf_asymptotic_cell(beta, p_r, K, k, n):
    """Mean-Gram rate of user k's n-th zero-forcing unknown, one cell of ``bound_report``.

    log2(1 + p_r * beta_k * the sic_slots partner gains at offsets n .. n +
    sic_slots - 1, summed left to right, over sum(beta)).
    """
    beta = checked_gains(beta, K)
    checked_user_index(k, K)
    idx = SlotIndexer(K)
    partners = sum(beta[idx.order[k - 1, n:n + idx.sic_slots]])
    return float(np.log2(1.0 + p_r * beta[k - 1] * partners / beta.sum()))
