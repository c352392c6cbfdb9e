"""Integer algebra of the transmission schedule.

Everything here is pure bookkeeping: how many broadcast slots each scheme
needs, which symbol the relay routes to which user in a given slot, which
symbols a user already knows after successive cancelation, and where the
remaining unknowns sit inside the residual zero-forcing system.

The whole protocol is one cyclic rule: in broadcast slot t, user k's d-th
symbol (d = 0 is its own) rides on beam (k + d - t) mod K. ``SlotIndexer``
holds it as two read-only 0-based tables, built once per K, that every
other module slices: ``order[k-1, d]`` is the d-th symbol user k ends up
holding (column t is the slot-t target, columns sic_slots+1.. the
remaining unknowns), and ``beams[k-1, t-1, d]`` the beam that carries it
in slot t. The scalar functions (1-based indices) are the oracle the
tables are tested against. ``compose_sum_se`` turns per-cell rates into
the sum SE of any scheme in ``SCHEMES``: 1 / (slots used) times the summed
per-cell min(uplink, downlink).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import checked_user_count

__all__ = [
    "SCHEMES",
    "slot_count",
    "partner_index",
    "known_set",
    "remaining_unknowns",
    "zf_coefficient_offset",
    "SlotIndexer",
    "compose_sum_se",
]

SCHEMES = ("conventional", "proposed")


def checked_user_index(k, K):
    """1-based user ``k`` of K, one int or a 1-D integer array of users, as an array.

    Raises ValueError unless every user is an integer in 1..K; bools and
    fractions are rejected, so no user wraps or truncates into another.
    """
    users = np.asarray(k)
    if users.dtype.kind not in "iu" or users.ndim > 1 or not np.all((1 <= users) & (users <= K)):
        raise ValueError(f"user {k} outside 1..{K}")
    return users


def slot_count(K):
    """Number of successive-cancelation broadcast slots, ceil((K-1)/2)."""
    return checked_user_count(K) // 2


def partner_index(k, t, K):
    """Index of the symbol routed to user k in broadcast slot t.

    Total circular shift ((k + t - 1) mod K) + 1, defined for all integer
    k and t so that successive-cancelation offsets (k - t <= 0) need no
    special casing. Satisfies partner_index(k - t, t, K) == k.
    """
    K = checked_user_count(K)
    return (k + t - 1) % K + 1


def known_set(k, t, K):
    """Symbols user k knows after broadcast slot t (its own plus t decoded ones)."""
    limit = slot_count(K)
    if not 0 <= t <= limit:
        raise ValueError(f"slot {t} outside 0..{limit} for K={K}")
    return {partner_index(k - t + i, t, K) for i in range(t + 1)}


def remaining_unknowns(k, K):
    """Symbols user k still lacks after the cancelation slots, in decoding order."""
    t_sic = slot_count(K)
    return [partner_index(k, t, K) for t in range(t_sic + 1, K)]


def zf_coefficient_offset(m, n, sic_slots):
    """Shift applied to the n-th unknown's beam in the m-th residual equation.

    Equation m comes from broadcast slot m; the coefficient multiplying the
    n-th unknown there is the cross product with column partner_index(k,
    offset) where offset = sic_slots + n - m. Column n therefore collects
    the offsets {n, ..., n + sic_slots - 1}.
    """
    if not 1 <= m <= sic_slots:
        raise ValueError(f"row {m} outside 1..{sic_slots}")
    if n < 1:
        raise ValueError(f"column {n} must be >= 1")
    return sic_slots + n - m


@functools.cache
def _tables(K):
    """The read-only (order, beams) tables of a K-user exchange."""
    K = checked_user_count(K)
    order = (np.arange(K)[:, None] + np.arange(K)) % K
    beams = (order[:, None, :] - np.arange(1, K)[:, None]) % K
    order.flags.writeable = False
    beams.flags.writeable = False
    return order, beams


@dataclass(frozen=True)
class SlotIndexer:
    """Slot bookkeeping for a K-user exchange.

    The cancelation phase never leaves the residual system underdetermined:
    sic_slots >= n_unknowns holds for every K >= 2.
    """

    K: int
    sic_slots: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sic_slots", slot_count(self.K))

    @property
    def n_unknowns(self):
        return self.K - self.sic_slots - 1

    @property
    def proposed_slots(self):
        """Total slots for the cancelation scheme: one access slot + sic_slots."""
        return self.sic_slots + 1

    @property
    def conventional_slots(self):
        """Total slots for the conventional scheme: one access slot + K - 1."""
        return self.K

    @property
    def order(self):
        """(K, K) table: order[k-1, d] is the 0-based d-th symbol user k holds."""
        return _tables(self.K)[0]

    @property
    def beams(self):
        """(K, K-1, K) table: beams[k-1, t-1, d] carries order[k-1, d] in slot t."""
        return _tables(self.K)[1]

    def partner(self, k, t):
        return partner_index(k, t, self.K)

    def known(self, k, t):
        return known_set(k, t, self.K)

    def remaining(self, k):
        return remaining_unknowns(k, self.K)

    def offset(self, m, n):
        if not 1 <= n <= self.n_unknowns:
            raise ValueError(f"column {n} outside 1..{self.n_unknowns}")
        return zf_coefficient_offset(m, n, self.sic_slots)

    def beam(self, k, m, n):
        """Column index whose beam carries unknown n in residual equation m of user k."""
        return self.partner(k, self.offset(m, n))


def compose_sum_se(uplink, downlink, scheme):
    """(pre_log, sum SE) of (..., K) uplink and (..., K, K-1) downlink rates: the sum over the
    last two axes of min(uplink_k, downlink_kt), times pre_log 1/(sic_slots + 1) or 1/K."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    idx = SlotIndexer(uplink.shape[-1])
    pre_log = 1.0 / (idx.proposed_slots if scheme == "proposed" else idx.conventional_slots)
    return pre_log, pre_log * np.minimum(uplink[..., None], downlink).sum(axis=(-2, -1))
