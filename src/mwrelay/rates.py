"""The zero-forcing stage of the link and the relay precoder, for one channel realization.

After the cancelation slots each user extracts its remaining symbols from
a residual linear system. The dense zero-forcing stage (``build_zf_stage``),
built for one user or for a stack of users at once, is the oracle of the
batched kernel in ``montecarlo`` and of the round solve in ``validation``;
it gathers each mixing matrix from the ``SlotIndexer`` beam table, which
neither of them reads. ``check_pivots`` is the one singular rule of all
three, and ``_factor_gram`` applies it to a Gram or a stack of them: every
zero-forcing path raises SingularSystemError on the first Gram that breaks
it, and none redraws the channel. ``relay_precode`` takes one symbol frame
or a matrix of frames, one per column. User indices are 1-based, and a
channel with a non-finite entry is rejected. The rate formulas of the
other stages ship once, batched, in ``montecarlo``.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularSystemError
from .schedule import SlotIndexer, checked_user_index

__all__ = ["ZfStage", "build_zf_stage", "relay_precode"]

# Gram pivots below this fraction of the largest pivot count as singular.
PIVOT_RTOL = 1e-12


def _column_products(G, k):
    """Row g_k^H g_i over all i; one row per user when ``k`` is an array of users."""
    users = checked_user_index(k, G.shape[1])
    if not np.isfinite(G).all():
        raise ValueError("channel matrix holds non-finite entries")
    return G[:, users - 1].conj().T @ G


def _broadcast_scale(beta, p_r, M):
    """Broadcast scale c = p_r / (M sum(beta)) of (..., K) gains, one per gain profile."""
    return p_r / (M * np.sum(beta, axis=-1))


@dataclass(frozen=True)
class ZfStage:
    """Residual linear system of one user, or of a stack of users, after the cancelation slots.

    ``mixing`` is the sic_slots x n_unknowns coefficient matrix (row m is
    residual equation m), ``inverse`` the inverse L^-1 of the lower Cholesky
    factor of its Gram mixing^H mixing = L L^H, kept lower triangular with
    exact zeros above the diagonal, and ``noise_gain`` the diagonal of the
    Gram inverse — the per-unknown noise amplification of the zero-forcing
    combiner. A stage built for an array of users carries a leading user
    axis on every array field, in the order of those users.
    """

    mixing: np.ndarray
    inverse: np.ndarray

    @property
    def n_unknowns(self):
        return self.mixing.shape[-1]

    @property
    def noise_gain(self):
        """Squared column norms of L^-1, since gram^-1 = (L^-1)^H L^-1."""
        return (np.abs(self.inverse) ** 2).sum(axis=-2)

    def combiner(self):
        """Zero-forcing combiner: gram^(-1) @ mixing^H, satisfying combiner @ mixing = I.

        With gram = L L^H this is (L^-1)^H (L^-1 mixing^H), read from the kept
        inverse; a stacked stage gives one combiner per user.
        """
        inverse_h = self.inverse.conj().swapaxes(-1, -2)
        return inverse_h @ (self.inverse @ self.mixing.conj().swapaxes(-1, -2))


def check_pivots(least, largest):
    """Raise SingularSystemError where Cholesky pivots break the PIVOT_RTOL rule.

    ``least`` and ``largest`` are the least and largest pivots (squared
    diagonal entries of the factor) of one Gram or of a stack of them. A
    Gram passes when least >= the smallest normal float and least >=
    PIVOT_RTOL * largest, so a nonpositive, NaN or subnormal pivot fails (a
    solve on a subnormal one can return NaN); ``condition`` is the worst
    largest / least ratio among the failures, or inf where a pivot is not
    positive or the ratio overflows.
    """
    least, largest = np.asarray(least), np.asarray(largest)
    bad = ~((least >= np.finfo(float).tiny) & (least >= PIVOT_RTOL * largest))
    if bad.any():
        least, largest = least[bad], largest[bad]
        with np.errstate(over="ignore"):
            condition = float((largest / least).max()) if np.all(least > 0) else float("inf")
        raise SingularSystemError("Gram matrix numerically singular", condition=condition)


def _factor_gram(gram):
    """Lower Cholesky factor of a Hermitian Gram or a stack of them, checked by ``check_pivots``.

    Each matrix's pivots are checked on their own; a 0 x 0 Gram (K = 2) has
    none and passes.
    """
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Gram factorization failed: {exc}") from exc
    pivots = low.diagonal(axis1=-2, axis2=-1).real ** 2
    check_pivots(pivots.min(axis=-1, initial=np.inf), pivots.max(axis=-1, initial=0.0))
    return low


def build_zf_stage(G, k):
    """Assemble user k's residual system and its noise gains.

    ``k`` is one user or a 1-D array of users; an array stacks their
    systems along a leading axis and factors all of them with one Cholesky
    call, raising SingularSystemError if any of them is singular. For K = 2
    there is nothing left to solve and the stage is empty. This dense
    stage is the oracle for the residual solve of the symbol rounds.
    """
    mixing = _zf_mixing(_column_products(G, k), k)
    inverse = np.tril(np.linalg.inv(_factor_gram(mixing.conj().swapaxes(-1, -2) @ mixing)))
    return ZfStage(mixing=mixing, inverse=inverse)


def _zf_mixing(cross, k):
    """User k's sic_slots x n_unknowns mixing matrix from its cross-product row g_k^H g_i.

    ``cross`` holds one row per user of ``k``. Entry (m, n) is g_k^H g_j with
    j the beam that carries the n-th unknown in broadcast slot m, read from
    the ``SlotIndexer`` beam table.
    """
    if not np.isfinite(cross).all():
        raise ValueError("cross products hold non-finite entries")
    indexer = SlotIndexer(cross.shape[-1])
    T = indexer.sic_slots
    beams = indexer.beams[np.asarray(k) - 1, :T, T + 1:]
    return np.take_along_axis(cross[..., None, :], beams, axis=-1)


def relay_precode(G, beta, p_r, symbols):
    """Broadcast vector sqrt(p_r / (M sum(beta))) * sum_i g_i * symbols[i].

    ``symbols`` must already be ordered by transmit beam (entry i rides on
    column i); with unit-energy symbols the average transmit power is p_r.
    A (K, S) matrix holds S frames, one per column, and gives the (M, S)
    matrix of their broadcast vectors.
    """
    symbols = np.asarray(symbols)
    if symbols.ndim not in (1, 2) or symbols.shape[0] != G.shape[1]:
        raise ValueError(f"expected {G.shape[1]} symbols per frame, got shape {symbols.shape}")
    return np.sqrt(_broadcast_scale(beta, p_r, G.shape[0])) * (G @ symbols)
