"""Symbol-level simulation of one full exchange round.

Walks the actual decoding chain — access phase, relay decode-and-forward,
cancelation broadcast slots, zero-forcing extraction — and checks that every
user ends up holding all K-1 foreign symbols. Relay decoding and
cancelation are genie-aided (prior decisions assumed correct), matching the
assumptions of the rate expressions; the noisy variant measures per-slot
symbol error rates under that assumption. A symbol frame is a plain (K,)
complex array of QPSK points, one per user.

A round needs only its K x K Gram and its (K, sic_slots) receiver noise,
not the channel G: since G^H (sqrt(c) G X) = sqrt(c) (G^H G) X, the
received tables of B rounds are formed from their Grams in one batched
product. So no round draws its M x K channel: ``_round_blocks`` samples a
block's Grams through their Bartlett factors (``channel.draw_gram_factor``,
O(K^2) draws per round whatever M), then its frames and noise, all from one
(STREAM_ROUND, block) substream. It is the one place that knows the
broadcast scale sqrt(c) = sqrt(p_r / (M sum(beta))): each Gram it yields
is sqrt(c) G^H G, so every estimate decoded from it is in symbol units.
Both variants draw rounds through it at the relay power ``config.p_r`` and
decode them with one block decoder: one cumulative cancelation and one
checked solve over the (B, K, n_unknowns, n_unknowns) stack of residual
Grams (``rates._zf_solve``; no inverse is formed). The decoder reads a
block through the read plan of its K (``_read_plan``), built once per K
from ``SlotIndexer.order`` and two offset rules, so a block does only
work that depends on its data; the cancelation table is freed before
the solve allocates its arrays. QPSK decisions are by quadrant, the
constellation's decision regions. Rounds come in blocks of B = M //
(sic_slots * (K - sic_slots)), which bounds a block's decode memory; the
noiseless round is round 0 without its noise. A singular residual Gram
raises SingularSystemError; no round redraws.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .channel import (
    _INV_SQRT2,
    STREAM_ROUND,
    _checked_users,
    checked_count,
    checked_gains,
    draw_gram_factor,
    substream,
)
from .rates import _broadcast_scale
from .schedule import SlotIndexer, slot_count

__all__ = [
    "QPSK",
    "qpsk_frame",
    "NoiselessRound",
    "run_round_noiseless",
    "run_round_noisy",
]

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)


def qpsk_frame(K, rng):
    """Uniform random QPSK frame: K symbols; a bool or a fractional K raises InvalidConfigError."""
    return QPSK[rng.integers(0, 4, size=_checked_users(K, 0))]


@dataclass(frozen=True)
class NoiselessRound:
    """Outcome of one noise-free exchange round.

    ``recovered[k-1, v-1]`` is user k's copy of symbol v: the genie-corrected
    decision for symbols decoded in cancelation slots (the rate model assumes
    those decisions correct; their pre-decision values are kept in
    ``slot_estimates``) and the raw zero-forcing solve for the rest, so
    ``max_deviation`` measures exactly the residual-system linear algebra.
    ``knowledge_history[t]`` is the per-user knowledge snapshot after
    broadcast slot t (index 0 = before broadcast).
    """

    recovered: np.ndarray
    true_symbols: np.ndarray
    slot_estimates: np.ndarray
    max_deviation: float
    slots_used: int
    knowledge_history: tuple


def _block_rounds(M, K):
    """Rounds per block, M // (sic_slots * (K - sic_slots)) and at least one.

    The rule bounds a block's decode memory: its residual systems
    [mixing | residual] hold no more than M x K entries.
    """
    T = slot_count(K)
    return max(1, M // (T * (K - T)))


def _block_grams(R):
    """The (B, K, K) Grams R^H R of a block's Bartlett factors."""
    return R.conj().transpose(0, 2, 1) @ R


def _round_blocks(config, beta, trials, seed):
    """Yield (Grams, noise, frames) of rounds 0..trials-1 in blocks of ``_block_rounds``.

    Block b draws from the (seed, STREAM_ROUND, b) substream the Bartlett
    factors of its B rounds, then their (B, K) frames, then their
    (B, K, sic_slots) unit-variance noise. Round r's Gram is
    sqrt(c) D^(1/2) R^H R D^(1/2): the law of sqrt(c) G^H G for
    G = H diag(beta)^(1/2), with c = p_r / (M sum(beta)) the broadcast
    scale. A block is drawn whole and then sliced, so round r depends only
    on (seed, M, K, r); each block is drawn into arrays of its own. A Gram
    with a non-finite entry (an overflowing broadcast scale) raises
    ValueError.
    """
    M, K = config.M, config.K
    T = slot_count(K)
    amplitude = np.sqrt(beta)
    scaling = math.sqrt(_broadcast_scale(beta, config.p_r, M)) * amplitude[:, None] * amplitude
    B = _block_rounds(M, K)
    for b, start in enumerate(range(0, trials, B)):
        rng = substream(seed, STREAM_ROUND, b)
        cross = _block_grams(draw_gram_factor(M, K, rng, B))
        cross *= scaling
        if not np.isfinite(cross).all():
            raise ValueError("cross products hold non-finite entries")
        x = qpsk_frame(B * K, rng).reshape(B, K)
        noise = rng.standard_normal((B, K, 2 * T)).view(complex)
        noise *= _INV_SQRT2
        rounds = min(B, trials - start)
        yield cross[:rounds], noise[:rounds], x[:rounds]


@dataclass(frozen=True)
class _ReadPlan:
    """Where the block decoder of a K-user exchange reads; built once per K by ``_read_plan``.

    ``cancel[k, t-1, d]`` is the flat index, into a round's K * K Gram
    entries, of user k's slot-t coefficient of the d-th symbol it holds,
    and ``mixing[k, r, n]`` that of entry (r, n) of its residual system
    (0-based). ``targets`` (K, sic_slots), ``held`` (K, 1, sic_slots + 1)
    and ``sent`` (K, K-1) index a frame by the slot targets, the symbols
    held before the residual solve and every symbol a user decodes. Every
    array is read-only.
    """

    cancel: np.ndarray
    mixing: np.ndarray
    targets: np.ndarray
    held: np.ndarray
    sent: np.ndarray


@functools.cache
def _read_plan(K):
    """The ``_ReadPlan`` of K users, from ``SlotIndexer.order`` and two offset rules.

    In slot t the d-th held symbol of user k rides on beam order[k, (d - t)
    mod K], and residual entry (r, n) on beam order[k, S + n - r], S =
    sic_slots: the offset rule of ``montecarlo._zf_noise_gains``.
    """
    idx = SlotIndexer(K)
    order, S = idx.order, idx.sic_slots
    users = np.arange(K)[:, None, None]
    cancel = K * users + order[users, (np.arange(S + 1) - np.arange(1, S + 1)[:, None]) % K]
    mixing = K * users + order[users, S + np.arange(idx.n_unknowns) - np.arange(S)[:, None]]
    plan = _ReadPlan(cancel=cancel, mixing=mixing, targets=order[:, 1:S + 1],
                     held=order[:, None, :S + 1], sent=order[:, 1:])
    for table in vars(plan).values():
        table.flags.writeable = False
    return plan


def _decode_block(cross, noise, x, plan):
    """Decode B rounds at every user; returns (slot, zf) in symbol units.

    The inputs are the rounds' (B, K, K) Grams sqrt(c) G^H G, their
    (B, K, sic_slots) receiver noise (0 for noise-free rounds), (B, K)
    frames and the ``_read_plan`` of K. Slot t broadcasts
    x[order[:, t]], so user k receives row k of sqrt(c) G^H G x[order[:, t]]
    plus noise, and one product forms every received table from the
    Grams. A clean copy of the wanted symbol reads as the symbol.
    ``slot[b, k-1, t-1]`` is user k's matched-filter estimate of its slot-t
    target in round b after it cancels the t symbols it holds: the
    remainder divided by the scaled ||g_k||^2 on the Gram's diagonal.
    ``zf[b, k-1, n-1]`` is the zero-forcing estimate of its n-th remaining
    unknown once all sic_slots + 1 are canceled. Cancelation subtracts the
    true symbols (genie-aided); its table is freed before the residual
    solve allocates its arrays.
    """
    entries = cross.reshape(len(x), -1)
    received = cross @ x.take(plan.targets, axis=1)
    received += noise
    # canceled[b, k-1, t-1, d]: slot-t contribution of user k's first d + 1 held symbols.
    canceled = entries.take(plan.cancel, axis=1)
    canceled *= x.take(plan.held, axis=1)
    canceled.cumsum(axis=-1, out=canceled)
    slot = received - canceled.diagonal(axis1=-2, axis2=-1)
    slot /= cross.diagonal(axis1=-2, axis2=-1).real[..., None]
    received -= canceled[..., -1]
    del canceled
    return slot, rates._zf_solve(entries.take(plan.mixing, axis=1), received)


def _block_errors(cross, noise, x, plan):
    """(K, K-1) count of wrong QPSK decisions per user and slot position over a block of rounds.

    A decision is wrong where the estimate's real or imaginary part has
    the opposite sign of the sent symbol's: QPSK decides by quadrant.
    """
    estimates = np.concatenate(_decode_block(cross, noise, x, plan), axis=-1)
    sent = x.take(plan.sent, axis=1)
    wrong = (estimates.real * sent.real < 0) | (estimates.imag * sent.imag < 0)
    return wrong.sum(axis=0)


def run_round_noiseless(config, beta, seed):
    """Noise-free round: exact cancelation and zero-forcing recovery.

    The round is round 0 of ``run_round_noisy`` (same channel and frame)
    decoded without its noise.
    """
    K = config.K
    beta = checked_gains(beta, K)
    idx = SlotIndexer(K)
    cross, _, (x,) = next(_round_blocks(config, beta, 1, seed))
    slot, zf = (a[0] for a in _decode_block(cross, 0.0, x[None], _read_plan(K)))

    # Slot decisions are genie-corrected (the raw estimates still carry
    # the not-yet-decoded symbols as interference); the rest is the raw solve.
    recovered = np.tile(x, (K, 1))
    recovered[np.arange(K)[:, None], idx.order[:, idx.sic_slots + 1:]] = zf
    history = [tuple(frozenset((row[:t + 1] + 1).tolist()) for row in idx.order)
               for t in range(idx.sic_slots + 1)]
    if idx.n_unknowns:
        history.append((frozenset(range(1, K + 1)),) * K)
    return NoiselessRound(
        recovered=recovered,
        true_symbols=x,
        slot_estimates=slot,
        max_deviation=float(np.max(np.abs(recovered - x[None, :]))),
        slots_used=idx.proposed_slots,
        knowledge_history=tuple(history),
    )


def run_round_noisy(config, beta, trials, seed):
    """Per-user, per-slot-position QPSK symbol error rate over noisy rounds.

    ``trials`` is an integer >= 1. Cancelation subtracts true symbols
    (genie-aided), so errors never propagate across slots. Each block of
    rounds draws its Grams, frames and noise from its own substream.
    """
    beta = checked_gains(beta, config.K)
    trials = checked_count(trials, "trials")
    plan = _read_plan(config.K)
    errors = sum(_block_errors(cross, noise, x, plan)
                 for cross, noise, x in _round_blocks(config, beta, trials, seed))
    return errors / trials
