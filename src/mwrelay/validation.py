"""Symbol-level simulation of full exchange rounds.

Walks the decoding chain — access phase, relay decode-and-forward,
cancelation broadcast slots, zero-forcing extraction — and checks that every
user ends up holding all K-1 foreign symbols. Relay decoding and
cancelation are genie-aided (prior decisions assumed correct), matching the
assumptions of the rate expressions; the noisy variant measures per-slot
QPSK symbol error rates under that assumption. A symbol frame is a plain
(K,) complex array of QPSK points, one per user.

A round is decoded from its Gram sqrt(c) G^H G alone, c = p_r / (M
sum(beta)) the broadcast scale, since G^H (sqrt(c) G X) = sqrt(c) (G^H G)
X: no M x K channel is drawn, estimates come out in symbol units and QPSK
is decided by quadrant. Rounds are drawn and decoded in blocks of B = M //
(sic_slots * (K - sic_slots)), which caps a block's residual systems at
M x K entries, so memory does not grow with the round count. Block b is
drawn whole from (seed, STREAM_ROUND, b) and then sliced, so round r
depends only on (seed, M, K, r); the noiseless round is round 0 without
its noise. The decoder reads a Gram by the offset rule of ``montecarlo``,
never through the beam table, so the dense stage of ``rates`` is an
independent oracle for it. A singular residual Gram raises
SingularSystemError and no round redraws; a non-finite Gram raises
ValueError.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .channel import (
    _INV_SQRT2,
    STREAM_ROUND,
    _checked_integral,
    checked_count,
    checked_gains,
    draw_gram_block,
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
    return QPSK[rng.integers(0, 4, size=_checked_integral(K, 0, "user count"))]


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


def _round_blocks(config, beta, trials, seed):
    """Yield (Grams, noise, frames) of rounds 0..trials-1 in blocks of ``_block_rounds``.

    Block b draws its B rounds' Grams (``channel.draw_gram_block`` on
    (seed, STREAM_ROUND, b)), then from the same generator their (B, K)
    frames, then their (B, K, sic_slots) unit-variance noise. Round r's Gram
    is sqrt(c) D^(1/2) H^H H D^(1/2) = sqrt(c) G^H G, with c = p_r / (M
    sum(beta)) the broadcast scale. A block is drawn whole and then sliced,
    so round r depends only on (seed, M, K, r); each block is drawn into
    arrays of its own. A Gram with a non-finite entry (an overflowing
    broadcast scale) raises ValueError.
    """
    M, K = config.M, config.K
    T = slot_count(K)
    amplitude = np.sqrt(beta)
    scaling = math.sqrt(_broadcast_scale(beta, config.p_r, M)) * amplitude[:, None] * amplitude
    B = _block_rounds(M, K)
    for b, start in enumerate(range(0, trials, B)):
        cross, rng = draw_gram_block(M, K, seed, STREAM_ROUND, b, B)
        cross *= scaling
        if not np.isfinite(cross).all():
            raise ValueError("cross products hold non-finite entries")
        x = qpsk_frame(B * K, rng).reshape(B, K)
        noise = rng.standard_normal((B, K, 2 * T)).view(complex)
        noise *= _INV_SQRT2
        rounds = min(B, trials - start)
        yield cross[:rounds], noise[:rounds], x[:rounds]


@functools.cache
def _read_plan(K):
    """Read-only (order, cancel, mixing) tables of K users, built once per K.

    ``order`` is ``SlotIndexer.order``: row k holds the symbols user k ends
    up with, so a frame gathered through it gives each user's slot targets
    (columns 1..S, S = sic_slots), held symbols (0..S) and sent symbols
    (1..K-1). ``cancel[k, t-1, d]`` is the flat index, into a round's K * K
    Gram entries, of user k's slot-t coefficient of its d-th held symbol,
    beam order[k, (d - t) mod K]; ``mixing[k, r, n]`` that of entry (r, n)
    of its residual system, beam order[k, S + n - r], the offset rule of
    ``montecarlo._zf_noise_gains``.
    """
    idx = SlotIndexer(K)
    order, S = idx.order, idx.sic_slots
    users = np.arange(K)[:, None, None]
    cancel = K * users + order[users, (np.arange(S + 1) - np.arange(1, S + 1)[:, None]) % K]
    mixing = K * users + order[users, S + np.arange(idx.n_unknowns) - np.arange(S)[:, None]]
    cancel.flags.writeable = mixing.flags.writeable = False
    return order, cancel, mixing


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
    true symbols (genie-aided). Each residual Gram is checked by
    ``rates._factor_gram`` (SingularSystemError on the first that fails)
    and the whole stack solved in one call, with no inverse formed; the
    cancelation table and the gathered frame, then the mixing stack, are
    freed before the arrays of the next step are allocated.
    """
    order, cancel, mixing = plan
    S = cancel.shape[1]
    entries = cross.reshape(len(x), -1)
    held = x.take(order[:, :S + 1], axis=1)
    received = cross @ held[..., 1:]
    received += noise
    # canceled[b, k-1, t-1, d]: slot-t contribution of user k's first d + 1 held symbols.
    canceled = entries.take(cancel, axis=1)
    canceled *= held[:, :, None]
    canceled.cumsum(axis=-1, out=canceled)
    slot = received - canceled.diagonal(axis1=-2, axis2=-1)
    slot /= cross.diagonal(axis1=-2, axis2=-1).real[..., None]
    received -= canceled[..., -1]
    del canceled, held
    stack = entries.take(mixing, axis=1)
    stack_h = stack.conj().swapaxes(-1, -2)
    gram, rhs = stack_h @ stack, stack_h @ received[..., None]
    del stack, stack_h
    rates._factor_gram(gram)
    return slot, np.linalg.solve(gram, rhs)[..., 0]


def _block_errors(cross, noise, x, plan):
    """(K, K-1) count of wrong QPSK decisions per user and slot position over a block of rounds.

    A decision is wrong where the estimate's real or imaginary part has
    the opposite sign of the sent symbol's: QPSK decides by quadrant.
    """
    order = plan[0]
    estimates = np.concatenate(_decode_block(cross, noise, x, plan), axis=-1)
    sent = x.take(order[:, 1:], axis=1)
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
