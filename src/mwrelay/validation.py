"""Symbol-level simulation of one full exchange round.

Walks the actual decoding chain — access phase, relay decode-and-forward,
cancelation broadcast slots, zero-forcing extraction — and checks that every
user ends up holding all K-1 foreign symbols. Relay decoding and
cancelation are genie-aided (prior decisions assumed correct), matching the
assumptions of the rate expressions; the noisy variant measures per-slot
symbol error rates under that assumption. A symbol frame is a plain (K,)
complex array of QPSK points, one per user. Both variants share one
decoding walk that decodes every user of a round at once: one precode
for all cancelation slots and one stacked zero-forcing stage for all users,
whose cross products are the round's one channel Gram.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_CHANNEL,
    checked_gains,
    compose_channel,
    draw_small_scale,
    substream,
)
from .exceptions import SingularSystemError
from .rates import _broadcast_scale, build_zf_stage, relay_precode
from .schedule import SlotIndexer

__all__ = [
    "QPSK",
    "qpsk_frame",
    "fixed_frame",
    "NoiselessRound",
    "run_round_noiseless",
    "run_round_noisy",
]

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)


def qpsk_frame(K, rng):
    """Uniform random QPSK frame: K symbols."""
    return QPSK[rng.integers(0, 4, size=int(K))]


def fixed_frame(K):
    """Deterministic frame cycling the QPSK points; for repeatable tests."""
    return QPSK[np.arange(int(K)) % 4]


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
    attempts: int


def _decode_round(G, beta, p_r, x, idx, noise=None):
    """Decode one round at every user at once; returns (slot, zf).

    Both tables are in units of the broadcast scale: a clean copy of the
    wanted symbol reads as scale * symbol. ``slot[k-1, t-1]`` is user k's
    matched-filter estimate of its slot-t target after it cancels the t
    symbols it holds, and ``zf[k-1, n-1]`` the zero-forcing estimate of its
    n-th remaining unknown once all sic_slots + 1 held symbols are canceled.
    Cancelation subtracts the true symbols (genie-aided); ``noise``, if
    given, is the (sic_slots, K) table of receiver noise samples. Slot t
    broadcasts the frame x[order[:, t]] (x rolled by t), so all slots are
    precoded as the columns of one matrix.
    """
    M, K = G.shape
    T = idx.sic_slots
    scale = math.sqrt(_broadcast_scale(beta, p_r, M))
    stage = build_zf_stage(G, np.arange(1, K + 1), idx)
    cross = stage.cross
    received = G.conj().T @ relay_precode(G, beta, p_r, x[idx.order[:, 1:T + 1]])
    if noise is not None:
        received += noise.T
    users = np.arange(K)[:, None, None]
    held = idx.order[:, None, :T + 1]
    # canceled[k-1, t-1, d]: slot-t contribution of user k's first d + 1 held symbols.
    canceled = np.cumsum(scale * cross[users, idx.beams[:, :T, :T + 1]] * x[held], axis=2)
    slots = np.arange(T)
    slot = (received - canceled[:, slots, slots]) / np.diag(cross).real[:, None]
    zf = np.einsum("knm,km->kn", stage.combiner(), received - canceled[:, :, T])
    return slot, zf


def run_round_noiseless(config, beta, seed, frame=None):
    """Noise-free round: exact cancelation and zero-forcing recovery.

    ``frame``, if given, is the (K,) array of symbols sent in every
    attempt; otherwise each attempt draws a QPSK frame after its channel.
    Resamples the channel (bounded attempts) if the residual system of some
    user is numerically singular, and reports the attempt count.
    """
    M, K = config.M, config.K
    beta = checked_gains(beta, K)
    if frame is not None:
        frame = np.asarray(frame, dtype=complex)
        if frame.shape != (K,):
            raise ValueError(f"frame must hold {K} symbols")
    idx = SlotIndexer(K)
    scale = math.sqrt(_broadcast_scale(beta, config.p_r, M))
    last_error = None
    for attempt in range(8):
        rng = substream(seed, STREAM_CHANNEL, attempt)
        G = compose_channel(draw_small_scale(M, K, rng), beta)
        x = frame if frame is not None else qpsk_frame(K, rng)
        try:
            slot, zf = _decode_round(G, beta, config.p_r, x, idx)
        except SingularSystemError as exc:
            last_error = exc
            continue

        # Slot decisions are genie-corrected (the raw estimates still carry
        # the not-yet-decoded symbols as interference); the rest is the raw solve.
        recovered = np.tile(x, (K, 1))
        recovered[np.arange(K)[:, None], idx.order[:, idx.sic_slots + 1:]] = zf / scale
        history = [tuple(frozenset((row[:t + 1] + 1).tolist()) for row in idx.order)
                   for t in range(idx.sic_slots + 1)]
        if idx.n_unknowns:
            history.append((frozenset(range(1, K + 1)),) * K)
        return NoiselessRound(
            recovered=recovered,
            true_symbols=x,
            slot_estimates=slot / scale,
            max_deviation=float(np.max(np.abs(recovered - x[None, :]))),
            slots_used=idx.proposed_slots,
            knowledge_history=tuple(history),
            attempts=attempt + 1,
        )
    raise SingularSystemError(
        f"all channel resamples produced singular residual systems: {last_error}"
    )


def _nearest_qpsk(values, reference_scale):
    """Indices of the constellation points minimizing |value - scale * point|, elementwise."""
    values = np.asarray(values, dtype=complex)
    return np.argmin(np.abs(values[..., None] - reference_scale * QPSK), axis=-1)


def run_round_noisy(config, beta, trials, seed, p_r=None):
    """Per-user, per-slot-position QPSK symbol error rate over noisy rounds.

    ``p_r`` may override the configured relay power with a finite value
    >= 0; 0 is allowed as the channel-unused limit (decisions degenerate to
    a fixed guess, so the error rate approaches 3/4). Cancelation subtracts
    true symbols (genie-aided), so errors never propagate across slots.
    """
    M, K = config.M, config.K
    beta = checked_gains(beta, K)
    if p_r is None:
        p_r = config.p_r
    if not 0 <= p_r < math.inf:
        raise ValueError(f"relay power must be finite and >= 0, got {p_r!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    idx = SlotIndexer(K)
    scale = math.sqrt(_broadcast_scale(beta, p_r, M))
    targets = idx.order[:, 1:]
    errors = np.zeros((K, K - 1))

    for trial in range(trials):
        rng = substream(seed, STREAM_CHANNEL, trial)
        G = compose_channel(draw_small_scale(M, K, rng), beta)
        x = qpsk_frame(K, rng)
        noise = draw_small_scale(idx.sic_slots, K, rng)  # unit-variance CN per sample
        slot, zf = _decode_round(G, beta, p_r, x, idx, noise)
        decisions = _nearest_qpsk(np.hstack([slot, zf]), scale)
        errors += decisions != _nearest_qpsk(x, 1.0)[targets]

    return errors / trials
