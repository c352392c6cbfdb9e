"""Symbol-level simulation of one full exchange round.

Walks the actual decoding chain — access phase, relay decode-and-forward,
cancelation broadcast slots, zero-forcing extraction — and checks that every
user ends up holding all K-1 foreign symbols. Relay decoding and
cancelation are genie-aided (prior decisions assumed correct), matching the
assumptions of the rate expressions; the noisy variant measures per-slot
symbol error rates under that assumption. Both variants share one
decoding walk that decodes every user of a round at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_CHANNEL,
    LargeScaleProfile,
    compose_channel,
    draw_small_scale,
    substream,
)
from .exceptions import SingularSystemError
from .rates import build_zf_stage, relay_precode
from .schedule import SlotIndexer

__all__ = [
    "QPSK",
    "SymbolFrame",
    "qpsk_frame",
    "fixed_frame",
    "KnowledgeState",
    "NoiselessRound",
    "run_round_noiseless",
    "run_round_noisy",
]

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)


@dataclass(frozen=True)
class SymbolFrame:
    """One unit-energy symbol per user plus the constellation it came from."""

    symbols: np.ndarray
    constellation: str

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=complex)
        if symbols.ndim != 1:
            raise ValueError("symbols must be a 1-D vector")
        object.__setattr__(self, "symbols", symbols)


def qpsk_frame(K, rng):
    """Uniform random QPSK frame."""
    return SymbolFrame(QPSK[rng.integers(0, 4, size=int(K))], "QPSK")


def fixed_frame(K):
    """Deterministic frame cycling the QPSK points; for repeatable tests."""
    return SymbolFrame(QPSK[np.arange(int(K)) % 4], "unit-test-fixed")


class KnowledgeState:
    """Which symbol indices each user currently holds (1-based)."""

    def __init__(self, K):
        self.K = K
        self._held = [{k} for k in range(1, K + 1)]

    def decoded(self, k):
        return frozenset(self._held[k - 1])

    def learn(self, k, symbol_index):
        self._held[k - 1].add(symbol_index)

    def snapshot(self):
        return tuple(frozenset(s) for s in self._held)


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


def _amplitude(beta, p_r, M):
    """Broadcast scale sqrt(p_r / (M sum(beta))) that a clean received symbol carries."""
    return math.sqrt(p_r / (M * np.sum(beta)))


def _decoding_order(K):
    """order[k-1, j] = 0-based index of the j-th symbol user k ends up holding (j = 0 is its own)."""
    return (np.arange(K)[:, None] + np.arange(K)) % K


def _decode_round(G, beta, p_r, x, idx, noise=None):
    """Decode one round at every user at once; returns (slot, zf).

    Both tables are in units of the broadcast scale: a clean copy of the
    wanted symbol reads as scale * symbol. ``slot[k-1, t-1]`` is user k's
    matched-filter estimate of its slot-t target after it cancels the t
    symbols it holds, and ``zf[k-1, n-1]`` the zero-forcing estimate of its
    n-th remaining unknown once all sic_slots + 1 held symbols are canceled.
    Cancelation subtracts the true symbols (genie-aided); ``noise``, if
    given, is the (sic_slots, K) table of receiver noise samples.
    """
    M, K = G.shape
    T = idx.sic_slots
    scale = _amplitude(beta, p_r, M)
    cross = G.conj().T @ G
    received = np.stack([G.conj().T @ relay_precode(G, beta, p_r, np.roll(x, -t))
                         for t in range(1, T + 1)], axis=1)
    if noise is not None:
        received += noise.T
    # In slot t, symbol v rides on beam (v - t) % K.
    users = np.arange(K)[:, None, None]
    held = _decoding_order(K)[:, None, :T + 1]
    beams = (held - np.arange(1, T + 1)[:, None]) % K
    # canceled[k-1, t-1, d]: slot-t contribution of user k's first d + 1 held symbols.
    canceled = np.cumsum(scale * cross[users, beams] * x[held], axis=2)
    slots = np.arange(T)
    slot = (received - canceled[:, slots, slots]) / np.diag(cross).real[:, None]
    combiners = np.stack([build_zf_stage(G, k, idx).combiner() for k in range(1, K + 1)])
    zf = np.einsum("knm,km->kn", combiners, received - canceled[:, :, T])
    return slot, zf


def run_round_noiseless(config, beta, seed, frame=None):
    """Noise-free round: exact cancelation and zero-forcing recovery.

    Resamples the channel (bounded attempts) if the residual system of some
    user is numerically singular, and reports the attempt count.
    """
    M, K = config.M, config.K
    beta = LargeScaleProfile(getattr(beta, "beta", beta)).beta
    idx = SlotIndexer(K)
    scale = _amplitude(beta, config.p_r, M)
    order = _decoding_order(K)
    last_error = None
    for attempt in range(8):
        rng = substream(seed, STREAM_CHANNEL, attempt)
        G = compose_channel(draw_small_scale(M, K, rng), beta).G
        x = (frame if frame is not None else qpsk_frame(K, rng)).symbols
        if x.shape != (K,):
            raise ValueError(f"frame must hold {K} symbols")
        try:
            slot, zf = _decode_round(G, beta, config.p_r, x, idx)
        except SingularSystemError as exc:
            last_error = exc
            continue

        # Slot decisions are genie-corrected (the raw estimates still carry
        # the not-yet-decoded symbols as interference); the rest is the raw solve.
        recovered = np.tile(x, (K, 1))
        recovered[np.arange(K)[:, None], order[:, idx.sic_slots + 1:]] = zf / scale
        history = [tuple(frozenset((row[:t + 1] + 1).tolist()) for row in order)
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

    ``p_r`` may override the configured relay power; 0 is allowed as the
    channel-unused limit (decisions degenerate to a fixed guess, so the
    error rate approaches 3/4). Cancelation subtracts true symbols
    (genie-aided), so errors never propagate across slots.
    """
    M, K = config.M, config.K
    beta = LargeScaleProfile(getattr(beta, "beta", beta)).beta
    if p_r is None:
        p_r = config.p_r
    if p_r < 0:
        raise ValueError("relay power must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    idx = SlotIndexer(K)
    scale = _amplitude(beta, p_r, M)
    targets = _decoding_order(K)[:, 1:]
    errors = np.zeros((K, K - 1))

    for trial in range(trials):
        rng = substream(seed, STREAM_CHANNEL, trial)
        G = compose_channel(draw_small_scale(M, K, rng), beta).G
        x = qpsk_frame(K, rng).symbols
        noise = draw_small_scale(idx.sic_slots, K, rng)  # unit-variance CN per sample
        slot, zf = _decode_round(G, beta, p_r, x, idx, noise)
        decisions = _nearest_qpsk(np.hstack([slot, zf]), scale)
        errors += decisions != _nearest_qpsk(x, 1.0)[targets]

    return errors / trials
