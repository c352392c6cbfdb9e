"""Symbol-level simulation of one full exchange round.

Walks the actual decoding chain — access phase, relay decode-and-forward,
cancelation broadcast slots, zero-forcing extraction — and checks that every
user ends up holding all K-1 foreign symbols. Relay decoding and
cancelation are genie-aided (prior decisions assumed correct), matching the
assumptions of the rate expressions; the noisy variant measures per-slot
symbol error rates under that assumption.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import STREAM_CHANNEL, compose_channel, draw_small_scale, substream
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


def _broadcast_signals(G, beta, p_r, x, sic_slots, noise=None):
    """Received samples y[t-1, k-1] for broadcast slots 1..sic_slots."""
    K = G.shape[1]
    received = np.empty((sic_slots, K), dtype=complex)
    for t in range(1, sic_slots + 1):
        sent = relay_precode(G, beta, p_r, np.roll(x, -t))
        received[t - 1] = G.conj().T @ sent
    if noise is not None:
        received += noise
    return received


def _known_contribution(cross_row, x, held, t, K):
    """Sum of slot-t contributions of all symbols in ``held`` at one user.

    Symbol v rides on the beam of user v - t (cyclically) in slot t, so its
    coefficient is the cross product with that column.
    """
    total = 0.0 + 0.0j
    for v in sorted(held):
        total += cross_row[(v - 1 - t) % K] * x[v - 1]
    return total


def run_round_noiseless(config, beta, seed, frame=None):
    """Noise-free round: exact cancelation and zero-forcing recovery.

    Resamples the channel (bounded attempts) if the residual system of some
    user is numerically singular, and reports the attempt count.
    """
    M, K = config.M, config.K
    beta = np.asarray(getattr(beta, "beta", beta), dtype=float)
    idx = SlotIndexer(K)
    scale = math.sqrt(config.p_r / (M * beta.sum()))
    last_error = None
    for attempt in range(8):
        rng = substream(seed, STREAM_CHANNEL, attempt)
        G = compose_channel(draw_small_scale(M, K, rng), beta).G
        x = (frame if frame is not None else qpsk_frame(K, rng)).symbols
        if x.shape != (K,):
            raise ValueError(f"frame must hold {K} symbols")
        try:
            stages = [build_zf_stage(G, k, idx) for k in range(1, K + 1)] if idx.n_unknowns else None
        except SingularSystemError as exc:
            last_error = exc
            continue

        cross = G.conj().T @ G
        norms = np.diag(cross).real
        received = _broadcast_signals(G, beta, config.p_r, x, idx.sic_slots)
        knowledge = KnowledgeState(K)
        history = [knowledge.snapshot()]
        recovered = np.zeros((K, K), dtype=complex)
        recovered[np.arange(K), np.arange(K)] = x
        slot_estimates = np.zeros((K, idx.sic_slots), dtype=complex)

        for t in range(1, idx.sic_slots + 1):
            for k in range(1, K + 1):
                held = knowledge.decoded(k)
                residual = received[t - 1, k - 1] - scale * _known_contribution(
                    cross[k - 1], x, held, t, K
                )
                target = idx.partner(k, t)
                # The raw estimate still carries the not-yet-decoded symbols
                # as interference; the decision it feeds is genie-corrected.
                slot_estimates[k - 1, t - 1] = residual / (scale * norms[k - 1])
                recovered[k - 1, target - 1] = x[target - 1]
                knowledge.learn(k, target)
            history.append(knowledge.snapshot())

        if stages is not None:
            for k in range(1, K + 1):
                held = knowledge.decoded(k)
                residual = np.array([
                    received[m - 1, k - 1]
                    - scale * _known_contribution(cross[k - 1], x, held, m, K)
                    for m in range(1, idx.sic_slots + 1)
                ])
                estimates = stages[k - 1].combiner() @ residual / scale
                for n, v in enumerate(idx.remaining(k), start=1):
                    recovered[k - 1, v - 1] = estimates[n - 1]
                    knowledge.learn(k, v)
            history.append(knowledge.snapshot())

        deviation = float(np.max(np.abs(recovered - x[None, :])))
        return NoiselessRound(
            recovered=recovered,
            true_symbols=x,
            slot_estimates=slot_estimates,
            max_deviation=deviation,
            slots_used=idx.proposed_slots,
            knowledge_history=tuple(history),
            attempts=attempt + 1,
        )
    raise SingularSystemError(
        f"all channel resamples produced singular residual systems: {last_error}"
    )


def _nearest_qpsk(values, reference_scale):
    """Indices of the constellation points minimizing |value - scale * point|."""
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    reference_scale = np.atleast_1d(np.asarray(reference_scale, dtype=float))
    distance = np.abs(values[:, None] - reference_scale[:, None] * QPSK[None, :])
    return np.argmin(distance, axis=1)


def run_round_noisy(config, beta, trials, seed, p_r=None):
    """Per-user, per-slot-position QPSK symbol error rate over noisy rounds.

    ``p_r`` may override the configured relay power; 0 is allowed as the
    channel-unused limit (decisions degenerate to a fixed guess, so the
    error rate approaches 3/4). Cancelation subtracts true symbols
    (genie-aided), so errors never propagate across slots.
    """
    M, K = config.M, config.K
    beta = np.asarray(getattr(beta, "beta", beta), dtype=float)
    if p_r is None:
        p_r = config.p_r
    if p_r < 0:
        raise ValueError("relay power must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    idx = SlotIndexer(K)
    scale = math.sqrt(p_r / (M * beta.sum())) if p_r > 0 else 0.0
    errors = np.zeros((K, K - 1))

    for trial in range(trials):
        rng = substream(seed, STREAM_CHANNEL, trial)
        G = compose_channel(draw_small_scale(M, K, rng), beta).G
        x = qpsk_frame(K, rng).symbols
        true_index = _nearest_qpsk(x, np.ones(K))
        noise = draw_small_scale(idx.sic_slots, K, rng)  # unit-variance CN per sample
        cross = G.conj().T @ G
        norms = np.diag(cross).real
        received = _broadcast_signals(G, beta, p_r, x, idx.sic_slots, noise=noise)

        for t in range(1, idx.sic_slots + 1):
            for k in range(1, K + 1):
                held = {k} | {idx.partner(k, d) for d in range(1, t)}
                residual = received[t - 1, k - 1] - scale * _known_contribution(
                    cross[k - 1], x, held, t, K
                )
                decision = int(_nearest_qpsk(residual, scale * norms[k - 1])[0])
                target = idx.partner(k, t)
                errors[k - 1, t - 1] += decision != true_index[target - 1]

        if idx.n_unknowns:
            for k in range(1, K + 1):
                stage = build_zf_stage(G, k, idx)
                held = {k} | {idx.partner(k, d) for d in range(1, idx.sic_slots + 1)}
                residual = np.array([
                    received[m - 1, k - 1]
                    - scale * _known_contribution(cross[k - 1], x, held, m, K)
                    for m in range(1, idx.sic_slots + 1)
                ])
                projected = stage.combiner() @ residual
                decisions = _nearest_qpsk(projected, np.full(idx.n_unknowns, scale))
                for n, v in enumerate(idx.remaining(k), start=1):
                    errors[k - 1, idx.sic_slots + n - 1] += decisions[n - 1] != true_index[v - 1]

    return errors / trials
