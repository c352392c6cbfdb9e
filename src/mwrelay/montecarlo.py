"""Ergodic spectral-efficiency estimation over Rayleigh channel draws.

One kernel scores a stack of P large-scale gain profiles on shared
small-scale Grams H^H H, using g_k^H g_i = sqrt(beta_k beta_i) h_k^H h_i.
It reads the protocol's one cyclic rule from ``SlotIndexer.order``: user
k's beam at offset s is order[k, s], in slot t it newly holds offset K - t,
and its zero-forcing residual entry (r, n) is offset sic_slots + n - r.
``_block_terms`` gathers each Gram block once by offset, with no profile
axis, and computes the uplink SE; ``_downlink_rates`` scores one scheme's
broadcast slots from that table; every per-trial table keeps trials on its
last, contiguous axis. The proposed scheme's zero-forcing slots come from
``_zf_noise_gains``, a numpy-only batched Cholesky of every user's residual
Gram that applies the scalar oracle's pivot rule (``rates.check_pivots``)
and raises SingularSystemError where it fails. Fixed-gain estimation
(``estimate_link_se``) is the P = 1 case, batched over trials; the placement
study (``cdf_experiment``) is the P > 1 case, chunked over profiles in a
multiple of the worker count. Both reduce trials with one ``mean(axis=-1)``,
so a placement sample equals ``sum_se_once`` for its gains exactly. Both take
a tuple of schemes and score every scheme on the same Grams, so each trial's
Gram is drawn once however many schemes are compared.

Trials are indexed units of work, grouped in fixed blocks of GRAM_BLOCK.
Block b's Grams are sampled whole from the (seed, STREAM_GRAM, b) substream
through their Bartlett factors (``channel.draw_gram_factor``), with no M x K
draw, and then sliced, so trial i's Gram depends only on (seed, M, K, i):
not on the worker count, the trial count or the estimator. Workers take
whole blocks and aggregation runs in trial order, so estimates are
bit-reproducible for any worker count. The env var MWRELAY_THREADS is the
one way to set the worker count (``resolve_workers``).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_GRAM,
    STREAM_PROFILE,
    checked_gains,
    draw_gram_factor,
    draw_large_scale,
    substream,
)
from .rates import check_pivots
from .schedule import SlotIndexer

__all__ = [
    "LinkEstimate",
    "SumSeReport",
    "CdfResult",
    "SCHEMES",
    "estimate_link_se",
    "sum_se",
    "sum_se_once",
    "cdf_experiment",
    "resolve_workers",
]

SCHEMES = ("conventional", "proposed")
# Trials per Gram block: the unit of drawing and of work for the pool.
GRAM_BLOCK = 256
# Entries per (profile, user, trial) array in one zero-forcing block.
_ZF_BLOCK_ENTRIES = 16_384


def resolve_workers():
    """Worker count: MWRELAY_THREADS, else CPU count."""
    env = os.environ.get("MWRELAY_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class LinkEstimate:
    """Ergodic SE sample means and standard errors from one set of draws.

    ``uplink`` is (K,); ``downlink`` is (K, K-1), one column per broadcast
    slot. Standard errors are 0 when ``trials`` is 1.
    """

    uplink: np.ndarray
    uplink_stderr: np.ndarray
    downlink: np.ndarray
    downlink_stderr: np.ndarray
    trials: int


@dataclass(frozen=True)
class SumSeReport:
    """Sum spectral efficiency of one scheme, bit/s/Hz.

    ``min_rates`` holds min(uplink, downlink) per (user, slot); the sum is
    pre_log times its total. ``stderr`` is a conservative propagation (sum
    of the binding-side cell errors, scaled by the pre-log).
    """

    scheme: str
    min_rates: np.ndarray
    sum_se: float
    pre_log: float
    stderr: float


@dataclass(frozen=True)
class CdfResult:
    """Sum-SE samples over independent placements, one per profile."""

    samples: np.ndarray

    @property
    def sorted_samples(self):
        return np.sort(self.samples)

    @property
    def likely_95(self):
        """5th percentile: the rate achieved by 95% of placements."""
        return float(np.quantile(self.samples, 0.05))


def _check_schemes(schemes):
    """The requested schemes as a tuple of checked names."""
    if isinstance(schemes, str) or not schemes or not set(schemes) <= set(SCHEMES):
        raise ValueError(f"schemes must be a nonempty tuple drawn from {SCHEMES}, got {schemes!r}")
    return tuple(schemes)


def _check_trials(trials):
    if trials < 1:
        raise ValueError("trials must be >= 1")


def _pre_log(K, scheme):
    idx = SlotIndexer(K)
    return 1.0 / (idx.proposed_slots if scheme == "proposed" else idx.conventional_slots)


def _run_spans(fn, edges):
    """Call fn(lo, hi) for each span [lo, hi) between consecutive ``edges``, on a thread pool."""
    spans = list(zip(edges[:-1], edges[1:]))
    n_workers = min(resolve_workers(), len(spans))
    if n_workers <= 1:
        for lo, hi in spans:
            fn(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for future in [pool.submit(fn, lo, hi) for lo, hi in spans]:
                future.result()


def _profile_edges(profiles, cap, workers):
    """Edges of near-equal, nonempty spans of [0, profiles), each within ``cap``; their
    count is the least multiple of ``workers`` that allows this, or ``profiles`` if fewer."""
    count = min(profiles, -(-profiles // (cap * workers)) * workers)
    return [p * profiles // count for p in range(count + 1)]


def _gram_block(M, K, seed, lo, hi):
    """Small-scale Grams H^H H of trials lo..hi-1, which lie in one block.

    The block holding trial lo is drawn whole from its own substream and
    then sliced, so each trial's Gram is the same whichever span asks.
    """
    block, start = divmod(lo, GRAM_BLOCK)
    R = draw_gram_factor(M, K, substream(seed, STREAM_GRAM, block), GRAM_BLOCK)
    return (R.conj().transpose(0, 2, 1) @ R)[start:start + hi - lo]


@dataclass(frozen=True)
class _BlockTerms:
    """Scheme-independent terms of P gain profiles on T shared small-scale Grams.

    ``gram_h`` is (T, K, K) and ``betas`` (P, K); trials run along the last,
    contiguous axis of every other per-trial table. The offset tables hold, for
    user k's beam at offset s, ``cross_power[s]`` (K, T) |h_k^H h_order[k,s]|^2
    and ``pair[s]`` (P, K, 1) beta_k beta_order[k,s]. ``norms`` (P, K, T) holds
    ||g_k||^2, ``scale`` (P, 1, 1) the broadcast scale p_r / (M sum(beta)),
    and ``uplink`` (P, K, T) the uplink SE.
    """

    gram_h: np.ndarray
    betas: np.ndarray
    cross_power: np.ndarray
    pair: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    uplink: np.ndarray


def _power(pair, cross_power, s):
    """|g_k^H g_order[k,s]|^2 (P, K, T): the power user k receives from offset s."""
    return pair[s] * cross_power[s]


def _block_terms(config, gram_h, betas):
    """The work every scheme shares on one block, uplink SE included."""
    K = gram_h.shape[-1]
    order = SlotIndexer(K).order
    cross = np.ascontiguousarray(gram_h[:, np.arange(K)[:, None], order].transpose(2, 1, 0))
    pair = (betas[:, :, None] * betas[:, order]).transpose(2, 0, 1)[..., None]
    cross_power = cross.real**2 + cross.imag**2
    norms = cross[0].real * betas[:, :, None]
    interference = sum(_power(pair, cross_power, s) for s in range(1, K))
    uplink = np.log2(1.0 + config.p_u * norms**2 / (config.p_u * interference + norms))
    scale = (config.p_r / (config.M * betas.sum(axis=1)))[:, None, None]
    return _BlockTerms(gram_h, betas, cross_power, pair, norms, scale, uplink)


def _downlink_rates(terms, scheme):
    """Per-trial downlink SE (P, K, K-1, T) of one scheme, trials last.

    Slot t brings user k its beam at offset K - t. Offsets 1..K-t-1 interfere
    under both schemes; offsets K-t+1..K-1, decoded in earlier cancelation
    slots, interfere only in the conventional one. Each range is a running
    sum over slots, one add per slot, so no interference is formed by
    subtraction, and slot 1, with no offset above K - 1, takes the same
    value under both schemes.
    """
    P, K, T = terms.uplink.shape
    slots = K - 1 if scheme == "conventional" else SlotIndexer(K).sic_slots
    dl = np.zeros((P, K, K - 1, T))
    below = above = 0.0
    for s in range(1, K - 1):
        below = below + _power(terms.pair, terms.cross_power, s)
        if K - 1 - s <= slots:
            dl[:, :, K - 2 - s] = below
    if scheme == "conventional":
        for t in range(2, K):
            above = above + _power(terms.pair, terms.cross_power, K - t + 1)
            dl[:, :, t - 1] += above
    c = terms.scale
    signal = c * terms.norms**2
    for t in range(slots):
        dl[:, :, t] = np.log2(1.0 + signal / (c * dl[:, :, t] + 1.0))
    if scheme == "proposed":
        # Trial blocks small enough that the factor's (P, K, trials) temporaries stay in cache.
        step = max(1, _ZF_BLOCK_ENTRIES // (P * K))
        for lo in range(0, T, step):
            noise_gain = _zf_noise_gains(terms.gram_h[lo:lo + step], terms.betas).transpose(0, 2, 3, 1)
            dl[:, :, slots:, lo:lo + step] = np.log2(1.0 + c[..., None] / noise_gain)
    return dl


def _zf_noise_gains(gram_h, betas):
    """Zero-forcing noise gains (P, T, K, n_unknowns): the residual-Gram inverse diagonals.

    Entry (r, n) of user k's residual system, 0-based, is sqrt(beta_k beta_j)
    h_k^H h_j for beam j = order[k, sic_slots + n - r]; the h_k^H h_j are
    gathered once, with no profile axis. Each lower Gram entry is a
    multiply-accumulate over the rows, weighted by the profile's sqrt(beta)
    products, on a (P, K, T) array. An unrolled Cholesky over the unknowns
    passes its pivots so far to ``rates.check_pivots`` before each square
    root, as the scalar oracle does, and the noise gains are the squared
    column norms of L^-1. Everything runs in real arithmetic, one IEEE
    operation per ufunc, so a trial's value does not depend on the batch
    shape it is scored in.
    """
    idx = SlotIndexer(gram_h.shape[-1])
    cols = idx.order[:, idx.sic_slots + np.arange(idx.n_unknowns) - np.arange(idx.sic_slots)[:, None]]
    K, rows, n = cols.shape
    users = np.arange(K)[:, None, None]
    # (n, rows, K, T) each, gathered from the real and imaginary views so trials are contiguous.
    x_re, x_im = (x[:, users, cols].transpose(3, 2, 1, 0) for x in (gram_h.real, gram_h.imag))
    root = np.sqrt(betas)
    weight = (root[:, :, None, None] * root[:, cols]).transpose(3, 2, 0, 1)[..., None]  # (n, rows, P, K, 1)
    gram = {}  # gram[i, j], i >= j: (Re, Im) of sum_r conj(mixing_ri) mixing_rj
    for i in range(n):
        for j in range(i + 1):
            w = weight[i] * weight[j]
            gram[i, j] = (_row_sum(w, x_re[i] * x_re[j] + x_im[i] * x_im[j]),
                          _row_sum(w, x_re[i] * x_im[j] - x_im[i] * x_re[j]) if i != j else None)
    # Cholesky A = L L^H: low[i, j] = (Re, Im) of L_ij for i > j, inv[j] = 1 / L_jj.
    low, inv = {}, {}
    for j in range(n):
        pivot = gram[j, j][0]
        for m in range(j):
            pivot -= low[j, m][0] ** 2 + low[j, m][1] ** 2
        least = pivot if j == 0 else np.minimum(least, pivot)
        largest = pivot if j == 0 else np.maximum(largest, pivot)
        check_pivots(least, largest)
        inv[j] = 1.0 / np.sqrt(pivot)
        for i in range(j + 1, n):
            a_re, a_im = gram[i, j]
            for m in range(j):
                (p_re, p_im), (q_re, q_im) = low[i, m], low[j, m]
                a_re -= p_re * q_re + p_im * q_im
                a_im -= p_im * q_re - p_re * q_im
            low[i, j] = (a_re * inv[j], a_im * inv[j])
    # Column j of L^-1 by forward substitution; its squared norm is gain j.
    gains = np.empty((n, len(betas), K, len(gram_h)))
    for j in range(n):
        col = {}
        gains[j] = inv[j] ** 2
        for i in range(j + 1, n):
            acc_re, acc_im = low[i, j][0] * inv[j], low[i, j][1] * inv[j]
            for m in range(j + 1, i):
                (l_re, l_im), (v_re, v_im) = low[i, m], col[m]
                acc_re += l_re * v_re - l_im * v_im
                acc_im += l_re * v_im + l_im * v_re
            scale = -inv[i]
            col[i] = (acc_re * scale, acc_im * scale)
            gains[j] += col[i][0] ** 2 + col[i][1] ** 2
    return gains.transpose(1, 3, 2, 0)


def _row_sum(w, part):
    """sum_r w[r] * part[r], added in row order."""
    total = w[0] * part[0]
    for r in range(1, len(part)):
        total += w[r] * part[r]
    return total


def _min_sum(ul, dl):
    """min(uplink_k, downlink_kt) summed over users and slots, per leading index."""
    return np.minimum(ul[..., None], dl).sum(axis=(-2, -1))


def estimate_link_se(config, beta, schemes, trials, seed):
    """Uplink and downlink ergodic SE of each scheme, from one set of channel draws.

    Returns a dict mapping each name in ``schemes`` to its LinkEstimate.
    Every trial's Gram is drawn once and scored under every scheme, so the
    schemes are compared on the same channels. For the proposed scheme the
    first sic_slots downlink columns are the cancelation slots and the rest
    come from the zero-forcing stage.
    """
    _check_trials(trials)
    schemes = _check_schemes(schemes)
    M, K = config.M, config.K
    betas = checked_gains(beta, K)[None]
    # Trials last, as in cdf_experiment, so the trial means reduce identically.
    ul = np.empty((K, trials))
    dl = {scheme: np.empty((K, K - 1, trials)) for scheme in schemes}

    def run_batch(lo, hi):
        terms = _block_terms(config, _gram_block(M, K, seed, lo, hi), betas)
        ul[:, lo:hi] = terms.uplink[0]
        for scheme in schemes:
            dl[scheme][..., lo:hi] = _downlink_rates(terms, scheme)[0]

    _run_spans(run_batch, [*range(0, trials, GRAM_BLOCK), trials])
    ul_mean, ul_err = _mean_stderr(ul)
    return {scheme: LinkEstimate(ul_mean, ul_err, *_mean_stderr(samples), trials)
            for scheme, samples in dl.items()}


def _mean_stderr(samples):
    """Trial mean and standard error of (..., trials) samples; the error is 0 for one trial."""
    trials = samples.shape[-1]
    mean = samples.mean(axis=-1)
    if trials < 2:
        return mean, np.zeros(mean.shape)
    return mean, samples.std(axis=-1, ddof=1) / np.sqrt(trials)


def sum_se(estimate, scheme):
    """Compose a LinkEstimate into the scheme's sum SE.

    Applies min(uplink_k, downlink_{k,t}) to the already-averaged rates for
    every user and slot, sums, and scales by the scheme pre-log
    (1/(sic_slots + 1) proposed, 1/K conventional).
    """
    _check_schemes((scheme,))
    ul, dl = estimate.uplink, estimate.downlink
    K = ul.shape[0]
    if dl.shape != (K, K - 1):
        raise ValueError(f"downlink estimates must cover {K} users x {K - 1} slots, got {dl.shape}")
    pre_log = _pre_log(K, scheme)
    binding_err = np.where(ul[:, None] <= dl, estimate.uplink_stderr[:, None], estimate.downlink_stderr)
    return SumSeReport(scheme=scheme, min_rates=np.minimum(ul[:, None], dl),
                       sum_se=float(pre_log * _min_sum(ul, dl)), pre_log=pre_log,
                       stderr=float(pre_log * binding_err.sum()))


def sum_se_once(config, beta, scheme, trials, seed):
    """Run one Monte Carlo pass of one scheme and reduce it straight to a SumSeReport."""
    return sum_se(estimate_link_se(config, beta, (scheme,), trials, seed)[scheme], scheme)


def cdf_experiment(config, geometry, profiles, trials_per_profile, seed, schemes=("proposed",)):
    """Sum-SE distribution over independently drawn placement profiles, per scheme.

    Returns a dict mapping each name in ``schemes`` to its CdfResult. Each
    profile p draws its gains from the (seed, profile-stream, p) substream
    (or uses the unit profile when geometry is None), so sample p never
    depends on how many profiles run or on the thread count. All profiles
    and schemes are scored against the same channel draws (common random
    numbers): trial i's small-scale Gram is a function of (seed, M, K, i)
    alone, so identical profiles score identically, and each sample equals
    ``sum_se_once`` with that profile's gains and scheme.
    """
    schemes = _check_schemes(schemes)
    if profiles < 1:
        raise ValueError("profiles must be >= 1")
    _check_trials(trials_per_profile)
    M, K, trials = config.M, config.K, trials_per_profile
    if geometry is None:
        betas = np.ones((profiles, K))
    else:
        betas = np.stack([
            draw_large_scale(geometry, K, substream(seed, STREAM_PROFILE, p)).beta
            for p in range(profiles)
        ])

    gram_h = np.empty((trials, K, K), dtype=complex)

    def draw(lo, hi):
        gram_h[lo:hi] = _gram_block(M, K, seed, lo, hi)

    _run_spans(draw, [*range(0, trials, GRAM_BLOCK), trials])

    # The cap bounds the profiles per chunk, and so a chunk's (P, K, K-1, T)
    # downlink table, to P * T * K * K float64 in 12.5 MB: 15 profiles at the
    # placement-cdf shape (K = 10, 1000 trials). The chunk count follows the
    # worker count (40 profiles on two workers run as 4 x 10); no sample does.
    cap = int(np.clip(50_000_000 // max(1, trials * K * K * 8 * 4), 1, 64))
    samples = {scheme: np.empty(profiles) for scheme in schemes}

    def score(lo, hi):
        terms = _block_terms(config, gram_h, betas[lo:hi])
        ul = terms.uplink.mean(axis=-1)
        # One scheme at a time: each downlink array is reduced before the next is made.
        for scheme in schemes:
            dl = _downlink_rates(terms, scheme).mean(axis=-1)
            samples[scheme][lo:hi] = _pre_log(K, scheme) * _min_sum(ul, dl)

    _run_spans(score, _profile_edges(profiles, cap, resolve_workers()))
    return {scheme: CdfResult(samples=values) for scheme, values in samples.items()}
