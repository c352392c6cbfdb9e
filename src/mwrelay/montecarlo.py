"""Ergodic spectral-efficiency estimation over Rayleigh channel draws.

One kernel scores a stack of P large-scale gain profiles on shared
small-scale Grams H^H H, using g_k^H g_i = sqrt(beta_k beta_i) h_k^H h_i. It
reads the protocol's one cyclic rule from ``SlotIndexer.order``: user k's
beam at offset s is order[k, s] and in slot t it newly holds offset K - t.
Each Gram block is gathered once into a table by offset (``_offset_table``),
with no profile axis and trials on the last, contiguous axis.
``_rate_blocks`` scores a chunk of profiles from it in one pass: the
lower-offset prefix rows, then the uplink, the cancelation slots, the
conventional slots and the zero-forcing slots, each reduced as it is made, so
a chunk's largest array is its prefix rows (K - 1 of them when the
conventional scheme is asked, sic_slots otherwise). The zero-forcing stage
(``_zf_noise_gains``) reads the same table: user k's residual entry (r, n)
is offset sic_slots + n - r, so its residual Gram is Toeplitz in offsets and
every diagonal is a window sum of offset products formed once, added highest
offset first and never formed by subtraction. A numpy-only batched Cholesky
applies the scalar oracle's pivot rule (``rates.check_pivots``) and raises
SingularSystemError where it fails. Both estimators reduce trials in one
scan (``_scan``) whose unit of work is one Gram block, drawn once; its
profiles are scored in even chunks whose slot tables fit _SPAN_BYTES, and
the pool opens only when a chunk's entries reach _POOL_ENTRIES. Each chunk's
block means are merged per profile in block order (Chan, Golub & LeVeque,
1979), so memory grows with neither the trial count nor the profile count.
``estimate_link_se`` is the P = 1 case and keeps each cell's M2 for its
standard error; ``cdf_experiment`` is the P > 1 case and keeps means alone,
which take the same operations in both, and both compose their sum SE
through ``schedule.compose_sum_se``, so its sample equals ``sum_se_once``
for its gains exactly. Both score every scheme asked for on the same Grams.

Trials are grouped in fixed blocks of GRAM_BLOCK. Block b's Grams come
from ``channel.draw_gram_block`` on (seed, STREAM_GRAM, b), drawn whole and
then sliced, so trial i's Gram depends only on (seed, M, K, i). Workers take
whole blocks and the merge runs in block order, so estimates are
bit-reproducible for any worker count, which MWRELAY_THREADS alone caps
(``resolve_workers``).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (STREAM_GRAM, STREAM_PROFILE, checked_count, checked_gains,
                      draw_gram_block, draw_large_scale, substream)
from .exceptions import InvalidConfigError
from .rates import _broadcast_scale, check_pivots
from .schedule import SCHEMES, SlotIndexer, compose_sum_se

__all__ = ["LinkEstimate", "SumSeReport", "CdfResult", "SCHEMES", "estimate_link_se", "sum_se",
           "sum_se_once", "cdf_experiment", "resolve_workers"]

# Trials per Gram block: the unit of drawing and of work for the pool.
GRAM_BLOCK = 256
# Entries per (profile, user, trial) array in one zero-forcing block.
_ZF_BLOCK_ENTRIES = 16_384
# Fewest entries in a chunk's (P, K, T) tables worth the pool's lock handoffs: two threads ran
# one-profile chunks at 0.87x one thread's speed at K = 11, 1.07x at K = 12 (BENCH_pool-floor.json).
_POOL_ENTRIES = 3_072
# Budget for a chunk's largest slot table, (K - 1, P, K, GRAM_BLOCK) float64, which caps its profile
# count P: 21 at K = 10. Smaller chunks cost time: at 2 MB `placement-cdf` read 11% fewer trials/s.
_SPAN_BYTES = 4_000_000


def resolve_workers():
    """Worker count: MWRELAY_THREADS, else CPU count."""
    env = os.environ.get("MWRELAY_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise InvalidConfigError(f"MWRELAY_THREADS must be an integer, got {env!r}") from None


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
    pre_log times its total. ``stderr`` is pre_log times the sum of the binding
    cells' errors: 2.3-6.2x the seed-to-seed sd, as ROADMAP item 13 measured.
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
    """The requested schemes as a tuple of distinct checked names."""
    if not schemes or len(set(schemes) & set(SCHEMES)) != len(schemes):
        raise ValueError(f"schemes must be one or more distinct names from {SCHEMES}, got {schemes!r}")
    return tuple(schemes)


def _run_units(fn, units, workers):
    """Yield the items of fn(unit) for each unit in order: each as it is made on the calling
    thread, or a unit's whole list at a time from a pool of up to ``workers`` threads."""
    n_workers = min(workers, len(units))
    if n_workers <= 1:
        for unit in units:
            yield from fn(unit)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for items in pool.map(lambda unit: list(fn(unit)), units):
                yield from items


def _pieces(lo, hi, most):
    """(start, stop) of lo..hi-1 cut into the fewest pieces of at most ``most``, sizes within one."""
    parts = -(-(hi - lo) // most)
    edges = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _offset_table(gram_h):
    """(Re, Im) of h_k^H h_order[k,s] from (T, K, K) Grams: contiguous (K offsets, K, T) arrays."""
    K = gram_h.shape[-1]
    cross = gram_h[:, np.arange(K)[:, None], SlotIndexer(K).order].transpose(2, 1, 0)
    return np.ascontiguousarray(cross.real), np.ascontiguousarray(cross.imag)


def _rate_blocks(config, cross, betas, schemes, reduce):
    """Yield (key, reduce(rates)) for each per-trial SE block of the (P, K) profiles ``betas``.

    ``cross`` is an ``_offset_table`` of T Grams. Key "uplink" comes once, with (P, K, T) rates,
    and each of ``schemes`` with (P, K, slots, T) blocks in slot order. Slot t brings user k its
    beam at offset K - 1 - t. Lower offsets interfere under both schemes, higher ones (decoded
    in earlier cancelation slots) only in the conventional one; each range is a running sum,
    one add per slot, never formed by subtraction. Lower sums grow from the last slot and upper
    ones from the first, so the lower ones are stored once, as prefix rows over the last slot's
    zero: K - 1 rows if the conventional scheme is asked, else sic_slots. The uplink's
    interference is row 0 plus offset K - 1. A block is valid only until the next is made.
    """
    cross_re, cross_im = cross
    K, T = cross_re.shape[0], cross_re.shape[-1]
    P, idx = len(betas), SlotIndexer(K)
    pair = (betas[:, :, None] * betas[:, idx.order]).transpose(2, 0, 1)[..., None]
    cross_power = cross_re**2 + cross_im**2
    norms = cross_re[0] * betas[:, :, None]
    c = _broadcast_scale(betas, config.p_r, config.M)[:, None, None]
    last = K - 2 if "conventional" in schemes else idx.sic_slots - 1
    rows = np.empty((last + 1, P, K, T))
    rows[last] = 0.0
    # Row t is row t + 1 plus offset K - 2 - t; the last row adds every offset below its own.
    for s in range(1, K - 1):
        t = min(K - 2 - s, last)
        np.add(rows[min(t + 1, last)], pair[s] * cross_power[s], out=rows[t])
    p_u = config.p_u
    yield "uplink", reduce(np.log2(1.0 + p_u * norms**2 / (
        p_u * (rows[0] + pair[K - 1] * cross_power[K - 1]) + norms)))
    signal = c * norms**2
    del norms  # as are the upper sums and the rows once read: each would add to a later peak

    def slot_se(interference, out):
        np.add(np.multiply(c, interference, out=out), 1.0, out=out)
        return np.log2(np.add(np.divide(signal, out, out=out), 1.0, out=out), out=out)

    if "proposed" in schemes:  # the cancelation slots, read before any upper sum is added
        slot = np.empty((P, K, T))
        for t in range(idx.sic_slots):
            yield "proposed", reduce(slot_se(rows[t], slot)[:, :, None])
    if "conventional" in schemes:
        above = np.zeros((P, K, T))
        for t in range(1, K - 1):
            above += pair[K - t] * cross_power[K - t]
            rows[t] += above
        del above
        yield "conventional", reduce(slot_se(rows, rows).transpose(1, 2, 0, 3))
    del rows
    if "proposed" in schemes:
        zf = np.empty((idx.n_unknowns, P, K, T))
        # Equal trial steps small enough that the factor's (P, K, trials) temporaries stay in cache.
        for lo, hi in _pieces(0, T, max(1, _ZF_BLOCK_ENTRIES // (P * K))):
            noise_gain = _zf_noise_gains(cross_re[..., lo:hi], cross_im[..., lo:hi],
                                         betas).transpose(3, 0, 2, 1)
            np.add(np.divide(c, noise_gain, out=noise_gain), 1.0, out=noise_gain)
            np.log2(noise_gain, out=zf[..., lo:hi])
        yield "proposed", reduce(zf.transpose(1, 2, 0, 3))


def _zf_noise_gains(cross_re, cross_im, betas):
    """Zero-forcing noise gains (P, T, K, n_unknowns): the residual-Gram inverse diagonals.

    ``cross_re``, ``cross_im`` are an ``_offset_table``. Entry (r, n) of user
    k's residual system, 0-based, is sqrt(beta_k beta_j) h_k^H h_j for beam
    j = order[k, S + n - r], S = sic_slots, so Gram entry (j + d, j) sums
    rpair[s+d] rpair[s] conj(cross[s+d]) cross[s] over offsets s = S+j down
    to j+1, with rpair[s] = sqrt(beta_k) sqrt(beta_order[k,s]). For each
    distance d the profile-free products are formed once over all offsets,
    weighted, and window-summed for every j at once, highest offset first.
    An unrolled Cholesky overwrites those sums, never its inputs, with L and
    passes its pivots so far to ``rates.check_pivots`` before each square
    root, as the scalar oracle does; the noise gains are the squared column
    norms of L^-1. Everything runs in real arithmetic, one IEEE operation per
    ufunc, so a trial's value does not depend on the batch shape it is scored in.
    """
    K = cross_re.shape[0]
    idx = SlotIndexer(K)
    S, n = idx.sic_slots, idx.n_unknowns
    root = np.sqrt(betas)
    rpair = (root[:, :, None] * root[:, idx.order]).transpose(2, 0, 1)[1:K - 1, ..., None]
    x_re, x_im = cross_re[1:K - 1], cross_im[1:K - 1]  # offsets 1..K-2: all the residual reads
    gram = {}  # gram[i, j], i >= j: (Re, Im) of sum_r conj(mixing_ri) mixing_rj
    for d in range(n):
        hi, lo = slice(d, K - 2), slice(0, K - 2 - d)
        weight = rpair[hi] * rpair[lo]
        re = _window_sum(weight, x_re[hi] * x_re[lo] + x_im[hi] * x_im[lo], S)
        im = _window_sum(weight, x_re[hi] * x_im[lo] - x_im[hi] * x_re[lo], S) if d else [None] * n
        for j in range(n - d):
            gram[j + d, j] = (re[j], im[j])
    # Cholesky A = L L^H in place: gram[i, j] becomes L_ij for i > j, the pivot inv[j] = 1 / L_jj.
    low, inv = gram, {}
    for j in range(n):
        pivot = gram[j, j][0]
        for m in range(j):
            pivot -= low[j, m][0] ** 2 + low[j, m][1] ** 2
        least = np.minimum(least, pivot) if j else pivot.copy()
        largest = np.maximum(largest, pivot) if j else least
        check_pivots(least, largest)
        inv[j] = np.divide(1.0, np.sqrt(pivot, out=pivot), out=pivot)
        for i in range(j + 1, n):
            a_re, a_im = gram[i, j]
            for m in range(j):
                (p_re, p_im), (q_re, q_im) = low[i, m], low[j, m]
                a_re -= p_re * q_re + p_im * q_im
                a_im -= p_im * q_re - p_re * q_im
            a_re *= inv[j]
            a_im *= inv[j]
    # Column j of L^-1 by forward substitution; its squared norm is gain j.
    gains = np.empty((n, len(betas), K, cross_re.shape[-1]))
    for j in range(n):
        col = {}
        gains[j] = inv[j] ** 2
        for i in range(j + 1, n):
            acc_re, acc_im = col[i] = low[i, j][0] * inv[j], low[i, j][1] * inv[j]
            for m in range(j + 1, i):
                (l_re, l_im), (v_re, v_im) = low[i, m], col[m]
                acc_re += l_re * v_re - l_im * v_im
                acc_im += l_re * v_im + l_im * v_re
            scale = -inv[i]
            acc_re *= scale
            acc_im *= scale
            gains[j] += acc_re ** 2 + acc_im ** 2
    return gains.transpose(1, 3, 2, 0)


def _window_sum(weight, part, S):
    """sum_q weight[j+q] part[j+q] over q = S-1 down to 0, for every j: highest offset first."""
    term = weight * part[:, None]
    total = term[S - 1:].copy()
    for q in range(S - 2, -1, -1):
        total += term[q:q + len(total)]
    return total


def estimate_link_se(config, beta, schemes, trials, seed):
    """Uplink and downlink ergodic SE of each scheme, from one set of channel draws.

    Returns a dict mapping each name in ``schemes`` to its LinkEstimate.
    Every trial's Gram is drawn once and scored under every scheme, so the
    schemes are compared on the same channels. For the proposed scheme the
    first sic_slots downlink columns are the cancelation slots and the rest
    come from the zero-forcing stage.
    """
    schemes = _check_schemes(schemes)
    trials = checked_count(trials, "trials")
    stats = _scan(config, checked_gains(beta, config.K)[None], schemes, trials, seed, spread=True)
    cells = {key: (mean[0], np.sqrt(m2[0] / max(1, trials - 1)) / np.sqrt(trials))
             for key, (mean, m2) in stats.items()}
    return {scheme: LinkEstimate(*cells["uplink"], *cells[scheme], trials) for scheme in schemes}


def _scan(config, betas, schemes, trials, seed, spread):
    """Per-cell trial (mean, M2) of the (P, K) profiles ``betas``: (P, K) arrays under
    "uplink", (P, K, K-1) under each scheme, with M2 None unless ``spread``. A unit is one
    Gram block, drawn once; its profiles are scored in even chunks that fit _SPAN_BYTES. The
    pool opens only when a chunk's entries reach _POOL_ENTRIES. Units are reduced by
    _run_units; a profile's block [lo, hi) joins the lo trials before it.
    """
    M, K, P = config.M, config.K, len(betas)
    blocks = [(lo, min(lo + GRAM_BLOCK, trials)) for lo in range(0, trials, GRAM_BLOCK)]
    chunks = _pieces(0, P, max(1, _SPAN_BYTES // (8 * (K - 1) * K * GRAM_BLOCK)))
    workers = resolve_workers()
    a, b = chunks[0]  # the smallest chunk
    if (b - a) * K * min(trials, GRAM_BLOCK) < _POOL_ENTRIES:
        workers = 1

    def score(block):
        lo, hi = block
        # Shared by the chunks; the block's Grams are freed before any chunk is scored.
        cross = _offset_table(
            draw_gram_block(M, K, seed, STREAM_GRAM, lo // GRAM_BLOCK, GRAM_BLOCK)[0][:hi - lo])
        for c, d in chunks:
            parts = {}
            for key, reduced in _rate_blocks(config, cross, betas[c:d], schemes,
                                             lambda rates: _moments(rates, spread)):
                parts.setdefault(key, []).append(reduced)
            moments = {}
            for key, part in parts.items():
                mean, m2 = zip(*part)
                moments[key] = np.concatenate(mean, -1), np.concatenate(m2, -1) if spread else None
            yield c, d, lo, hi, moments

    shapes = {"uplink": (P, K), **{scheme: (P, K, K - 1) for scheme in schemes}}
    stats = {key: (np.zeros(s), np.zeros(s) if spread else None) for key, s in shapes.items()}
    for a, b, lo, hi, moments in _run_units(score, blocks, workers):
        for key, (block_mean, block_m2) in moments.items():
            mean, m2 = stats[key]
            delta = block_mean - mean[a:b]
            mean[a:b] += delta * ((hi - lo) / hi)
            if spread:
                m2[a:b] += block_m2 + delta**2 * (lo * (hi - lo) / hi)
    return stats


def _moments(samples, spread):
    """Mean and, if ``spread``, M2, the summed squared deviation from it, of (..., trials) samples."""
    mean = samples.mean(axis=-1)
    if not spread:
        return mean, None
    deviation = samples - mean[..., None]
    return mean, np.einsum("...t,...t->...", deviation, deviation)


def sum_se(estimate, scheme):
    """Compose a LinkEstimate into the scheme's sum SE.

    Applies ``schedule.compose_sum_se`` to the already-averaged rates:
    min(uplink_k, downlink_{k,t}) for every user and slot, summed and scaled
    by the scheme pre-log.
    """
    ul, dl = estimate.uplink, estimate.downlink
    K = ul.shape[0]
    if dl.shape != (K, K - 1):
        raise ValueError(f"downlink estimates must cover {K} users x {K - 1} slots, got {dl.shape}")
    pre_log, total = compose_sum_se(ul, dl, scheme)
    binding_err = np.where(ul[:, None] <= dl, estimate.uplink_stderr[:, None], estimate.downlink_stderr)
    return SumSeReport(scheme=scheme, min_rates=np.minimum(ul[:, None], dl), sum_se=float(total),
                       pre_log=pre_log, stderr=float(pre_log * binding_err.sum()))


def sum_se_once(config, beta, scheme, trials, seed):
    """Run one Monte Carlo pass of one scheme and reduce it straight to a SumSeReport."""
    return sum_se(estimate_link_se(config, beta, (scheme,), trials, seed)[scheme], scheme)


def cdf_experiment(config, geometry, profiles, trials_per_profile, seed, schemes=("proposed",)):
    """Sum-SE distribution over independently drawn placement profiles, per scheme.

    Returns a dict mapping each name in ``schemes`` to its CdfResult. Each
    profile p draws its gains from ``geometry`` on the (seed, profile-stream,
    p) substream, so sample p never depends on how many profiles run or on
    the thread count; anything but a GeometryModel is an InvalidConfigError.
    All profiles and schemes are scored against the same channel draws
    (common random numbers): trial i's small-scale Gram is a function of
    (seed, M, K, i) alone, so identical profiles score identically, and each
    sample equals ``sum_se_once`` with that profile's gains and scheme.
    """
    schemes = _check_schemes(schemes)
    profiles = checked_count(profiles, "profiles")
    trials_per_profile = checked_count(trials_per_profile, "trials")
    betas = np.stack([draw_large_scale(geometry, config.K, substream(seed, STREAM_PROFILE, p))
                      for p in range(profiles)])
    stats = _scan(config, betas, schemes, trials_per_profile, seed, spread=False)
    ul = stats["uplink"][0]
    return {scheme: CdfResult(samples=compose_sum_se(ul, stats[scheme][0], scheme)[1])
            for scheme in schemes}
