"""Ergodic spectral-efficiency estimation over Rayleigh channel draws.

One kernel, ``_slot_rates``, scores a stack of P large-scale gain profiles
on shared small-scale Grams H^H H, using g_k^H g_i = sqrt(beta_k beta_i)
h_k^H h_i. Fixed-gain estimation (``estimate_link_se``) is the P = 1 case,
batched over trials; the placement study (``cdf_experiment``) is the P > 1
case, chunked over profiles. Both take a tuple of schemes and score every
scheme on the same Grams, so each trial's channel is drawn once however
many schemes are compared; they return one result per scheme.

Trials are indexed units of work: trial i's channel comes from the
(seed, trial-index) substream regardless of batching or thread count, and
aggregation runs in trial order, so estimates are bit-reproducible for any
worker count. The env var MWRELAY_THREADS caps the worker pool.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_CHANNEL,
    STREAM_PROFILE,
    checked_gains,
    draw_large_scale,
    draw_small_scale,
    substream,
)
from .exceptions import SingularSystemError
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


def resolve_workers(requested=None):
    """Worker count: explicit argument, else MWRELAY_THREADS, else CPU count."""
    if requested is not None:
        return max(1, int(requested))
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


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def _check_schemes(schemes):
    """The requested schemes as a tuple; names are checked by _slot_plan."""
    if isinstance(schemes, str) or not schemes:
        raise ValueError(f"schemes must be a nonempty tuple drawn from {SCHEMES}, got {schemes!r}")
    return tuple(schemes)


def _check_trials(trials):
    if trials < 1:
        raise ValueError("trials must be >= 1")


def _pre_log(K, scheme):
    idx = SlotIndexer(K)
    return 1.0 / (idx.proposed_slots if scheme == "proposed" else idx.conventional_slots)


def _slot_plan(K, scheme):
    """Held-column windows of the interference-limited slots, and the ZF beam table.

    Windows are (K, held) 0-based column indices per slot, read from
    SlotIndexer.beams. The conventional pair is ordered like the t=1
    cancelation window so the two schemes give bit-identical slot-1 values.
    The beam table is (K, sic_slots, n_unknowns), or None when no slot is
    zero-forced.
    """
    _check_scheme(scheme)
    idx = SlotIndexer(K)
    T, beams = idx.sic_slots, idx.beams
    if scheme == "conventional":
        return [beams[:, t - 1, [0, t]] for t in range(1, K)], None
    windows = [beams[:, t - 1, :t + 1] for t in range(1, T + 1)]
    return windows, (beams[:, :T, T + 1:] if idx.n_unknowns else None)


def _batch_size(M, K):
    # Trials per span: fewer at large M, so spans draw about 8 MB of entries each.
    return int(np.clip(8_000_000 // (16 * M * K), 8, 1024))


def _run_spans(fn, total, step, workers=None):
    """Call fn(lo, hi) over [0, total) in spans of ``step``, on a thread pool."""
    spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    n_workers = min(resolve_workers(workers), len(spans))
    if n_workers <= 1:
        for lo, hi in spans:
            fn(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for future in [pool.submit(fn, lo, hi) for lo, hi in spans]:
                future.result()


def _channel_gram(M, K, seed, start, stop):
    """Small-scale Gram H^H H of trials start..stop-1, each from its own substream.

    Each H is reduced to its K x K Gram as soon as it is drawn, so no batch
    of M x K matrices is ever held.
    """
    gram = np.empty((stop - start, K, K), dtype=complex)
    for pos, trial in enumerate(range(start, stop)):
        H = draw_small_scale(M, K, substream(seed, STREAM_CHANNEL, trial))
        gram[pos] = H.conj().T @ H
    return gram


def _slot_rates(config, gram_h, betas, plan):
    """Per-trial SE of P gain profiles on T shared small-scale Grams.

    ``gram_h`` is (T, K, K), ``betas`` (P, K) and ``plan`` comes from
    ``_slot_plan``. Returns uplink (P, T, K) and downlink (P, T, K, K-1).
    """
    windows, beams = plan
    K = gram_h.shape[-1]
    users = np.arange(K)[:, None]
    power = (gram_h.real**2 + gram_h.imag**2)[None] * (betas[:, None, :, None] * betas[:, None, None, :])
    norms = np.einsum("tkk->tk", gram_h).real[None] * betas[:, None, :]
    row_sum = power.sum(axis=3)
    c = (config.p_r / (config.M * betas.sum(axis=1)))[:, None, None]

    interference = row_sum - norms**2
    ul = np.log2(1.0 + config.p_u * norms**2 / (config.p_u * interference + norms))

    dl = np.empty(ul.shape + (K - 1,))
    signal = c * norms**2
    for t, window in enumerate(windows):
        held = power[:, :, users, window].sum(axis=3)
        dl[..., t] = np.log2(1.0 + signal / (c * (row_sum - held) + 1.0))
    if beams is not None:
        sqrt_b = np.sqrt(betas)
        scale = sqrt_b[:, :, None, None] * sqrt_b[:, beams]  # (P, K, rows, cols)
        mixing = gram_h[:, users[:, :, None], beams][None] * scale[:, None]
        zf_gram = mixing.conj().swapaxes(-2, -1) @ mixing
        try:
            inverse = np.linalg.inv(zf_gram)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular residual Gram") from exc
        noise_gain = np.einsum("...nn->...n", inverse).real
        if not np.all(np.isfinite(noise_gain)) or np.any(noise_gain <= 0):
            raise SingularSystemError("nonpositive noise gain")
        dl[..., len(windows):] = np.log2(1.0 + c[..., None] / noise_gain)
    return ul, dl


def _min_sum(ul, dl):
    """min(uplink_k, downlink_kt) summed over users and slots, per leading index."""
    return np.minimum(ul[..., None], dl).sum(axis=(-2, -1))


def estimate_link_se(config, beta, schemes, trials, seed, workers=None):
    """Uplink and downlink ergodic SE of each scheme, from one set of channel draws.

    Returns a dict mapping each name in ``schemes`` to its LinkEstimate.
    Every trial's Gram is drawn once and scored under every scheme, so the
    schemes are compared on the same channels. For the proposed scheme the
    first sic_slots downlink columns are the cancelation slots and the rest
    come from the zero-forcing stage.
    """
    _check_trials(trials)
    plans = {scheme: _slot_plan(config.K, scheme) for scheme in _check_schemes(schemes)}
    M, K = config.M, config.K
    betas = checked_gains(beta, K)[None]
    # Keep the profile axis so the trial means reduce exactly as in cdf_experiment.
    ul = np.empty((1, trials, K))
    dl = {scheme: np.empty((1, trials, K, K - 1)) for scheme in plans}

    def run_batch(lo, hi):
        gram_h = _channel_gram(M, K, seed, lo, hi)
        for scheme, plan in plans.items():
            # The uplink does not depend on the scheme; each pass writes the same values.
            ul[:, lo:hi], dl[scheme][:, lo:hi] = _slot_rates(config, gram_h, betas, plan)

    _run_spans(run_batch, trials, _batch_size(M, K), workers)
    ul_mean, ul_err = _mean_stderr(ul)
    estimates = {}
    for scheme, samples in dl.items():
        dl_mean, dl_err = _mean_stderr(samples)
        estimates[scheme] = LinkEstimate(uplink=ul_mean, uplink_stderr=ul_err,
                                         downlink=dl_mean, downlink_stderr=dl_err, trials=trials)
    return estimates


def _mean_stderr(samples):
    """Trial mean and standard error of (1, trials, ...) samples; the error is 0 for one trial."""
    trials = samples.shape[1]
    mean = samples.mean(axis=1)[0]
    if trials < 2:
        return mean, np.zeros(mean.shape)
    return mean, samples[0].std(axis=0, ddof=1) / np.sqrt(trials)


def sum_se(estimate, scheme):
    """Compose a LinkEstimate into the scheme's sum SE.

    Applies min(uplink_k, downlink_{k,t}) to the already-averaged rates for
    every user and slot, sums, and scales by the scheme pre-log
    (1/(sic_slots + 1) proposed, 1/K conventional).
    """
    _check_scheme(scheme)
    ul, dl = estimate.uplink, estimate.downlink
    K = ul.shape[0]
    if dl.shape != (K, K - 1):
        raise ValueError(f"downlink estimates must cover {K} users x {K - 1} slots, got {dl.shape}")
    pre_log = _pre_log(K, scheme)
    binding_err = np.where(ul[:, None] <= dl, estimate.uplink_stderr[:, None], estimate.downlink_stderr)
    return SumSeReport(
        scheme=scheme,
        min_rates=np.minimum(ul[:, None], dl),
        sum_se=float(pre_log * _min_sum(ul, dl)),
        pre_log=pre_log,
        stderr=float(pre_log * binding_err.sum()),
    )


def sum_se_once(config, beta, scheme, trials, seed, workers=None):
    """Run one Monte Carlo pass of one scheme and reduce it straight to a SumSeReport."""
    return sum_se(estimate_link_se(config, beta, (scheme,), trials, seed, workers)[scheme], scheme)


def cdf_experiment(config, geometry, profiles, trials_per_profile, seed,
                   schemes=("proposed",), workers=None):
    """Sum-SE distribution over independently drawn placement profiles, per scheme.

    Returns a dict mapping each name in ``schemes`` to its CdfResult. Each
    profile p draws its gains from the (seed, profile-stream, p) substream
    (or uses the unit profile when geometry is None), so sample p never
    depends on how many profiles run or on the thread count. All profiles
    and schemes are scored against the same channel draws (common random
    numbers): trial i's small-scale realization is a function of (seed, i)
    alone, so identical profiles score identically, and each sample equals
    ``sum_se_once`` with that profile's gains and scheme.
    """
    plans = {scheme: _slot_plan(config.K, scheme) for scheme in _check_schemes(schemes)}
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
        gram_h[lo:hi] = _channel_gram(M, K, seed, lo, hi)

    _run_spans(draw, trials, _batch_size(M, K), workers)

    # Keep each chunk's scratch arrays, per-trial downlink output included, around ~50 MB.
    chunk = int(np.clip(50_000_000 // max(1, trials * K * K * 8 * 4), 1, 64))
    results = {}
    # One scheme at a time, so the chunk scratch of two schemes is never alive together.
    for scheme, plan in plans.items():
        pre_log = _pre_log(K, scheme)
        samples = np.empty(profiles)

        def score(lo, hi):
            ul, dl = _slot_rates(config, gram_h, betas[lo:hi], plan)
            samples[lo:hi] = pre_log * _min_sum(ul.mean(axis=1), dl.mean(axis=1))

        _run_spans(score, profiles, chunk, workers)
        results[scheme] = CdfResult(samples=samples)
    return results
