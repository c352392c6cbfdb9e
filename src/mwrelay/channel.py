"""Channel generation: large-scale gains and Rayleigh realizations.

Gains are plain float64 arrays, one per user, that pass ``checked_gains``.
The composite channel is the M x K array G = H * diag(beta)^(1/2) with H
holding i.i.d. circularly-symmetric unit-variance complex Gaussian entries.
Randomness is counter-based: every unit of work owns a substream derived
from (seed, stream tag, index), so a realization depends only on the seed
and its index, never on how work is spread over threads.
Both simulators need only the Gram H^H H, and both draw it in blocks
through ``draw_gram_block``: the Monte Carlo path per (STREAM_GRAM,
block), the symbol rounds per (STREAM_ROUND, block). It samples the Gram
through its Bartlett factor (``draw_gram_factor``) without drawing H.
``draw_small_scale`` draws H itself; no shipped path calls it, it is the
oracle of both (the dense reference chains of the tests draw through it).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError

__all__ = [
    "SystemConfig",
    "GeometryModel",
    "checked_gains",
    "substream",
    "STREAM_CHANNEL",
    "STREAM_PROFILE",
    "STREAM_GRAM",
    "STREAM_ROUND",
    "draw_small_scale",
    "draw_gram_factor",
    "draw_gram_block",
    "draw_large_scale",
    "write_beta_file",
    "read_beta_file",
]

# Substream namespaces. Direct channel draws (the oracles) use
# (STREAM_CHANNEL, trial), placement profiles (STREAM_PROFILE, p), Monte Carlo
# Gram blocks, which placement sweeps share across profiles, (STREAM_GRAM,
# block), and blocks of symbol rounds (STREAM_ROUND, block).
STREAM_CHANNEL = 0
STREAM_PROFILE = 1
STREAM_GRAM = 2
STREAM_ROUND = 3

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def substream(seed, *path):
    """Independent generator for the given (seed, path) counter tuple; the seed is an integer."""
    if not _is_count(seed, 0):
        raise InvalidConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


@dataclass(frozen=True)
class SystemConfig:
    """Link-level parameters: antennas, users, and linear-scale powers.

    p_u is the normalized per-user transmit power and p_r the normalized
    relay transmit power; noise is unit-variance under the same
    normalization. Integral float counts are kept as ints.
    """

    M: int
    K: int
    p_u: float
    p_r: float

    def __post_init__(self):
        for name, value in vars(self).items():
            checked_positive(value, name)
        object.__setattr__(self, "M", _checked_integral(self.M, 1, "antenna count"))
        object.__setattr__(self, "K", checked_user_count(self.K))


@dataclass(frozen=True)
class GeometryModel:
    """Annulus cell with distance-power path loss and log-normal shadowing of spread >= 0 dB."""

    cell_radius: float = 1000.0
    exclusion_radius: float = 100.0
    path_loss_exponent: float = 3.8
    shadowing_sigma_db: float = 8.0
    reference_distance: float = 100.0

    def __post_init__(self):
        for name, value in vars(self).items():
            checked_positive(value, name, zero=name == "shadowing_sigma_db")
        if not self.exclusion_radius < self.cell_radius:
            raise InvalidConfigError("need 0 < exclusion_radius < cell_radius")
        if not self.path_loss_exponent > 2:
            raise InvalidConfigError("path loss exponent must exceed 2")


def checked_gains(beta, K=None):
    """Large-scale gains (the diagonal of D) as a float64 1-D array.

    Raises InvalidConfigError unless they are a nonempty 1-D sequence of
    positive, finite values and, when K is given, K of them.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise InvalidConfigError("beta must be a nonempty 1-D sequence")
    if not np.all((beta > 0) & np.isfinite(beta)):
        raise InvalidConfigError("all large-scale gains must be positive and finite")
    if K is not None and beta.size != K:
        raise InvalidConfigError(f"beta has {beta.size} gains, expected K={K}")
    return beta


def checked_positive(value, name, zero=False):
    """``value`` if a finite real number above 0, or at it with ``zero``; bools are not numbers.

    Else InvalidConfigError: "``name`` must be a real number" or "... positive and finite".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a real number, got {value!r}")
    if not (0 <= value if zero else 0 < value) or not value < math.inf:
        sign = "nonnegative" if zero else "positive"
        raise InvalidConfigError(f"{name} must be {sign} and finite, got {value!r}")
    return value


def _is_count(count, least=1):
    """Whether ``count`` is an integer >= ``least``; bools and integral floats are not."""
    return not isinstance(count, bool) and isinstance(count, numbers.Integral) and count >= least


def checked_count(count, name):
    """``count`` as an int; raises ValueError unless it is an integer >= 1, bools excluded."""
    if not _is_count(count):
        raise ValueError(f"{name} must be >= 1 and an integer, got {count!r}")
    return int(count)


def _checked_integral(value, least, noun):
    """``value`` as an int; InvalidConfigError naming ``noun`` unless a finite integer >= ``least``.

    Bools are excluded and integral floats pass, so no count truncates into another.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            least <= value < math.inf and int(value) == value):
        raise InvalidConfigError(f"{noun} must be an integer >= {least}, got {value!r}")
    return int(value)


def checked_user_count(K):
    """User count ``K`` of an exchange as an int: ``_checked_integral`` with at least 2 users."""
    return _checked_integral(K, 2, "user count")


def draw_small_scale(M, K, rng):
    """M x K matrix of i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent normals with variance 1/2,
    drawn in a single generator call so the layout is reproducible: the
    first M x K fill the real parts, the rest the imaginary parts. M and K
    are integers >= 1 (bools and floats raise InvalidConfigError).
    """
    if not (_is_count(M) and _is_count(K)):
        raise InvalidConfigError(f"matrix dimensions must be integers >= 1, got {(M, K)!r}")
    z = rng.standard_normal((2, M, K))
    H = np.empty((M, K), dtype=complex)
    H.real = z[0]
    H.imag = z[1]
    H *= _INV_SQRT2
    return H


def draw_gram_factor(M, K, rng, n):
    """n Bartlett factors R, (n, min(M, K), K), of the Gram H^H H of an M x K draw.

    R is upper trapezoidal with R^H R distributed as H^H H ~ CW_K(M, I): the
    diagonal is real and positive with |R_ii|^2 ~ Gamma(M - i + 1, 1) for
    i = 1..min(M, K), and every entry above it is i.i.d. CN(0, 1) (Goodman
    1963; Tulino & Verdu 2004). That is the R of a QR factorization H = QR;
    when M < K the last K - M columns are Q^H times independent CN(0, I_M)
    columns. The diagonal is drawn first, one generator call per row into
    one (min(M, K), n) array, then the entries above it in one call, scaled
    in place, so the layout is reproducible. Cost is O(n K^2), whatever M.
    M, K and n are integers >= 1 (bools and floats raise InvalidConfigError).
    """
    if not (_is_count(M) and _is_count(K) and _is_count(n)):
        raise InvalidConfigError(
            f"factor dimensions and count must be integers >= 1, got {(M, K, n)!r}")
    rows = min(M, K)
    R = np.zeros((n, rows, K), dtype=complex)
    # One scalar-shape call per row: each array-shape gamma call leaves one
    # more tuple on the interpreter's free list, so memory would grow with
    # the call count.
    diagonal = np.empty((rows, n))
    for i, row in enumerate(diagonal):
        rng.standard_gamma(M - i, out=row)
    # R_ii sits at i * (K + 1) of a factor's flattened entries.
    R.reshape(n, rows * K)[:, ::K + 1] = np.sqrt(diagonal, out=diagonal).T
    i, j = _upper(rows, 1, K)
    z = rng.standard_normal((2, n, i.size))
    z *= _INV_SQRT2
    R.real[:, i, j] = z[0]
    R.imag[:, i, j] = z[1]
    return R


_upper = functools.cache(np.triu_indices)  # (i, j) above the diagonal, once per factor shape


def draw_gram_block(M, K, seed, stream, block, n):
    """The n Grams H^H H of one block, (n, K, K), and the generator they were drawn from.

    The block's Bartlett factors are the first draw from the (seed, stream,
    block) substream, and the returned generator continues from there, so a
    caller can draw more of the block's randomness from it. A block is drawn
    whole and then sliced: unit i of block b depends only on (seed, stream,
    M, K, n, b, i), never on how many units a caller keeps.
    """
    rng = substream(seed, stream, block)
    R = draw_gram_factor(M, K, rng, n)
    return R.conj().transpose(0, 2, 1) @ R, rng


def draw_large_scale(geometry, K, rng):
    """Draw one placement profile from the geometry model: K checked gains.

    Users fall uniformly in area over the annulus between the exclusion and
    cell radii; the gain is shadow / (d / reference_distance)^nu with
    log-normal shadow of the configured dB spread. Distances are drawn
    first, then shadows, each as one vectorized call.
    """
    if not isinstance(geometry, GeometryModel):
        raise InvalidConfigError("geometry must be a GeometryModel")
    K = _checked_integral(K, 0, "user count")
    r0sq = geometry.exclusion_radius**2
    rsq = geometry.cell_radius**2
    d = np.sqrt(r0sq + rng.uniform(size=K) * (rsq - r0sq))
    shadow_db = rng.standard_normal(K) * geometry.shadowing_sigma_db
    beta = 10.0 ** (shadow_db / 10.0) / (d / geometry.reference_distance) ** geometry.path_loss_exponent
    return checked_gains(beta)


def write_beta_file(path, beta):
    """Serialize gains as one decimal per line; they pass ``checked_gains`` first."""
    beta = checked_gains(beta)
    with open(path, "w") as fh:
        for value in beta:
            fh.write(f"{float(value)!r}\n")


def read_beta_file(path):
    """Checked gains written by write_beta_file (round-trips exactly)."""
    with open(path) as fh:
        values = [float(line) for line in fh if line.strip()]
    return checked_gains(values)
