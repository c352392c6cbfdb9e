"""Channel generation: large-scale fading profiles and Rayleigh realizations.

The composite channel is G = H * diag(beta)^(1/2) with H holding i.i.d.
circularly-symmetric unit-variance complex Gaussian entries. Randomness is
counter-based: every trial (and every placement profile) owns a substream
derived from (seed, stream tag, indices), so a realization depends only on
the seed and its index, never on how work is spread over threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidConfigError

__all__ = [
    "SystemConfig",
    "GeometryModel",
    "LargeScaleProfile",
    "ChannelRealization",
    "substream",
    "STREAM_CHANNEL",
    "STREAM_PROFILE",
    "draw_small_scale",
    "compose_channel",
    "draw_large_scale",
    "unit_profile",
    "write_beta_file",
    "read_beta_file",
]

# Substream namespaces. Every channel draw uses (STREAM_CHANNEL, trial), which
# placement sweeps share across profiles; profiles use (STREAM_PROFILE, p).
STREAM_CHANNEL = 0
STREAM_PROFILE = 1

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def substream(seed, *path):
    """Independent generator for the given (seed, path) counter tuple."""
    if seed < 0:
        raise InvalidConfigError("seed must be a nonnegative integer")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


@dataclass(frozen=True)
class SystemConfig:
    """Link-level parameters: antennas, users, and linear-scale powers.

    p_u is the normalized per-user transmit power and p_r the normalized
    relay transmit power; noise is unit-variance under the same
    normalization.
    """

    M: int
    K: int
    p_u: float
    p_r: float

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise InvalidConfigError(f"antenna count must be an integer >= 1, got {self.M!r}")
        if int(self.K) != self.K or self.K < 2:
            raise InvalidConfigError(f"user count must be an integer >= 2, got {self.K!r}")
        if not self.p_u > 0:
            raise InvalidConfigError(f"user power must be positive, got {self.p_u!r}")
        if not self.p_r > 0:
            raise InvalidConfigError(f"relay power must be positive, got {self.p_r!r}")


@dataclass(frozen=True)
class GeometryModel:
    """Annulus cell with distance-power path loss and log-normal shadowing."""

    cell_radius: float = 1000.0
    exclusion_radius: float = 100.0
    path_loss_exponent: float = 3.8
    shadowing_sigma_db: float = 8.0
    reference_distance: float = 100.0

    def __post_init__(self):
        if not 0 < self.exclusion_radius < self.cell_radius:
            raise InvalidConfigError("need 0 < exclusion_radius < cell_radius")
        if not self.path_loss_exponent > 2:
            raise InvalidConfigError("path loss exponent must exceed 2")
        if self.shadowing_sigma_db < 0:
            raise InvalidConfigError("shadowing sigma must be >= 0 dB")
        if not self.reference_distance > 0:
            raise InvalidConfigError("reference distance must be positive")


@dataclass(frozen=True)
class LargeScaleProfile:
    """Per-user large-scale gains (the diagonal of D) plus their provenance."""

    beta: np.ndarray
    provenance: str = "uniform-unit"

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0:
            raise InvalidConfigError("beta must be a nonempty 1-D sequence")
        if not np.all(beta > 0):
            raise InvalidConfigError("all large-scale gains must be positive")
        object.__setattr__(self, "beta", beta)

    @property
    def K(self):
        return self.beta.size


@dataclass(frozen=True)
class ChannelRealization:
    """Composite channel matrix G (M x K) and the profile that scaled it."""

    G: np.ndarray
    beta: np.ndarray
    H: np.ndarray = None


def unit_profile(K):
    """All-ones profile (every user at the reference gain)."""
    return LargeScaleProfile(np.ones(int(K)), provenance="uniform-unit")


def draw_small_scale(M, K, rng):
    """M x K matrix of i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent normals with variance 1/2,
    drawn in a single generator call so the layout is reproducible.
    """
    if M < 1 or K < 1:
        raise InvalidConfigError("matrix dimensions must be >= 1")
    z = rng.standard_normal((2, M, K))
    return (z[0] + 1j * z[1]) * _INV_SQRT2


def compose_channel(H, beta):
    """Scale column k of H by sqrt(beta_k); exact, no sampling."""
    H = np.asarray(H)
    beta = beta.beta if isinstance(beta, LargeScaleProfile) else np.asarray(beta, dtype=float)
    if H.ndim != 2 or H.shape[1] != beta.size:
        raise InvalidConfigError(
            f"shape mismatch: H is {H.shape}, beta has {beta.size} entries"
        )
    return ChannelRealization(G=H * np.sqrt(beta)[None, :], beta=beta, H=H)


def draw_large_scale(geometry, K, rng, seed=None):
    """Draw one placement profile from the geometry model.

    Users fall uniformly in area over the annulus between the exclusion and
    cell radii; the gain is shadow / (d / reference_distance)^nu with
    log-normal shadow of the configured dB spread. Distances are drawn
    first, then shadows, each as one vectorized call.
    """
    if not isinstance(geometry, GeometryModel):
        raise InvalidConfigError("geometry must be a GeometryModel")
    K = int(K)
    r0sq = geometry.exclusion_radius**2
    rsq = geometry.cell_radius**2
    d = np.sqrt(r0sq + rng.uniform(size=K) * (rsq - r0sq))
    shadow_db = rng.standard_normal(K) * geometry.shadowing_sigma_db
    beta = 10.0 ** (shadow_db / 10.0) / (d / geometry.reference_distance) ** geometry.path_loss_exponent
    tag = f"generated({geometry}" + (f", seed={seed})" if seed is not None else ")")
    return LargeScaleProfile(beta, provenance=tag)


def write_beta_file(path, profile):
    """Serialize a profile as one decimal gain per line."""
    beta = profile.beta if isinstance(profile, LargeScaleProfile) else np.asarray(profile, float)
    with open(path, "w") as fh:
        for value in beta:
            fh.write(f"{float(value)!r}\n")


def read_beta_file(path):
    """Load a profile written by write_beta_file (round-trips exactly)."""
    with open(path) as fh:
        values = [float(line) for line in fh if line.strip()]
    return LargeScaleProfile(np.array(values), provenance=f"file:{path}")
