#!/usr/bin/env python3
"""Check the channel generator's statistics against their nominal values.

Unit-variance Rayleigh entries, column energies M * beta, and the spread of
large-scale gains produced by the annulus placement model.
"""

import numpy as np

from mwrelay import GeometryModel, draw_large_scale, draw_small_scale
from mwrelay.channel import STREAM_CHANNEL, STREAM_PROFILE, substream

rng = substream(2024, STREAM_CHANNEL, 0)

M, cols = 64, 50_000
H = draw_small_scale(M, cols, rng)
print(f"small-scale entries ({M} x {cols}):")
print(f"  mean          {H.mean():+.5f} (target 0)")
print(f"  E|h|^2        {np.mean(np.abs(H) ** 2):.5f} (target 1)")
print(f"  var Re / Im   {H.real.var():.5f} / {H.imag.var():.5f} (target 0.5 each)")
print(f"  E||column||^2 {np.mean(np.sum(np.abs(H) ** 2, axis=0)):.3f} (target {M})")
print()

beta = np.array([0.25, 1.0, 4.0])
G = H[:, :3] * np.sqrt(beta)
print("composition scales columns by sqrt(beta):")
print(f"  beta = {beta}")
print(f"  column energy ratio G/H = {np.sum(np.abs(G)**2, 0) / np.sum(np.abs(H[:, :3])**2, 0)}")
print()

geometry = GeometryModel()
print(f"placement model: {geometry}")
gains = draw_large_scale(geometry, 100_000, substream(2024, STREAM_PROFILE, 0))
decades = np.log10(gains)
print(f"  gains span {gains.min():.2e} .. {gains.max():.2e}")
print(f"  median {np.median(gains):.3e}")
d_med = np.sqrt((geometry.exclusion_radius**2 + geometry.cell_radius**2) / 2)
print(f"  closed-form median (no shadowing would give "
      f"{(d_med / geometry.reference_distance) ** -geometry.path_loss_exponent:.3e})")
print(f"  log10-gain spread: {decades.std():.2f} decades")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.hist(10 * decades, bins=80, color="steelblue")
    ax.set_xlabel("large-scale gain [dB]")
    ax.set_ylabel("users")
    ax.set_title("Annulus placement with log-normal shadowing")
    fig.tight_layout()
    fig.savefig("channel_statistics.png", dpi=120)
    print("wrote channel_statistics.png")
except ImportError:
    print("(matplotlib not installed; skipping the histogram)")
