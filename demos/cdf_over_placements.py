#!/usr/bin/env python3
"""Distribution of the sum spectral efficiency over random user placements.

Users drop uniformly in area over an annulus with log-normal shadowing;
every placement is scored by a seeded Monte Carlo run on shared channel
draws. Reports the 95%-likely rate (5th percentile) per user count.
"""

import numpy as np

from mwrelay import GeometryModel, SystemConfig, cdf_experiment

PROFILES = 300
TRIALS = 300
geometry = GeometryModel()
print(f"{geometry}")
print(f"{PROFILES} placements x {TRIALS} trials each, M=100, proposed scheme\n")

results = {}
for K in (5, 7, 10):
    config = SystemConfig(M=100, K=K, p_u=1.0, p_r=10.0)
    results[K] = cdf_experiment(config, geometry, PROFILES, TRIALS, seed=3)["proposed"]
    samples = results[K].samples
    print(f"K={K:2d}: 95%-likely {results[K].likely_95:6.3f}   "
          f"median {np.median(samples):6.3f}   mean {samples.mean():6.3f} bit/s/Hz")

print()
print("more users mean more summands in the sum SE, so the whole distribution")
print("shifts right as K grows; the far-cell users' tiny gains keep the lower")
print("tail well below the unit-gain operating point.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 4.5))
    for K, result in results.items():
        ordered = result.sorted_samples
        ax.plot(ordered, np.arange(1, ordered.size + 1) / ordered.size, label=f"K={K}")
    ax.set_xlabel("sum spectral efficiency [bit/s/Hz]")
    ax.set_ylabel("cumulative probability")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("cdf_over_placements.png", dpi=120)
    print("wrote cdf_over_placements.png")
except ImportError:
    print("(matplotlib not installed; skipping the plot)")
