#!/usr/bin/env python3
"""Per-slot ergodic rates against their closed forms at K=10, M=100.

The uplink and cancelation-slot Jensen bounds hug the simulation from
below. The zero-forcing slots behave differently: their mean-Gram
asymptote replaces a heavy-tailed random Gram by its average, which is
optimistic at this user count — the printed gap is real, not noise.
"""

import numpy as np

from mwrelay import (
    SystemConfig,
    bound_report,
    estimate_link_se,
    sum_se,
    zf_asymptotic_rate,
)

config = SystemConfig(M=100, K=10, p_u=1.0, p_r=10.0)
beta = np.ones(10)
trials = 4000
print(f"M={config.M}, K={config.K}, unit gains, {trials} trials\n")

estimate = estimate_link_se(config, beta, ("proposed",), trials, seed=42)["proposed"]
bounds = bound_report(config, beta)
idx_sic = bounds.dl_proposed.shape[1]

print("uplink (access phase):")
print(f"  simulated {estimate.uplink[0]:.4f} +- {estimate.uplink_stderr[0]:.4f}")
print(f"  Jensen    {bounds.uplink[0]:.4f}  (gap {estimate.uplink[0] - bounds.uplink[0]:+.4f})")
print()

print("broadcast slots of user 1 (cancelation phase then zero-forcing):")
print("slot   simulated    closed form   kind")
for t in range(1, config.K):
    if t <= idx_sic:
        closed, kind = bounds.dl_proposed[0, t - 1], "Jensen lower bound"
    else:
        closed, kind = bounds.zf_asymptotic[0, t - 1 - idx_sic], "mean-Gram asymptote"
    print(f"{t:4d}   {estimate.downlink[0, t - 1]:.4f}       {closed:.4f}        {kind}")
print()

zf_mc = estimate.downlink[:, idx_sic].mean()
zf_asym = zf_asymptotic_rate(beta, config.p_r, config.K, 1, 1)
print(f"zero-forcing slot, user average: simulated {zf_mc:.3f} vs asymptote {zf_asym:.3f}")
print("the asymptote assumes the residual Gram hardens at its mean; at K=10 the")
print("Gram keeps order-one relative spread for any M, hence the persistent gap.")
print()

composed = sum_se(estimate, "proposed")
print(f"sum SE (proposed): {composed.sum_se:.3f} bit/s/Hz "
      f"(pre-log {composed.pre_log:.4f}, conservative stderr {composed.stderr:.3f})")
