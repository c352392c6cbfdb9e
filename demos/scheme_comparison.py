#!/usr/bin/env python3
"""Proposed successive-cancelation scheme against the conventional protocol.

The conventional protocol spends K slots per exchange; the proposed one
spends ceil((K-1)/2) + 1 and pays for it with the lower-rate zero-forcing
slots. The printed ratio shows how those two effects net out at each M.
"""

import numpy as np

from mwrelay import SlotIndexer, SystemConfig, estimate_link_se, sum_se

K = 10
TRIALS = 3000
beta = np.ones(K)
idx = SlotIndexer(K)
prelog_ratio = idx.conventional_slots / idx.proposed_slots

print(f"K={K}: {idx.proposed_slots} slots proposed vs {idx.conventional_slots} conventional "
      f"(pre-log ratio {prelog_ratio:.4f})\n")
print("   M     proposed   conventional   ratio")
rows = []
for M in (50, 100, 200, 400):
    config = SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0)
    # One set of channel draws scored under both schemes.
    estimates = estimate_link_se(config, beta, ("proposed", "conventional"), TRIALS, seed=11)
    prop, conv = (sum_se(estimates[scheme], scheme).sum_se for scheme in ("proposed", "conventional"))
    rows.append((M, prop, conv))
    print(f"{M:5d}   {prop:8.3f}   {conv:12.3f}   {prop / conv:.4f}")

print()
print("at these powers the access phase limits every cancelation slot, so the")
print("slot saving is partly offset by the zero-forcing slots, whose rate")
print("saturates in M; the measured ratio therefore sits below the pre-log")
print(f"ratio {prelog_ratio:.3f} and shrinks as M grows.")
