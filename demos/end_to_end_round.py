#!/usr/bin/env python3
"""One full exchange round at symbol level, then error rates under noise.

The noiseless round demonstrates the structural claim behind the protocol:
after the cancelation slots every user can zero-force the remaining
symbols exactly from its residual equations. The noisy sweep shows the
per-slot QPSK symbol error rate falling with relay power.
"""

import dataclasses

import numpy as np

from mwrelay import SlotIndexer, SystemConfig, run_round_noiseless, run_round_noisy

config = SystemConfig(M=32, K=7, p_u=1.0, p_r=10.0)
beta = np.ones(7)

outcome = run_round_noiseless(config, beta, seed=5)
print(f"noiseless round, K={config.K}, M={config.M}:")
print(f"  slots used          {outcome.slots_used} (1 access + "
      f"{outcome.slots_used - 1} broadcast)")
print(f"  max recovery error  {outcome.max_deviation:.2e}")
print()

print("knowledge growth (user 1):")
for t, snapshot in enumerate(outcome.knowledge_history):
    stage = "start" if t == 0 else (f"slot {t}" if t < len(outcome.knowledge_history) - 1
                                    else "zero-forcing")
    print(f"  {stage:12s} {sorted(snapshot[0])}")
print()

idx = SlotIndexer(config.K)
# Column t of order holds the 0-based symbol each user targets in slot t.
targets = outcome.true_symbols[idx.order[:, 1:idx.sic_slots + 1]]
offset = np.max(np.abs(outcome.slot_estimates - targets))
print("pre-decision cancelation-slot estimates still carry interference")
print(f"(worst offset {offset:.2f} from the target symbol), which is why the rate analysis")
print("charges those slots an interference term; the zero-forcing stage is exact.")
print()

print("noisy rounds, QPSK, genie-aided cancelation (200 trials per point):")
print("relay power   mean SER   worst-slot SER")
for p_r in (0.5, 2.0, 8.0, 32.0, 128.0):
    ser = run_round_noisy(dataclasses.replace(config, p_r=p_r), beta, trials=200, seed=8)
    print(f"{p_r:11.1f}   {ser.mean():8.4f}   {ser.max():13.4f}")
