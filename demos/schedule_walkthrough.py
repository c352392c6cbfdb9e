#!/usr/bin/env python3
"""Walk through the transmission schedule for a 7-user exchange.

Shows which symbol the relay routes to each user per broadcast slot, how
each user's known set grows under successive cancelation, and how the
leftover symbols line up inside the residual zero-forcing system.
"""

from mwrelay import SlotIndexer

K = 7
idx = SlotIndexer(K)
# order[k-1, d] is the 0-based d-th symbol user k holds (its own, then one per slot).
symbol = idx.order + 1

print(f"{K} users -> {idx.sic_slots} cancelation slots + 1 access slot "
      f"= {idx.proposed_slots} total (conventional needs {idx.conventional_slots})")
print()

print("Routing map j(k, t): symbol delivered to user k in slot t")
header = "user " + " ".join(f"t={t}" for t in range(1, K))
print(header)
for k in range(1, K + 1):
    row = " ".join(f"{symbol[k - 1, t]:3d}" for t in range(1, K))
    print(f"{k:4d} {row}")
print()

print("Known set after each cancelation slot (own symbol + decoded ones):")
for k in range(1, K + 1):
    growth = " -> ".join(
        "{" + ",".join(map(str, sorted(symbol[k - 1, :t + 1]))) + "}"
        for t in range(idx.sic_slots + 1)
    )
    print(f"user {k}: {growth}")
print()

print("Remaining unknowns entering the zero-forcing stage:")
for k in range(1, K + 1):
    print(f"user {k}: {symbol[k - 1, idx.sic_slots + 1:].tolist()}")
print()

print("Residual-system beam offsets (row = slot the equation came from):")
print("entry (m, n) multiplies unknown n by the cross product with beam j(k, offset)")
# User 1 holds symbol d at offset d, so its beam table reads the offsets directly.
for m in range(1, idx.sic_slots + 1):
    offsets = idx.beams[0, m - 1, idx.sic_slots + 1:].tolist()
    print(f"slot {m}: offsets {offsets}")
print()
print(f"Every column collects {idx.sic_slots} consecutive offsets, so the")
print(f"{idx.sic_slots} equations always cover the {idx.n_unknowns} unknowns.")
