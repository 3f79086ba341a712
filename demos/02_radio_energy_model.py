#!/usr/bin/env python3
"""Explore the first-order radio model that prices every transmission.

Electronics cost 50 nJ/bit on both ends; the transmit amplifier adds
100 pJ/bit/m^2, so the distance term overtakes the electronics beyond
sqrt(e_elec / eps_amp) ~ 22 m. ``tx_cost`` is the one transmit-cost
formula; a reception costs what a transmission over 0 m does. Aggregation
costs 5 nJ/bit per fused signal and keeps the packet size constant.
"""

import numpy as np

from gathersim import RadioParams, tx_cost

params = RadioParams()
k = params.packet_bits
rx = tx_cost(params, k, 0.0)
print(f"packet size: {k} bits")
print(f"receive cost: {rx * 1e6:.1f} uJ per packet\n")

print("transmit cost vs distance:")
print(f"{'distance (m)':>14} {'energy (uJ)':>12} {'amplifier share':>16}")
for d in (0, 10, 25, 50, 100, 250):
    e = tx_cost(params, k, d)
    amp = params.eps_amp * k * d * d
    print(f"{d:>14} {e * 1e6:>12.1f} {amp / e:>15.0%}")

crossover = np.sqrt(params.e_elec / params.eps_amp)
print(f"\namplifier = electronics at d = {crossover:.1f} m")

print("\nfusion cost vs signals aggregated:")
for signals in (1, 2, 5, 10, 20):
    print(f"{signals:>3} signals -> {params.e_fuse * k * signals * 1e6:.0f} uJ")

print("\nwhy relaying wins: one 250 m transmission costs "
      f"{tx_cost(params, k, 250) * 1e3:.2f} mJ, while ten 25 m hops plus "
      "receptions and fusion cost "
      f"{10 * (tx_cost(params, k, 25) + rx + params.e_fuse * k) * 1e3:.2f} mJ "
      "spread over ten nodes.")
