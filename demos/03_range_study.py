#!/usr/bin/env python3
"""How the transmission range drives the tree protocol's behavior.

Sweeps the range from 15 m to 50 m over seeded deployments. Short ranges
barely connect the network and need many relays; long ranges connect
everything through a handful of intermediates but pay the amplifier's
distance-squared tax and die sooner. The sweet spot sits near a quarter
of the field's side length.

A few dozen trials per range keep this demo quick; pass a trial count as
the first argument for tighter statistics.
"""

import sys
from dataclasses import replace

from gathersim import SimConfig, run_grid

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 12
config = SimConfig(trials=trials, master_seed=7)
ranges = [15, 20, 25, 30, 35, 40, 45, 50]

print(f"{trials} trials per range, 100 nodes, 100x100 m field, 1 J per node\n")
header = (f"{'range':>6} {'conn':>6} {'life (rounds)':>14} {'mJ/round':>9} "
          f"{'delay':>6} {'e*d':>7} {'leaf %':>7}")
print(header)
# one grid: every range's trials run together, on the same deployments
for result in run_grid([replace(config, range_m=r) for r in ranges], workers=2):
    agg = result.aggregate
    leaf = "-" if agg.mean_leaf_fraction is None else f"{agg.mean_leaf_fraction:.1%}"
    print(f"{agg.range_m:>6.0f} {agg.connectivity:>6.3f} "
          f"{agg.mean_lifetime:>8.0f} +/- {agg.sd_lifetime:<4.0f}"
          f"{agg.mean_energy_per_round * 1e3:>7.2f} "
          f"{agg.mean_delay_per_round:>6.1f} {agg.mean_energy_delay:>7.3f} {leaf:>7}")

print("\nconnectivity saturates around 25 m while energy, delay and the")
print("energy*delay product keep climbing with range; lifetime peaks where")
print("the network is just reliably connected.")
