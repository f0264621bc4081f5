"""Map which measurement strategy is optimal across the prior simplex.

Priors are parameterized as (p0, p1, p2) = (p + delta, p - delta, 1 - 2p)
with p in [1/3, 1/2] and 0 <= delta <= 3p - 1.  The sign of the boundary
determinant det M = (p0 - p2)(p1 - p2)(p0 p1 + 3 p2) - 3 p2^4 decides the
winner: positive means the biased two-outcome projective measurement,
negative means the full three-outcome POVM.

Run:  python3 demos/strategy_region.py
"""

import numpy as np

from trinedisc import (
    BREAKDOWN_P,
    boundary_determinant,
    critical_delta,
    optimal_measurement,
    priors_from_p_delta,
)

ROWS, COLS = 24, 60

print("Strategy region over (p, delta)")
print("  '#' three-outcome POVM optimal, '.' two-outcome projective optimal")
print()

# delta increases upward, p rightward
grid = []
p_axis = np.linspace(1 / 3, 0.5, COLS)
for r in range(ROWS):
    frac = 1.0 - r / (ROWS - 1)
    line = []
    for p in p_axis:
        dmax = 3 * p - 1
        delta = frac * dmax
        det = boundary_determinant(priors_from_p_delta(float(p), float(delta)))
        line.append("#" if det < 0 else ".")
    grid.append("".join(line))

for r, line in enumerate(grid):
    marker = "delta=3p-1 ->" if r == 0 else ("delta=0     ->" if r == ROWS - 1 else " " * 14)
    print(f"{marker} {line}")
print(f"{'':14} p=1/3{'':>{COLS - 10}}p=1/2")
print()

print(f"At delta = 0 the three-outcome strategy survives up to p = {BREAKDOWN_P:.9f}")
print("  (= 4/(9+sqrt(3)); beyond it the third outcome's weight would go negative)")
print()

print("Critical delta separating the regions at fixed p:")
for p in (0.375, 0.40, 0.42, 0.45, 0.48):
    dc = critical_delta(p)
    print(f"  p = {p:.3f}: delta_c = {dc:.9f}  (admissible delta up to {3 * p - 1:.3f})")
print()

print("Spot checks (the dispatcher re-verifies optimality on every call):")
for p, delta in ((1 / 3, 0.0), (0.36, 0.05), (0.42, 0.10), (0.42, 0.255)):
    res = optimal_measurement(priors_from_p_delta(p, delta))
    print(
        f"  p={p:.4f} delta={delta:.3f}: {res.strategy:>13}  "
        f"P_correct = {res.p_correct:.9f}  helstrom_ok = {res.helstrom.passes}"
    )
