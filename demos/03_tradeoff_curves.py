"""
================================================================================
DEMO 3: STORAGE-COMPUTATION-COMMUNICATION TRADEOFF CURVES
================================================================================

For a fixed storage space r, spending more map computation c buys a lower
communication load L, but only up to a saturation budget c*(r); past it the
curve is flat. With 10 nodes and storage 4.5 the curve has corner points at
integer coding parameters g = 1..4, then saturates at c* = 2.9.

The same module also answers: how much computation does the BASELINE need
for the same communication load? Always c = r, far to the right of c*(r).
================================================================================
"""

from fractions import Fraction

from d3c import build_curve, c_star, g_r, lstar_formula, optimal_load_cdc, query_load
from d3c.analytics import curve_rows

K, r = 10, Fraction("4.5")

print("=" * 80)
print(f"STEP 1: THE CURVE FOR K={K}, r={r}")
print("=" * 80)

curve = build_curve(K, r)
print(f"\n  {'g':>8} {'c':>8} {'L':>10}")
for p in curve.points:
    print(f"  {str(p.g):>8} {str(p.c):>8} {str(p.L):>10}   ({float(p.L):.6f})")
print(f"\n  saturation: g_r = {g_r(K, r)}, c* = {c_star(K, r)}, flat to c = r = {r}")

print("\n" + "=" * 80)
print("STEP 2: QUERYING THE ENVELOPE")
print("=" * 80)

for c in (Fraction(1), Fraction("1.8"), Fraction("2.9"), Fraction("3.5")):
    print(f"  L at computation budget {str(c):>4}: {query_load(curve, c)}")

print("\n" + "=" * 80)
print("STEP 3: THE FLAT VALUE AT FRACTIONAL STORAGE, AND A BOUND NO PLAN REACHES")
print("=" * 80)

print(f"""
  integer-point chord:           {optimal_load_cdc(K, r)}   = {float(optimal_load_cdc(K, r)):.6f}
  direct formula (1/r)(1 - r/K): {lstar_formula(K, r)}  = {float(lstar_formula(K, r)):.6f}

  The curve's flat region is the chord. Mixing the (4,4) and (5,5)
  full-coding schemes half-and-half lands exactly on 1/8, and by the
  converse of Li, Maddah-Ali, Yu and Avestimehr (arXiv:1604.07086) no
  scheme does better: the optimum at fractional storage is the lower convex
  envelope of the integer points, and computing fewer intermediate values
  cannot lower it. The direct formula sits below the chord, so it is only a
  lower bound that no plan reaches. The two coincide whenever r is an
  integer.
""")

print("=" * 80)
print("STEP 4: EMISSION ROWS (what the CLI writes as CSV)")
print("=" * 80)
print(f"\n  {'c':>12} {'L':>14}  kind")
for c, L, kind in curve_rows(build_curve(K, r), 1):
    print(f"  {float(c):>12.6f} {float(L):>14.9f}  {kind}")
