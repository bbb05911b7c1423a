"""Closed-form reproduction of the cost tables.

The micro-problem counts, speedups and efficiencies of the reference
tables follow exactly from the counting formulas once the iteration
counts are known; this script rebuilds every footer.
"""

from plaquepar.costs import (count_heuristic, count_reusage, count_standard,
                             format_sweep_table, optimal_processes,
                             ratio_bound, speedup_efficiency)

N_L = 1000


def footer(count_fn, ks):
    cols = []
    for P, k in ks.items():
        mp = count_fn(k, P, N_L)
        s, e = speedup_efficiency(mp, N_L, P)
        cols.append({"P": P, "errors": [], "mp": mp, "speedup": round(s, 2),
                     "efficiency": e})
    return format_sweep_table(cols, N_L)


print("standard parareal, fine-endpoint stopping (k_par = 4,3,3,3,3):")
print(footer(count_standard, {10: 4, 20: 3, 30: 3, 40: 3, 50: 3}))

print("standard parareal, coarse-endpoint stopping (k_par = 4,2,2,2,2):")
print(footer(count_standard, {10: 4, 20: 2, 30: 2, 40: 2, 50: 2}))

print("re-usage of growth values (k_par = 5,5,5,4,4,4,4):")
print(footer(count_reusage, {10: 5, 20: 5, 30: 5, 40: 4, 50: 4, 60: 4, 70: 4}))

print("heuristic (stationary) coarse propagator (k_par = 8):")
print(footer(count_heuristic, {30: 8, 50: 8}))

print("optimal process counts:")
print(f"  standard:  P ~ sqrt(N_l)        = {optimal_processes(N_L, 'standard')}")
print(f"  re-usage:  P ~ sqrt(4 N_l)      = {optimal_processes(N_L, 'reusage', k=4)}")
print()
print("re-usage growth-model solves stay within a factor "
      f"sqrt(N_l)/2 + 1 = {ratio_bound(N_L):.1f} of the micro-problem count.")
