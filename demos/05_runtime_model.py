"""Estimated parallel runtimes: synthetic cost model and measured values.

The estimated parallel runtime is the serial (master/coarse) time plus
the maximum time over the fine processes.  Fed with the published
measured master/slave times it reproduces the published totals; fed with
a live ledger it prices micro time steps at one unit each and
growth-model solves at T_RD = 0.01 units (``plaquepar.costs``).
"""

from plaquepar import (DAY, MicroState, ScalarState, Schedule,
                       estimate_parallel_runtime, preset)
from plaquepar.parareal import run

print("recombining measured master/slave seconds (standard parareal):")
measured = {10: (1096, 10251), 20: (2691, 6968), 30: (3943, 4749),
            40: (4273, 2641), 50: (5361, 2130), 60: (6197, 1796)}
for P, (master, slave) in measured.items():
    est = estimate_parallel_runtime(coarse_seconds=master, fine_max_seconds=slave)
    print(f"  P={P:2d}: master {master:>5d} s + max slave {slave:>5d} s "
          f"= {est:7.0f} s")
best = min(measured, key=lambda P: sum(measured[P]))
print(f"  best: P={best} with {sum(measured[best])} s "
      f"(speedup {26840 / sum(measured[best]):.1f} vs 26840 s serial)\n")

print("recombining measured values (re-usage variant):")
measured_r = {10: (658, 17075), 20: (930, 8755), 30: (1171, 5934),
              40: (1448, 4454), 50: (1722, 3555), 60: (1933, 2992)}
for P, (master, slave) in measured_r.items():
    est = estimate_parallel_runtime(coarse_seconds=master, fine_max_seconds=slave)
    print(f"  P={P:2d}: {est:7.0f} s")
print()

scn = preset("ode_paper")
gp, mp = scn.growth_params(), scn.micro_params()
print("synthetic model on a live run (one unit per micro time step, "
      "t_rd = 0.01):")
for mode in ("standard", "reusage"):
    rep = run(Schedule(30 * DAY, 100, 10), gp, mp,
              ScalarState(0.0), MicroState(0.0), mode=mode, eps_par=1e-3)
    led = rep.ledger
    print(f"  {mode:8s}: coarse {led.synthetic_time_coarse():8.1f} + "
          f"slowest process {led.synthetic_time_fine_max():7.1f} = "
          f"{rep.estimated_runtime:8.1f} units (k_par={rep.k_par})")
print()
print("The growth-model solves contribute almost nothing; the coarse-level")
print("micro problems are what the cheaper coarse propagators remove.")
