"""Serial two-scale simulation of the ODE growth model.

Runs the scalar plaque-growth model over 300 days with one periodic
micro problem per macro step, compares macro step sizes against the pure
heuristic-averaging approach, and writes the fine trajectory to CSV.
"""

from pathlib import Path

from plaquepar import (DAY, MicroState, ScalarState, Schedule, preset,
                       run_serial, trajectory_to_csv)
from plaquepar.twoscale import run_coarse_step

out = Path("demo_output")
out.mkdir(exist_ok=True)

scn = preset("ode_paper")
gp, mp = scn.growth_params(), scn.micro_params()

print("Two-scale serial runs, T_end = 300 days")
print(f"  growth rate alpha = {gp.alpha:g} 1/s, reference WSS sigma0 = {gp.sigma0:g}")
print()

results = {}
for dt_days in (0.3, 7.5, 15.0):
    n_l = int(round(300.0 / dt_days))
    sched = Schedule(300 * DAY, n_l, 1)
    rec = run_serial(sched, gp, mp, ScalarState(0.0), MicroState(0.0))
    results[dt_days] = rec
    print(f"  dt = {dt_days:5.1f} days (N_l = {n_l:4d}):"
          f"  c_s(T) = {rec.endpoint:.6f},  width(T) = {rec.width[-1]:.4f} cm,"
          f"  micro cycles used: first={rec.cycles[1]}, typical={rec.cycles[-1]}")

# heuristic averaging: stationary micro problem at every macro step
macro, micro = ScalarState(0.0), MicroState(0.0)
n_l = 1000
for _ in range(n_l):
    macro, micro, _ = run_coarse_step(macro, micro, 300 * DAY / n_l,
                                      "heuristic", gp, mp)
print(f"  heuristic averaging (stationary micro problem): c_s(T) = {macro.c_s:.6f}")
print()

fine = results[0.3]
print("The coarser macro steps overestimate the concentration (forward")
print("Euler on a rate that decreases with c_s), and the heuristic")
print(f"averaging deviates from the resolved two-scale result by "
      f"{abs(macro.c_s - fine.endpoint):.4f}.")

trajectory_to_csv(fine, out / "two_scale_serial.csv")
print(f"\nfine trajectory written to {out / 'two_scale_serial.csv'}")
