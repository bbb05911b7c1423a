"""Reaction-diffusion growth model: interface profiles and parareal on fields.

Runs the 2-D foam-cell concentration model on the solid strip (coarsened
to one-day macro steps for demo speed), writes the interface profile at
several times, and applies standard parareal to the full field state.
"""

from pathlib import Path

from plaquepar import DAY, FieldState, MicroState, Schedule, SolidGrid, preset
from plaquepar.growth import field_to_csv, interface_mean, interface_to_csv
from plaquepar.parareal import run
from plaquepar.twoscale import advance_two_scale

out = Path("demo_output")
out.mkdir(exist_ok=True)

scn = preset("pde_paper")
gp, mp = scn.growth_params(), scn.micro_params()
grid = SolidGrid(scn.nx, scn.ny)

N_L = 200  # 200 days at 1-day steps (the reference setup uses 0.2 days)
dt = 200 * DAY / N_L

# the serial run, advanced to each output time in turn with the micro
# state carried along, so the profiles are those of one 200-step run
print("serial reaction-diffusion run, 200 days at 1-day macro steps")
state, micro = FieldState.zero(grid), MicroState(0.0)
for t_days, n_steps in ((50, 50), (100, 50), (200, 100)):
    state, micro, _ = advance_two_scale(state, micro, n_steps, dt, gp, mp)
    path = out / f"interface_t{t_days:03d}d.csv"
    interface_to_csv(state, path)
    print(f"  t = {t_days:3d} d: c(0,-1) = {state.functional():.5f}, "
          f"interface mean = {interface_mean(state):.5f}  -> {path}")
field_to_csv(state, out / "field_final.csv")
print(f"  final field -> {out / 'field_final.csv'}")
print()
print("Growth concentrates around the damaged zone |x| < 1 first; the")
print("reaction and diffusion terms then spread it along the interface.")
print()

P = 10
rep = run(Schedule(200 * DAY, N_L, P), gp, mp,
          FieldState.zero(grid), MicroState(0.0), mode="standard",
          stopping="fine", eps_par=scn.eps_par)
print(f"standard parareal on the field state, P = {P}, eps_par = {scn.eps_par:g}:")
for it in rep.per_iteration:
    print(f"  k={it['k']}: midpoint error {it['fine_error']:.3e}")
print(f"  k_par = {rep.k_par}, micro problems = "
      f"{rep.ledger.micro_serial_equivalent} (serial reference: {N_L}), "
      f"speedup {rep.speedup:.2f}")
print(f"  growth-model solves: fine {rep.ledger.rd_fine}, "
      f"coarse {rep.ledger.rd_coarse} (each is one IMEX step)")
