"""Textbook parareal, written out from the equations, to check the engine against.

Lions, Maday and Turinici, C. R. Acad. Sci. Paris 332 (2001); Gander and
Vandewalle, SIAM J. Sci. Comput. 29 (2007).  With F the fine and G the
coarse propagator over one interval:

    U_0^k = u_0,    U_{p+1}^0 = G(U_p^0),
    U_{p+1}^{k+1} = G(U_p^{k+1}) + F(U_p^k) - G(U_p^k)

for the standard and heuristic variants (the heuristic G averages the
flow stationarily).  The re-usage variant has no corrector: the master
re-runs the growth model over all N_l fine steps with the growth values
that the fine sweeps of iteration k stored, and reads U^{k+1} at the
interval boundaries.

Plain loops over k and p.  F is ``advance_two_scale`` and G is
``run_coarse_step``; nothing else of the engine is used.  The interval
split, the warm-start chains, the corrector arithmetic, the re-usage
master and the cost tally are all kept here:

* the master's micro chain starts at u_0's micro state in every coarse
  sweep and follows G;
* the standard and heuristic fine sweeps of interval p start each
  iteration from the micro state the initialization's chain reached at
  T_p; re-usage ones do so in iteration 1 and afterwards from the micro
  state the fine sweep of interval p - 1 ended with (interval 0 from u_0's);
* G(U_p^k) is the value the previous coarse sweep computed, as the
  coarse propagator depends on its micro warm start.
"""

import copy
import dataclasses
from typing import NamedTuple

from plaquepar.growth import FieldState, ScalarState
from plaquepar.twoscale import advance_two_scale, run_coarse_step


@dataclasses.dataclass
class Tally:
    """The oracle's own count of work and messages, per fine process and on the master."""

    per_process_micro: list
    per_process_fsi_steps: list
    per_process_rd: list
    micro_coarse: int = 0
    rd_coarse: int = 0
    messages: int = 0


class Iterate(NamedTuple):
    """The iterate U^k at T_0..T_P (concentrations), the endpoint lists as
    the engine keeps them, and the tally after iteration k."""

    values: list
    fine_endpoints: list
    coarse_endpoints: list
    tally: Tally


def concentration(state):
    """What the corrector acts on: c_s (ODE model) or the field c (PDE model)."""
    return state.c_s if isinstance(state, ScalarState) else state.c


def _corrected(g_new, f_old, g_old):
    """G(U_p^{k+1}) + F(U_p^k) - G(U_p^k), in G(U_p^{k+1})'s model."""
    if isinstance(g_new, ScalarState):
        return ScalarState(g_new.c_s + f_old.c_s - g_old.c_s, g_new.t)
    return FieldState(g_new.grid, g_new.c + f_old.c - g_old.c, g_new.t)


def textbook_parareal(schedule, growth_params, micro_params, u0, w0, mode, iterations):
    """Yield the ``Iterate`` after the initialization and after each of ``iterations``
    iterations of ``mode`` ("standard", "heuristic" or "reusage")."""
    P, N_l, dt = schedule.P, schedule.N_l, schedule.dt
    q, r = divmod(N_l, P)
    n = [q + 1 if p < r else q for p in range(P)]  # the first N_l mod P get one more
    first = [sum(n[:p]) for p in range(P + 1)]      # fine-step index of T_p
    kind = "heuristic" if mode == "heuristic" else "two_scale"
    tally = Tally([0] * P, [0] * P, [0] * P)

    def G(u, w, p):
        u_next, w_next, _ = run_coarse_step(u, w, n[p] * dt, kind, growth_params,
                                            micro_params)
        tally.rd_coarse += 1
        if kind == "two_scale":
            tally.micro_coarse += 1
        return u_next, w_next

    def F(u, w, p):
        start = dataclasses.replace(u, t=first[p] * dt)
        u_end, w_end, rows = advance_two_scale(start, w, n[p], dt, growth_params,
                                               micro_params)
        tally.per_process_micro[p] += len(rows)
        tally.per_process_rd[p] += len(rows)
        tally.per_process_fsi_steps[p] += sum(row.cycles for row in rows) * micro_params.n_steps
        return u_end, w_end, [row.gamma_bar for row in rows]

    def snapshot(U, fine, coarse):
        return Iterate([concentration(u) for u in U], list(fine), list(coarse),
                       copy.deepcopy(tally))

    # (I) U_{p+1}^0 = G(U_p^0) along the master's micro chain
    U, chain, G_old = [u0], [w0], []
    for p in range(P):
        u, w = G(U[p], chain[p], p)
        U.append(u)
        chain.append(w)
        G_old.append(u)
    w_init = chain
    fine = [U[P].functional()]
    coarse = [U[P].functional()]
    yield snapshot(U, fine, coarse)

    neighbour_w = None  # re-usage: micro state each fine sweep ended with
    for k in range(1, iterations + 1):
        F_end, F_w, stored = [], [], []
        for p in range(P):
            if mode == "reusage" and k > 1:
                warm = w0 if p == 0 else neighbour_w[p - 1]
            else:
                warm = w_init[p]
            u_end, w_end, gammas = F(U[p], warm, p)
            F_end.append(u_end)
            F_w.append(w_end)
            stored += gammas

        if mode == "reusage":
            neighbour_w = F_w
            U_new, c = [u0], u0
            for j in range(N_l):
                c = c.step(stored[j], dt, growth_params)
                tally.rd_coarse += 1
                if j + 1 in first:
                    U_new.append(c)
            for p in range(P):  # growth values and micro state out, start value back
                tally.messages += 3
        else:
            U_new, chain, G_new = [u0], [w0], []
            for p in range(P):
                g, w = G(U_new[p], chain[p], p)
                U_new.append(_corrected(g, F_end[p], G_old[p]))
                chain.append(w)
                G_new.append(g)
            G_old = G_new
            for p in range(P):  # fine end value out, start value back
                tally.messages += 2
        U = U_new
        fine.append(F_end[-1].functional())
        coarse.append(U[P].functional())
        yield snapshot(U, fine, coarse)
