"""Reduced model of the ODE parareal runs: the homogenized macro law alone.

On the ODE model the micro flow amplitude q does not depend on the
concentration c, and every micro problem cycles until q sits on its
periodic orbit q_p.  A run's iteration count and its failures then follow
from two scalar growth laws, the homogenized macro problem of Frei and
Richter (Multiscale Model. Simul. 18, 2020):

* the orbit-averaged law of the fine propagator and of the standard and
  re-usage coarse propagator,

      g(c) = mean_m alpha / ((1 + c)(1 + (K q_p(tau_m) / h^2)^2 / sigma0^2)),

  with h = 1 - c, K = c_geo 2 rho_f nu_f and tau_m = m delta_tau,
  m = 1..N_s, where q_p is the periodic orbit of
  dq/dtau = -lambda_relax (q - V(tau)), V = A (offset + sin^2(pi tau));
* the stationary law of the heuristic coarse propagator, the same
  expression at the mean inflow A (offset + 1/2) in place of q_p.

``run`` carries out the parareal iteration on these laws with forward
Euler: the initialization's coarse sweep, the P fine sweeps (side by side
as one array), the standard/heuristic corrector
C(c^{k+1}(T_p)) + F(c^k(T_p)) - C(c^k(T_p)) or the re-usage master's
re-run over the fine grid with the stored growth values, and the stopping
test |s_k - s_{k-1}| <= eps_par on the last fine endpoint ("fine", whose
s_0 is the initialization's coarse endpoint) or on the coarse iterate's
endpoint ("coarse").  Every fine and coarse step first checks closure,
1 - c <= h_min; the master's re-run does not.  numpy only: parameters
come in as plain numbers, and no micro state or warm start is kept.
"""

import math
from typing import NamedTuple

import numpy as np


class Outcome(NamedTuple):
    """How a run ends after k completed iterations.

    result is "converged", "ChannelClosureError" or
    "PararealNonConvergenceError"; margin is the smallest
    |delta_k - eps_par| / eps_par over the iterations (inf before the first).
    """

    result: str
    k: int
    margin: float


class _Closure(Exception):
    pass


def growth_laws(*, alpha, sigma0, c_geo, rho_f, nu_f, lambda_relax, inflow_amplitude,
                inflow_offset, delta_tau):
    """The orbit-averaged and the stationary growth law, each vectorized over c."""
    lam, mean = lambda_relax, inflow_amplitude * (inflow_offset + 0.5)
    tau = 2.0 * math.pi * delta_tau * np.arange(1, round(1.0 / delta_tau) + 1)
    orbit = mean - 0.5 * inflow_amplitude * lam * (
        lam * np.cos(tau) + 2.0 * math.pi * np.sin(tau)) / (lam**2 + 4.0 * math.pi**2)

    def law(q):
        def g(c):
            c = np.asarray(c, dtype=float)[..., None]
            wss = c_geo * 2.0 * rho_f * nu_f * q / (1.0 - c) ** 2
            return np.mean(alpha / ((1.0 + c) * (1.0 + wss**2 / sigma0**2)), axis=-1)
        return g

    return law(orbit), law(np.array([mean]))


def run(*, T_end, N_l, P, mode, stopping, eps_par, max_iters, h_min, **law_params):
    """The outcome of a parareal run of the ODE model from c = 0.

    mode is "standard", "heuristic" or "reusage"; T_end in seconds;
    law_params are the keyword arguments of ``growth_laws``.
    """
    g_fine, g_stat = growth_laws(**law_params)
    g_coarse = g_stat if mode == "heuristic" else g_fine
    dt = T_end / N_l
    q, r = divmod(N_l, P)
    steps = np.array([q + 1] * r + [q] * (P - r))
    bounds = np.concatenate(([0], np.cumsum(steps)))

    def check(c):
        if np.any(1.0 - c <= h_min):
            raise _Closure

    def coarse_sweep(ends=None, previous=None):
        """Values at T_0..T_P, corrected when ends are given, and the coarse values."""
        values, coarse = [0.0], []
        for p in range(P):
            check(values[p])
            c = values[p] + steps[p] * dt * float(g_coarse(values[p]))
            coarse.append(c)
            values.append(c if ends is None else c + ends[p] - previous[p])
        return np.array(values), coarse

    def fine_sweeps(starts):
        """End values of the P intervals, and the growth value of each of the N_l steps."""
        c, stored = starts.copy(), np.empty(N_l)
        for j in range(steps[0]):
            on = steps > j
            check(c[on])
            g = g_fine(c[on])
            stored[bounds[:-1][on] + j] = g
            c[on] = c[on] + dt * g
        return c, stored

    k, margin = 0, math.inf
    try:
        c_bar, coarse = coarse_sweep()
        s = {"fine": [c_bar[-1]], "coarse": [c_bar[-1]]}
        while k < max_iters:
            ends, stored = fine_sweeps(c_bar[:-1])
            if mode == "reusage":
                c_bar = np.concatenate(([0.0], np.cumsum(dt * stored)))[bounds]
            else:
                c_bar, coarse = coarse_sweep(ends, coarse)
            k += 1
            s["fine"].append(ends[-1])
            s["coarse"].append(c_bar[-1])
            delta = float(abs(s[stopping][-1] - s[stopping][-2]))
            margin = min(margin, abs(delta - eps_par) / eps_par)
            if delta <= eps_par:
                return Outcome("converged", k, margin)
    except _Closure:
        return Outcome("ChannelClosureError", k, margin)
    return Outcome("PararealNonConvergenceError", k, margin)
