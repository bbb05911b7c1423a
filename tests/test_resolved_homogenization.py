"""The homogenized two-scale ODE run against a resolved run of the same model.

The two-scale method replaces the growth ODE driven by the pulsating flow
at every micro sample with a macro loop on cycle-averaged growth values
(the temporal homogenization of Frei and Richter, Multiscale Model.
Simul. 18, 2020).  The resolved run below integrates the unhomogenized
model directly, with no ``plaquepar`` micro code: the closed-form
periodic orbit q_p of dq/dtau = -lambda_relax (q - V(tau)), q from the
exact relaxation update

    q(tau + dtau) = q_p(tau + dtau) + (q(tau) - q_p(tau)) e^{-lambda_relax dtau}

at every micro sample from q = 0, and forward Euler on
dc/dtau = alpha' / ((1 + c)(1 + (K q / h^2)^2 / sigma0^2)), h = 1 - c,
K = c_geo 2 rho_f nu_f, at every sample.  Over T cycles the growth rate
is alpha' = alpha T_end / T, so T one-second cycles grow as far as
T_end of the macro problem; the scale separation is T_end / T.

Two claims are checked at the default ``c_geo`` and at the calibrated
``c_geo = 58.674785451``:

* the serial two-scale endpoint minus the resolved one is first order
  in the macro step (N_l = 20, 40, 80: about +7.8e-3, +3.7e-3, +1.8e-3
  at the default ``c_geo``);
* the resolved endpoint converges as the scale separation grows: its
  distance to the T = 4000 run shrinks with T (at most 8e-6 at T = 1000),
  far below the macro error, so the homogenization itself adds
  nothing visible.
"""

import math

import numpy as np
import pytest

from _oracles import fitted_order
from plaquepar import twoscale
from plaquepar.scenario import preset

C_GEO = {"default": preset("ode_paper").c_geo, "calibrated": 58.674785451}
CYCLES = (250, 500, 1000, 4000)
N_L = (20, 40, 80)


def resolved_endpoint(cycles, *, T_end, alpha, sigma0, c_geo, rho_f, nu_f, lambda_relax,
                      inflow_amplitude, inflow_offset, delta_tau):
    """c after ``cycles`` resolved cycles from c = 0, q = 0, alpha scaled by T_end / cycles."""
    n_s, lam = round(1.0 / delta_tau), lambda_relax
    tau = 2.0 * math.pi * delta_tau * np.arange(n_s + 1)  # 2 pi tau_m, m = 0..N_s
    orbit = (inflow_amplitude * (inflow_offset + 0.5) - 0.5 * inflow_amplitude * lam * (
        lam * np.cos(tau) + 2.0 * math.pi * np.sin(tau)) / (lam**2 + 4.0 * math.pi**2)).tolist()
    decay, K = math.exp(-lam * delta_tau), c_geo * 2.0 * rho_f * nu_f
    step, inv_sigma0_sq = delta_tau * alpha * T_end / cycles, 1.0 / (sigma0 * sigma0)
    c = q = 0.0
    for _ in range(cycles):
        for m in range(n_s):
            q = orbit[m + 1] + (q - orbit[m]) * decay
            h = 1.0 - c
            wss = K * q / (h * h)
            c += step / ((1.0 + c) * (1.0 + wss * wss * inv_sigma0_sq))
    return c


@pytest.fixture(scope="module", params=list(C_GEO))
def resolved(request):
    """The scenario at one c_geo, and its resolved endpoints over CYCLES."""
    scn = preset("ode_paper", c_geo=C_GEO[request.param])
    params = dict(T_end=scn.schedule().T_end, alpha=scn.alpha, sigma0=scn.sigma0,
                  c_geo=scn.c_geo, rho_f=scn.rho_f, nu_f=scn.nu_f,
                  lambda_relax=scn.lambda_relax, inflow_amplitude=scn.inflow_amplitude,
                  inflow_offset=scn.inflow_offset, delta_tau=scn.delta_tau)
    return scn, {T: resolved_endpoint(T, **params) for T in CYCLES}


def test_two_scale_minus_resolved_is_first_order_in_the_macro_step(resolved):
    scn, ends = resolved
    errors = []
    for N_l in N_L:
        s = preset("ode_paper", c_geo=scn.c_geo, dt_days=scn.T_end_days / N_l)
        rec = twoscale.run_serial(s.schedule(), s.growth_params(), s.micro_params(),
                                  *s.initial_states())
        errors.append(rec.endpoint - ends[CYCLES[-1]])
    assert all(e > 0 for e in errors), errors  # growth slows as c rises: Euler overshoots
    order = fitted_order(1.0 / np.array(N_L), np.array(errors))
    assert abs(order - 1.0) < 0.1, (order, errors)


def test_resolved_run_converges_as_the_scale_separation_grows(resolved):
    _, ends = resolved
    residuals = [abs(ends[T] - ends[CYCLES[-1]]) for T in CYCLES[:-1]]
    assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals
    # the homogenization residual at T = 1000 is far below the N_l = 80 macro error
    assert residuals[-1] < 1e-5, residuals
