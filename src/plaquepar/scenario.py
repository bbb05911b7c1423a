"""Scenario configuration: JSON round-trip, validation and paper presets.

A scenario is a flat record of everything one run needs.  Times are
given in days in the configuration (1 day = 86 400 s) and converted to
seconds internally.  The defaults of ``Scenario`` and of the parameter
types it builds are the paper's ODE example (scalar growth model, 300
days at 0.3-day steps), so the preset "ode_paper" is empty; "pde_paper"
(reaction-diffusion model, 200 days at 0.2-day steps) lists only its
departures from them.
"""

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import growth, microflow, parareal
from .errors import ConfigError, check_choice, check_integer, check_number, is_finite, shown
from .parareal import ENGINE_MODE, STOPPING, check_run_settings
from .twoscale import DAY, Schedule

__all__ = ["Scenario", "parse_scenario", "preset", "PRESETS", "MODES", "STOPPING"]

MODES = tuple(ENGINE_MODE)


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration; see the README for the field glossary."""

    model: str = "ode"
    # schedule (days/seconds)
    T_end_days: float = 300.0
    dt_days: float = 0.3
    P: int = 10
    delta_tau: float = microflow.MicroParams.delta_tau
    eps_p: float = microflow.MicroParams.eps_p
    eps_par: float = parareal.DEFAULT_EPS_PAR
    max_iters: int = parareal.DEFAULT_MAX_ITERS
    max_cycles: int = microflow.MicroParams.max_cycles
    # growth model
    alpha: float = growth.GrowthParams.alpha
    sigma0: float = growth.GrowthParams.sigma0
    D_s: float = growth.GrowthParams.D_s
    R_s: float = growth.GrowthParams.R_s
    theta: float = growth.GrowthParams.theta
    reaction_sign: int = growth.GrowthParams.reaction_sign
    # micro model
    rho_f: float = microflow.MicroParams.rho_f
    nu_f: float = microflow.MicroParams.nu_f
    rho_s: float = 1.0  # retained for fidelity; unused by the surrogate
    lambda_relax: float = microflow.MicroParams.lambda_relax
    c_geo: float = microflow.MicroParams.c_geo
    inflow_amplitude: float = microflow.MicroParams.inflow_amplitude
    inflow_offset: float = microflow.MicroParams.inflow_offset
    h_min: float = microflow.MicroParams.h_min
    # grid (PDE model)
    nx: int = 101
    ny: int = 11
    # orchestration
    mode: str = "serial"
    stopping: str = parareal.DEFAULT_STOPPING
    threads: int | None = None
    out_dir: str = "out"

    def __post_init__(self):
        check_choice("model", self.model, ("ode", "pde"))
        check_choice("mode", self.mode, MODES)
        check_number("T_end_days", self.T_end_days)
        check_number("dt_days", self.dt_days)
        n = self.T_end_days / self.dt_days  # inf when the ratio overflows
        if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9):
            raise ConfigError(f"dt_days={self.dt_days} must divide T_end_days={self.T_end_days}")
        check_integer("P", self.P, 1)  # a serial scenario's schedule takes P = 1 instead
        if self.threads is not None:
            check_integer("threads", self.threads, 1)
        if not (is_finite(self.rho_s) and 0 < self.rho_s):
            raise ConfigError(f"rho_s must be positive, got {shown(self.rho_s)}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {shown(self.out_dir)}")
        # the owners check the rest and raise ConfigError; the grid rule holds for both models
        self.growth_params()
        micro = self.micro_params()
        check_run_settings(self.schedule().P, ENGINE_MODE[self.mode], self.stopping,
                           self.eps_par, self.max_iters)
        nodes = growth.check_grid(self.nx, self.ny)
        if self.model == "pde":
            micro.check_block(nodes)

    @property
    def N_l(self) -> int:
        return int(round(self.T_end_days / self.dt_days))

    def schedule(self) -> Schedule:
        return Schedule(self.T_end_days * DAY, self.N_l,
                        self.P if self.mode != "serial" else 1)

    def _params(self, cls):
        """An instance of the parameter type cls, filled from the fields of the same name."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def growth_params(self) -> growth.GrowthParams:
        return self._params(growth.GrowthParams)

    def micro_params(self) -> microflow.MicroParams:
        return self._params(microflow.MicroParams)

    def initial_states(self):
        """Zero concentration and resting flow, as in the paper's setups."""
        if self.model == "ode":
            macro0 = growth.ScalarState(0.0)
        else:
            macro0 = growth.FieldState.zero(growth.SolidGrid(self.nx, self.ny))
        return macro0, microflow.MicroState(0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, default=lambda value: value.item())
            f.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**data)


def parse_scenario(source) -> Scenario:
    """Load a scenario from a JSON file path, a preset name, or a dict.

    A name that is no preset, has no suffix and is no existing path is
    taken as a mistyped preset name.
    """
    if isinstance(source, dict):
        return Scenario.from_dict(source)
    name = str(source)
    if name in PRESETS or not (Path(name).suffix or Path(name).exists()):
        return preset(name)
    try:
        with open(name, encoding="utf-8") as f:
            data = json.load(f)
    except (ValueError, RecursionError) as exc:  # bad JSON/UTF-8, huge ints, deep nesting
        raise ConfigError(f"invalid JSON in {name}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"scenario file {name} must contain a JSON object")
    return Scenario.from_dict(data)


PRESETS = {
    # ODE growth model of the first numerical example: the defaults, 300 days
    # at dt = 0.3 days (N_l = 1000), pulsating inflow 30 sin^2(pi t).
    "ode_paper": {},
    # Reaction-diffusion growth model: 200 days at dt = 0.2 days (N_l = 1000),
    # inflow 30 (1 + sin^2(pi t)), a smaller alpha and a stricter eps_par.
    "pde_paper": dict(model="pde", T_end_days=200.0, dt_days=0.2, eps_par=1e-4,
                      alpha=5.0e-8, inflow_offset=1.0),
}


def preset(name: str, **overrides) -> Scenario:
    """Instantiate a shipped preset, optionally overriding fields."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return Scenario.from_dict({**PRESETS[name], **overrides})
