"""The one config type, `ExperimentConfig`, and the rule tables by which
`ExperimentConfig.validate` checks every field (`TYPE_RULES`, `_RULES`)."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass, field

from . import grids
from .errors import ConfigValidationError
from .eventsim import MODES
from .kinetics import RateTriple

_HBAR_SI = 1.054571817e-34  # J s


@dataclass
class AmplitudeParams:
    """Inputs of the rate-derivation stage (natural units: hbar = mass = 1).

    The packet width after the first emission and the photon recoil are
    not fixed by the physics reproduced here and default to arbitrary
    documented values (sigma = 1 length unit, zero recoil).
    """

    width_sum: float = 2.0
    width_diff: float = 1.0
    sigma: float = 1.0
    recoil_k: float = 0.0
    dt: float = 10.0
    grid_points: int = 512
    grid_span_factor: float = 8.0
    separations: tuple = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass
class ExperimentConfig:
    """Full experiment description; JSON-serializable and diffable."""

    gamma_inverse: float = 1.6e-9  # single-atom lifetime in seconds
    n0: int = 1_000_000
    mode: str = "sequential"
    seed: int = 20260810
    bins: int = 80
    t_max_lifetimes: float = 8.0
    output_dir: str = "runs"
    detector_efficiency: float = 1.0
    workers: int = 1
    gamma_f_factor: float = 2.0
    gamma_s_factor: float = 1.0
    atom_mass_kg: float = 1.6735575e-27
    length_unit_m: float = 1e-6
    amplitude: AmplitudeParams = field(default_factory=AmplitudeParams)

    def validate(self) -> None:
        """Raise ConfigValidationError naming each field of `_RULES` that
        breaks the type rule of its annotation or, if not, its range rule,
        or, if none does, the fields of the rates that leave the float range
        (`_check_rates`)."""
        def holds(dotted, rule):
            *sections, name = dotted.split(".")
            owner = functools.reduce(getattr, sections, self)
            value = getattr(owner, name)
            return TYPE_RULES[_field_types(type(owner))[name]](value) and rule(value)

        bad = [dotted for dotted, rule in _RULES.items() if not holds(dotted, rule)]
        if bad:
            raise ConfigValidationError(bad)
        self._check_rates()

    def _check_rates(self) -> None:
        """Each derived rate must be positive and finite, and the longest
        wait the draws give finite: -log(2^-54) over the rate, and for t_s,
        t_f plus that wait.  n0 such waits must sum to a finite number too,
        as the fits' means do.  A failure names those of n0, gamma_inverse,
        gamma_f_factor and gamma_s_factor that differ from their defaults,
        which hold, n0 only if the sum is at fault."""
        rates = self._rate_values()
        wait = 54 * math.log(2.0)  # -log of the smallest uniform draw, 2^-54
        finite = 0 < min(rates) and max(rates) < math.inf
        longest = max(wait / rates[0], wait / rates[1] + wait / rates[2]) if finite else math.inf
        # n0 * longest <= the largest float, in a form that takes any int n0
        if longest < math.inf and self.n0 <= sys.float_info.max / longest:
            return
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        names = ("n0", *_RATE_FIELDS) if longest < math.inf else _RATE_FIELDS
        fields = [name for name in names if getattr(self, name) != defaults[name]]
        raise ConfigValidationError(
            fields, f"{', '.join(fields)}: the rates 1/gamma_inverse, gamma_f_factor/gamma_inverse and"
            f" gamma_s_factor/gamma_inverse, {', '.join(f'{r:g}' for r in rates)} /s, must be positive"
            f" and finite, their longest waits, {wait:.2f} over the rate, finite, and n0 = {self.n0} of"
            f" them summed, as a fit's mean sums them, finite too")

    def set(self, key: str, value) -> None:
        """Set the field at dotted `key` to a JSON value, the way in for every outside
        value.  A section takes an object of its fields; a list becomes a tuple."""
        owner, current = None, self
        for name in key.split("."):
            names = {f.name for f in dataclasses.fields(current)} if dataclasses.is_dataclass(current) else ()
            if name not in names:
                raise ConfigValidationError([key], f"unknown config field: {key}")
            owner, current = current, getattr(current, name)
        if not dataclasses.is_dataclass(current):
            setattr(owner, name, tuple(value) if isinstance(value, list) else value)
        elif isinstance(value, dict):
            for sub, v in value.items():
                self.set(f"{key}.{sub}", v)
        else:
            raise ConfigValidationError([key], f"{key} is a config section; give it an object of fields")

    @property
    def rates(self) -> RateTriple:
        return RateTriple(*self._rate_values())

    def _rate_values(self) -> tuple[float, float, float]:
        """gamma, gamma_f and gamma_s in 1/s."""
        g = 1.0 / self.gamma_inverse
        return g, self.gamma_f_factor * g, self.gamma_s_factor * g

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        """Config from its JSON form, every key through `set`."""
        if not isinstance(d, dict):
            raise ConfigValidationError([], f"config top level must be a JSON object, not {type(d).__name__}")
        cfg = cls()
        for key, value in d.items():
            cfg.set(key, value)
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigValidationError([path], f"{path} is not valid JSON: {exc}") from None

    def si_conversion(self) -> dict:
        """SI equivalents of the natural units used by the amplitude stage;
        a ConfigValidationError if one leaves the float range."""
        tau = self.atom_mass_kg * self.length_unit_m**2 / _HBAR_SI
        if not math.isfinite(self.amplitude.dt * tau):
            fields = ["atom_mass_kg", "length_unit_m"] + (["amplitude.dt"] if math.isfinite(tau) else [])
            raise ConfigValidationError(fields, f"{', '.join(fields)}: the natural time unit, atom_mass_kg *"
                                                f" length_unit_m^2 / hbar, or amplitude.dt in it, leaves the float range")
        return {
            "atom_mass_kg": self.atom_mass_kg,
            "length_unit_m": self.length_unit_m,
            "hbar_J_s": _HBAR_SI,
            "natural_time_unit_s": tau,
            "amplitude_dt_s": self.amplitude.dt * tau,
        }


#: the fields that set the rates
_RATE_FIELDS = ("gamma_inverse", "gamma_f_factor", "gamma_s_factor")

#: the values a field of each annotated type takes
TYPE_RULES = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
    str: lambda v: isinstance(v, str),
    tuple: lambda v: isinstance(v, (list, tuple)) and all(map(TYPE_RULES[float], v)),
}

#: range rule of every settable field, keyed by dotted name, as a positive
#: predicate (NaN fails); the field's annotation gives its type rule
_RULES = {
    "gamma_inverse": lambda v: v > 0,
    "n0": lambda v: v >= 1,
    "mode": lambda v: v in MODES,
    "detector_efficiency": lambda v: 0.0 < v <= 1.0,
    "workers": lambda v: v >= 1,
    "seed": lambda v: True,
    "bins": lambda v: v >= 1,
    "t_max_lifetimes": lambda v: v > 0,
    "output_dir": lambda v: True,
    "gamma_f_factor": lambda v: v > 0,
    "gamma_s_factor": lambda v: v > 0,
    "atom_mass_kg": lambda v: v > 0,
    "length_unit_m": lambda v: 0 < v <= 1e150,  # si_conversion squares it
    "amplitude.width_sum": lambda v: v > 0,
    "amplitude.width_diff": lambda v: v > 0,
    "amplitude.sigma": lambda v: v > 0,
    "amplitude.recoil_k": lambda v: True,
    "amplitude.dt": lambda v: v >= 0,
    "amplitude.grid_points": lambda v: v >= grids.MIN_GRID_POINTS,
    "amplitude.grid_span_factor": lambda v: v >= 3,
    "amplitude.separations": lambda v: all(s >= 0 for s in v),
}

# get_type_hints evaluates the annotation strings anew on every call
_field_types = functools.cache(typing.get_type_hints)

