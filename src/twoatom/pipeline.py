"""Experiment orchestration: config, full runs, figure tables, rate reports.

Wires simulation, detection, histogramming, fitting and the amplitude
engine into reproducible runs.  All file I/O uses SI seconds; the figure
table additionally carries the dimensionless columns (time in units of the
single-atom lifetime, densities in units of the rate).  Every output is a
pure function of (config, seed) except the single ``generated_at``
timestamp in report.json.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._kernels import backend_name
from .amplitudes import (
    first_emission_rate_ratio,
    property_case_rate,
    receding_pair,
    second_emission_rate_ratio,
)
from .errors import ConfigValidationError, InsufficientDataError
from .eventsim import (
    SIM_RULES,
    SimConfig,
    assign_detections,
    build_histogram,
    coincidence_differences,
    detector_streams,
    failed_fields,
    simulate_ensemble,
)
from .grids import SpatialGrid
from .inference import FitResult, fit_cumulative_curve, fit_exponential_mle
from .kinetics import RateTriple, detection_densities
from .packets import make_packet
from .pairstate import make_two_atom_gaussian

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
        """Raise ConfigValidationError naming each field that breaks its type or range rule."""
        bad = failed_fields(self, _RULES)
        if bad:
            raise ConfigValidationError(bad)

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
        g = 1.0 / self.gamma_inverse
        return RateTriple(
            gamma=g, gamma_f=self.gamma_f_factor * g, gamma_s=self.gamma_s_factor * g
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            n0=self.n0,
            mode=self.mode,
            rates=self.rates,
            seed=self.seed,
            detector_efficiency=self.detector_efficiency,
            workers=self.workers,
        )

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
        """SI equivalents of the natural units used by the amplitude stage."""
        tau = self.atom_mass_kg * self.length_unit_m**2 / _HBAR_SI
        return {
            "atom_mass_kg": self.atom_mass_kg,
            "length_unit_m": self.length_unit_m,
            "hbar_J_s": _HBAR_SI,
            "natural_time_unit_s": tau,
            "amplitude_dt_s": self.amplitude.dt * tau,
        }


#: range rule of every settable field, keyed by dotted name, as a positive
#: predicate (NaN fails); the field's annotation gives its type rule
_RULES = {
    "gamma_inverse": lambda v: v > 0,
    **SIM_RULES,
    "seed": lambda v: True,
    "bins": lambda v: v >= 1,
    "t_max_lifetimes": lambda v: v > 0,
    "output_dir": lambda v: True,
    "gamma_f_factor": lambda v: v > 0,
    "gamma_s_factor": lambda v: v > 0,
    "atom_mass_kg": lambda v: v > 0,
    "length_unit_m": lambda v: v > 0,
    "amplitude.width_sum": lambda v: v > 0,
    "amplitude.width_diff": lambda v: v > 0,
    "amplitude.sigma": lambda v: v > 0,
    "amplitude.recoil_k": lambda v: True,
    "amplitude.dt": lambda v: v >= 0,
    "amplitude.grid_points": lambda v: v >= 64,
    "amplitude.grid_span_factor": lambda v: v >= 3,
    "amplitude.separations": lambda v: all(s >= 0 for s in v),
}


@dataclass
class ReportBundle:
    fits: dict
    rate_ratios: list
    curve_tables: dict
    config_echo: dict
    version: str


def _ensure_outdir(cfg: ExperimentConfig) -> str:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigValidationError(["output_dir"], f"output_dir not writable: {out}")
    return out


def _sci(values: np.ndarray) -> np.ndarray:
    """Scientific notation with 17 significant digits (round-trip exact)."""
    return np.char.mod("%.16e", values)


#: header of events.csv; empty t1/t2 field = photon not recorded
EVENTS_COLUMNS = ("molecule_id", "t_f", "t_s", "t1", "t2")


def write_events_csv(path: str, records: np.ndarray, detections: np.ndarray) -> None:
    """molecule_id,t_f,t_s,t1,t2 in seconds; empty field = undetected."""
    id_s = np.char.mod("%d", records["molecule_id"])
    tf_s = _sci(records["t_f"])
    ts_s = _sci(records["t_s"])

    def detection_strings(arr):
        # assign_detections copies t_f or t_s into t1/t2, or leaves NaN
        return np.where(arr == records["t_f"], tf_s, np.where(arr == records["t_s"], ts_s, ""))

    cols = [id_s, tf_s, ts_s, detection_strings(detections["t1"]), detection_strings(detections["t2"])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENTS_COLUMNS) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(zip(*(c.tolist() for c in cols)))


def write_histogram_csv(path: str, hist) -> None:
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
            fh.write(f"{lo:.16e},{hi:.16e},{int(c)}\n")


def supported_fits(jobs) -> dict[str, FitResult]:
    """Run each (name, fit, sample) job; leave out a fit its sample cannot support."""
    fits = {}
    for name, fit, sample in jobs:
        with contextlib.suppress(InsufficientDataError):
            fits[name] = fit(sample)
    return fits


def mle_fit_jobs(t_f, t_s, tau):
    """The MLE fit jobs of the report, each derived sample made for its fit only."""
    yield "first", fit_exponential_mle, t_f
    yield "second_interval", fit_exponential_mle, t_s - t_f
    yield "coincidence", fit_exponential_mle, np.abs(tau)


def _simulate_and_fit(cfg: ExperimentConfig, write_events: bool):
    """`run_experiment` up to report.json; also returns the records and
    the detector-1 stream, from which `run_full` draws the overlays."""
    cfg.validate()
    out = _ensure_outdir(cfg)
    records = simulate_ensemble(cfg.sim_config())
    detections = assign_detections(records)

    paths = {}
    if write_events:
        paths["events"] = os.path.join(out, "events.csv")
        write_events_csv(paths["events"], records, detections)

    g = cfg.rates.gamma
    t_hi = cfg.t_max_lifetimes / g
    width = t_hi / cfg.bins
    tau = coincidence_differences(detections)
    hists = {
        "first": build_histogram(records["t_f"], width, (0.0, t_hi)),
        "second": build_histogram(records["t_s"], width, (0.0, t_hi)),
        "det1": build_histogram(detections["t1"][~np.isnan(detections["t1"])], width, (0.0, t_hi)),
        "det2": build_histogram(detections["t2"][~np.isnan(detections["t2"])], width, (0.0, t_hi)),
        "coincidence": build_histogram(tau, width, (-t_hi, t_hi)),
    }
    for name, hist in hists.items():
        p = os.path.join(out, f"hist_{name}.csv")
        write_histogram_csv(p, hist)
        paths[f"hist_{name}"] = p

    fits = supported_fits(mle_fit_jobs(records["t_f"], records["t_s"], tau))
    d1, d2 = detector_streams(records)
    fits.update(supported_fits((f"detector_{i}", fit_cumulative_curve, s) for i, s in enumerate((d1, d2), 1)))
    bundle = ReportBundle(
        fits={k: dataclasses.asdict(f) for k, f in fits.items()},
        rate_ratios=[],
        curve_tables=paths,
        config_echo=_echo(cfg),
        version=__version__,
    )
    return bundle, records, d1


def run_experiment(cfg: ExperimentConfig, write_events: bool = True) -> ReportBundle:
    """simulate -> detect -> histogram -> fit, writing all artifacts.

    Produces events.csv, hist_{first,second,det1,det2,coincidence}.csv and
    report.json in cfg.output_dir.
    """
    bundle, _, _ = _simulate_and_fit(cfg, write_events)
    write_report(os.path.join(cfg.output_dir, "report.json"), bundle)
    return bundle


def _echo(cfg: ExperimentConfig) -> dict:
    echo = cfg.to_dict()
    echo["si_conversion"] = cfg.si_conversion()
    echo["kernel_backend"] = backend_name()
    return echo


def write_report(path: str, bundle: ReportBundle) -> None:
    doc = {**dataclasses.asdict(bundle), "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reproduce_figure1(cfg: ExperimentConfig, overlay: bool = False, n_points: int = 401) -> str:
    """Tabulate the three analytic detection densities (plus SI columns).

    Columns t,n_f,n_s,n_i are in units of the single-atom lifetime and
    rate; the *_si columns repeat them in seconds and per-second.  With
    ``overlay=True`` the simulated normalized histograms are written next
    to the analytic curves (fig1_overlay_*.csv) together with the per-bin
    Poisson four-sigma band.
    """
    cfg.validate()
    out = _ensure_outdir(cfg)
    rates = cfg.rates
    g = rates.gamma
    t = np.linspace(0.0, cfg.t_max_lifetimes / g, n_points)
    n_f, n_s, n_i = detection_densities(t, rates)
    path = os.path.join(out, "fig1.csv")
    with open(path, "w") as fh:
        fh.write("t,n_f,n_s,n_i,t_si,n_f_si,n_s_si,n_i_si\n")
        for row in zip(t * g, n_f / g, n_s / g, n_i / g, t, n_f, n_s, n_i):
            fh.write(",".join(f"{v:.16e}" for v in row) + "\n")
    if overlay:
        records = simulate_ensemble(cfg.sim_config())
        d1, _ = detector_streams(records)
        _write_overlays(cfg, records, d1)
    return path


def _write_overlays(cfg: ExperimentConfig, records, d1) -> None:
    """fig1_overlay_*.csv from the records and the detector-1 stream."""
    out = cfg.output_dir
    rates = cfg.rates
    g = rates.gamma
    t_hi = cfg.t_max_lifetimes / g
    width = t_hi / cfg.bins
    hists = {
        kind: build_histogram(samples, width, (0.0, t_hi))
        for kind, samples in (("first", records["t_f"]), ("second", records["t_s"]), ("detector", d1))
    }
    # the histograms share their bins, so one call gives the three curves
    curves = dict(zip(hists, detection_densities(hists["first"].centers, rates)))
    norm = cfg.n0  # also for the detector stream: ~one photon per molecule
    for kind, hist in hists.items():
        curve = curves[kind]
        expected = norm * curve * width  # expected counts per bin
        with open(os.path.join(out, f"fig1_overlay_{kind}.csv"), "w") as fh:
            fh.write("t,density,curve,band\n")
            for tc, c, cv, mu in zip(hist.centers, hist.counts, curve, expected):
                dens = c / (norm * width) / g
                band = 4.0 * np.sqrt(mu) / (norm * width) / g
                fh.write(f"{tc * g:.16e},{dens:.16e},{cv / g:.16e},{band:.16e}\n")


def run_rate_derivation(cfg: ExperimentConfig) -> list:
    """Amplitude-engine reports: main case, separation sweep, case studies.

    Returns the list of entries written to rates.json; each entry wraps
    one RateRatioReport (fields exactly as typed) plus case parameters.
    """
    return _rate_stage(cfg, main_cases=True)


def run_property_cases(cfg: ExperimentConfig) -> list:
    """Only the four comparison case studies, written to rates.json."""
    return _rate_stage(cfg, main_cases=False)


def _rate_stage(cfg: ExperimentConfig, main_cases: bool) -> list:
    """Build the grid and the two-atom state once; write rates.json."""
    cfg.validate()
    out = _ensure_outdir(cfg)
    a = cfg.amplitude
    g = cfg.rates.gamma
    half = a.grid_span_factor * max(a.width_sum, a.width_diff)
    grid = SpatialGrid.centered(half, a.grid_points)
    state = make_two_atom_gaussian(a.width_sum, a.width_diff, grid)
    entries = []

    def add(params: dict, report, interference=None):
        entry = {
            "case": report.case_label,
            "params": params,
            "report": dataclasses.asdict(report),
            "absolute_rate_per_s": report.ratio * g,
        }
        if interference is not None:
            entry["interference_magnitude"] = interference
        entries.append(entry)

    def study(params: dict, case: str, inputs, **kwargs):
        result = property_case_rate(case, inputs, **kwargs)
        add(params, result.report, result.interference_magnitude)

    if main_cases:
        add({"evolution": "identity"}, first_emission_rate_ratio(state))
        add({"evolution": "free-propagation", "dt": a.dt}, first_emission_rate_ratio(state, a.dt))
        for sep in a.separations:
            pair = receding_pair(sep, a.dt, a.sigma)
            report = second_emission_rate_ratio(pair, a.dt, a.recoil_k)
            add({"separation": sep, "dt": a.dt, "recoil_k": a.recoil_k, "sigma": a.sigma}, report)

    # the case studies.  Non-entangled initial state: symmetrized pair of
    # well-separated (hence orthogonal) packets, reported under both
    # final-state conventions, plus the identical-packet variant
    sep = 12.0 * a.sigma
    chi = make_packet(-0.5 * sep, 0.0, a.sigma)
    xi = make_packet(+0.5 * sep, 0.0, a.sigma)
    orthogonal = {"variant": "orthogonal", "separation": sep}
    study(orthogonal, "prop1-nonentangled", (chi, xi), grid=grid)
    lopsided = [make_packet(c * a.sigma - 0.5 * sep, 0.0, a.sigma) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    study({**orthogonal, "family": "5 packets around one atom"}, "prop1-nonentangled", (chi, xi),
          convention="restricted-subset", grid=grid, family=lopsided)
    spanning = [make_packet(c, 0.0, a.sigma) for c in np.arange(-0.75 * sep, 0.75 * sep + 0.1, 0.25 * sep)]
    study({**orthogonal, "family": "7 packets spanning both atoms"}, "prop1-nonentangled", (chi, xi),
          convention="restricted-subset", grid=grid, family=spanning)
    study({"variant": "identical"}, "prop1-nonentangled", (chi, chi), grid=grid)
    study({}, "prop2-nonsymmetrized", state)
    study({}, "prop3-entangled-final", state)
    study({"variant": "both-symmetric"}, "prop4-entangled-second", state)

    with open(os.path.join(out, "rates.json"), "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries


def run_full(cfg: ExperimentConfig, overlay: bool = True) -> ReportBundle:
    """Everything: simulation+fits, figure table, rate derivation.

    One ensemble serves the fits and the figure overlays.
    """
    bundle, records, d1 = _simulate_and_fit(cfg, write_events=True)
    bundle.curve_tables["fig1"] = reproduce_figure1(cfg)
    if overlay:
        _write_overlays(cfg, records, d1)
    # the rate stage sets the run's memory peak; the ensemble must not
    # sit underneath it
    del records, d1
    bundle.rate_ratios = run_rate_derivation(cfg)
    bundle.curve_tables["rates"] = os.path.join(cfg.output_dir, "rates.json")
    write_report(os.path.join(cfg.output_dir, "report.json"), bundle)
    return bundle


def check_report(cfg: ExperimentConfig, bundle: ReportBundle) -> list[str]:
    """Quick self-checks mirroring the headline relations; returns failures."""
    g = cfg.rates.gamma
    failures = []

    def expect(name, value, target, tol):
        if abs(value - target) > tol:
            failures.append(f"{name}: {value:.6g} not within {tol:g} of {target}")

    for name, label, target, tol in (
        ("first", "first-rate/gamma", 2.0, 0.02),
        ("second_interval", "second-rate/gamma", 1.0, 0.01),
        ("detector_1", "detector1-rate/gamma", 1.0, 0.01),
        ("detector_2", "detector2-rate/gamma", 1.0, 0.01),
        ("coincidence", "coincidence-rate/gamma", 1.0, 0.02),
    ):
        if name in bundle.fits:
            expect(label, bundle.fits[name]["rate_hat"] / g, target, tol)
        elif name != "coincidence":
            failures.append(f"{label}: no {name} fit, its sample is too small")

    by_case = {}
    for entry in bundle.rate_ratios:
        by_case.setdefault(entry["case"], []).append(entry)
    if by_case:
        for e in by_case.get("entangled-main", []):
            expect("first-emission ratio", e["report"]["ratio"], 2.0, 1e-4)
        sweeps = by_case.get("second-emission", [])
        if sweeps:
            far = max(sweeps, key=lambda e: e["params"]["separation"])
            expect("second-emission far ratio", far["report"]["ratio"], 1.0, 1e-4)
        for e in by_case.get("prop2-nonsymmetrized", []):
            expect("prop2 ratio", e["report"]["ratio"], 1.0, 1e-6)
        for e in by_case.get("prop3-entangled-final", []):
            expect("prop3 ratio", e["report"]["ratio"], 2.0, 1e-4)
        for e in by_case.get("prop4-entangled-second", []):
            expect("prop4 ratio", e["report"]["ratio"], 2.0, 1e-4)
    return failures
