"""Experiment orchestration: full runs, figure tables, rate reports.

Wires simulation, detection, histogramming, fitting and the amplitude
engine into reproducible runs.  All file I/O uses SI seconds; the figure
table additionally carries the dimensionless columns (time in units of the
single-atom lifetime, densities in units of the rate).  Every output is a
pure function of (config, seed) except the single ``generated_at``
timestamp in report.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, grids
from ._csvtext import float_field, rows
from ._kernels import backend_name
from .amplitudes import (
    first_emission_rate_ratio,
    property_case_rate,
    receding_pair,
    second_emission_rate_ratio,
)
from .config import ExperimentConfig
from .errors import ConfigValidationError, DomainTruncationError, InsufficientDataError
from .eventsim import (
    _COINCIDENT,
    _FATES,
    _KEPT_AT,
    _RECORDED,
    EMISSION_DTYPE,
    _lanes,
    bin_index,
    histogram_edges,
    piece_molecules,
    simulate_ensemble,
    sorted_detector_streams,
)
from .eventsio import read_events_csv, write_events_csv, write_histogram_csv
from .grids import SpatialGrid
from .inference import FitResult, Histogram, _cumulative_sorted, _mle
from .kinetics import detection_densities
from .packets import make_packet
from .pairstate import COARSEST_SPACING, ProductPair, check_packet_mass, largest_phase, make_two_atom_gaussian, mode_sigma


@dataclass
class ReportBundle:
    fits: dict
    rate_ratios: list
    curve_tables: dict
    config_echo: dict
    version: str
    #: deterministic detection counts: photons recorded at each detector
    #: (recorded_1, recorded_2) and molecules recorded at both (coincidences)
    counters: dict = field(default_factory=dict)


def _ensure_outdir(cfg: ExperimentConfig) -> str:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigValidationError(["output_dir"], f"output_dir not writable: {out}")
    return out


def _coincidences_and_counters(t1: np.ndarray, t2: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """The coincidence differences t1 - t2, in row order, and the counters
    of `detection_pass`, from the t1/t2 columns of an events table (NaN =
    not recorded)."""
    hit_1, hit_2 = ~np.isnan(t1), ~np.isnan(t2)
    both = hit_1 & hit_2
    counters = {
        "recorded_1": int(np.count_nonzero(hit_1)),
        "recorded_2": int(np.count_nonzero(hit_2)),
        "coincidences": int(np.count_nonzero(both)),
    }
    return t1[both] - t2[both], counters


def _supported_fits(jobs) -> dict[str, FitResult]:
    """Run each (name, fit) job; leave out a fit its sample cannot support."""
    fits = {}
    for name, fit in jobs:
        with contextlib.suppress(InsufficientDataError):
            fits[name] = fit()
    return fits


def _mle_fit_jobs(t_f: np.ndarray, t_s: np.ndarray, abs_tau):
    """The MLE fit jobs of the report, from the emission-time columns or
    fields `t_f` and `t_s` and the sample source `abs_tau` of |tau|.  No
    job holds a sample: each fit reads its own leaf by leaf, `t_s - t_f`
    made per leaf and `t_f` copied per leaf where it is a strided field."""
    n = len(t_f)
    yield "coincidence", functools.partial(_mle, *abs_tau)
    yield "second_interval", functools.partial(_mle, n, lambda lo, hi: t_s[lo:hi] - t_f[lo:hi])
    yield "first", functools.partial(_mle, n, lambda lo, hi: np.ascontiguousarray(t_f[lo:hi]))


def _abs_tau(records: np.ndarray, coincident: np.ndarray):
    """The sample source of |tau|, the coincidence differences in molecule
    order, given the bits of `detection_pass` that mark the coincident
    molecules: the items [lo, hi) are made from the times of the
    `piece_molecules` pieces that hold them, and each thread keeps the last
    piece it made, since a pass asks for consecutive items.  |t1 - t2| of
    a coincidence is t_s - t_f, with its bits."""
    step = piece_molecules(len(records))
    ends = np.cumsum(np.add.reduceat(np.bitwise_count(coincident), range(0, coincident.size, step // 8)))
    last = threading.local()

    def of_piece(k):
        if getattr(last, "k", None) != k:
            piece = records[k * step:(k + 1) * step]
            both = np.unpackbits(coincident[k * step // 8:(k + 1) * step // 8], count=len(piece)).view(bool)
            tau = np.compress(both, piece["t_s"])
            tau -= np.compress(both, piece["t_f"])
            last.k, last.tau = k, tau
        return last.tau

    def leaf(lo, hi):
        k = int(np.searchsorted(ends, lo, side="right"))
        tau = of_piece(k)
        if hi <= ends[k]:  # within one piece: a view of it
            return tau[lo - (ends[k] - tau.size):hi - (ends[k] - tau.size)]
        out, at = np.empty(hi - lo), 0
        while at < out.size:
            tau = of_piece(k)
            part = tau[lo + at - (ends[k] - tau.size):hi - (ends[k] - tau.size)]
            out[at:at + part.size] = part
            at += part.size
            k += 1
        return out

    return int(ends[-1]) if len(ends) else 0, leaf


def _stream_fit_jobs(records: np.ndarray):
    """The cumulative fit jobs of the two detector streams, which are sorted
    over the records' memory: the records are consumed."""
    first, second = sorted_detector_streams(records)
    yield "detector_1", functools.partial(_cumulative_sorted, first)
    yield "detector_2", functools.partial(_cumulative_sorted, second)


class _Detection:
    """The tally of `detection_pass` (see `eventsim.simulate_ensemble`):
    called with the records and the number of counting lanes, it allocates
    one table set per lane and the coincidence bits, and returns `count`,
    which counts one piece of the records; `results` sums the sets."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def __call__(self, records: np.ndarray, lanes: int):
        cfg = self.cfg
        self.t_hi = t_hi = cfg.t_max_lifetimes / cfg.rates.gamma
        self.width = width = t_hi / cfg.bins
        if not (width > 0 and np.isfinite(2 * t_hi)):  # the coincidence range spans 2 t_hi
            raise ConfigValidationError(["t_max_lifetimes", "gamma_inverse", "bins"],
                                        f"t_max_lifetimes * gamma_inverse = {t_hi:g} s in {cfg.bins} bins:"
                                        " the bin width or the coincidence range leaves the float range")
        size = lanes * 2 * _FATES.size * (cfg.bins + 1) * np.dtype(np.intp).itemsize
        try:
            if size > sys.maxsize:  # past what numpy can address
                raise MemoryError
            self.edges = histogram_edges(width, (0.0, t_hi))
            self.tau_edges = histogram_edges(width, (-t_hi, t_hi))
            self.row = len(self.edges)  # n_bins + 1 slots per fates value
            # per lane: the t_f and the t_s table
            self.tables = np.zeros((lanes, 2, _FATES.size * self.row), np.intp)
            self.tau_counts = np.zeros((lanes, len(self.tau_edges)), np.intp)
        except MemoryError:
            raise ConfigValidationError(
                ["bins"],
                f"bins = {cfg.bins} does not fit in memory: the detection pass counts"
                f" 2*16*(bins + 1) (fates, bin) pairs on each of {lanes} threads, {size / 2**30:.2f} GiB",
            ) from None
        self.records, self.step = records, piece_molecules(len(records))
        self.coincident = np.empty((len(records) + 7) // 8, np.uint8)
        return self.count

    def count(self, lane: int, k: int) -> None:
        """Count piece k into the table set of `lane`."""
        start, t_hi, width = k * self.step, self.t_hi, self.width
        piece = self.records[start:start + self.step]
        fates = piece["fates"].astype(np.intp)  # an intp index looks up tables fastest
        offset = fates * self.row
        for table, name in zip(self.tables[lane], ("t_f", "t_s")):
            table += np.bincount(offset + bin_index(piece[name], self.edges, t_hi, width), minlength=table.size)
        # t1 - t2 of the coincidences, one photon at each detector: t_f -
        # t_s, negated where detector 1 recorded the second photon (IEEE
        # subtraction is antisymmetric, and both zeros take one bin)
        both = _COINCIDENT[fates]
        bits = np.packbits(both)  # a piece starts on a whole byte
        self.coincident[start // 8:start // 8 + bits.size] = bits
        tau = np.compress(both, piece["t_f"])
        tau -= np.compress(both, piece["t_s"])
        np.negative(tau, out=tau, where=_RECORDED[0][np.compress(both, fates)] == 2)
        self.tau_counts[lane] += np.bincount(bin_index(tau, self.tau_edges, t_hi, width),
                                             minlength=len(self.tau_edges))

    def results(self):
        """(histograms, coincident, counters) of `detection_pass`."""
        by_first, by_second = self.tables.sum(axis=0).reshape(2, _FATES.size, self.row)  # the t_f and the t_s table
        (first_at_1, second_at_1), _ = _KEPT_AT
        counts = {
            "first": by_first.sum(axis=0),
            "second": by_second.sum(axis=0),
            "det1": by_first[_RECORDED[0] == 1].sum(axis=0) + by_second[_RECORDED[0] == 2].sum(axis=0),
            "det2": by_first[_RECORDED[1] == 1].sum(axis=0) + by_second[_RECORDED[1] == 2].sum(axis=0),
            "detector": by_first[first_at_1].sum(axis=0) + by_second[second_at_1].sum(axis=0),
        }
        hists = {name: Histogram(edges=self.edges, counts=c[:-1]) for name, c in counts.items()}
        hists["coincidence"] = Histogram(edges=self.tau_edges, counts=self.tau_counts.sum(axis=0)[:-1])
        molecules = by_first.sum(axis=1)  # per fates value
        counters = {
            "recorded_1": int(molecules[_RECORDED[0] > 0].sum()),
            "recorded_2": int(molecules[_RECORDED[1] > 0].sum()),
            "coincidences": int(molecules[_COINCIDENT].sum()),
        }
        return hists, self.coincident, counters


def detection_pass(records: np.ndarray, cfg: ExperimentConfig):
    """Every detection-derived result of a run whose pieces have all landed,
    one `piece_molecules` piece of the records at a time.  A run counts the
    same pieces as they land (`_simulate`), through the same `_Detection`.

    Returns (histograms, coincident, counters).  The histograms, keyed
    first, second, det1, det2, coincidence and detector (the detector-1
    stream), share cfg's bin width; coincident marks the molecules recorded
    at both detectors, one bit per molecule (``np.packbits``), from which
    `_abs_tau` makes the coincidence differences (tau); counters hold the
    photons recorded at each detector and the molecules recorded at both.

    Apart from tau, a molecule enters every result only through its fates
    byte and the bins of its t_f and t_s.  So each piece adds the counts
    of its (fates, bin) pairs, one `bincount` per time, to one table per
    time of 16 x (n_bins + 1) integers, the last column counting the times
    outside the range; each histogram is a sum of table rows, and each
    counter a sum of molecules per fates value.  They equal those of the
    whole-array detection records on the whole ensemble.  The pieces are
    counted on `grids.threads_for` lanes (`eventsim._lanes`), each
    into a table set of its own; the sets are summed at the end (integer
    sums, exact in any order), each piece writes its own bytes of
    coincidence bits, and each piece's tau is binned and dropped, so no
    result depends on the number of lanes and no tau is kept.
    """
    detection = _Detection(cfg)
    _lanes(records, detection)
    return detection.results()


def _simulate(cfg: ExperimentConfig):
    """The ensemble of `cfg` and the results of `detection_pass` on it,
    each piece counted as soon as it has landed; records too large for
    memory are a configuration error, reported before the detection
    tables are allocated, and those before any draw is hashed."""
    detection = _Detection(cfg)
    try:
        records = simulate_ensemble(cfg, detection)
    except MemoryError:
        size = cfg.n0 * EMISSION_DTYPE.itemsize
        raise ConfigValidationError(
            ["n0"],
            f"n0 = {cfg.n0} does not fit in memory: the event records take"
            f" {EMISSION_DTYPE.itemsize} B per molecule, {size / 2**30:.2f} GiB",
        ) from None
    return records, detection.results()


def _simulate_and_fit(cfg: ExperimentConfig, write_events: bool):
    """`run_experiment` up to report.json; also returns the histograms of
    the detection pass, from which `run_full` draws the overlays."""
    records, (hists, coincident, counters) = _simulate(cfg)  # validates cfg
    echo = _echo(cfg)  # before any output
    out = _ensure_outdir(cfg)

    paths = {}
    if write_events:
        paths["events"] = os.path.join(out, "events.csv")
        write_events_csv(paths["events"], records)
    for name in ("first", "second", "det1", "det2", "coincidence"):
        p = os.path.join(out, f"hist_{name}.csv")
        write_histogram_csv(p, hists[name])
        paths[f"hist_{name}"] = p

    # the detector streams come last: they are sorted over the records
    jobs = itertools.chain(_mle_fit_jobs(records["t_f"], records["t_s"], _abs_tau(records, coincident)),
                           _stream_fit_jobs(records))
    return _fit_report(echo, _supported_fits(jobs), paths, counters), hists


def _fit_report(echo: dict, fits: dict[str, FitResult], curve_tables: dict, counters: dict) -> ReportBundle:
    """The report of a fit stage: its fits and detection counters, no rate
    ratios, the config `echo`."""
    return ReportBundle(
        fits={k: dataclasses.asdict(f) for k, f in fits.items()},
        rate_ratios=[],
        curve_tables=curve_tables,
        config_echo=echo,
        version=__version__,
        counters=counters,
    )


def run_fit(cfg: ExperimentConfig, events_path: str) -> ReportBundle:
    """Fit the rates of an existing events.csv and write report.json; a
    file that cannot be read leaves no output directory behind."""
    cfg.validate()
    echo = _echo(cfg)
    data = read_events_csv(events_path)
    out = _ensure_outdir(cfg)
    del data["molecule_id"]  # nothing reads it
    # the t1/t2 columns go once the counters and tau are taken
    tau, counters = _coincidences_and_counters(data.pop("t1"), data.pop("t2"))
    np.abs(tau, out=tau)
    jobs = _mle_fit_jobs(data["t_f"], data["t_s"], (tau.size, lambda lo, hi: tau[lo:hi]))
    bundle = _fit_report(echo, _supported_fits(jobs), {"events": events_path}, counters)
    write_report(os.path.join(out, "report.json"), bundle)
    return bundle


def run_experiment(cfg: ExperimentConfig, write_events: bool = True) -> ReportBundle:
    """simulate -> detect -> histogram -> fit, writing all artifacts.

    Produces events.csv, hist_{first,second,det1,det2,coincidence}.csv and
    report.json in cfg.output_dir.
    """
    bundle, _ = _simulate_and_fit(cfg, write_events)
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


def reproduce_figure1(cfg: ExperimentConfig, overlay: bool = False) -> str:
    """Tabulate the three analytic detection densities at 401 times (plus SI columns).

    Columns t,n_f,n_s,n_i are in units of the single-atom lifetime and
    rate; the *_si columns repeat them in seconds and per-second.  With
    ``overlay=True`` the simulated normalized histograms are written next
    to the analytic curves (fig1_overlay_*.csv) together with the per-bin
    Poisson four-sigma band.
    """
    if not overlay:
        cfg.validate()  # with an overlay, simulating validates cfg
    # an ensemble too large for memory fails before the output directory is made
    hists = _simulate(cfg)[1][0] if overlay else None
    rates = cfg.rates
    g = rates.gamma
    t_hi = cfg.t_max_lifetimes / g
    if not math.isfinite(t_hi):
        raise ConfigValidationError(["t_max_lifetimes", "gamma_inverse"],
                                    "t_max_lifetimes * gamma_inverse, the figure's time range, leaves the float range")
    out = _ensure_outdir(cfg)
    t = np.linspace(0.0, t_hi, 401)
    n_f, n_s, n_i = detection_densities(t, rates)
    path = os.path.join(out, "fig1.csv")
    with open(path, "wb") as fh:
        fh.write(b"t,n_f,n_s,n_i,t_si,n_f_si,n_s_si,n_i_si\n")
        fh.write(rows([float_field(v) for v in (t * g, n_f / g, n_s / g, n_i / g, t, n_f, n_s, n_i)]))
    if overlay:
        _write_overlays(cfg, hists)
    return path


def _write_overlays(cfg: ExperimentConfig, hists: dict[str, Histogram]) -> None:
    """fig1_overlay_*.csv from the detection pass's histograms of the first
    and second emission times and of the detector-1 stream."""
    out = cfg.output_dir
    rates = cfg.rates
    g = rates.gamma
    width = cfg.t_max_lifetimes / g / cfg.bins
    hists = {kind: hists[kind] for kind in ("first", "second", "detector")}
    # the histograms share their bins, so one call gives the three curves
    curves = dict(zip(hists, detection_densities(hists["first"].centers, rates)))
    # also for the detector-1 stream, which holds ~detector_efficiency photons
    # per molecule: below efficiency 1 its density reads low by that factor
    norm = cfg.n0
    for kind, hist in hists.items():
        curve = curves[kind]
        expected = norm * curve * width  # expected counts per bin
        density = hist.counts / (norm * width) / g
        band = 4.0 * np.sqrt(expected) / (norm * width) / g
        with open(os.path.join(out, f"fig1_overlay_{kind}.csv"), "wb") as fh:
            fh.write(b"t,density,curve,band\n")
            fh.write(rows([float_field(v) for v in (hist.centers * g, density, curve / g, band)]))


def run_rate_derivation(cfg: ExperimentConfig) -> list:
    """Amplitude-engine reports: main case, separation sweep, case studies.

    Returns the list of entries written to rates.json; each entry wraps
    one RateRatioReport (fields exactly as typed) plus case parameters.
    """
    return _rate_stage(cfg, main_cases=True)


def run_property_cases(cfg: ExperimentConfig) -> list:
    """Only the four comparison case studies, written to rates.json."""
    return _rate_stage(cfg, main_cases=False)


@contextlib.contextmanager
def _arithmetic_of(*fields):
    """Report an ArithmeticError inside, a float that overflows or divides by
    an underflowed zero, as a configuration error naming the amplitude `fields`."""
    try:
        yield
    except ArithmeticError as exc:
        names = [f"amplitude.{name}" for name in fields]
        raise ConfigValidationError(
            names, f"{', '.join(names)}: the packet arithmetic leaves the float range ({exc!r})"
        ) from None


def _rate_stage(cfg: ExperimentConfig, main_cases: bool) -> list:
    """Compute the rate entries and write rates.json.  A grid too large
    for memory, too narrow for the states, or too coarse for the prop1
    packets or for the state's narrower mode is a configuration error,
    and so are amplitude fields whose arithmetic leaves the float range;
    the output directory is made once the entries exist."""
    cfg.validate()
    a = cfg.amplitude
    grid = SpatialGrid.centered(a.grid_span_factor * max(a.width_sum, a.width_diff), a.grid_points)
    sep = 12.0 * a.sigma  # prop1's packets: well separated, hence orthogonal
    chi, xi = make_packet(-0.5 * sep, 0.0, a.sigma), make_packet(+0.5 * sep, 0.0, a.sigma)
    narrow = [f"amplitude.{name}" for name in ("width_sum", "width_diff") if not mode_sigma(getattr(a, name)) > 0]
    if narrow:
        raise ConfigValidationError(narrow, f"{', '.join(narrow)}: the state's mode width, the width"
                                            f" over 2 sqrt 2, underflows to 0")
    try:
        if 16 * a.grid_points**2 > sys.maxsize:  # past what numpy can address
            raise MemoryError
        with _arithmetic_of("sigma"):
            check_packet_mass((chi, xi), grid)  # before any dense work
        if a.dt > 0 and not math.isfinite(largest_phase(grid, a.dt)):
            raise ConfigValidationError(["amplitude.dt"], f"amplitude.dt = {a.dt:g}: the flight's phase, about"
                                                          f" dt (pi/spacing)^2 at spacing {grid.spacing:g},"
                                                          f" leaves the float range")
        entries = _rate_entries(cfg, main_cases, grid, chi, xi)
    except MemoryError:
        n = a.grid_points
        raise ConfigValidationError(
            ["amplitude.grid_points"],
            f"amplitude.grid_points = {n} does not fit in memory: one dense kernel takes"
            f" 16*n^2 bytes = {16 * n * n / 2**30:.2f} GiB, and the rate stage holds 2 of them",
        ) from None
    except DomainTruncationError as exc:
        # a grid too coarse for the prop1 packets, of 64 points or more,
        # spans over 32 sigma: it does not truncate them at +/-6 sigma, it
        # cannot resolve them
        if grid.spacing > COARSEST_SPACING * a.sigma:
            wide = "width_sum" if a.width_sum >= a.width_diff else "width_diff"
            names = [f"amplitude.{name}" for name in ("grid_points", "grid_span_factor", wide)]
            raise ConfigValidationError(names, f"{', '.join(names)}: the grid spacing, {grid.spacing:g}, is too coarse"
                                               f" for the prop1 packets, over {COARSEST_SPACING:.3f} sigma ({exc})") from None
        # the grid samples the state's modes along x + y and x - y, at
        # spacing / sqrt 2, and cannot resolve one narrower than that over
        # COARSEST_SPACING, whatever its span
        narrow = "width_sum" if a.width_sum <= a.width_diff else "width_diff"
        mode_width = mode_sigma(getattr(a, narrow))
        if grid.spacing / math.sqrt(2.0) > COARSEST_SPACING * mode_width:
            names = [f"amplitude.{name}" for name in ("grid_points", "grid_span_factor", narrow)]
            raise ConfigValidationError(names, f"{', '.join(names)}: the grid spacing, {grid.spacing:g}, is too coarse"
                                               f" for the state's narrower mode, of width {mode_width:g}: it samples"
                                               f" the mode at spacing/sqrt 2, over {COARSEST_SPACING:.3f} mode widths"
                                               f" ({exc})") from None
        raise ConfigValidationError(["amplitude.grid_span_factor"],
                                    f"amplitude.grid_span_factor is too small: {exc}") from None
    with open(os.path.join(_ensure_outdir(cfg), "rates.json"), "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries


def _rate_entries(cfg: ExperimentConfig, main_cases: bool, grid: SpatialGrid, chi, xi) -> list:
    """Build the two-atom state once on `grid`; one entry per report.

    The state's studies read only its kept sums, so they are taken before
    prop1's and the state goes before prop1's pairs build their channels:
    the stage holds two dense kernels at a time, the state and an evolved
    copy or the two channels of a pair.  The entries keep the order of
    the cases, prop1's first."""
    a = cfg.amplitude
    g = cfg.rates.gamma
    with _arithmetic_of("width_sum", "width_diff"):
        state = make_two_atom_gaussian(a.width_sum, a.width_diff, grid)
    entries, of_state = [], []

    def add(params: dict, report, interference=None, to=entries):
        entry = {
            "case": report.case_label,
            "params": params,
            "report": dataclasses.asdict(report),
            "absolute_rate_per_s": report.ratio * g,
        }
        if interference is not None:
            entry["interference_magnitude"] = interference
        to.append(entry)

    def study(params: dict, case: str, pair, to=entries, **kwargs):
        result = property_case_rate(case, pair, **kwargs)
        add(params, result.report, result.interference_magnitude, to)

    if main_cases:
        add({"evolution": "identity"}, first_emission_rate_ratio(state))
        add({"evolution": "free-propagation", "dt": a.dt}, first_emission_rate_ratio(state, a.dt))
        for sep in a.separations:
            with _arithmetic_of("separations", "dt", "sigma", "recoil_k"):
                report = second_emission_rate_ratio(receding_pair(sep, a.dt, a.sigma), a.dt, a.recoil_k)
            add({"separation": sep, "dt": a.dt, "recoil_k": a.recoil_k, "sigma": a.sigma}, report)

    # the case studies.  The state's, at dt = 0, read its kept sums
    study({}, "prop2-nonsymmetrized", state, to=of_state)
    study({}, "prop3-entangled-final", state, to=of_state)
    study({"variant": "both-symmetric"}, "prop4-entangled-second", state, to=of_state)
    del state  # its kernel goes before prop1's channels are built
    # Non-entangled initial state: symmetrized pair of the packets (chi,
    # xi), reported under both final-state conventions, plus the
    # identical-packet variant
    sep = xi.center - chi.center
    orthogonal = {"variant": "orthogonal", "separation": sep}
    pair = ProductPair(chi, xi, grid)  # the three orthogonal studies share its channels
    study(orthogonal, "prop1-nonentangled", pair)
    lopsided = [make_packet(c * a.sigma - 0.5 * sep, 0.0, a.sigma) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    study({**orthogonal, "family": "5 packets around one atom"}, "prop1-nonentangled", pair,
          convention="restricted-subset", family=lopsided)
    spanning = [make_packet(c, 0.0, a.sigma) for c in np.arange(-0.75 * sep, 0.75 * sep + 0.1, 0.25 * sep)]
    study({**orthogonal, "family": "7 packets spanning both atoms"}, "prop1-nonentangled", pair,
          convention="restricted-subset", family=spanning)
    del pair  # its two channels go before the identical pair builds its one
    study({"variant": "identical"}, "prop1-nonentangled", ProductPair(chi, chi, grid))
    return entries + of_state


def run_full(cfg: ExperimentConfig) -> ReportBundle:
    """Everything: simulation+fits, figure table and overlays, rate derivation.

    One ensemble serves the fits and the figure overlays.
    """
    bundle, hists = _simulate_and_fit(cfg, write_events=True)
    bundle.curve_tables["fig1"] = reproduce_figure1(cfg)
    _write_overlays(cfg, hists)
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
