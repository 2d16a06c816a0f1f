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
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__, grids
from ._csvtext import Field, float_field, float_values, int_field, int_values, rows
from ._kernels import backend_name
from .amplitudes import (
    first_emission_rate_ratio,
    property_case_rate,
    receding_pair,
    second_emission_rate_ratio,
)
from .errors import ConfigValidationError, DomainTruncationError, EventsFileError, InsufficientDataError
from .eventsim import (
    _COINCIDENT,
    _FATES,
    _KEPT_AT,
    _RECORDED,
    CHUNK_MOLECULES,
    EMISSION_DTYPE,
    MODES,
    bin_index,
    detector_streams,
    histogram_edges,
    simulate_ensemble,
)
from .grids import SpatialGrid
from .inference import FitResult, Histogram, fit_cumulative_curve, fit_exponential_mle
from .kinetics import RateTriple, detection_densities
from .packets import make_packet
from .pairstate import ProductPair, check_packet_mass, largest_phase, make_two_atom_gaussian, mode_sigma

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
        """Raise ConfigValidationError naming each field that breaks its type
        or range rule, or, if none does, the fields of the rates that leave
        the float range (`_check_rates`)."""
        bad = failed_fields(self, _RULES)
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


def failed_fields(config, rules: dict) -> list[str]:
    """The dotted names in `rules` whose value in the dataclass `config`
    breaks the type rule of its annotation or, if not, its range rule."""
    def holds(dotted, rule):
        *sections, name = dotted.split(".")
        owner = functools.reduce(getattr, sections, config)
        value = getattr(owner, name)
        return TYPE_RULES[_field_types(type(owner))[name]](value) and rule(value)

    return [dotted for dotted, rule in rules.items() if not holds(dotted, rule)]


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


#: header of events.csv; empty t1/t2 field = photon not recorded
EVENTS_COLUMNS = ("molecule_id", "t_f", "t_s", "t1", "t2")


def write_events_csv(path: str, records: np.ndarray) -> None:
    """molecule_id,t_f,t_s,t1,t2 in seconds; empty field = undetected.

    A record's molecule id is its row index; its t1/t2 fields are the
    photons that the single-hit rule records, read from the fates through
    `eventsim._RECORDED`.  Times are the bytes of ``"%.16e" % t``:
    scientific notation with 17 significant digits (round-trip exact).  The rows of each CHUNK_MOLECULES chunk are
    made on a thread of their own, `thread_count()` chunks at a time, and
    written in chunk order, so the bytes of at most that many chunks are
    alive at once and do not depend on the number of threads.
    """
    threads = grids.thread_count()
    starts = range(0, len(records), CHUNK_MOLECULES)
    with open(path, "wb") as fh:
        fh.write((",".join(EVENTS_COLUMNS) + "\n").encode())
        for first in range(0, len(starts), threads):
            group = starts[first:first + threads]
            text = {}
            grids.spread(lambda share: text.update((start, _event_rows(records, start)) for start in share),
                         group, threads)
            fh.writelines(text[start] for start in group)


def _event_rows(records: np.ndarray, start: int) -> np.ndarray:
    """The events.csv rows of the CHUNK_MOLECULES chunk from molecule `start`."""
    chunk = records[start:start + CHUNK_MOLECULES]
    t_f, t_s = float_field(chunk["t_f"]), float_field(chunk["t_s"])
    # row i of the t_f texts, then row i of the t_s texts, at i and n + i
    texts = np.concatenate((t_f.text, t_s.text))
    widths = np.concatenate((t_f.width, t_s.width))
    detectors = []
    for recorded in _RECORDED:
        code = recorded[chunk["fates"]]  # 0 no photon, 1 the first, 2 the second
        at = np.arange(len(chunk)) + len(chunk) * (code == 2)
        detectors.append(Field(np.take(texts, at, axis=0), np.where(code > 0, widths[at], 0), t_f.masks))
    return rows([int_field(np.arange(start, start + len(chunk))), t_f, t_s, *detectors])


#: an empty field: a comma followed by a comma, a line end or the end of file
_EMPTY_FIELD = re.compile(rb",(?=,|\r?\n|$)")
#: loadtxt's reports of a bad field and of a ragged row; a row counts the
#: data lines, blank ones skipped, from 0 for a bad field and from 1 for a
#: ragged row
_BAD_FIELD = re.compile(r"could not convert string (.*) to float64 at row (\d+), column (\d+)")
_RAGGED_ROW = re.compile(r"number of columns changed from \d+ to (\d+) at row (\d+)")
#: bytes read at a time; a block is cut at its last line end
READ_BLOCK = 2**19
#: zero bytes on each side of a block: the word reads of a line's fields
#: reach up to 16 bytes before it and 24 after
_PAD = 32


def read_events_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of an events.csv as float arrays, keyed by header name.

    An empty t1/t2 field reads as NaN.  Raises EventsFileError, naming the
    file, for an empty file, a header that is not UTF-8 or lacks one of
    EVENTS_COLUMNS, and, naming the line and the column as well, for a
    ragged row, a field that is not a number, and an empty or non-finite
    field outside t1/t2.  Blank lines are skipped.

    The file is read READ_BLOCK bytes at a time into columns allocated once
    from its count of line ends, and no block is kept.  Under the writer's
    header, the rows in the writer's form are decoded in numpy
    (`_writer_rows`); every other row goes through ``np.loadtxt``, which
    gives the values and errors of one ``np.loadtxt`` call on the file.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise EventsFileError(f"{path} is empty")
        try:
            names = [name.strip() for name in head.decode("utf-8").split(",")]
        except UnicodeDecodeError:
            raise EventsFileError(f"{path}: its header line is not UTF-8") from None
        missing = [c for c in EVENTS_COLUMNS if c not in names]
        if missing:
            raise EventsFileError(f"{path} lacks the column(s) {', '.join(missing)}")
        blocks = functools.partial(fh.read, READ_BLOCK)
        table = _EventsTable(path, names, sum(block.count(b"\n") for block in iter(blocks, b"")) + 1)
        fh.seek(len(head))
        pending = bytearray()
        for block in iter(blocks, b""):
            pending += block
            cut = pending.rfind(b"\n") + 1
            table.add(pending[:cut])
            del pending[:cut]
        table.add(pending)
    return table.columns()


class _EventsTable:
    """The columns of an events.csv, filled one block of whole lines at a
    time: the rows in the writer's form by `_writer_rows`, the others by
    ``np.loadtxt``, in file order."""

    def __init__(self, path: str, names: list[str], size: int):
        self.path, self.names = path, names
        self.decode = names == list(EVENTS_COLUMNS)  # the writer's header
        self.data = np.empty((len(EVENTS_COLUMNS), size))
        self.rows = 0  # rows filled
        self.line = 2  # the file line of the next block's first line
        # the first empty or non-finite field outside t1/t2: loadtxt reads
        # every field before it checks one, so a later field that is not a
        # number is reported instead
        self.not_finite = None

    def columns(self) -> dict[str, np.ndarray]:
        if self.not_finite:
            raise self.not_finite
        return {c: row[:self.rows] for c, row in zip(EVENTS_COLUMNS, self.data)}

    def ragged(self, line: int, fields: int) -> EventsFileError:
        names = self.names
        at = f"column {names[fields]} is missing" if fields < len(names) else f"after column {names[-1]}"
        return EventsFileError(f"{self.path}, line {line}, {at}: the row has {fields} fields, the header {len(names)}")

    def add(self, data) -> None:
        """Fill the rows of `data`, bytes of whole lines but for a last one
        of the file without its line end."""
        if not data:
            return
        starts, ends, commas, decoded, values = _writer_rows(data, self.decode)
        length = ends - starts
        nonblank = (length > 1) | ((length == 1) & (np.frombuffer(data, np.uint8)[starts] != ord("\r")))
        row = self.rows + np.cumsum(nonblank) - 1
        if self.rows == 0 and nonblank.any():
            # loadtxt takes the first row's field count as the table's
            first = np.argmax(nonblank)
            if commas[first] + 1 != len(self.names):
                raise self.ragged(self.line + first, commas[first] + 1)
        self.data[:, row[decoded]] = values
        nonblank[decoded] = False
        self.loadtxt(data, np.flatnonzero(nonblank), starts, ends, row)
        self.rows = int(row[-1]) + 1
        self.line += len(starts)

    def loadtxt(self, data, at: np.ndarray, starts, ends, row) -> None:
        """Fill the rows of lines `at` of `data` by one ``np.loadtxt`` call.
        Its first row, a row of the header's field count, has it check
        every row's count against the header's, as a call on the file does."""
        if not at.size:
            return
        names, lines = self.names, self.line + at
        text = b"".join(data[s:e + 1] for s, e in zip(starts[at].tolist(), ends[at].tolist()))
        texts = _EMPTY_FIELD.sub(b",nan", text).decode("utf-8", "replace").split("\n")[:at.size]
        try:
            table = np.loadtxt([",".join("0" * len(names)), *texts], delimiter=",", ndmin=2, comments=None)[1:]
        except ValueError as exc:
            if m := _BAD_FIELD.search(str(exc)):
                raise EventsFileError(f"{self.path}, line {lines[int(m[2]) - 1]}, column {names[int(m[3]) - 1]}: "
                                      f"{m[1]} is not a number") from None
            if m := _RAGGED_ROW.search(str(exc)):
                raise self.ragged(lines[int(m[2]) - 2], int(m[1])) from None
            raise EventsFileError(f"{self.path}: {exc}") from None
        for column, c in zip(self.data, EVENTS_COLUMNS):
            column[row[at]] = table[:, names.index(c)]
        # NaN, from an empty field, means "not recorded" in t1/t2 only
        fine = np.isfinite(table)
        for c in ("t1", "t2"):
            fine[:, names.index(c)] |= np.isnan(table[:, names.index(c)])
        if self.not_finite is None and not fine.all():
            i, col = np.argwhere(~fine)[0]
            self.not_finite = EventsFileError(f"{self.path}, line {lines[i]}, column {names[col]}: empty or not finite")


def _writer_rows(data, decode: bool):
    """The lines of the bytes `data`, whole lines but for a last one without
    its line end: each one's start and end (at its line end), its comma
    count and, if `decode`, the lines in the writer's form decoded by
    `_csvtext`, as their indices and their (5, n) values.

    A line is in the writer's form when it has five fields: an id of 1 to
    16 digits, and t_f, t_s, t1 and t2, each a "%.16e" text that
    `float_values` settles, t1 and t2 also empty; a "\r" may come before
    its line end.  A t1 or t2 text that repeats the t_f or t_s text of its
    row, as the writer's always do, takes that value.
    """
    n = len(data)
    buf = np.zeros(n + 2 * _PAD, np.uint8)
    text = buf[_PAD:_PAD + n]
    text[:] = np.frombuffer(data, np.uint8)
    marks = np.flatnonzero((text == ord(",")) | (text == ord("\n")))  # commas and line ends
    if n and data[-1] != ord("\n"):
        marks = np.append(marks, n)
    line_ends = np.flatnonzero(buf[marks + _PAD] != ord(","))  # in marks
    ends = marks[line_ends]
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.diff(line_ends, prepend=-1) - 1
    at = np.flatnonzero(commas == 4) if decode else np.empty(0, np.intp)
    # where each field of those lines starts and ends in buf, a row per
    # field; a "\r" before a line end is not in the last field
    cut = marks[line_ends[at] + np.arange(-4, 0)[:, None]] + _PAD  # the commas
    field = np.concatenate(((starts[at] + _PAD)[None], cut + 1))
    cr = (text[ends[at] - 1] == ord("\r")) & (ends[at] < n)
    stop = np.concatenate((cut, (ends[at] + _PAD - cr)[None]))
    width = stop - field
    words = np.ndarray((len(buf) - 7,), np.uint64, buf, strides=(1,))  # the 8 bytes from each byte on
    ids, id_settled = int_values([words[cut[0] - 16], words[cut[0] - 8]], width[0])
    # the three words of the t_f and t_s texts, and of the t1 and t2 texts
    first, second = ([words[field[j:j + 2] + offset] for offset in (0, 8, 16)] for j in (1, 3))
    times, settled = (a.reshape(2, -1) for a in float_values([a.ravel() for a in first], width[1:3].ravel()))
    # whether each t1/t2 text (axis 0) repeats the t_f or the t_s text (axis
    # 1); the shift drops the bytes after a t_f/t_s text from its last word
    after = (8 * (24 - width[1:3])).astype(np.uint64)
    same = ((((second[0][:, None] ^ first[0]) | (second[1][:, None] ^ first[1])
              | ((second[2][:, None] ^ first[2]) << after)) == 0) & (width[3:, None] == width[1:3]))
    empty = width[3:] == 0
    values = np.empty((5, len(at)))
    values[0] = ids
    values[1:3] = times
    values[3:] = np.where(same[:, 0], times[0], np.where(same[:, 1], times[1], np.nan))
    done = np.where(same[:, 0], settled[0], same[:, 1] & settled[1] | empty)
    rest = np.nonzero(~(same[:, 0] | same[:, 1] | empty))  # another text: decoded on its own
    if rest[0].size:
        values[3:][rest], done[rest] = float_values([a[rest] for a in second], width[3:][rest])
    # only t1 and t2 may be empty
    settled = id_settled & settled[0] & settled[1] & done[0] & done[1] & (width[1] > 0) & (width[2] > 0)
    return starts, ends, commas, at[settled], values[:, settled]


def _coincidences_and_counters(columns) -> tuple[np.ndarray, dict[str, int]]:
    """The coincidence differences t1 - t2, in row order, and the counters
    of `detection_pass`, from the t1/t2 columns of an events table (NaN =
    not recorded)."""
    hit_1, hit_2 = ~np.isnan(columns["t1"]), ~np.isnan(columns["t2"])
    both = hit_1 & hit_2
    counters = {
        "recorded_1": int(np.count_nonzero(hit_1)),
        "recorded_2": int(np.count_nonzero(hit_2)),
        "coincidences": int(np.count_nonzero(both)),
    }
    return columns["t1"][both] - columns["t2"][both], counters


def write_histogram_csv(path: str, hist) -> None:
    with open(path, "wb") as fh:
        fh.write(b"bin_lo,bin_hi,count\n")
        fh.write(rows([float_field(hist.edges[:-1]), float_field(hist.edges[1:]), int_field(hist.counts)]))


def _supported_fits(jobs) -> dict[str, FitResult]:
    """Run each (name, fit, sample) job; leave out a fit its sample cannot support."""
    fits = {}
    for name, fit, sample in jobs:
        with contextlib.suppress(InsufficientDataError):
            fits[name] = fit(sample)
    return fits


def _mle_fit_jobs(t_f, t_s, tau):
    """The MLE fit jobs of the report, each derived sample made for its fit only."""
    yield "first", fit_exponential_mle, t_f
    yield "second_interval", fit_exponential_mle, t_s - t_f
    yield "coincidence", fit_exponential_mle, np.abs(tau)


def detection_pass(records: np.ndarray, cfg: ExperimentConfig):
    """Every detection-derived result of a run, one CHUNK_MOLECULES chunk
    of the records at a time.

    Returns (histograms, tau, counters).  The histograms, keyed first,
    second, det1, det2, coincidence and detector (the detector-1 stream),
    share cfg's bin width; tau holds the coincidence differences in
    molecule order; counters hold the photons recorded at each detector and
    the molecules recorded at both.

    Apart from tau, a molecule enters every result only through its fates
    byte and the bins of its t_f and t_s.  So each chunk adds the counts
    of its (fates, bin) pairs, one `bincount` per time, to one table per
    time of 16 x (n_bins + 1) integers, the last column counting the times
    outside the range; each histogram is a sum of table rows, and each
    counter a sum of molecules per fates value.  They equal those of the
    whole-array detection records on the whole ensemble.
    """
    t_hi = cfg.t_max_lifetimes / cfg.rates.gamma
    width = t_hi / cfg.bins
    if not (width > 0 and np.isfinite(2 * t_hi)):  # the coincidence range spans 2 t_hi
        raise ConfigValidationError(["t_max_lifetimes", "gamma_inverse", "bins"],
                                    f"t_max_lifetimes * gamma_inverse = {t_hi:g} s in {cfg.bins} bins:"
                                    " the bin width or the coincidence range leaves the float range")
    size = 2 * _FATES.size * (cfg.bins + 1) * np.dtype(np.intp).itemsize
    try:
        if size > sys.maxsize:  # past what numpy can address
            raise MemoryError
        edges = histogram_edges(width, (0.0, t_hi))
        tau_edges = histogram_edges(width, (-t_hi, t_hi))
        row = len(edges)  # n_bins + 1 slots per fates value
        tables = np.zeros((2, _FATES.size * row), np.intp)
    except MemoryError:
        raise ConfigValidationError(
            ["bins"],
            f"bins = {cfg.bins} does not fit in memory: the detection pass counts"
            f" 2*16*(bins + 1) (fates, bin) pairs, {size / 2**30:.2f} GiB",
        ) from None
    tau_counts, taus = 0, []
    for start in range(0, len(records), CHUNK_MOLECULES):
        chunk = records[start:start + CHUNK_MOLECULES]
        fates = chunk["fates"].astype(np.intp)  # an intp index looks up tables fastest
        offset = fates * row
        for table, name in zip(tables, ("t_f", "t_s")):
            table += np.bincount(offset + bin_index(chunk[name], edges, t_hi, width), minlength=table.size)
        # t1 - t2 of the coincidences: one photon at each detector
        both = np.flatnonzero(_COINCIDENT[fates])
        t1_is_first = _RECORDED[0][fates[both]] == 1
        t_f, t_s = chunk["t_f"][both], chunk["t_s"][both]
        tau = np.where(t1_is_first, t_f, t_s) - np.where(t1_is_first, t_s, t_f)
        tau_counts += np.bincount(bin_index(tau, tau_edges, t_hi, width), minlength=len(tau_edges))
        taus.append(tau)
    by_first, by_second = tables.reshape(2, _FATES.size, row)  # the t_f and the t_s table
    (first_at_1, second_at_1), _ = _KEPT_AT
    counts = {
        "first": by_first.sum(axis=0),
        "second": by_second.sum(axis=0),
        "det1": by_first[_RECORDED[0] == 1].sum(axis=0) + by_second[_RECORDED[0] == 2].sum(axis=0),
        "det2": by_first[_RECORDED[1] == 1].sum(axis=0) + by_second[_RECORDED[1] == 2].sum(axis=0),
        "detector": by_first[first_at_1].sum(axis=0) + by_second[second_at_1].sum(axis=0),
    }
    hists = {name: Histogram(edges=edges, counts=c[:-1]) for name, c in counts.items()}
    hists["coincidence"] = Histogram(edges=tau_edges, counts=tau_counts[:-1])
    molecules = by_first.sum(axis=1)  # per fates value
    counters = {
        "recorded_1": int(molecules[_RECORDED[0] > 0].sum()),
        "recorded_2": int(molecules[_RECORDED[1] > 0].sum()),
        "coincidences": int(molecules[_COINCIDENT].sum()),
    }
    return hists, np.concatenate(taus), counters


def _simulate(cfg: ExperimentConfig) -> np.ndarray:
    """The ensemble of `cfg`; records too large for memory are a
    configuration error."""
    try:
        return simulate_ensemble(cfg)
    except MemoryError:
        size = cfg.n0 * EMISSION_DTYPE.itemsize
        raise ConfigValidationError(
            ["n0"],
            f"n0 = {cfg.n0} does not fit in memory: the event records take"
            f" {EMISSION_DTYPE.itemsize} B per molecule, {size / 2**30:.2f} GiB",
        ) from None


def _simulate_and_fit(cfg: ExperimentConfig, write_events: bool):
    """`run_experiment` up to report.json; also returns the histograms of
    the detection pass, from which `run_full` draws the overlays."""
    records = _simulate(cfg)  # validates cfg
    echo = _echo(cfg)  # before any output
    hists, tau, counters = detection_pass(records, cfg)
    out = _ensure_outdir(cfg)

    paths = {}
    if write_events:
        paths["events"] = os.path.join(out, "events.csv")
        write_events_csv(paths["events"], records)
    for name in ("first", "second", "det1", "det2", "coincidence"):
        p = os.path.join(out, f"hist_{name}.csv")
        write_histogram_csv(p, hists[name])
        paths[f"hist_{name}"] = p

    fits = _supported_fits(_mle_fit_jobs(records["t_f"], records["t_s"], tau))
    del tau
    # one detector stream at a time: each is dropped before the next is
    # built (an enumerate tuple would still hold it then)
    streams = detector_streams(records)
    for i in (1, 2):
        fits.update(_supported_fits([(f"detector_{i}", fit_cumulative_curve, next(streams))]))
    return _fit_report(echo, fits, paths, counters), hists


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
    tau, counters = _coincidences_and_counters(data)
    fits = _supported_fits(_mle_fit_jobs(data["t_f"], data["t_s"], tau))
    bundle = _fit_report(echo, fits, {"events": events_path}, counters)
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
    hists = detection_pass(_simulate(cfg), cfg)[0] if overlay else None
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
    for memory or too narrow for the states is a configuration error, and
    so are amplitude fields whose arithmetic leaves the float range; the
    output directory is made once the entries exist."""
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
            f" 16*n^2 bytes = {16 * n * n / 2**30:.2f} GiB, and the rate stage holds 3.5 of them",
        ) from None
    except DomainTruncationError as exc:
        raise ConfigValidationError(["amplitude.grid_span_factor"],
                                    f"amplitude.grid_span_factor is too small: {exc}") from None
    with open(os.path.join(_ensure_outdir(cfg), "rates.json"), "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries


def _rate_entries(cfg: ExperimentConfig, main_cases: bool, grid: SpatialGrid, chi, xi) -> list:
    """Build the two-atom state once on `grid`; one entry per report."""
    a = cfg.amplitude
    g = cfg.rates.gamma
    with _arithmetic_of("width_sum", "width_diff"):
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

    def study(params: dict, case: str, pair, **kwargs):
        result = property_case_rate(case, pair, **kwargs)
        add(params, result.report, result.interference_magnitude)

    if main_cases:
        add({"evolution": "identity"}, first_emission_rate_ratio(state))
        add({"evolution": "free-propagation", "dt": a.dt}, first_emission_rate_ratio(state, a.dt))
        for sep in a.separations:
            with _arithmetic_of("separations", "dt", "sigma", "recoil_k"):
                report = second_emission_rate_ratio(receding_pair(sep, a.dt, a.sigma), a.dt, a.recoil_k)
            add({"separation": sep, "dt": a.dt, "recoil_k": a.recoil_k, "sigma": a.sigma}, report)

    # the case studies.  Non-entangled initial state: symmetrized pair of
    # the packets (chi, xi), reported under both final-state conventions,
    # plus the identical-packet variant
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
    study({}, "prop2-nonsymmetrized", state)
    study({}, "prop3-entangled-final", state)
    study({"variant": "both-symmetric"}, "prop4-entangled-second", state)
    return entries


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
