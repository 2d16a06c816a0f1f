"""Stochastic per-molecule emission and detection events.

Two competing generation models feed the same analysis pipeline:

- ``sequential``: the first emission waits Exponential(gamma_f), the second
  waits a further Exponential(gamma_s) (the ordered two-stage cascade);
- ``independent``: two i.i.d. Exponential(gamma) lifetimes per molecule,
  ordered afterwards (a pair of atoms in product states).

At the compatibility point gamma_f = 2 gamma, gamma_s = gamma the two
models produce identically distributed (t_f, t_s) pairs; telling them
apart from any detection statistic is impossible, which is exactly the
disentanglement signature the analysis module tests for.

`simulate_ensemble` reads the fields of a `config.ExperimentConfig`,
whose rules live with it.  Every random draw is a counter-based function
of (seed, molecule_id), so results are byte-identical for any worker
count or chunking (see `twoatom._kernels`), and each piece of the records
is final once it is written: the draw lanes hash the pieces while the
other lanes count each one as it lands (`_lanes`).  Detection uses two
detectors hit with probability 1/2 each per photon and an efficiency
thinning, both decided by an integer compare of a draw.
What each detector records follows the single-hit rule (when both photons
land on one detector only the earlier is recorded), spelled once, as the
fates tables below; the per-detector streams keep every photon, and
are sorted inside the records' own memory once nothing else reads the
records.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from . import _kernels as kern
from . import grids
from .errors import InvalidParameterError

MODES = ("sequential", "independent")

#: `fates` packs the four photon fates drawn with the emission times.  A
#: record's molecule id is its row index: the records hold molecules 0...n0-1
EMISSION_DTYPE = np.dtype([("t_f", np.float64), ("t_s", np.float64), ("fates", np.uint8)])
#: bits of `fates`: the detector (0 or 1) each photon lands on, and whether
#: it survives the detector efficiency
FATE_DET_FIRST, FATE_DET_SECOND, FATE_KEEP_FIRST, FATE_KEEP_SECOND = 1, 2, 4, 8


#: the most molecules per piece of a pass over the records: a draw chunk's
#: raw block (2^14 x 6 uint64 draws, 768 KiB) stays in cache while all of
#: its slots are transformed
CHUNK_MOLECULES = 2**14


def piece_molecules(n0: int) -> int:
    """Molecules per piece of the passes over n0 records (the draws, the
    detection pass, the coincidence differences and the detector streams),
    which take one piece per thread at a time: about n0 / 64, a power of
    two from 2^11 to CHUNK_MOLECULES.  Their temporaries, tens of
    bytes per molecule, then stay small beside the records, and a large
    ensemble's pieces are long enough that the threads spend their time in
    numpy, not waiting for each other."""
    return min(max(1 << (n0 // 64).bit_length() >> 1, 2**11), CHUNK_MOLECULES)


def simulate_ensemble(cfg, tally=None) -> np.ndarray:
    """Per-molecule emission times and photon fates of the `ExperimentConfig`
    `cfg`, which it validates first, as a structured array; with `tally`,
    each piece is also counted as soon as it has landed.

    Returns records (t_f, t_s, fates) with t_f <= t_s, in seconds; row i
    holds molecule i.  Records past what numpy can address raise
    MemoryError, as records past the free memory do.  The draws are hashed
    once, in pieces of `piece_molecules`(n0) molecules, by `workers` lanes
    (see `_lanes`).  Each piece's values depend only on (seed,
    molecule_id), and the piece boundaries do not depend on the worker
    count, so the records are byte-identical for every worker count, and
    each piece is final once it is written.

    `tally(records, lanes)` is called once the records are allocated and
    before any draw is hashed, with the number of counting lanes; it
    returns ``count(lane, k)``, which a counting lane calls on piece k once
    that piece has landed.  The counting runs behind the draws, on the
    lanes past `workers` and on each draw lane once its own pieces are
    done.
    """
    cfg.validate()
    if cfg.n0 * EMISSION_DTYPE.itemsize > sys.maxsize:
        raise MemoryError
    records = np.empty(cfg.n0, dtype=EMISSION_DTYPE)
    _lanes(records, tally, cfg)
    return records


class _Landing:
    """Which pieces of a pass have landed, the next piece to count, and
    whether a lane of the pass has failed."""

    def __init__(self, pieces: int, landed: bool):
        self._changed = threading.Condition()
        self._landed = [landed] * pieces
        self._next = 0
        self._failed = False

    def land(self, k: int) -> bool:
        """Mark piece k landed; False once the pass has failed."""
        with self._changed:
            self._landed[k] = True
            self._changed.notify_all()
            return not self._failed

    def fail(self) -> None:
        with self._changed:
            self._failed = True
            self._changed.notify_all()

    def take(self):
        """The next piece in order, once it has landed; None once every piece
        is taken or the pass has failed."""
        with self._changed:
            k = self._next
            if k == len(self._landed) or self._failed:
                return None
            self._next += 1
            self._changed.wait_for(lambda: self._landed[k] or self._failed)
            return None if self._failed else k


def _lanes(records: np.ndarray, tally=None, cfg=None) -> None:
    """One pass over the `piece_molecules` pieces of `records`, in lanes
    spread by one `grids.spread` call, one thread each.

    With `cfg`, lane i < `workers` (cut to `grids.thread_count()` and to
    the pieces) hashes the pieces i, i + workers, ... and marks each one
    landed; without it every piece has landed.  With `tally`, lane i <
    `grids.threads_for`(piece * thread_count()) then counts pieces: it takes
    them in order from one shared counter, each once it has landed.  There
    are as many lanes as the larger of the two, so at one draw lane and
    one counting lane a single lane draws and then counts.  A lane that
    raises marks the pass failed and wakes every waiting lane, which stops
    without an error of its own; `spread` re-raises the exception, so no
    lane outlives the call.
    """
    step = piece_molecules(len(records))
    starts = range(0, len(records), step)
    draws = 0 if cfg is None else min(cfg.workers, grids.thread_count(), len(starts))
    counts = 0 if tally is None else min(grids.threads_for(step * grids.thread_count()), len(starts))
    count = tally(records, counts) if tally is not None else None
    keep = kern.keep_below(cfg.detector_efficiency) if cfg is not None else None
    landing = _Landing(len(starts), landed=cfg is None)

    def lane(share):
        for i in share:  # one lane: there are no more lanes than threads
            try:
                if i < draws:
                    for start in _fill_chunks(cfg, records, step, starts[i::draws], keep):
                        if not landing.land(start // step):
                            return
                if i < counts:
                    while (k := landing.take()) is not None:
                        count(i, k)
            except BaseException:
                landing.fail()
                raise

    lanes = max(draws, counts)
    grids.spread(lane, range(lanes), lanes)


def _fill_chunks(cfg, records: np.ndarray, step: int, starts, keep):
    """Hash the chunks of `step` molecules beginning at `starts`, write
    their records, and yield each start once its chunk is written.

    One slot-major draw buffer serves every chunk of the call; each slot's
    draws are a contiguous column, which the wait transforms overwrite.
    The fates bits are integer compares of the draws, one row of a bool
    buffer each: a detector bit is the draw's top bit, and a photon is
    kept where ``compare(draw, bound)`` of `keep`, `kern.keep_below` of the
    detector efficiency, holds.
    """
    rates = cfg.rates
    buffer = np.empty((kern.DRAWS_PER_MOLECULE, step), dtype=np.uint64)
    # row j holds bit 1 << j of `fates` (FATE_DET_FIRST, FATE_DET_SECOND,
    # FATE_KEEP_FIRST, FATE_KEEP_SECOND); seen as uint64 words, a shift by
    # j < 8 moves each 0/1 byte's bit within its byte
    bits = np.zeros((4, step), dtype=bool)
    words = bits.view(np.uint64)
    kept, bound = keep

    def wait(column, rate):
        """-log(u) / rate of the uniforms u of a slot's draws, in their
        column, as log(u) / -rate: IEEE division is symmetric in sign, so
        the bits are the same, in one pass fewer."""
        t = kern.to_open_uniform(column)
        np.log(t, out=t)
        t /= -rate
        return t

    for start in starts:
        chunk = records[start:start + step]
        n = len(chunk)
        raw = kern.raw_draws(cfg.seed, start, n, out=buffer[:, :n].T)
        np.greater_equal(raw[:, kern.SLOT_DETECTOR_FIRST], kern.TOP_BIT, out=bits[0, :n])
        np.greater_equal(raw[:, kern.SLOT_DETECTOR_SECOND], kern.TOP_BIT, out=bits[1, :n])
        kept(raw[:, kern.SLOT_EFFICIENCY_FIRST], bound, out=bits[2, :n])
        kept(raw[:, kern.SLOT_EFFICIENCY_SECOND], bound, out=bits[3, :n])
        for j in (1, 2, 3):
            words[j] <<= j
            words[0] |= words[j]
        chunk["fates"] = bits[0, :n].view(np.uint8)
        if cfg.mode == "sequential":
            t_f = wait(raw[:, kern.SLOT_LIFETIME_A], rates.gamma_f)
            chunk["t_f"] = t_f
            np.add(t_f, wait(raw[:, kern.SLOT_LIFETIME_B], rates.gamma_s), out=chunk["t_s"])
        else:
            life_a = wait(raw[:, kern.SLOT_LIFETIME_A], rates.gamma)
            life_b = wait(raw[:, kern.SLOT_LIFETIME_B], rates.gamma)
            np.minimum(life_a, life_b, out=chunk["t_f"])
            np.maximum(life_a, life_b, out=chunk["t_s"])
        yield start


def _kept_at(fates: np.ndarray, detector: int):
    """Masks of the first and of the second photons kept at `detector`."""
    first = (fates & (FATE_KEEP_FIRST | FATE_DET_FIRST)) == (FATE_KEEP_FIRST | detector * FATE_DET_FIRST)
    second = (fates & (FATE_KEEP_SECOND | FATE_DET_SECOND)) == (FATE_KEEP_SECOND | detector * FATE_DET_SECOND)
    return first, second


#: every value of the fates byte
_FATES = np.arange(2 * FATE_KEEP_SECOND, dtype=np.uint8)
#: per detector, the masks over _FATES of the first and of the second
#: photons kept there
_KEPT_AT = [_kept_at(_FATES, detector) for detector in (0, 1)]
#: per detector, the photon that the single-hit rule records there for each
#: fates value: 0 none, 1 the first, 2 the second
_RECORDED = [np.select(masks, (1, 2)) for masks in _KEPT_AT]
#: the fates values with a photon recorded at both detectors
_COINCIDENT = (_RECORDED[0] > 0) & (_RECORDED[1] > 0)


#: per fates value, the sign its first and its second photon's time takes
#: in `sorted_detector_streams`: + at detector 1, - at detector 2
_SIGNS = [np.where(_FATES & bit, -1.0, 1.0) for bit in (FATE_DET_FIRST, FATE_DET_SECOND)]
#: per fates value, whether its first and whether its second photon is kept
_KEPT = [(_FATES & bit) != 0 for bit in (FATE_KEEP_FIRST, FATE_KEEP_SECOND)]


def sorted_detector_streams(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All kept photon times per detector, each stream sorted, written over
    the records' own bytes: returns the detector-1 and the detector-2
    stream as views of `records`, which they consume.  The times must be
    nonnegative, as every emission time is.

    Every kept photon is registered, also the second one of a pair that
    lands on one detector: the count pattern the per-detector cumulative
    fit assumes.  One pass over the fates counts each `piece_molecules`
    piece's molecules per fates value, which gives each piece the place
    its photons go.  Then, piece by piece in order, the kept times are
    written over the records as float64, a detector-2 time negated: at
    most 16 B per molecule where each molecule's record takes 17, so the
    writes trail the reads.  A piece whose writes reach its own bytes (one
    of the first 16) is copied before use, and the pieces whose writes all
    land below the first one's bytes are filled together, spread over
    `grids.threads_for` threads.  One sort then gives [detector 2 negated and
    reversed | detector 1]; detector 2's part is negated and reversed in
    place, block by block, and any zero time is made +0.0, so each stream
    has the bytes of ``np.sort`` of it.
    """
    size = piece_molecules(len(records))
    starts = range(0, len(records), size)
    per_fates = np.empty((len(starts), _FATES.size), np.intp)  # per piece

    def count(share):
        for k in share:
            per_fates[k] = np.bincount(records["fates"][starts[k]:starts[k] + size], minlength=_FATES.size)

    threads = grids.threads_for(size * grids.thread_count())
    grids.spread(count, range(len(starts)), threads)
    kept = [per_fates[:, mask].sum(axis=1) for mask in _KEPT]  # per piece: first and second photons kept
    written = 8 * np.cumsum(kept[0] + kept[1])  # the byte where each piece's writes end
    times = records.view(np.uint8)[:written[-1] if len(written) else 0].view(np.float64)
    itemsize = EMISSION_DTYPE.itemsize

    def fill(share):
        for k in share:
            piece = records[starts[k]:starts[k] + size]
            if written[k] > itemsize * starts[k]:  # its writes reach its own bytes
                piece = piece.copy()
            fates = piece["fates"].astype(np.intp)  # an intp index looks up tables fastest
            at = written[k] // 8 - kept[0][k] - kept[1][k]
            for name, signs, here, n in zip(("t_f", "t_s"), _SIGNS, _KEPT, (kept[0][k], kept[1][k])):
                signed = signs[fates]
                signed *= piece[name]
                np.compress(here[fates], signed, out=times[at:at + n])
                at += n

    k = 0
    while k < len(starts):
        # the pieces from k on whose writes end below piece k's bytes, at least piece k
        wave = max(k + 1, int(np.searchsorted(written, itemsize * starts[k], side="right")))
        grids.spread(fill, range(k, wave), threads)
        k = wave
    grids.sort_in_place(times)
    at_2 = int(sum(per_fates[:, mask].sum() for mask in _KEPT_AT[1]))
    second, first = times[:at_2], times[at_2:]
    half = at_2 // 2

    def swap(rows):  # the items [lo, hi) of `second` with their mirror images, both negated
        lo, hi = rows.start, min(rows.stop, half)
        mirror = second[at_2 - hi:at_2 - lo]
        low = -second[lo:hi][::-1]
        np.negative(mirror[::-1], out=second[lo:hi])
        mirror[...] = low

    grids.each_block(swap, half, CHUNK_MOLECULES)
    if at_2 % 2:
        second[half] = -second[half]
    for stream in (first, second):  # sorted: any zeros lead
        stream[:np.searchsorted(stream, 0.0, side="right")] = 0.0
    return first, second


def histogram_edges(bin_width: float, t_range: tuple[float, float]) -> np.ndarray:
    """Edges lo + k * bin_width, k = 0...n_bins, of the fewest fixed-width
    bins from lo that cover [lo, hi)."""
    if not bin_width > 0:
        raise InvalidParameterError("bin_width must be positive")
    lo, hi = float(t_range[0]), float(t_range[1])
    if not hi > lo:
        raise InvalidParameterError("empty time range")
    n_bins = int(np.ceil((hi - lo) / bin_width - 1e-9))
    return lo + bin_width * np.arange(n_bins + 1)


def bin_index(x: np.ndarray, edges: np.ndarray, hi: float, bin_width: float) -> np.ndarray:
    """The bin of each value of `x` among `histogram_edges`' n_bins bins.

    floor((x - lo) / bin_width), clipped to n_bins - 1, for values in
    [lo, hi); n_bins for every other value, NaN included.  The clipping is
    done in float, so no value far outside the range reaches the integer
    cast.
    """
    lo, n_bins = edges[0], len(edges) - 1
    q = np.fmax(x, lo)  # NaN goes to lo
    np.fmin(q, hi, out=q)
    q -= lo
    q /= bin_width
    np.floor(q, out=q)
    np.minimum(q, n_bins - 1, out=q)
    idx = q.astype(np.intp)
    del q
    idx[~((x >= lo) & (x < hi))] = n_bins
    return idx
