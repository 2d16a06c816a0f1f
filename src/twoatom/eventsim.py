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


def pieces(n0: int) -> tuple[range, int]:
    """The starts of the pieces of the passes over n0 records (the draws,
    the detection pass, the coincidence differences and the detector
    streams), whose step is the piece size, and the threads that the
    detection pass spreads them over.  A piece takes about n0 / 64
    molecules, a power of two from 2^11 to CHUNK_MOLECULES: its
    temporaries, tens of bytes per molecule, then stay small beside the
    records, and a large ensemble's pieces are long enough that the
    threads spend their time in numpy, not waiting for each other.  The
    threads are `grids.threads_for` the molecules of one piece per thread,
    at most one per piece.  The detector streams take the pieces in order
    on the calling thread: their table lookups hold the interpreter lock."""
    step = min(max(1 << (n0 // 64).bit_length() >> 1, 2**11), CHUNK_MOLECULES)
    starts = range(0, n0, step)
    return starts, min(grids.threads_for(step * grids.thread_count()), len(starts))


def simulate_ensemble(cfg, tally=None) -> np.ndarray:
    """Per-molecule emission times and photon fates of the `ExperimentConfig`
    `cfg`, which it validates first, as a structured array; with `tally`,
    each piece is also counted as soon as it has landed.

    Returns records (t_f, t_s, fates) with t_f <= t_s, in seconds; row i
    holds molecule i.  Records past what numpy can address raise
    MemoryError, as records past the free memory do.  The draws are hashed
    once, over the `pieces` of n0, by `workers` lanes (see `_lanes`).
    Each piece's values depend only on (seed, molecule_id), and the piece
    boundaries do not depend on the worker count, so the records are
    byte-identical for every worker count, and each piece is final once
    it is written.

    `tally(records)` is called once the records are allocated and before
    any draw is hashed; it returns ``count(k)``, which a counting lane
    calls on piece k once that piece has landed, from any thread.  The
    counting runs behind the draws, on the lanes past `workers` and on
    each draw lane once its own pieces are done.
    """
    cfg.validate()
    if cfg.n0 * EMISSION_DTYPE.itemsize > sys.maxsize:
        raise MemoryError
    records = np.empty(cfg.n0, dtype=EMISSION_DTYPE)
    _lanes(records, cfg, tally)
    return records


class _Landing:
    """Which pieces of a pass have landed, the next piece to count, and
    whether a lane of the pass has failed."""

    def __init__(self, n_pieces: int):
        self._changed = threading.Condition()
        self._landed = [False] * n_pieces
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


def _lanes(records: np.ndarray, cfg, tally=None) -> None:
    """One pass over the `pieces` of `records`, in lanes that one
    `grids.spread` call maps, one thread each.

    Lane i < `workers` (cut to `grids.thread_count()` and to the pieces)
    hashes the pieces i, i + workers, ... and marks each one landed.  With
    `tally`, the first lanes, one per thread of the `pieces`, then count
    pieces: each takes them in order from one shared counter, each once it
    has landed.  There are as many lanes as the larger of the two, so at
    one draw lane and one counting lane a single lane draws and then
    counts.  A lane that raises marks the pass failed and wakes every
    waiting lane, which stops without an error of its own; `spread`
    re-raises the exception, so no lane outlives the call.
    """
    starts, threads = pieces(len(records))
    step = starts.step
    draws = min(cfg.workers, grids.thread_count(), len(starts))
    counts = threads if tally is not None else 0
    count = tally(records) if tally is not None else None
    keep = kern.keep_below(cfg.detector_efficiency)
    landing = _Landing(len(starts))

    def lane(i):
        try:
            if i < draws:
                for start in _fill_chunks(cfg, records, step, starts[i::draws], keep):
                    if not landing.land(start // step):
                        return
            if i < counts:
                while (k := landing.take()) is not None:
                    count(k)
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
#: in `sorted_detector_streams`: + at detector 1, - at detector 2, which
#: ``np.copysign`` sets in the time's sign bit
_SIGNS = [np.where(_FATES & bit, -1.0, 1.0) for bit in (FATE_DET_FIRST, FATE_DET_SECOND)]
#: per fates value, whether its first and whether its second photon is kept
_KEPT = [(_FATES & bit) != 0 for bit in (FATE_KEEP_FIRST, FATE_KEEP_SECOND)]
#: the sign bit of a float64 seen as a uint64
_SIGN_BIT = np.uint64(2**63)


def sorted_detector_streams(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All kept photon times per detector, each stream sorted, written over
    the records' own bytes: returns the detector-1 and the detector-2
    stream as views of `records`, which they consume.  The times must be
    nonnegative, as every emission time is.

    Every kept photon is registered, also the second one of a pair that
    lands on one detector: the count pattern the per-detector cumulative
    fit assumes.  The `pieces` are taken in order; each is read whole, and
    then its kept times, with the sign bit set at detector 2, are written
    as float64 after the pieces before it.  A piece's writes end at most
    at byte 16 (start + size), below the next piece's first byte at
    17 (start + size).  One sort of the written times' bit patterns then
    puts detector 1's (sign bit clear) first, ascending, and detector 2's
    after them, ascending in magnitude; clearing detector 2's sign bits
    gives each stream the bytes of ``np.sort`` of it, zeros reading +0.0.
    """
    starts = pieces(len(records))[0]
    times = records.view(np.uint8)[:16 * len(records)].view(np.float64)
    at = 0
    for start in starts:
        piece = records[start:start + starts.step]
        fates = piece["fates"].astype(np.intp)  # an intp index looks up tables fastest
        parts = [np.compress(kept[fates], np.copysign(piece[name], signs[fates]))
                 for name, signs, kept in zip(("t_f", "t_s"), _SIGNS, _KEPT)]
        for part in parts:
            times[at:at + part.size] = part
            at += part.size
    bits = times[:at].view(np.uint64)
    grids.sort_in_place(bits)
    at_1 = int(np.searchsorted(bits, _SIGN_BIT))
    bits[at_1:] &= ~_SIGN_BIT
    return times[:at_1], times[at_1:at]


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
