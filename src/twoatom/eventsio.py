"""The events.csv byte format, written and read one block at a time, and
the histogram tables; every field's text is made and read by `_csvtext`."""

from __future__ import annotations

import functools
import re

import numpy as np

from . import grids
from ._csvtext import Field, float_field, float_values, int_field, int_values, rows
from .errors import EventsFileError
from .eventsim import _RECORDED, CHUNK_MOLECULES


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
    EVENTS_COLUMNS, columns that do not fit in memory (with the bytes
    they need), and, naming the line and the column as well, for a
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
        try:
            self.data = [np.empty(size) for _ in EVENTS_COLUMNS]  # one array per column, so each can go alone
        except MemoryError:
            raise EventsFileError(f"{path} does not fit in memory: its {size} lines take {len(EVENTS_COLUMNS)} columns"
                                  f" of 8 B per line, {len(EVENTS_COLUMNS) * 8 * size / 2**30:.2f} GiB") from None
        self.rows = 0  # rows filled
        self.line = 2  # the file line of the next block's first line
        # the first empty or non-finite field outside t1/t2: loadtxt reads
        # every field before it checks one, so a later field that is not a
        # number is reported instead
        self.not_finite = None

    def columns(self) -> dict[str, np.ndarray]:
        if self.not_finite:
            raise self.not_finite
        return {c: column[:self.rows] for c, column in zip(EVENTS_COLUMNS, self.data)}

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
        for column, value in zip(self.data, values):
            column[row[decoded]] = value
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


def write_histogram_csv(path: str, hist) -> None:
    with open(path, "wb") as fh:
        fh.write(b"bin_lo,bin_hi,count\n")
        fh.write(rows([float_field(hist.edges[:-1]), float_field(hist.edges[1:]), int_field(hist.counts)]))
