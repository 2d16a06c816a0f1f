"""The CSV text of floats and counts, and the events.csv writer built on it.

`"%.16e" %` and `"%d" %` are the oracles of every byte: the numpy text
must equal them for every double, and events.csv must equal the file that
one `%` string per time gives (`oracles.write_events_csv_per_value`).
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import grids, pipeline
from twoatom._csvtext import FAST_RANGE, _digits, float_field, int_field, rows
from twoatom.eventsim import CHUNK_MOLECULES, simulate_ensemble
from twoatom.pipeline import ExperimentConfig, write_events_csv

from oracles import write_events_csv_per_value


def percent_lines(values, fmt="%.16e"):
    return "".join(fmt % v + "\n" for v in values).encode()


def float_lines(values):
    return rows([float_field(np.array(values, dtype=np.float64))]).tobytes()


def neighbours(x, steps=1):
    """x and the `steps` doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


#: decimal ties: 10 x = ...2.5 and ...7.5, which "%.16e" rounds to even
TIES = [1000000000000000.25, 1000000000000000.75, 2251799813685247.5]
#: around powers of ten, where the rounded product can land on the
#: other side of the decade
POWERS_OF_TEN = [v for p in (-280, -100, -9, -5, -1, 0, 1, 16, 17, 22, 23, 100, 279)
                 for v in neighbours(float(f"1e{p}"), steps=2)]
#: 3-digit exponents, zero, subnormals, negatives, non-finite values and
#: the ends of the range formatted in numpy
SPECIAL = [1.2345678901234567e-150, 1e200, 1.7976931348623157e308, 2.2250738585072014e-308,
           0.0, -0.0, 5e-324, 2.5e-320, -1.5e-9, -1e300, float("nan"), float("inf"), float("-inf"),
           *FAST_RANGE, float(np.nextafter(FAST_RANGE[1], 0)), float(np.nextafter(FAST_RANGE[0], 0))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
@example(TIES)
@example(POWERS_OF_TEN)
@example(SPECIAL)
def test_float_text_is_that_of_percent(values):
    assert float_lines(values) == percent_lines(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0x3FF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
          0x8000000000000000, 0x7FF8000000000001, 0xFFF0000000000000])
def test_float_text_of_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert float_lines(values) == percent_lines(values.tolist())


def test_a_decimal_tie_goes_to_percent():
    # 10 * 1000000000000000.75 = 10000000000000007.5 exactly: the numpy
    # rounding, up only above a half, would give ...7; "%.16e" rounds
    # half to even, ...8
    x = np.array([1000000000000000.75, 1.6e-9])
    _, _, unsettled = _digits(x)
    assert unsettled.tolist() == [True, False]
    assert float_lines(x) == percent_lines(x.tolist())
    assert float_lines(x).startswith(b"1.0000000000000008e+15\n")


def test_emission_times_go_through_numpy_alone():
    # the hand-over is for ties and rare values, not for the events
    records = simulate_ensemble(ExperimentConfig(n0=CHUNK_MOLECULES, seed=8))
    for name in ("t_f", "t_s"):
        _, _, unsettled = _digits(records[name])
        assert not unsettled.any()


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
@example([0, 9, 10, 99, 100, 9999, 10**4, 10**8 - 1, 10**8, 10**16, 2**63 - 1])
def test_int_text_is_that_of_percent(values):
    assert rows([int_field(np.array(values))]).tobytes() == percent_lines(values, "%d")


def test_rows_join_fields_with_commas():
    got = rows([int_field([7, 123]), float_field([0.5, -2.0]), int_field([0, 45])]).tobytes()
    assert got == b"7,5.0000000000000000e-01,0\n123,-2.0000000000000000e+00,45\n"
    assert rows([int_field(np.array([], np.int64)), float_field([])]).tobytes() == b""


def events_bytes(tmp_path, records, writer=write_events_csv):
    path = os.path.join(tmp_path, f"events-{writer.__name__}.csv")
    writer(path, records)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("mode", ["sequential", "independent"])
def test_events_csv_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, mode):
    cfg = ExperimentConfig(n0=3 * CHUNK_MOLECULES + 7, mode=mode, seed=31, detector_efficiency=0.7)
    records = simulate_ensemble(cfg)
    want = events_bytes(tmp_path, records, write_events_csv_per_value)
    for threads in (1, 3):
        monkeypatch.setattr(grids, "thread_count", lambda: threads)
        assert events_bytes(tmp_path, records) == want, threads


def test_a_chunk_across_a_power_of_ten_in_the_molecule_id(tmp_path):
    # the chunk from 6 * 2^14 = 98304 holds ids of 5 and of 6 digits
    records = simulate_ensemble(ExperimentConfig(n0=10**5 + 5, seed=12, detector_efficiency=0.7))
    got = pipeline._event_rows(records, 6 * CHUNK_MOLECULES).tobytes().splitlines()
    lines = events_bytes(tmp_path, records, write_events_csv_per_value).splitlines()
    assert got == lines[1 + 6 * CHUNK_MOLECULES:]
    assert got[10**5 - 1 - 6 * CHUNK_MOLECULES].startswith(b"99999,")
    assert got[10**5 - 6 * CHUNK_MOLECULES].startswith(b"100000,")
