"""The CSV text of floats and counts, the events.csv writer built on it,
and the decoding of those texts back to numbers.

`"%.16e" %` and `"%d" %` are the oracles of every byte: the numpy text
must equal them for every double, and events.csv must equal the file that
one `%` string per time gives (`oracles.write_events_csv_per_value`).
``np.loadtxt`` is the oracle of every value read back: a text the decoder
settles reads as loadtxt's double, bit for bit.
"""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import eventsio, grids
from twoatom._csvtext import READ_EXPONENTS, FAST_RANGE, _digits, float_field, float_values, int_field, int_values, rows
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
    got = eventsio._event_rows(records, 6 * CHUNK_MOLECULES).tobytes().splitlines()
    lines = events_bytes(tmp_path, records, write_events_csv_per_value).splitlines()
    assert got == lines[1 + 6 * CHUNK_MOLECULES:]
    assert got[10**5 - 1 - 6 * CHUNK_MOLECULES].startswith(b"99999,")
    assert got[10**5 - 6 * CHUNK_MOLECULES].startswith(b"100000,")


def decoded(texts):
    """`float_values` of the byte strings `texts`, read as the words of
    their first 24 bytes (padded with the comma a field ends with), and
    loadtxt's value of each."""
    padded = np.frombuffer(b"".join(t.ljust(24, b",")[:24] for t in texts), np.uint8).reshape(-1, 24)
    words = padded.copy().view(np.uint64)
    x, settled = float_values([words[:, i].copy() for i in range(3)], np.array([len(t) for t in texts]))
    want = np.loadtxt([t.decode() for t in texts], ndmin=1)
    return x, settled, want


def assert_settled_bits_equal(texts):
    x, settled, want = decoded(texts)
    assert np.array_equal(x[settled].view(np.uint64), want[settled].view(np.uint64))
    return settled, want


#: the exponents at the ends of the table and of the 2- and 3-digit texts
EXPONENT_EDGES = [b"1.2345678901234567e%+03d" % e for e in (
    READ_EXPONENTS[0] - 1, READ_EXPONENTS[0], -100, -99, -10, -9, -1, 0, 1, 9, 10, 99, 100,
    READ_EXPONENTS[1], READ_EXPONENTS[1] + 1)] + [b"9.9999999999999999e+307", b"9.9999999999999999e-253"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0x3FF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
          0x8000000000000000, 0xBFF0000000000000, 0x7FF0000000000000])
def test_decoded_percent_texts_of_bit_patterns_equal_loadtxt(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    if values.size:
        settled, want = assert_settled_bits_equal([b"%.16e" % v for v in values.tolist()])
        # zero, negative and subnormal texts, and those outside the table,
        # are handed over
        inside = (want >= 10.0**READ_EXPONENTS[0]) & (want < 10.0**(READ_EXPONENTS[1] + 1))
        assert not settled[~inside].any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["sequential", "independent"]))
def test_decoded_emission_times_equal_loadtxt(seed, mode):
    records = simulate_ensemble(ExperimentConfig(n0=200, seed=seed, mode=mode))
    texts = [b"%.16e" % v for v in np.concatenate((records["t_f"], records["t_s"])).tolist()]
    settled, _ = assert_settled_bits_equal(texts)
    assert settled.all()  # no emission time is handed over


def midpoint_texts(x: float, offsets=range(-2, 3)) -> list[bytes]:
    """17-digit texts around the midpoint between the double x and the
    next one up: its digits rounded down, plus `offsets` in the last digit."""
    mid = Fraction(x) + Fraction(np.spacing(x)) / 2
    e = int(np.floor(np.log10(x)))  # its decimal exponent, or one off
    while mid >= Fraction(10) ** (e + 1):
        e += 1
    while mid < Fraction(10) ** e:
        e -= 1
    digits = int(mid / Fraction(10) ** (e - 16))
    texts = []
    for d in offsets:
        m = digits + d
        if 10**16 <= m < 10**17:
            text = str(m)
            texts.append(f"{text[0]}.{text[1:]}e{e:+03d}".encode())
    return texts


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=10.0**READ_EXPONENTS[0], max_value=1e300) | st.floats(1e-12, 1e-6))
@example(1.6e-9)
@example(2.0**54)  # 2^54 + 2 is a tie of 17 digits
@example(2.0**52)  # and 2^52 + 0.5
@example(1e23)
# exponents of 2 and 3 digits, and the ends of the table
@example(1e99)
@example(1e100)
@example(1e-100)
@example(10.0**READ_EXPONENTS[0])
@example(9.99e307)
def test_decoded_texts_next_to_binary_midpoints_equal_loadtxt(x):
    texts = midpoint_texts(x)
    settled, want = assert_settled_bits_equal(texts)
    # a text that is a midpoint itself, a tie, is handed over
    ties = [Fraction(t.decode()) == Fraction(x) + Fraction(np.spacing(x)) / 2 for t in texts]
    assert not settled[ties].any()


@pytest.mark.parametrize("text", EXPONENT_EDGES)
def test_decoded_exponents_at_the_edges(text):
    settled, want = assert_settled_bits_equal([text])
    e = int(text[19:])
    assert settled[0] == (READ_EXPONENTS[0] <= e <= READ_EXPONENTS[1])


@pytest.mark.parametrize("text", [
    b"0.0000000000000000e+00", b"-1.6000000000000000e-09", b"4.9406564584124654e-324",
    b"2.2250738585072009e-308", b"1.6e-09", b"1.6000000000000000E-09", b"01.600000000000000e-09",
    b"1.6000000000000000e+9", b" 1.600000000000000e-09", b"1.60000000000000000e-09", b"1,6000000000000000e-09",
    b"1.600000000000000x-09", b"1.6000000000000000e*09", b"inf", b"nan",
])
def test_decoded_texts_outside_the_writers_form_are_handed_over(text):
    assert not float_values(*[[np.frombuffer(text.ljust(24, b",")[:24], np.uint64)[i:i + 1] for i in range(3)],
                              np.array([len(text)])])[1][0]


@given(st.lists(st.integers(0, 10**16 - 1), min_size=1, max_size=40))
@example([0, 9, 10, 99, 10**8 - 1, 10**8, 10**15, 10**16 - 1])
def test_decoded_int_texts_equal_their_numbers(values):
    texts = [b"%d" % v for v in values] + [b"", b"12345678901234567", b"1a", b"-1", b"+1", b"1.0"]
    ends = np.frombuffer(b"".join(t.rjust(16, b"\n")[-16:] for t in texts), np.uint8).reshape(-1, 16)
    words = ends.copy().view(np.uint64)
    got, settled = int_values([words[:, 0].copy(), words[:, 1].copy()], np.array([len(t) for t in texts]))
    assert settled.tolist() == [True] * len(values) + [False] * 6
    assert got[:len(values)].tolist() == values
