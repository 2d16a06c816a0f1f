"""Counter-based random-draw kernels.

Every random number consumed by the event simulation is a pure function of
(seed, molecule_id, slot): the 64-bit draw is the splitmix64 finalizer
applied at counter molecule_id * DRAWS_PER_MOLECULE + slot.  This makes
generation embarrassingly parallel and byte-reproducible for any chunking
or worker count, and each chunk of draws final once it is written.  The
uniforms sit on top of the integer hash and overwrite the draws they come
from; the fair bits and the efficiency decisions are integer compares of
the draws themselves (`TOP_BIT`, `keep_below`), with the bits of the
uniform compares they replace.
"""

from __future__ import annotations

import numpy as np

#: fixed per-molecule draw layout
DRAWS_PER_MOLECULE = 6
SLOT_LIFETIME_A = 0  # sequential: first-emission wait; independent: lifetime A
SLOT_LIFETIME_B = 1  # sequential: second-emission wait; independent: lifetime B
SLOT_DETECTOR_FIRST = 2
SLOT_DETECTOR_SECOND = 3
SLOT_EFFICIENCY_FIRST = 4
SLOT_EFFICIENCY_SECOND = 5

# splitmix64 increment and finalizer multipliers, kept as uint64 scalars so
# the hash is pure wrapping uint64 arithmetic
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_DRAWS_U = np.uint64(DRAWS_PER_MOLECULE)
_DRAWS_GAMMA = np.uint64(DRAWS_PER_MOLECULE * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
_BELOW_ONE = 1.0 - 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied in place to a uint64 array."""
    t = z >> _S30
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _seed_key(seed: int) -> np.uint64:
    # array form: numpy warns on scalar uint64 overflow but not on arrays
    z = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return _mix64(z)[0]


def raw_draws(seed: int, start_molecule: int, n_molecules: int, out=None) -> np.ndarray:
    """(n_molecules, DRAWS_PER_MOLECULE) uint64 draws for a contiguous id range.

    The draws are hashed slot-major: the result is the transposed view of
    a (DRAWS_PER_MOLECULE, n_molecules) array, so each slot's column is
    contiguous.  `out`, such a view of a slot-major buffer, receives the
    draws if given: a caller hashing many chunks reuses one buffer instead
    of faulting in fresh pages for every chunk.
    """
    if out is None:
        out = np.empty((DRAWS_PER_MOLECULE, n_molecules), dtype=np.uint64).T
    # key + (counter + 1) * GAMMA at counter (start + i) * 6 + slot is
    # i * 6 GAMMA + [key + (start * 6 + slot + 1) * GAMMA]; uint64
    # arithmetic wraps, so the order of the additions does not change a bit
    slots = np.arange(1, DRAWS_PER_MOLECULE + 1, dtype=np.uint64)
    slots += np.uint64(start_molecule) * _DRAWS_U
    slots *= _GAMMA
    slots += _seed_key(seed)
    steps = np.arange(n_molecules, dtype=np.uint64)
    steps *= _DRAWS_GAMMA
    z = out.T
    np.add(steps, slots[:, None], out=z)
    _mix64(z)
    return out


def backend_name() -> str:
    """Kernel implementation recorded in the report's config echo."""
    return "numpy"


def to_open_uniform(raw: np.ndarray) -> np.ndarray:
    """Map uint64 draws to doubles in the open interval (0, 1), in place:
    the uniforms overwrite the draws, and the result is `raw`'s memory
    viewed as float64, with no temporary.

    ((raw >> 11) + 0.5) * 2^-53 is never 0, so inverse-CDF exponential
    sampling never evaluates log(0).  For raw >> 11 == 2^53 - 1 the sum
    rounds up to 2^53, so the result is clamped to 1 - 2^-53, the largest
    double below 1: an efficiency of 1 then keeps every photon.
    """
    np.right_shift(raw, np.uint64(11), out=raw)
    u = raw.view(np.float64)
    u[...] = raw  # exact, below 2^53; numpy casts the same memory in place
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


#: a draw at or above it has its top bit set: the fair 0/1 decision
TOP_BIT = np.uint64(2**63)


def keep_below(probability: float):
    """(compare, bound) with ``compare(raw, bound)`` equal to
    ``to_open_uniform(raw) < probability`` for every uint64 draw `raw`.

    The uniform is a nondecreasing function u(raw >> 11), so the draws it
    keeps are those below K * 2^11, where K is the least k in [0, 2^53]
    with u(k) >= probability, found by bisection through `to_open_uniform`
    itself.  K = 0 keeps nothing; K = 2^53 keeps every draw, and as 2^64
    is past uint64 its compare is ``raw <= 2^64 - 1``.
    """
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if to_open_uniform(np.array([mid << 11], np.uint64))[0] >= probability:
            hi = mid
        else:
            lo = mid + 1
    return (np.less, np.uint64(lo << 11)) if lo < 2**53 else (np.less_equal, np.uint64(2**64 - 1))
