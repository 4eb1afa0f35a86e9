"""Seeded orders that the package defines itself.

The solver's epochs and the folds of ``evaluate --pair-unit fold`` sort
their items by a 64-bit key of (seed, epoch, item). With mix the splitmix64
finalizer (Steele, Lea & Flood, OOPSLA 2014) and gamma its odd increment
0x9E3779B97F4A7C15, all mod 2**64:

    base = mix(mix(seed) + epoch)
    key(item) = mix(base + (item + 1) * gamma)

so the keys of items 0, 1, 2, ... are the outputs of the splitmix64
generator started at state base. mix is a bijection on 64-bit words and
gamma is odd, so the distinct items of one epoch get distinct keys: an
order has no ties, and it does not depend on the order the items came in.
The definition fixes every order, where NEP 19 lets a numpy.random stream
change between numpy releases, and computing one does not import
numpy.random. An epoch's base is one word, computed in Python ints masked to
64 bits; the keys are computed on uint64 arrays, which wrap silently where
numpy's uint64 scalars warn.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Seeds are 64-bit words: 0..SEED_LIMIT-1.
SEED_LIMIT = 2**64

_MASK = SEED_LIMIT - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# The same words as uint64 scalars, built once.
_U1, _U27, _U30, _U31 = map(np.uint64, (1, 27, 30, 31))
_UGAMMA, _UM1, _UM2 = map(np.uint64, (_GAMMA, _M1, _M2))


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is in 0..2**64-1."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed >= SEED_LIMIT:
        raise ValueError("seed must be < 2**64")


def _mix_word(z: int) -> int:
    """The splitmix64 finalizer of one 64-bit word, in Python ints."""
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each word of a uint64 array, in place."""
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


def splitmix64(state: int, items: np.ndarray) -> np.ndarray:
    """Output item + 1 of the splitmix64 generator started at state, for
    each of the non-negative int items, as a uint64 array."""
    z = np.asarray(items, dtype=np.uint64) + _U1
    z *= _UGAMMA
    z += np.uint64(state)
    return _mix(z)


def seeded_order(seed: int, epoch: int, items: Sequence[int]) -> np.ndarray:
    """The distinct non-negative ints items as an int64 array, sorted by
    their keys for (seed, epoch)."""
    check_seed(seed)
    base = _mix_word((_mix_word(seed) + epoch) & _MASK)
    items = np.asarray(items, dtype=np.int64)
    return items[np.argsort(splitmix64(base, items), kind="stable")]
