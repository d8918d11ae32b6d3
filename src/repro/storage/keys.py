"""Object naming: hashed randomized prefixes over 64-bit keys.

AWS throttles request rates *per key prefix*.  The paper therefore prepends
each 64-bit key with a prefix computed by a cheap hash of the key (they cite
the Mersenne Twister); we use the splitmix64 finalizer, which has the same
relevant property — uniform, deterministic dispersion — in a few integer
operations.

The on-bucket name is ``"{hash16}/{key16}"`` (both lower-case hex), so the
original 64-bit key is recoverable from the name (used by GC polling).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.storage.locator import OBJECT_KEY_BASE

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-dispersed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hashed_object_name(key: int, prefix_bits: int = 16) -> str:
    """Bucket name for a 64-bit object key, with a randomized prefix.

    ``prefix_bits`` controls how many distinct prefixes are generated
    (2^prefix_bits); the ablation benchmark varies this down to 0 to show
    the throttling cost of a single shared prefix.
    """
    if not OBJECT_KEY_BASE <= key < (1 << 64):
        raise ValueError(
            f"object keys live in [2^63, 2^64), got {key:#x}"
        )
    if not 0 <= prefix_bits <= 32:
        raise ValueError(f"prefix_bits must be in [0, 32], got {prefix_bits}")
    if prefix_bits == 0:
        return f"pages/{key:016x}"
    prefix = _splitmix64(key) >> (64 - prefix_bits)
    width = (prefix_bits + 3) // 4
    return f"{prefix:0{width}x}/{key:016x}"


def object_key_from_name(name: str) -> int:
    """Recover the 64-bit key from a bucket object name."""
    __, __, key_hex = name.rpartition("/")
    key = int(key_hex, 16)
    if not OBJECT_KEY_BASE <= key < (1 << 64):
        raise ValueError(f"name {name!r} does not carry a valid object key")
    return key


def group_adjacent(items: "Sequence[T]", max_run: int,
                   name: "Optional[Callable[[T], str]]" = None,
                   ) -> "List[List[T]]":
    """Group items into runs of adjacent 64-bit keys, at most ``max_run`` long.

    Bulk loads consume monotonically sequential keys, so a scan's reads and
    a transaction's write-back queue are dominated by adjacency runs; each
    run can travel as one ranged request.  ``name(item)`` is the item's
    object name (default: the item itself).  Runs come back in key order;
    items whose names do not carry a key (catalog blobs, test fixtures)
    follow as singleton runs, in input order.  ``max_run=1`` (no
    coalescing) keeps every item a singleton in input order: there is no
    run to find, and the issue order is the caller's.
    """
    if max_run == 1:
        return [[item] for item in items]
    keyed: "List[Tuple[int, T]]" = []
    singles: "List[List[T]]" = []
    for item in items:
        try:
            keyed.append(
                (object_key_from_name(item if name is None else name(item)),
                 item)
            )
        except ValueError:
            singles.append([item])
    keyed.sort(key=lambda pair: pair[0])
    runs: "List[List[T]]" = []
    previous_key: "Optional[int]" = None
    for key, item in keyed:
        if (runs and key == previous_key + 1
                and len(runs[-1]) < max_run):
            runs[-1].append(item)
        else:
            runs.append([item])
        previous_key = key
    return runs + singles
