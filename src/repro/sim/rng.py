"""Deterministic random number generation with named substreams.

Every stochastic choice in the simulation (latency jitter, eventual
consistency lag, TPC-H data) draws from a :class:`DeterministicRng` derived
from a single root seed, so that re-running any experiment reproduces the
same virtual timeline bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from itertools import chain, repeat
from typing import Callable

WORD_CHUNK = 4096


class DeterministicRng:
    """A seeded random stream that can spawn independent named substreams.

    Substreams are derived by hashing ``(seed, name)`` so that adding a new
    consumer of randomness does not perturb existing streams — a property
    plain sequential ``random.Random`` sharing does not have.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self._seed = int(seed)
        self._name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def name(self) -> str:
        return self._name

    def substream(self, name: str) -> "DeterministicRng":
        """Return an independent stream derived from this one."""
        return DeterministicRng(self._seed, f"{self._name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        """Random integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def words(self) -> "Callable[[], int]":
        """A ``next``-style callable over this stream's raw 32-bit words.

        The i-th call returns what the i-th ``getrandbits(32)`` would have:
        MT19937's output, in order.  Words are drawn ``WORD_CHUNK`` at a time
        (one ``getrandbits`` whose low word comes first), so the stream is
        overdrawn past the last word taken and must not be drawn any other
        way afterwards.
        """
        def chunk(__: None) -> array:
            block = array("I", self._random.getrandbits(32 * WORD_CHUNK)
                          .to_bytes(4 * WORD_CHUNK, "little"))
            if sys.byteorder == "big":
                block.byteswap()
            return block

        return chain.from_iterable(map(chunk, repeat(None))).__next__

    def __repr__(self) -> str:
        return f"DeterministicRng(seed={self._seed}, name={self._name!r})"
