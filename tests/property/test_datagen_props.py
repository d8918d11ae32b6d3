"""Property tests: the word-stream TPC-H generator draws what CPython's
``random`` would.

``TpchGenerator.orders_and_lineitems`` reads its substream through
``DeterministicRng.words()`` and applies ``randint``/``choice``/``random``
inline (DESIGN.md §17).  These tests pin that to the interpreter: the
rows equal the call-by-call oracle in ``tests/reference_datagen.py``
(types and float bits included), and the inline rule reproduces
``random.Random`` draw for draw over every one-word span width.  If an
interpreter changes its algorithm, they fail here rather than silently
moving every golden.
"""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.sim.rng import WORD_CHUNK, DeterministicRng
from repro.tpch.datagen import TpchGenerator
from tests import reference_datagen as oracle

seeds = st.integers(0, 2 ** 32 - 1)


def below(word, n):
    """The generator's inline draw in ``[0, n)``: ``_randbelow`` on words."""
    shift = 32 - n.bit_length()
    while (r := word() >> shift) >= n:
        pass
    return r


def unit_float(word):
    """The generator's inline ``random()``: 53 bits from two words."""
    return ((word() >> 5) * 67108864.0 + (word() >> 6)) / 2 ** 53


def paired(seed):
    """A word callable and a ``random.Random`` at the same stream start."""
    rng = DeterministicRng(seed, "props")
    return rng.words(), random.Random(DeterministicRng._derive(seed, "props"))


# Each example generates a table pair twice; report a failure unshrunk.
@settings(max_examples=10, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(scale_factor=st.floats(0.0005, 0.005), seed=seeds)
def test_generator_equals_call_by_call_oracle(scale_factor, seed):
    gen = TpchGenerator(scale_factor, seed)
    for got, want in zip(gen.orders_and_lineitems(),
                         oracle.orders_and_lineitems(gen)):
        assert len(got) == len(want)
        # repr tells 1 from 1.0 and keeps every float bit.
        moved = [i for i, pair in enumerate(zip(got, want))
                 if repr(pair[0]) != repr(pair[1])]
        assert not moved, f"row {moved[0]}: {got[moved[0]]} != {want[moved[0]]}"


def _check_randint(seed, low, n):
    word, ref = paired(seed)
    for __ in range(20):
        assert low + below(word, n) == ref.randint(low, low + n - 1)
    # Draw for draw: both streams stand on the same word afterwards.
    assert word() == ref.getrandbits(32)


@pytest.mark.parametrize("n", [1] + [2 ** k for k in range(32)]
                         + [2 ** k - 1 for k in range(2, 33)]
                         + [2 ** k + 1 for k in range(1, 32)])
def test_inline_randint_at_and_around_every_power_of_two(n):
    _check_randint(n, -3, n)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, low=st.integers(-10 ** 6, 10 ** 6),
       n=st.integers(1, 2 ** 32 - 1))
def test_inline_randint_reproduces_random(seed, low, n):
    _check_randint(seed, low, n)


def test_width_one_still_consumes_a_word():
    word, ref = paired(5)
    taken = []

    def counted():
        taken.append(word())
        return taken[-1]

    for __ in range(20):
        assert 9 + below(counted, 1) == ref.randint(9, 9)
    assert len(taken) >= 20
    assert word() == ref.getrandbits(32)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, items=st.lists(st.text(max_size=3), min_size=1,
                                  max_size=40))
def test_inline_choice_reproduces_random(seed, items):
    word, ref = paired(seed)
    for __ in range(20):
        assert items[below(word, len(items))] == ref.choice(items)
    assert word() == ref.getrandbits(32)


@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_inline_random_reproduces_random(seed):
    word, ref = paired(seed)
    for __ in range(50):
        drawn = unit_float(word)
        assert drawn.hex() == ref.random().hex()
    assert word() == ref.getrandbits(32)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, skip=st.integers(0, WORD_CHUNK))
def test_words_are_getrandbits_across_a_chunk_boundary(seed, skip):
    word, ref = paired(seed)
    for __ in range(skip):
        assert word() == ref.getrandbits(32)
    for __ in range(WORD_CHUNK + 2):
        assert word() == ref.getrandbits(32)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_words_leave_sibling_substreams_untouched(seed):
    root = DeterministicRng(seed, "tpch")
    word = root.substream("orders").words()
    for __ in range(2 * WORD_CHUNK):
        word()
    fresh = DeterministicRng(seed, "tpch")
    for name in ("part", "supplier"):
        drawn, untouched = root.substream(name), fresh.substream(name)
        assert ([drawn.randint(0, 99) for __ in range(50)]
                == [untouched.randint(0, 99) for __ in range(50)])
    assert root.random() == fresh.random()
