"""Property tests: the high-water freelist against the full-bitmap oracle.

``Freelist`` holds its bitmap only up to the last byte that has ever had
a bit set; ``tests/reference_freelist.py`` keeps the allocator that held
the whole device's bitmap.  Random scripts of allocations, frees, marks
and copies must give both the same start blocks (the next-fit cursor
included), the same counts, used blocks and checkpoint images, and the
same errors.  Sizes include ones that are not
a multiple of 8, and scripts aim runs at the last block.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockstore.freelist import Freelist, FreelistError
from tests.reference_freelist import ReferenceFreelist


def outcome(call):
    """What ``call()`` returns, or the error it raises (type and text)."""
    try:
        return ("ok", call())
    except FreelistError as exc:
        return ("error", str(exc))


def held_prefix(payload):
    """The bitmap of a ``to_bytes()`` image up to its last set bit."""
    return payload[8:].rstrip(b"\x00")


def assert_same_state(freelist, reference):
    assert freelist.total_blocks == reference.total_blocks
    assert freelist.used_blocks == reference.used_blocks
    assert freelist.free_blocks == reference.free_blocks
    for block in range(-1, reference.total_blocks + 1):
        assert outcome(lambda: freelist.is_used(block)) == outcome(
            lambda: reference.is_used(block))
    assert freelist.to_bytes() == reference.to_bytes()


KINDS = ("allocate", "free", "mark_used", "mark_free", "copy")

# Sizes 1..40 cover every remainder mod 8, byte-aligned ones included.
# A step's start is None for a range that ends on the last block;
# otherwise it is folded into -1..size, so out-of-bounds ranges occur.
scripts = st.tuples(
    st.integers(1, 40),
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 17),
                  st.one_of(st.none(), st.integers(0, 41))),
        max_size=40,
    ),
)


@given(scripts)
# A run that ends on a byte boundary, then a window across it: the case
# where the held prefix ends inside the window being tested.
@example((16, [("mark_used", 1, 8), ("allocate", 9, None)]))
@settings(max_examples=500, deadline=None)
def test_scripts_match_the_full_bitmap_oracle(script):
    total, steps = script
    freelist, reference = Freelist(total), ReferenceFreelist(total)
    for kind, count, start in steps:
        start = total - count if start is None else start % (total + 2) - 1
        if kind == "allocate":
            assert outcome(lambda: freelist.allocate(count)) == outcome(
                lambda: reference.allocate(count))
        elif kind in ("free", "mark_used", "mark_free"):
            assert outcome(lambda: getattr(freelist, kind)(start, count)) == outcome(
                lambda: getattr(reference, kind)(start, count))
        else:
            original, freelist, reference = freelist, freelist.copy(), reference.copy()
            # The copy is independent: clearing the original leaves it.
            original.mark_free(0, total)
        assert_same_state(freelist, reference)
        if kind == "copy":
            # Copies hold only the used prefix.
            assert bytes(freelist._bits) == held_prefix(reference.to_bytes())
