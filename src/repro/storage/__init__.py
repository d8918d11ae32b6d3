"""Storage layer: pages, locators, the blockmap tree, identity objects,
dbspaces.

SAP IQ separates a page's logical identity (logical page number + version)
from its physical location.  The *blockmap* tree maintains that mapping; the
64-bit physical field is overloaded to hold either a contiguous block run on
a conventional dbspace or an object key in ``[2^63, 2^64)`` on a cloud
dbspace (Section 3.1 of the paper).
"""

from repro.storage.locator import (
    OBJECT_KEY_BASE,
    MAX_BLOCKS_PER_PAGE,
    is_object_key,
    make_block_locator,
    block_range,
    describe_locator,
)
from repro.storage.keys import hashed_object_name, object_key_from_name
from repro.storage.compression import ZlibCodec
from repro.storage.page import PageConfig
from repro.storage.blockmap import Blockmap, BlockmapError
from repro.storage.identity import IdentityObject
from repro.storage.dbspace import (
    BlockDbspace,
    CloudDbspace,
    DbspaceError,
    PageStore,
)

__all__ = [
    "OBJECT_KEY_BASE",
    "MAX_BLOCKS_PER_PAGE",
    "is_object_key",
    "make_block_locator",
    "block_range",
    "describe_locator",
    "hashed_object_name",
    "object_key_from_name",
    "ZlibCodec",
    "PageConfig",
    "Blockmap",
    "BlockmapError",
    "IdentityObject",
    "BlockDbspace",
    "CloudDbspace",
    "DbspaceError",
    "PageStore",
]
