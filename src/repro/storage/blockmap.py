"""The blockmap: a copy-on-write tree from logical pages to locators.

Blockmap pages are pages themselves: they are persisted through the owning
dbspace, they get fresh object keys on every flush (cloud), and versioning
cascades bottom-up exactly as in Figure 2 of the paper — flushing a dirty
data page dirties its leaf blockmap page, flushing the leaf dirties its
parent, and the new *root* locator is finally recorded in the identity
object (system catalog).

The tree is copy-on-write at node granularity so that a writer transaction
can fork the committed blockmap cheaply (``fork()``) while concurrent
readers keep using the immutable base — the mechanism behind table-level
MVCC.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

from repro.storage.dbspace import PageStore, WriteBatch
from repro.storage.locator import NULL_LOCATOR

_HEADER = struct.Struct(">2sBQI")
_SLOT = struct.Struct(">Q")
_MAGIC = b"BM"


class BlockmapError(Exception):
    """Corruption or misuse of the blockmap."""


class GcSink(Protocol):
    """Receives page allocation/replacement events for RF/RB accounting."""

    def on_allocate(self, locator: int) -> None:
        """A fresh locator was written by the current transaction (RB)."""
        ...

    def on_replace(self, old_locator: int, fresh: bool) -> None:
        """``old_locator`` was superseded.  ``fresh`` means it had been
        allocated by the *same* transaction (immediately dead garbage);
        otherwise it belongs to a committed version (deferred GC via RF)."""
        ...


class NullGcSink:
    """Ignores GC events (bootstrap writes, tests)."""

    def on_allocate(self, locator: int) -> None:
        pass

    def on_replace(self, old_locator: int, fresh: bool) -> None:
        pass


class _Node:
    """One blockmap page: ``fanout`` locator slots at (level, index)."""

    __slots__ = ("level", "index", "slots", "dirty", "locator", "fresh")

    def __init__(self, level: int, index: int, slots: "Optional[List[int]]" = None,
                 locator: int = NULL_LOCATOR) -> None:
        self.level = level
        self.index = index
        self.slots: List[int] = slots if slots is not None else []
        self.dirty = locator == NULL_LOCATOR
        self.locator = locator
        # fresh: the node's current on-storage image was written by the
        # transaction currently owning this blockmap (its old image is
        # immediately dead when superseded, rather than RF garbage).
        self.fresh = locator == NULL_LOCATOR

    def get_slot(self, slot: int) -> int:
        if slot < len(self.slots):
            return self.slots[slot]
        return NULL_LOCATOR

    def set_slot(self, slot: int, locator: int) -> None:
        if slot >= len(self.slots):
            self.slots.extend([NULL_LOCATOR] * (slot + 1 - len(self.slots)))
        self.slots[slot] = locator

    def copy(self) -> "_Node":
        clone = _Node(self.level, self.index, list(self.slots), self.locator)
        clone.dirty = self.dirty
        clone.fresh = self.fresh
        return clone

    def to_bytes(self) -> bytes:
        # Trim trailing null slots to keep blockmap pages compact.
        count = len(self.slots)
        while count and self.slots[count - 1] == NULL_LOCATOR:
            count -= 1
        payload = [_HEADER.pack(_MAGIC, self.level, self.index, count)]
        payload.extend(_SLOT.pack(slot) for slot in self.slots[:count])
        return b"".join(payload)

    @classmethod
    def from_bytes(cls, payload: bytes, locator: int) -> "_Node":
        if len(payload) < _HEADER.size:
            raise BlockmapError("truncated blockmap page")
        magic, level, index, count = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise BlockmapError(f"bad blockmap magic {magic!r}")
        expected = _HEADER.size + count * _SLOT.size
        if len(payload) < expected:
            raise BlockmapError("blockmap page shorter than slot count")
        slots = [
            _SLOT.unpack_from(payload, _HEADER.size + i * _SLOT.size)[0]
            for i in range(count)
        ]
        node = cls(level, index, slots, locator)
        node.dirty = False
        node.fresh = False
        return node


class Blockmap:
    """Mapping from logical page numbers to 64-bit locators."""

    def __init__(
        self,
        store: PageStore,
        fanout: int = 512,
        root_locator: int = NULL_LOCATOR,
        height: int = 1,
        base: "Optional[Blockmap]" = None,
    ) -> None:
        if fanout < 2:
            raise BlockmapError(f"fanout must be >= 2, got {fanout}")
        self.store = store
        self.fanout = fanout
        self.root_locator = root_locator
        self.height = max(1, height)
        self._base = base
        self._nodes: Dict[Tuple[int, int], _Node] = {}
        if root_locator == NULL_LOCATOR and base is None:
            # An empty blockmap's root is clean: there is nothing to flush
            # until a mapping dirties it, and clean roots keep fork() legal
            # for freshly registered (version 0, empty) objects.
            root = _Node(self.height - 1, 0)
            root.dirty = False
            self._nodes[(self.height - 1, 0)] = root

    # ------------------------------------------------------------------ #
    # node access
    # ------------------------------------------------------------------ #

    def _load_node(self, level: int, index: int, locator: int) -> _Node:
        payload = self.store.read_page(locator)
        node = _Node.from_bytes(payload, locator)
        if (node.level, node.index) != (level, index):
            raise BlockmapError(
                f"blockmap page at {locator:#x} claims (level={node.level}, "
                f"index={node.index}), expected ({level}, {index})"
            )
        self._nodes[(level, index)] = node
        return node

    def _peek_node(self, level: int, index: int) -> "Optional[_Node]":
        """Find a node without loading from storage (self, then base)."""
        node = self._nodes.get((level, index))
        if node is not None:
            return node
        if self._base is not None:
            return self._base._peek_node(level, index)
        return None

    def _get_node(self, level: int, index: int) -> "Optional[_Node]":
        """Find a node, loading the path from storage if necessary."""
        node = self._peek_node(level, index)
        if node is not None:
            return node
        # Walk down from the root to discover the node's locator.
        if level >= self.height:
            return None
        current = self._root_node()
        if current is None:
            return None
        for walk_level in range(self.height - 1, level, -1):
            child_index = index // (self.fanout ** (walk_level - 1 - level))
            slot = child_index - (child_index // self.fanout) * self.fanout
            child_locator = current.get_slot(slot)
            if child_locator == NULL_LOCATOR:
                return None
            child = self._peek_node(walk_level - 1, child_index)
            if child is None:
                child = self._load_node(walk_level - 1, child_index, child_locator)
            current = child
        return current

    def _root_node(self) -> "Optional[_Node]":
        node = self._peek_node(self.height - 1, 0)
        if node is not None:
            return node
        if self.root_locator == NULL_LOCATOR:
            return None
        return self._load_node(self.height - 1, 0, self.root_locator)

    def _own_node(self, level: int, index: int) -> _Node:
        """Return a node owned (mutable) by this blockmap, creating/copying."""
        node = self._nodes.get((level, index))
        if node is not None:
            return node
        inherited = self._get_node(level, index)
        if inherited is not None and (level, index) not in self._nodes:
            # Copy-on-write from the base (or from a lazily loaded page).
            node = inherited.copy()
            node.fresh = False
        elif inherited is not None:
            node = inherited
        else:
            node = _Node(level, index)
        self._nodes[(level, index)] = node
        return node

    # ------------------------------------------------------------------ #
    # public mapping API
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Number of logical pages addressable at the current height."""
        return self.fanout ** self.height

    def _ensure_height(self, page_no: int) -> None:
        while page_no >= self.capacity:
            old_root = self._root_node()
            new_level = self.height
            new_root = _Node(new_level, 0)
            if old_root is not None:
                key = (old_root.level, old_root.index)
                if key not in self._nodes:
                    # The old root is inherited from the base blockmap:
                    # take a private copy before keeping it reachable, or
                    # later mutations would corrupt the shared base.
                    old_root = old_root.copy()
                    old_root.fresh = False
                    self._nodes[key] = old_root
                new_root.set_slot(0, old_root.locator)
            self.height += 1
            self._nodes[(new_level, 0)] = new_root

    def lookup(self, page_no: int) -> int:
        """Locator of logical page ``page_no`` (NULL_LOCATOR if unmapped)."""
        if page_no < 0:
            raise BlockmapError(f"negative logical page {page_no}")
        if page_no >= self.capacity:
            return NULL_LOCATOR
        leaf = self._get_node(0, page_no // self.fanout)
        if leaf is None:
            return NULL_LOCATOR
        return leaf.get_slot(page_no % self.fanout)

    def set(self, page_no: int, locator: int) -> int:
        """Map ``page_no`` to ``locator``; return the previous locator."""
        if page_no < 0:
            raise BlockmapError(f"negative logical page {page_no}")
        self._ensure_height(page_no)
        leaf = self._own_node(0, page_no // self.fanout)
        old = leaf.get_slot(page_no % self.fanout)
        leaf.set_slot(page_no % self.fanout, locator)
        leaf.dirty = True
        return old

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def flush(self, sink: "Optional[GcSink]", batch: "WriteBatch") -> int:
        """Stage dirty nodes bottom-up into ``batch``; return the new root
        locator.

        Every flushed node gets a fresh locator (the Figure 2 cascade);
        replaced locators are reported to ``sink``.  A node's bytes hold
        its children's locators, and the store hands a locator out when
        it stages the bytes, so the nodes join ``batch`` — a commit's one
        write-through (:meth:`PageStore.write_batch`) — the root last.
        """
        gc = sink or NullGcSink()
        for level in range(0, self.height):
            dirty_here = [
                node for (node_level, __), node in sorted(self._nodes.items())
                if node_level == level and node.dirty
            ]
            for node in dirty_here:
                old_locator = node.locator
                was_fresh = node.fresh
                new_locator = self.store.write_pages(
                    [node.to_bytes()], batch=batch)[0]
                node.dirty = False
                node.locator = new_locator
                node.fresh = True
                gc.on_allocate(new_locator)
                if old_locator != NULL_LOCATOR:
                    gc.on_replace(old_locator, fresh=was_fresh)
                if level + 1 < self.height:
                    parent = self._own_node(level + 1, node.index // self.fanout)
                    parent.set_slot(node.index % self.fanout, new_locator)
                    parent.dirty = True
        root = self._root_node()
        if root is None:
            raise BlockmapError("blockmap has no root after flush")
        self.root_locator = root.locator
        return self.root_locator

    def mark_committed(self) -> None:
        """Drop per-transaction freshness after a commit boundary."""
        for node in self._nodes.values():
            node.fresh = False

    def fork(self) -> "Blockmap":
        """A writable copy-on-write view over this (committed) blockmap."""
        if any(node.dirty for node in self._nodes.values()):
            raise BlockmapError("cannot fork a blockmap with dirty nodes")
        return Blockmap(
            self.store,
            fanout=self.fanout,
            root_locator=self.root_locator,
            height=self.height,
            base=self,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def live_locators(self) -> "Iterator[int]":
        """All reachable locators: data pages plus blockmap pages."""
        root = self._root_node()
        if root is None:
            return
        if root.locator != NULL_LOCATOR:
            yield root.locator
        stack: List[_Node] = [root]
        while stack:
            node = stack.pop()
            if node.level == 0:
                for locator in node.slots:
                    if locator != NULL_LOCATOR:
                        yield locator
                continue
            for slot, locator in enumerate(node.slots):
                if locator == NULL_LOCATOR:
                    continue
                yield locator
                child_index = node.index * self.fanout + slot
                child = self._peek_node(node.level - 1, child_index)
                if child is None:
                    child = self._load_node(node.level - 1, child_index, locator)
                stack.append(child)

    def __repr__(self) -> str:
        return (
            f"Blockmap(store={self.store.name!r}, height={self.height}, "
            f"root={self.root_locator:#x})"
        )
