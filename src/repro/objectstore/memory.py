"""A strongly consistent, zero-latency in-memory object store.

Used as the ground-truth substrate in unit tests and as the backing model
inside :class:`~repro.objectstore.s3sim.SimulatedObjectStore`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.checksum import crc32c
from repro.objectstore.base import ObjectStore
from repro.objectstore.errors import NoSuchKeyError


class InMemoryObjectStore(ObjectStore):
    """Dict-backed bucket with strong consistency and no timing."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self._checksums: Dict[str, int] = {}
        self._bytes = 0

    def put(self, key: str, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"object data must be bytes, got {type(data)!r}")
        previous = self._objects.get(key)
        if previous is not None:
            self._bytes -= len(previous)
        payload = bytes(data)
        self._objects[key] = payload
        self._checksums[key] = crc32c(payload)
        self._bytes += len(data)

    def get(self, key: str) -> bytes:
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchKeyError(key) from None

    def recorded_checksum(self, key: str) -> "Optional[int]":
        return self._checksums.get(key)

    def delete(self, key: str) -> None:
        data = self._objects.pop(key, None)
        self._checksums.pop(key, None)
        if data is not None:
            self._bytes -= len(data)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def list_keys(self, prefix: str = "") -> "Iterator[str]":
        for key in sorted(self._objects):
            if key.startswith(prefix):
                yield key

    def stored_bytes(self) -> int:
        return self._bytes

    def object_count(self) -> int:
        return len(self._objects)
