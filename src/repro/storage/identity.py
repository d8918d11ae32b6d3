"""Identity objects and the system catalog.

An *identity object* records where a storage object's root blockmap page
lives.  It is the anchor of the Figure 2 cascade: when a root blockmap page
is versioned, the new root locator is written into the identity object,
which resides in the system dbspace — always on strongly consistent storage,
hence safely updated in place.

The catalog keeps the identity of every *committed version* of every
storage object; the transaction manager decides which versions are still
referenced and when old ones can be garbage collected.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List


# The one page dbspace.  The persisted formats keyed by dbspace name
# (catalog entries, commit records, snapshot metadata, checkpoints) write it.
USER_DBSPACE = "user"


class CatalogError(Exception):
    """Unknown objects/versions or invalid catalog transitions."""


@dataclass(frozen=True)
class IdentityObject:
    """Pointer to one committed version of a storage object."""

    object_id: int
    name: str
    version: int
    root_locator: int
    height: int
    page_count: int

    def to_dict(self) -> "Dict[str, object]":
        return {**asdict(self), "dbspace": USER_DBSPACE}

    @classmethod
    def from_dict(cls, payload: "Dict[str, object]") -> "IdentityObject":
        fields = {k: v for k, v in payload.items() if k != "dbspace"}
        return cls(**fields)  # type: ignore[arg-type]


class Catalog:
    """System catalog: object registry + per-version identity objects."""

    def __init__(self) -> None:
        self._next_object_id = 1
        self._names: Dict[str, int] = {}
        self._identities: Dict[int, Dict[int, IdentityObject]] = {}
        self._current_version: Dict[int, int] = {}

    def register_object(self, name: str) -> int:
        """Create a storage object; returns its id (version 0, empty)."""
        if name in self._names:
            raise CatalogError(f"storage object {name!r} already exists")
        object_id = self._next_object_id
        self._next_object_id += 1
        self._names[name] = object_id
        identity = IdentityObject(
            object_id=object_id,
            name=name,
            version=0,
            root_locator=0,
            height=1,
            page_count=0,
        )
        self._identities[object_id] = {0: identity}
        self._current_version[object_id] = 0
        return object_id

    def drop_object(self, object_id: int) -> None:
        identity = self.current(object_id)
        del self._names[identity.name]
        del self._identities[object_id]
        del self._current_version[object_id]

    def object_id(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise CatalogError(f"no storage object named {name!r}") from None

    def has_object(self, name: str) -> bool:
        return name in self._names

    def object_names(self) -> "List[str]":
        return sorted(self._names)

    def current(self, object_id: int) -> IdentityObject:
        try:
            version = self._current_version[object_id]
            return self._identities[object_id][version]
        except KeyError:
            raise CatalogError(f"unknown storage object id {object_id}") from None

    def current_versions(self) -> "Dict[int, int]":
        """``object_id -> current version`` of every object, as a private
        copy: later publishes and drops do not show in it."""
        return self._current_version.copy()

    def identity(self, object_id: int, version: int) -> IdentityObject:
        try:
            return self._identities[object_id][version]
        except KeyError:
            raise CatalogError(
                f"object {object_id} has no version {version}"
            ) from None

    def has_version(self, object_id: int, version: int) -> bool:
        return version in self._identities.get(object_id, {})

    def publish(self, identity: IdentityObject) -> None:
        """Record a new committed version and make it current.

        Versions must advance strictly — the transaction manager serializes
        commits per storage object.
        """
        versions = self._identities.get(identity.object_id)
        if versions is None:
            raise CatalogError(f"unknown storage object id {identity.object_id}")
        current = self._current_version[identity.object_id]
        if identity.version <= current:
            raise CatalogError(
                f"version {identity.version} does not advance past {current} "
                f"for object {identity.name!r}"
            )
        versions[identity.version] = identity
        self._current_version[identity.object_id] = identity.version

    def drop_version(self, object_id: int, version: int) -> None:
        """Forget a garbage-collected (non-current) version."""
        if version == self._current_version.get(object_id):
            raise CatalogError(
                f"cannot drop the current version {version} of object {object_id}"
            )
        self._identities.get(object_id, {}).pop(version, None)

    def all_identities(self) -> "Iterator[IdentityObject]":
        for versions in self._identities.values():
            yield from versions.values()

    # ------------------------------------------------------------------ #
    # persistence (checkpoints & snapshots)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        payload = {
            "next_object_id": self._next_object_id,
            "names": self._names,
            "current_version": {
                str(oid): version for oid, version in self._current_version.items()
            },
            "identities": {
                str(oid): {str(v): ident.to_dict() for v, ident in versions.items()}
                for oid, versions in self._identities.items()
            },
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Catalog":
        data = json.loads(payload.decode("utf-8"))
        catalog = cls()
        catalog._next_object_id = data["next_object_id"]
        catalog._names = {name: int(oid) for name, oid in data["names"].items()}
        catalog._current_version = {
            int(oid): int(version)
            for oid, version in data["current_version"].items()
        }
        catalog._identities = {
            int(oid): {
                int(v): IdentityObject.from_dict(ident)
                for v, ident in versions.items()
            }
            for oid, versions in data["identities"].items()
        }
        return catalog

    def copy(self) -> "Catalog":
        return Catalog.from_bytes(self.to_bytes())
