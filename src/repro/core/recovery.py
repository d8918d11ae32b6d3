"""Crash recovery: checkpoint load + log replay (Sections 3.2-3.3).

Recovery starts from the last checkpoint and replays the transaction log:

- ``alloc_range`` records rebuild the key generator's active sets and the
  maximum allocated key (Table 1, steps at clock 120);
- ``txn_commit`` records re-publish identities, re-enter the commit chain,
  trim the active sets, and re-apply RB block allocations to the user
  dbspace's freelist (a block user dbspace only; a cloud one has none);
- ``gc_collect`` records mark chain entries whose RF pages were already
  deleted before the crash: they leave the chain and their RF block runs
  are freed in the reconstructed freelist;
- ``txn_rollback`` records need no action: a rolled-back transaction's
  block allocations never made it into any checkpoint or commit record, and
  its cloud allocations remain covered by the (untrimmed) active set.

Transactions that were *active* at the crash leave no trace in the log;
their cloud allocations are reclaimed by the node-restart GC, which polls
the coordinator's active set for the node (Table 1, clock 150).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from repro.blockstore.freelist import Freelist
from repro.core.keygen import ObjectKeyGenerator
from repro.core.log import (
    ALLOC_RANGE,
    GC_COLLECT,
    OBJECT_CREATED,
    TXN_COMMIT,
    TXN_ROLLBACK,
    TransactionLog,
)
from repro.core.txn import CommitChainEntry
from repro.sim.crashpoints import crash_point
from repro.storage.dbspace import CloudDbspace
from repro.storage.identity import USER_DBSPACE, Catalog, IdentityObject
from repro.storage.locator import block_range


def fence_in_flight_writes(dbspace: CloudDbspace) -> None:
    """Wait out every accepted-but-unsettled store request.

    A late-completing put would otherwise outrun a blind delete under
    last-writer-wins and resurrect the orphan: the clock advances past the
    store's write horizon, so the deletes that follow are unambiguously last.
    """
    horizon = dbspace.io.client.store.write_horizon()
    if horizon > dbspace.clock.now():
        dbspace.clock.advance_to(horizon + 1e-6)


def reclaim(
    dbspace: CloudDbspace,
    ranges: "Iterable[Tuple[int, int]]",
    keep: "AbstractSet[int]" = frozenset(),
    mid_poll: "Optional[str]" = None,
) -> int:
    """The one GC poll of consumed keys: restart GC and restore.

    Keys are monotone and never reused, so an allocated key in the
    inclusive ``ranges`` that is not in ``keep`` can only hold an orphan.
    After the fence, each is polled on the bucket (HEAD, then a blind
    DELETE); polls are idempotent, so a reclaim that died part-way is run
    again.  ``mid_poll`` is the caller's crash point before each key.
    Returns how many objects existed.
    """
    ranges = [(lo, hi) for lo, hi in ranges if lo <= hi]
    if ranges:
        fence_in_flight_writes(dbspace)
    reclaimed = 0
    for lo, hi in ranges:
        for key in range(lo, hi + 1):
            if key in keep:
                continue
            if mid_poll is not None:
                crash_point(mid_poll)
            reclaimed += dbspace.poll_and_free(key)
    return reclaimed


@dataclass
class RecoveredState:
    """Everything recovery reconstructs."""

    catalog: Catalog
    keygen: ObjectKeyGenerator
    chain_entries: "List[CommitChainEntry]"
    # The block user dbspace's freelist; None on a cloud user dbspace.
    freelist: "Optional[Freelist]"
    commit_seq: int
    replayed_commits: int = 0
    replayed_allocations: int = 0


def encode_checkpoint(
    catalog: Catalog,
    keygen: ObjectKeyGenerator,
    freelists: "Dict[str, Freelist]",
    chain_payloads: "List[Dict[str, object]]",
    commit_seq: int,
) -> "Dict[str, object]":
    """Build the checkpoint state.

    JSON apart from the catalog's bytes and each freelist's used-prefix
    copy; the log charges both at the base64 length of their images.
    ``freelists`` maps a volume's name to its freelist: ``"system"``
    always, :data:`USER_DBSPACE` on a block user dbspace.
    """
    return {
        "catalog": catalog.to_bytes(),
        "keygen": keygen.checkpoint_state(),
        "freelists": {
            name: freelist.copy() for name, freelist in freelists.items()
        },
        "chain": chain_payloads,
        "commit_seq": commit_seq,
    }


def recover(log: TransactionLog) -> RecoveredState:
    """Reconstruct engine state from the last checkpoint plus replay."""
    state = log.last_checkpoint_state()
    if state is not None:
        catalog = Catalog.from_bytes(state["catalog"])  # type: ignore[arg-type]
        keygen = ObjectKeyGenerator.from_checkpoint(log, state["keygen"])  # type: ignore[arg-type]
        image = state["freelists"].get(USER_DBSPACE)  # type: ignore[union-attr]
        freelist = None if image is None else image.copy()
        chain = [
            CommitChainEntry.from_payload(payload)
            for payload in state["chain"]  # type: ignore[union-attr]
        ]
        commit_seq = int(state["commit_seq"])  # type: ignore[arg-type]
    else:
        catalog = Catalog()
        keygen = ObjectKeyGenerator.from_checkpoint(log, None)
        freelist = None
        chain = []
        commit_seq = 0

    recovered = RecoveredState(
        catalog=catalog,
        keygen=keygen,
        chain_entries=chain,
        freelist=freelist,
        commit_seq=commit_seq,
    )

    for record in log.records_since_checkpoint():
        if record.kind == ALLOC_RANGE:
            payload = record.payload
            keygen.replay_allocation(
                str(payload["node"]), int(payload["lo"]), int(payload["hi"])
            )
            recovered.replayed_allocations += 1
        elif record.kind == OBJECT_CREATED:
            payload = record.payload
            if not catalog.has_object(str(payload["name"])):
                created = catalog.register_object(str(payload["name"]))
                if created != int(payload["object_id"]):  # type: ignore[arg-type]
                    raise RuntimeError(
                        "DDL replay produced object id "
                        f"{created}, log recorded {payload['object_id']}"
                    )
        elif record.kind == TXN_COMMIT:
            _replay_commit(recovered, record.payload)
        elif record.kind == GC_COLLECT:
            _replay_gc(recovered, record.payload)
        elif record.kind == TXN_ROLLBACK:
            # Nothing to undo: see module docstring.
            continue
    return recovered


def _replay_commit(state: RecoveredState, payload: "Dict[str, object]") -> None:
    entry = CommitChainEntry.from_payload(payload["chain_entry"])  # type: ignore[arg-type]
    state.chain_entries.append(entry)
    state.commit_seq = max(state.commit_seq, entry.commit_seq)
    state.replayed_commits += 1
    for identity_dict in payload["identities"]:  # type: ignore[union-attr]
        identity = IdentityObject.from_dict(identity_dict)
        if not state.catalog.has_object(identity.name):
            # Object was created after the checkpoint; recreate it.
            state.catalog.register_object(identity.name)
        if not state.catalog.has_version(identity.object_id, identity.version):
            state.catalog.publish(identity)
    consumed = [tuple(pair) for pair in payload["consumed_key_ranges"]]  # type: ignore[union-attr]
    if consumed:
        state.keygen.notify_committed(str(payload["node"]), consumed)  # type: ignore[arg-type]
    # Re-apply RB block allocations to the reconstructed freelist.
    if state.freelist is not None:
        for locator in entry.rb.block_locators():
            start, nblocks = block_range(locator)
            state.freelist.mark_used(start, nblocks)


def _replay_gc(state: RecoveredState, payload: "Dict[str, object]") -> None:
    commit_seq = int(payload["commit_seq"])  # type: ignore[arg-type]
    entry = next(
        (e for e in state.chain_entries if e.commit_seq == commit_seq), None
    )
    if entry is None:
        return
    state.chain_entries.remove(entry)
    # The entry's RF pages were deleted before the crash: block runs leave
    # the freelist, catalog versions disappear.  Cloud deletions already
    # happened on the durable store, so nothing more is needed for them.
    if state.freelist is not None:
        for locator in entry.rf.block_locators():
            start, nblocks = block_range(locator)
            state.freelist.mark_free(start, nblocks)
    for object_id, version in entry.superseded:
        if state.catalog.has_version(object_id, version):
            current = state.catalog.current(object_id)
            if current.version != version:
                state.catalog.drop_version(object_id, version)
