"""Shared fixtures: clocks, engines, small loaded TPC-H databases."""

from __future__ import annotations

import pytest

from repro.columnar import ColumnStore, vec
from repro.engine import Database, DatabaseConfig
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng

MIB = 1024 * 1024


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234, "tests")


def lists(rel) -> dict:
    """A relation's columns as python lists, for list comparisons."""
    return {column: vec.to_list(values) for column, values in rel.items()}


def flush_blockmap(blockmap, sink=None) -> int:
    """Flush a blockmap as a commit does: stage its dirty nodes, write
    them as one batch; returns the new root locator."""
    batch: list = []
    root = blockmap.flush(sink, batch)
    blockmap.store.write_batch(batch)
    return root


def make_db(**overrides) -> Database:
    """A small, fast engine for tests (cloud user dbspace, OCM enabled)."""
    config = DatabaseConfig(
        buffer_capacity_bytes=overrides.pop("buffer_capacity_bytes", 8 * MIB),
        ocm_capacity_bytes=overrides.pop("ocm_capacity_bytes", 32 * MIB),
        page_size=overrides.pop("page_size", 16 * 1024),
        **overrides,
    )
    return Database(config)


@pytest.fixture
def db() -> Database:
    return make_db()


@pytest.fixture
def db_no_ocm() -> Database:
    return make_db(ocm_enabled=False)


@pytest.fixture
def db_ebs() -> Database:
    return make_db(user_volume="ebs")


@pytest.fixture(scope="session")
def tiny_tpch():
    """A session-scoped loaded TPC-H database at a very small scale.

    Read-only: tests must not modify it (use ``db`` for writes).
    """
    from repro.tpch import load_tpch

    database = Database(
        DatabaseConfig(
            buffer_capacity_bytes=16 * MIB,
            ocm_capacity_bytes=64 * MIB,
            page_size=16 * 1024,
        )
    )
    store = ColumnStore(database)
    states = load_tpch(store, 0.002, partitions=2, rows_per_page=512)
    return database, store, states
