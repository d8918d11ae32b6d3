"""Every scaled hardware rate a node is built with, pinned exactly.

A bench runs SF ``s`` on hardware whose rates are slowed to ``s / 1000`` of
the paper's (DESIGN.md §2).  These pins hold the derived numbers bit for
bit — CPU ops/s, the NIC, the OCM SSD, the user volume, the system volume
and the object store's per-prefix request rates — on every deployment the
benches build: three volumes × two instances × two scale factors, the
engine's own defaults at two page sizes, and the secondaries of a
multiplex shaped like the suite's ``crash_recover``.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import bench_config
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import Database, DatabaseConfig

KIB = 1024

CASES = [
    ("bench", volume, instance, sf)
    for volume in ("s3", "ebs", "efs")
    for instance in ("m5ad.4xlarge", "m5ad.24xlarge")
    for sf in (0.002, 0.01)
] + [
    ("default", 64 * KIB),
    ("default", 16 * KIB),
    ("multiplex", "m5ad.4xlarge", 0.01),
    ("multiplex", "m5ad.24xlarge", 0.002),
]


def _device(device):
    if device is None:
        return None
    return (device.profile.bandwidth, device.profile.iops)


def node_rates(node):
    """The rates one node (coordinator or secondary) runs on."""
    ocm = getattr(node, "ocm", None)
    rates = {
        "cpu": node.cpu.ops_per_second,
        "nic": node.nic.rate,
        "ocm": None if ocm is None else _device(ocm.device),
    }
    if isinstance(node, Database):
        store = node.object_store
        rates["user_device"] = _device(node.user_device)
        rates["system_device"] = _device(node.system_device)
        rates["prefix_put_get"] = None if store is None else (
            store.profile.per_prefix_put_rate,
            store.profile.per_prefix_get_rate,
        )
    return rates


def build(case):
    """``[(node_id, rates)]`` for one case, coordinator first."""
    if case[0] == "bench":
        __, volume, instance, sf = case
        db = Database(bench_config(instance, volume, sf))
        return [(db.config.node_id, node_rates(db))]
    if case[0] == "default":
        db = Database(DatabaseConfig(page_size=case[1]))
        return [(db.config.node_id, node_rates(db))]
    __, instance, sf = case
    mux = Multiplex(bench_config(instance, "s3", sf),
                    MultiplexConfig(writers=2))
    nodes = [(mux.coordinator.config.node_id, node_rates(mux.coordinator))]
    return nodes + [(node.node_id, node_rates(node))
                    for node in mux.secondaries()]


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(
    str(part) for part in case))
def test_derived_rates_are_pinned(case):
    assert dict(build(case)) == EXPECTED[case]


EXPECTED = {
    ('bench', 's3', 'm5ad.4xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 1250.0,
            'ocm': (6000.0, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (0.44799999999999995, 0.704),
        },
    },
    ('bench', 's3', 'm5ad.4xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 6250.000000000001,
            'ocm': (30000.000000000004, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (2.24, 3.5200000000000005),
        },
    },
    ('bench', 's3', 'm5ad.24xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 2250.0,
            'ocm': (12000.0, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (0.44799999999999995, 0.704),
        },
    },
    ('bench', 's3', 'm5ad.24xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 11250.000000000002,
            'ocm': (60000.00000000001, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (2.24, 3.5200000000000005),
        },
    },
    ('bench', 'ebs', 'm5ad.4xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 1250.0,
            'ocm': None,
            'user_device': (500.0, 0.393216),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'ebs', 'm5ad.4xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 6250.000000000001,
            'ocm': None,
            'user_device': (2500.0, 1.9660800000000003),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'ebs', 'm5ad.24xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 2250.0,
            'ocm': None,
            'user_device': (500.0, 0.393216),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'ebs', 'm5ad.24xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 11250.000000000002,
            'ocm': None,
            'user_device': (2500.0, 1.9660800000000003),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'efs', 'm5ad.4xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 1250.0,
            'ocm': None,
            'user_device': (150.0, 0.8959999999999999),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'efs', 'm5ad.4xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 6250.000000000001,
            'ocm': None,
            'user_device': (750.0000000000001, 4.48),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'efs', 'm5ad.24xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 2250.0,
            'ocm': None,
            'user_device': (150.0, 0.8959999999999999),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('bench', 'efs', 'm5ad.24xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 11250.000000000002,
            'ocm': None,
            'user_device': (750.0000000000001, 4.48),
            'system_device': (250000000, 192.0),
            'prefix_put_get': None,
        },
    },
    ('default', 65536): {
        'coordinator': {
            'cpu': 50000000.0,
            'nic': 1125000000.0,
            'ocm': (3000000000.0, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (56000.0, 88000.0),
        },
    },
    ('default', 16384): {
        'coordinator': {
            'cpu': 50000000.0,
            'nic': 1125000000.0,
            'ocm': (3000000000.0, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (224000.0, 352000.0),
        },
    },
    ('multiplex', 'm5ad.4xlarge', 0.01): {
        'coordinator': {
            'cpu': 250.00000000000003,
            'nic': 6250.000000000001,
            'ocm': (30000.000000000004, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (2.24, 3.5200000000000005),
        },
        'writer-1': {
            'cpu': 250.00000000000003,
            'nic': 12500.000000000002,
            'ocm': (30000.000000000004, None),
        },
        'writer-2': {
            'cpu': 250.00000000000003,
            'nic': 12500.000000000002,
            'ocm': (30000.000000000004, None),
        },
    },
    ('multiplex', 'm5ad.24xlarge', 0.002): {
        'coordinator': {
            'cpu': 50.0,
            'nic': 2250.0,
            'ocm': (12000.0, None),
            'user_device': None,
            'system_device': (250000000, 192.0),
            'prefix_put_get': (0.44799999999999995, 0.704),
        },
        'writer-1': {
            'cpu': 50.0,
            'nic': 2500.0,
            'ocm': (6000.0, None),
        },
        'writer-2': {
            'cpu': 50.0,
            'nic': 2500.0,
            'ocm': (6000.0, None),
        },
    },
}
