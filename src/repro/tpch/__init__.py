"""TPC-H workload: schema, deterministic generator, the 22 queries, runners.

The paper's evaluation is TPC-H at scale factor 1000 with range-partitioned
tables and HG indexes on o_custkey, n_regionkey, s_nationkey, c_nationkey,
ps_suppkey, ps_partkey and l_orderkey.  This package reproduces the same
workload at laptop scale factors: table shapes, value distributions, query
access patterns and the power/throughput run protocols all follow the spec
(simplified where the spec's text grammar does not affect I/O behaviour).
"""

from repro.tpch.schema import TPCH_SCHEMAS, tpch_schema
from repro.tpch.datagen import TpchGenerator, check_scale_factor
from repro.tpch.queries import QUERIES, run_query
from repro.tpch.runner import (
    load_tpch,
    power_run,
    throughput_streams,
)

__all__ = [
    "TPCH_SCHEMAS",
    "tpch_schema",
    "TpchGenerator",
    "check_scale_factor",
    "QUERIES",
    "run_query",
    "load_tpch",
    "power_run",
    "throughput_streams",
]
