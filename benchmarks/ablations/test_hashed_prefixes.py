"""Ablation: hashed randomized key prefixes vs a single shared prefix.

AWS throttles request rates per key prefix; the paper prepends a hash of
the 64-bit key so sequential keys spread across prefixes (Section 3.1).
With one shared prefix, the same TPC-H load gets throttled.
"""

from bench_utils import emit

from repro.bench.configs import load_engine
from repro.bench.report import format_table

SCALE_FACTOR = 0.005


def run_with_prefix_bits(prefix_bits: int):
    db, store, load_seconds = load_engine(
        "m5ad.24xlarge", "s3", scale_factor=SCALE_FACTOR,
        prefix_bits=prefix_bits,
    )
    return {
        "load_seconds": load_seconds,
        "prefixes": db.object_store.prefix_count(),
        "requests": db.object_store.metrics.snapshot()["put_requests"],
        "throttled": db.object_store.throttled_requests(),
    }


def test_hashed_prefixes_avoid_throttling(benchmark):
    def run():
        return run_with_prefix_bits(16), run_with_prefix_bits(0)

    hashed, shared = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_hashed_prefixes",
        format_table(
            ["prefix scheme", "distinct prefixes", "throttled requests",
             "load (s)"],
            [
                ["hashed (16 bits)", hashed["prefixes"],
                 hashed["throttled"], hashed["load_seconds"]],
                ["single shared", shared["prefixes"],
                 shared["throttled"], shared["load_seconds"]],
            ],
        ),
    )
    # Hashing gives (almost) every request its own prefix, however many
    # keys each ranged PUT carries.
    assert hashed["prefixes"] > 0.9 * hashed["requests"]
    assert shared["prefixes"] == 1
    # The shared prefix hits the per-prefix limit; hashing avoids it.
    assert shared["throttled"] > hashed["throttled"]
    assert shared["load_seconds"] > hashed["load_seconds"]
