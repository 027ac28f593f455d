"""The schedule store vs a fresh runner's rebuilds, measured at n = 128.

The acceptance bench for ``repro.core.store``: a Table-1-regime sweep
(the multi-agent Theorem-7 adversarial family at ``n = 128``, DRDS —
the baseline whose ``45 n^2 + 8n``-slot global sequence makes period
tables genuinely expensive) is run three ways over the same pairs, each
by a new serial ``SweepRunner``:

* **fresh** — no store: the runner materializes the period table of
  every schedule the sweep touches, as every new runner or process
  (each ``serve`` call, each later table) does without a store;
* **store, cold** — fresh store: the runner builds each distinct table
  into the store exactly once (asserted via the store's build counter);
* **store, warm** — the store already holds every table (the steady
  state every later sweep, table, and process on the machine sees):
  nothing is built anywhere, the runner attaches read-only memmaps.

Results are recorded to ``results/store_sweep.txt`` and
``results/BENCH_store_sweep.json``; the gate asserts bit-identical
measurements across all three paths and that the warm store is no
slower than the fresh runner.

Historical note: before the streaming-engine PR vectorized DRDS table
construction (closed-form projection of a shared global sequence), a
rebuild cost ~3.5 s here and the warm store won by ~8x; the
vectorization shrank the rebuild penalty itself, so the store's
remaining margin on this workload is the global-sequence build and the
memory it deduplicates, not the projection loop.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.store import store_key
from repro.sim.runner import SweepRunner
from repro.sim.workloads import adversarial_single_common

N = 128
K = 4
NUM_AGENTS = 6  # 15 overlapping pairs
ALGORITHM = "drds"
HORIZON = 2 * (45 * N * N + 8 * N)  # two DRDS periods
SWEEP = dict(dense=8, probes=8)


def _timed_sweep(runner: SweepRunner, instance) -> tuple[float, list]:
    start = time.perf_counter()
    measured = runner.measure_instance(
        instance, ALGORITHM, HORIZON, **SWEEP
    )
    return time.perf_counter() - start, measured


def test_store_vs_fresh_rebuild(benchmark, record, tmp_path):
    """Recorded wall-clock comparison + the built-exactly-once assertion."""
    instance = adversarial_single_common(N, K, NUM_AGENTS, seed=2)
    pairs = instance.overlapping_pairs()
    distinct = {store_key(s, N, ALGORITHM, 0) for s in instance.sets}

    fresh_runner = SweepRunner(workers=1)
    fresh_seconds, fresh_measured = _timed_sweep(fresh_runner, instance)
    # Without a store the runner's own cache still builds each distinct
    # table once — but only for this runner's lifetime.
    assert fresh_runner.cache_misses == len(distinct)

    store_runner = SweepRunner(workers=1, store=tmp_path / "store")
    cold_seconds, cold_measured = _timed_sweep(store_runner, instance)
    # The tentpole contract: each distinct (channels, n, algorithm,
    # seed) period table was materialized exactly once for the sweep —
    # plus one shared DRDS global sequence (its own entry, counted
    # separately) that every per-set build projected from.
    assert store_runner.store.builds == len(distinct)
    assert store_runner.store.global_builds == 1
    assert len(store_runner.store.entries()) == len(distinct) + 1

    warm_runner = SweepRunner(workers=1, store=tmp_path / "store")
    warm_seconds, warm_measured = benchmark.pedantic(
        lambda: _timed_sweep(warm_runner, instance),
        rounds=1,
        iterations=1,
    )
    # Warm pass: attaches only, zero builds anywhere.
    assert warm_runner.store.builds == 0
    assert warm_runner.store.attaches == len(distinct)

    assert fresh_measured == cold_measured == warm_measured, (
        "store on/off must be bit-identical"
    )

    speedup_warm = fresh_seconds / warm_seconds
    speedup_cold = fresh_seconds / cold_seconds
    payload = {
        "n": N,
        "k": K,
        "algorithm": ALGORITHM,
        "workload": f"adversarial_single_common(k={K}, agents={NUM_AGENTS}, seed=2)",
        "pairs": len(pairs),
        "workers": 1,
        "distinct_tables": len(distinct),
        "table_slots": 45 * N * N + 8 * N,
        "fresh_seconds": round(fresh_seconds, 4),
        "store_cold_seconds": round(cold_seconds, 4),
        "store_warm_seconds": round(warm_seconds, 4),
        "speedup_cold": round(speedup_cold, 2),
        "speedup_warm": round(speedup_warm, 2),
        "store_builds": store_runner.store.builds,
        "global_sequence_builds": store_runner.store.global_builds,
        "warm_attaches": warm_runner.store.attaches,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_store_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "store_sweep",
        f"Table-1 sweep at n={N} ({ALGORITHM}, {len(pairs)} pairs, "
        f"serial runners, {len(distinct)} distinct tables of "
        f"{45 * N * N + 8 * N} slots):\n"
        f"  fresh runner, no store {fresh_seconds:8.3f} s\n"
        f"  store, cold            {cold_seconds:8.3f} s  "
        f"({speedup_cold:.2f}x; each table built once into the store)\n"
        f"  store, warm            {warm_seconds:8.3f} s  "
        f"({speedup_warm:.2f}x; attach-only, zero builds)\n"
        "identical measurements on all three paths; store builds == "
        f"{len(distinct)} == distinct (channels, n, algorithm, seed) keys",
    )
    assert warm_seconds <= fresh_seconds * 1.2, (
        f"warm store must not lose to a fresh runner's rebuilds, got "
        f"{speedup_warm:.2f}x ({fresh_seconds:.3f}s vs {warm_seconds:.3f}s)"
    )
