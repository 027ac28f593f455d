"""Micro-benchmarks: construction and evaluation throughput.

Not a paper table — engineering numbers a downstream user cares about:
how fast schedules are built and evaluated, and what the verification
engine sustains.  ``test_batched_sweep_speedup`` is the acceptance gate
for the production sweep path (:func:`repro.core.batch.ttr_sweep` over
warm period tables): an exhaustive shift sweep at ``n = 64`` must run
at least 5x faster than the scalar per-shift loop, timed as medians
over interleaved reps, and the measurement is persisted to
``results/BENCH_batched_sweep.json``.  ``test_drds_global_build`` times
the uncached DRDS global build at ``n = 32`` and ``n = 64`` and pins
both outputs by digest (``results/BENCH_drds_global.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import repro
from repro.baselines.drds import build_global_sequence
from repro.core import telemetry
from repro.core.batch import ttr_sweep
from repro.core.epoch import EpochSchedule
from repro.core.pairwise import async_pair_string, pair_schedule_async
from repro.core.ramsey import color_bits, edge_color
from repro.core.stream import cache_sizes
from repro.core.verification import exhaustive_shift_range, ttr_for_shift
from repro.sim.workloads import single_overlap


def test_build_epoch_schedule(benchmark):
    channels = list(range(0, 160, 10))  # k = 16
    benchmark(lambda: EpochSchedule(channels, 1024))


def test_build_size2_string(benchmark):
    n = 1 << 20
    bits = color_bits(edge_color(1234, 99999, n), n)
    benchmark(lambda: async_pair_string(bits))


def test_channel_at_throughput(benchmark):
    schedule = EpochSchedule([3, 17, 40, 99], 128)

    def evaluate() -> int:
        total = 0
        for t in range(2000):
            total += schedule.channel_at(t)
        return total

    benchmark(evaluate)


def test_materialize_throughput(benchmark):
    schedule = EpochSchedule([3, 17, 40, 99], 128)
    benchmark(lambda: schedule.materialize(0, 100_000))


def test_verification_scan(benchmark):
    n = 64
    a = pair_schedule_async(5, 40, n)
    b = pair_schedule_async(40, 63, n)
    benchmark(lambda: ttr_for_shift(a, b, 17, 10_000))


def test_batched_sweep_speedup(record, interleaved):
    """Exhaustive shift sweep, scalar loop vs the production ttr_sweep."""
    n = 64
    instance = single_overlap(n, 3, 3, seed=2)
    a = repro.build_schedule(instance.sets[0], n)
    b = repro.build_schedule(instance.sets[1], n)
    shifts = list(exhaustive_shift_range(a, b))
    horizon = 4 * max(a.period, b.period)

    # Warm the period-table caches so neither side pays one-time
    # construction inside its timed region (the sweep then reads the
    # tables through window views).
    a.period_table(), b.period_table()
    scalar = {s: ttr_for_shift(a, b, s, horizon) for s in shifts}
    assert ttr_sweep(a, b, shifts, horizon) == scalar, (
        "production sweep must be bit-identical to scalar"
    )
    timings = interleaved(
        {
            "scalar": lambda: [ttr_for_shift(a, b, s, horizon) for s in shifts],
            "sweep": lambda: ttr_sweep(a, b, shifts, horizon),
        },
        reps=9,
    )
    scalar_t, sweep_t = timings["scalar"], timings["sweep"]
    speedup = scalar_t["median_s"] / sweep_t["median_s"]
    payload = {
        "n": n,
        "workload": "single_overlap(k=l=3, seed=2)",
        "shifts": len(shifts),
        "horizon": horizon,
        "path": "repro.core.batch.ttr_sweep (engine='auto', warm tables)",
        "reps": 9,
        **{
            f"{name}_{key}": round(timings[name][key], 6)
            for name in ("scalar", "sweep")
            for key in ("median_s", "iqr_s")
        },
        "speedup": round(speedup, 2),
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_batched_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "micro_batched_sweep",
        f"exhaustive sweep, n={n}, {len(shifts)} shifts (median of 9 "
        f"interleaved reps): scalar {scalar_t['median_s'] * 1e3:.1f} ms, "
        f"ttr_sweep {sweep_t['median_s'] * 1e3:.1f} ms "
        f"(IQR {sweep_t['iqr_s'] * 1e3:.1f} ms, {speedup:.1f}x)",
    )
    assert speedup >= 5, f"ttr_sweep only {speedup:.1f}x faster than scalar"


def _sequence_digest(sequence: np.ndarray) -> str:
    """First 16 hex digits of sha256 over the little-endian int64 bytes."""
    return hashlib.sha256(sequence.astype("<i8").tobytes()).hexdigest()[:16]


DRDS_DIGESTS = {32: "18c7b827484a49ad", 64: "0635f1981bda3728"}


def test_drds_global_build(record, interleaved):
    """Uncached DRDS global build: n = 32 timed over interleaved reps,
    n = 64 (the Table-1 top size) timed once; both digests pinned."""

    def build(n: int) -> np.ndarray:
        build_global_sequence.cache_clear()
        return build_global_sequence(n)

    reps = 5
    timings = interleaved({"n32": lambda: build(32)}, reps=reps)["n32"]
    assert _sequence_digest(build(32)) == DRDS_DIGESTS[32]

    build_global_sequence.cache_clear()
    telemetry.reset()
    telemetry.enable()
    try:
        start = time.perf_counter()
        sequence = build_global_sequence(64)
        n64_s = time.perf_counter() - start
        tree = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert _sequence_digest(sequence) == DRDS_DIGESTS[64]

    payload = {
        "path": "repro.baselines.drds.build_global_sequence (uncached)",
        "method": f"n=32: median and IQR over {reps} interleaved reps; "
        "n=64: one build with telemetry on",
        "machine": {
            "nproc": os.cpu_count(),
            "cache_sizes": list(cache_sizes()),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "n32": timings,
        "n64_s": round(n64_s, 4),
        "n64_patch_pairs": tree["counters"]["drds.patch_pairs"],
        "n64_telemetry": tree,
        "digests": DRDS_DIGESTS,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_drds_global.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "micro_drds_global",
        f"DRDS global build: n=32 {timings['median_s']:.3f} s (median of "
        f"{reps} interleaved reps, IQR {timings['iqr_s']:.3f} s); n=64 "
        f"{n64_s:.2f} s, {payload['n64_patch_pairs']} patch pairs; "
        "digests match",
    )


def test_simulator_network_run(benchmark):
    from repro.sim import Agent, Network

    n = 32
    sets = [{1, 9, 17}, {9, 25}, {17, 25, 31}, {1, 31}]
    agents = [
        Agent(f"a{i}", repro.build_schedule(s, n), wake_time=7 * i)
        for i, s in enumerate(sets)
    ]
    benchmark(lambda: Network(agents).run(20_000))
