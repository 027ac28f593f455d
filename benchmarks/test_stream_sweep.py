"""The streaming engine measured: vs the scalar loop, and 4 lanes vs 1 inside one pair.

The acceptance bench for ``repro.core.stream``: Jump-Stay is the
baseline whose cubic global period made huge-universe sweeps
unmeasurable — past the schedule table limit the only correct path used
to be the scalar per-shift loop.  Three measurements are recorded to
``results/stream_sweep.txt`` / ``results/BENCH_stream_sweep.json``:

* **both-engines regime** (``n = 64``, period 888,822 slots — under the
  table limit): the streaming engine sweeps the full strided shift set,
  its profile is asserted bit-identical to the scalar loop on a probe
  subset, and both are timed on that subset (the scalar loop is too
  slow for the full set — which is the point);
* **intra-pair parallel regime** (``n = 128`` and ``n = 256`` — past
  the table limit): one pair's sweep through the production scan
  (:func:`~repro.core.stream.ttr_sweep_stream`, auto-tuned
  :class:`~repro.core.stream.TilePlan`) on one thread lane against 4
  lanes, as the median and IQR of interleaved reps.  Extra lanes pay
  off on multi-core machines because numpy releases the GIL inside
  the tile ops.

The gate asserts bit-identical profiles everywhere, a wall-clock win
for streaming over the scalar loop, and a 4-lane median faster than
the 1-lane median at ``n = 128``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.batch import ttr_sweep
from repro.core.schedule import _CACHE_LIMIT
from repro.core.stream import cache_sizes, plan_tiles, ttr_sweep_stream
from repro.core.verification import strided_shift_range, ttr_for_shift
from repro.sim.workloads import single_overlap

N_BOTH = 64
PARALLEL_NS = (128, 256)
K = L = 3
MAX_SHIFTS = 2_000
SCALAR_SUBSET = 48  # shifts the scalar loop is timed on
STREAM_WORKERS = 4
INTRA_PAIR_REPS = 11
MIN_INTRA_PAIR_SPEEDUP = 1.0  # gate at n = 128: 4 lanes must beat 1


def _build(n: int):
    instance = single_overlap(n, K, L, seed=0)
    a = repro.build_schedule(instance.sets[0], n, algorithm="jump-stay")
    b = repro.build_schedule(instance.sets[1], n, algorithm="jump-stay")
    return a, b


def _measure_intra_pair(n: int, interleaved) -> dict:
    """One pair at universe ``n``: the production scan, 1 lane vs 4."""
    a, b = _build(n)
    assert max(a.period, b.period) > _CACHE_LIMIT
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)

    def one_lane():
        return ttr_sweep_stream(a, b, shifts, horizon, workers=1)

    def lanes():
        return ttr_sweep_stream(a, b, shifts, horizon, workers=STREAM_WORKERS)

    parallel = lanes()
    assert parallel == one_lane(), "lane counts must be bit-identical"
    assert all(t is not None for t in parallel.values())
    timings = interleaved(
        {"one_lane": one_lane, "lanes": lanes}, reps=INTRA_PAIR_REPS
    )
    one_s = timings["one_lane"]["median_s"]
    lanes_s = timings["lanes"]["median_s"]
    plan = plan_tiles(len(shifts), horizon, workers=STREAM_WORKERS)
    return {
        "n": n,
        "period": a.period,
        "shifts": len(shifts),
        "worst_ttr": int(max(parallel.values())),
        "method": f"median and IQR over {INTRA_PAIR_REPS} interleaved reps",
        "one_lane": timings["one_lane"],
        "lanes": timings["lanes"],
        "workers": STREAM_WORKERS,
        "tile_plan": {
            "tile_bytes": plan.tile_bytes,
            "block_rows": plan.block_rows,
            "workers": plan.workers,
        },
        "intra_pair_speedup": round(one_s / lanes_s, 2),
        "parity_bit_identical": True,
    }


def test_stream_vs_scalar_and_intra_pair_parallel(benchmark, record, interleaved):
    """Recorded wall-clock comparisons + the bit-identical parity gates."""
    a, b = _build(N_BOTH)
    assert max(a.period, b.period) <= _CACHE_LIMIT
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)

    start = time.perf_counter()
    streamed = ttr_sweep(a, b, shifts, horizon, engine="stream")
    stream_seconds = time.perf_counter() - start

    subset = shifts[:: max(1, len(shifts) // SCALAR_SUBSET)]
    start = time.perf_counter()
    scalar = {s: ttr_for_shift(a, b, s, horizon) for s in subset}
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    stream_subset = ttr_sweep(a, b, subset, horizon, engine="stream")
    stream_subset_seconds = time.perf_counter() - start
    assert stream_subset == scalar
    assert {s: streamed[s] for s in subset} == scalar, (
        "full-set stream profile must match the scalar loop on the probes"
    )

    def intra_pair_rows():
        return [_measure_intra_pair(n, interleaved) for n in PARALLEL_NS]

    intra_pair = benchmark.pedantic(intra_pair_rows, rounds=1, iterations=1)

    speedup = scalar_seconds / stream_subset_seconds
    payload = {
        "algorithm": "jump-stay",
        "workload": f"single_overlap(k=l={K}, seed=0)",
        "both_engines_n": N_BOTH,
        "both_engines_period": a.period,
        "shifts": len(shifts),
        "stream_seconds": round(stream_seconds, 4),
        "scalar_parity_bit_identical": True,
        "scalar_subset_shifts": len(subset),
        "scalar_subset_seconds": round(scalar_seconds, 4),
        "stream_subset_seconds": round(stream_subset_seconds, 4),
        "stream_vs_scalar_speedup": round(speedup, 2),
        "machine": {
            "nproc": os.cpu_count(),
            "cache_sizes": list(cache_sizes()),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "intra_pair": intra_pair,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_stream_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    intra_lines = "".join(
        f"  n={row['n']} (period {row['period']}, {row['shifts']} shifts, "
        f"worst TTR {row['worst_ttr']})\n"
        f"    1 lane               {row['one_lane']['median_s']:8.3f} s"
        f"  (IQR {row['one_lane']['iqr_s']:.3f})\n"
        f"    {row['workers']} lanes              {row['lanes']['median_s']:8.3f} s"
        f"  (IQR {row['lanes']['iqr_s']:.3f}, "
        f"{row['intra_pair_speedup']:.2f}x intra-pair, tile "
        f"{row['tile_plan']['tile_bytes'] >> 10} KiB x "
        f"{row['tile_plan']['block_rows']} rows)\n"
        for row in intra_pair
    )
    record(
        "stream_sweep",
        f"Jump-Stay shift sweeps (single-overlap k=l={K}):\n"
        f"  n={N_BOTH} (period {a.period}, both engines, {len(shifts)} shifts)\n"
        f"    streaming            {stream_seconds:8.3f} s\n"
        f"    scalar, {len(subset):4d} shifts  {scalar_seconds:8.3f} s\n"
        f"    stream, {len(subset):4d} shifts  {stream_subset_seconds:8.3f} s  "
        f"({speedup:.1f}x over scalar)\n"
        f"{intra_lines}"
        f"lanes = ttr_sweep_stream(workers=...), auto-tuned tile plan; "
        f"medians over {INTRA_PAIR_REPS} interleaved reps;\n"
        "all profiles bit-identical",
    )
    assert speedup > 1.0, (
        f"streaming must beat the scalar loop, got {speedup:.2f}x "
        f"({scalar_seconds:.3f}s vs {stream_subset_seconds:.3f}s)"
    )
    gate = intra_pair[0]
    assert gate["intra_pair_speedup"] > MIN_INTRA_PAIR_SPEEDUP, (
        f"{STREAM_WORKERS} lanes must beat 1 lane at n={gate['n']} "
        f"(median), got {gate['intra_pair_speedup']}x"
    )
