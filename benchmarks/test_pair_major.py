"""Stacking: the whole Table-1 cell grid in one tile pass.

The per-pair streaming loop pays its fixed costs — engine dispatch,
tile-plan sizing, fixed-row cache construction, a short final partial
tile — once per (algorithm, n, seed) cell.  Stacking
(:func:`repro.core.stream.ttr_sweep_pairs`) puts every cell's shift
rows into one row table and scans them in shared tiles, so those costs
amortize across the grid.  This bench measures the full asymmetric
Table-1 grid stacked against the production per-pair path — a
``ttr_sweep_stream(workers=1)`` call per cell, the same kernel on a
one-job table — asserts the profiles are bit-identical, and gates the
stacked pass on being no slower (median over interleaved reps).  The
auto-dispatched per-pair loop is recorded alongside for context.

Writes ``benchmarks/results/BENCH_pair_major.json``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import format_table
from repro.core import telemetry
from repro.core.batch import ttr_sweep
from repro.core.stream import cache_sizes, ttr_sweep_pairs, ttr_sweep_stream
from repro.core.verification import strided_shift_range
from repro.sim.workloads import single_overlap

ALGORITHMS = ("paper", "crseq", "drds", "zos", "jump-stay")
NS = (16, 32, 64)
SEEDS = (0, 1)
K = L = 3
MAX_SHIFTS = 256
REPS = 9

#: The stacked pass must be no slower than the per-pair production
#: loop (median over interleaved reps), or stacking has no reason to be.
MAX_STACKED_RATIO = 1.0


@pytest.fixture(scope="module")
def grid():
    """One sweep job per Table-1 cell: (algorithm, n, seed)."""
    cells, jobs, horizons = [], [], []
    for algorithm in ALGORITHMS:
        for n in NS:
            for seed in SEEDS:
                instance = single_overlap(n, K, L, seed=seed)
                a = repro.build_schedule(
                    instance.sets[0], n, algorithm=algorithm
                )
                b = repro.build_schedule(
                    instance.sets[1], n, algorithm=algorithm
                )
                shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
                cells.append((algorithm, n, seed))
                jobs.append((a, b, shifts))
                horizons.append(4 * max(a.period, b.period))
    return cells, jobs, horizons


def _traced(fn) -> dict:
    """One telemetry-on run of ``fn``: the phase tree it produced."""
    telemetry.enable()
    telemetry.reset()
    try:
        fn()
        return telemetry.snapshot()
    finally:
        telemetry.disable()


def test_stacked_no_slower_than_per_pair_loop(
    benchmark, grid, record, interleaved
):
    cells, jobs, horizons = grid

    def per_pair_loop():
        return [
            ttr_sweep_stream(a, b, shifts, horizon, workers=1)
            for (a, b, shifts), horizon in zip(jobs, horizons)
        ]

    def stacked():
        return ttr_sweep_pairs(jobs, horizons, workers=1)

    def auto_loop():
        return [
            ttr_sweep(a, b, shifts, horizon)
            for (a, b, shifts), horizon in zip(jobs, horizons)
        ]

    # Parity first: the stacked pass must be bit-identical to the
    # per-pair loop and to the auto-dispatched engine, cell by cell.
    stacked_profiles = stacked()
    assert stacked_profiles == per_pair_loop()
    assert stacked_profiles == auto_loop()

    timings = interleaved(
        {"per_pair": per_pair_loop, "stacked": stacked, "auto": auto_loop},
        reps=REPS,
    )
    benchmark.pedantic(stacked, rounds=1, iterations=1)
    tree = _traced(stacked)

    loop_s = timings["per_pair"]["median_s"]
    stacked_s = timings["stacked"]["median_s"]
    auto_s = timings["auto"]["median_s"]
    ratio = stacked_s / loop_s
    total_shifts = sum(len(shifts) for _, _, shifts in jobs)
    rows = [
        [label, f"{t['median_s'] * 1000:.1f}", f"{t['iqr_s'] * 1000:.1f}",
         f"{t['median_s'] / loop_s:.2f}"]
        for label, t in (
            ("per-pair stream loop (1 lane)", timings["per_pair"]),
            ("per-pair auto loop", timings["auto"]),
            ("stacked (1 lane)", timings["stacked"]),
        )
    ]
    record(
        "pair_major_speedup",
        f"stacking vs per-pair loops: full Table-1 grid "
        f"({len(cells)} cells, {total_shifts} shift rows), median of "
        f"{REPS} interleaved reps\n"
        + format_table(
            ["path", "median (ms)", "IQR (ms)", "time vs stream loop"], rows
        )
        + "\nprofiles bit-identical across all three paths",
    )

    payload = {
        "grid": {
            "algorithms": list(ALGORITHMS),
            "ns": list(NS),
            "seeds": list(SEEDS),
            "workload": f"single_overlap(k=l={K})",
            "cells": len(cells),
            "shift_rows": total_shifts,
            "shift_classes": f"two-sided strided, <= {MAX_SHIFTS} per cell",
            "horizon": "4 x max period per cell",
        },
        "method": f"median and IQR over {REPS} interleaved reps",
        "machine": {
            "nproc": os.cpu_count(),
            "cache_sizes": list(cache_sizes()),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "per_pair_stream_loop": timings["per_pair"],
        "per_pair_auto_loop": timings["auto"],
        "stacked": timings["stacked"],
        "stacked_vs_stream_loop_ratio": round(ratio, 3),
        "stacked_vs_auto_loop_ratio": round(stacked_s / auto_s, 3),
        "max_stacked_ratio": MAX_STACKED_RATIO,
        "stacked_telemetry": tree,
        "parity": "bit-identical across stacked, stream loop, auto loop",
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_pair_major.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert ratio <= MAX_STACKED_RATIO, (
        f"stacking must be no slower than the per-pair stream loop: "
        f"{stacked_s * 1000:.1f} ms vs {loop_s * 1000:.1f} ms (median)"
    )
