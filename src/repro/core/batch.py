"""Batched shift-sweep verification engine.

The paper's asynchronous rendezvous guarantee (Section 2) quantifies
over *all* relative wake-up offsets, and its Table-1 comparison rests
on worst-case TTRs — so honest reproduction means exhaustive shift
sweeps, not samples.  The scalar path in
:mod:`repro.core.verification` answers "when do these two schedules
first coincide at relative shift ``s``?" one shift at a time,
re-materializing schedule windows per call.  Benchmarks sweep thousands
of shifts per pair, so this module computes the whole profile in one
vectorized pass (methodology write-up: ``docs/BENCHMARKS.md``):

* both schedules are materialized **once** over a full period
  (:meth:`~repro.core.schedule.Schedule.period_table`);
* a shift only enters the comparison through the pair of phase offsets
  ``(s mod period_A, 0)`` (``s >= 0``: B wakes later) or
  ``(0, -s mod period_B)`` (``s < 0``), so shifts are deduplicated down
  to their distinct offset pairs before any work happens;
* for a block of offsets and a block of time, the ``(shift, time)``
  coincidence matrix is assembled from *window views* of the tiled
  period tables (:func:`numpy.lib.stride_tricks.sliding_window_view` —
  one row-gather per block instead of per-element modular indexing) and
  scanned with ``any``/``argmax``;
* time blocks grow geometrically (most shifts rendezvous early; rows
  that already hit drop out of later blocks) and the block area is
  capped by ``max_cells`` so memory stays bounded for huge sweeps;
* the scan stops at ``lcm(period_A, period_B)`` slots even when the
  caller's horizon is larger: the joint pattern is periodic, so a shift
  silent for a full joint period never rendezvouses.

``ttr_sweep`` is also the engine *dispatcher*: tiny joint periods go
to the scalar reference loop (vectorized setup would dominate),
moderate periods to the batched table path here, and periods beyond
``BATCH_TABLE_LIMIT`` (Jump-Stay's cubic period at large ``n``) to the
streaming tiled engine (:mod:`repro.core.stream`), which never
materializes a table — correctness never depends on any one path, and
``engine=`` forces a specific one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import schedule as _schedule
from repro.core import stream as _stream
from repro.core import telemetry
from repro.core.environment import Environment, effective_horizon
from repro.core.schedule import Schedule

__all__ = [
    "ttr_sweep",
    "ttr_sweep_pairs",
    "choose_engine",
    "BATCH_TABLE_LIMIT",
    "SCALAR_JOINT_LIMIT",
    "STRIDED_DISPATCH_FACTOR",
    "ENGINES",
]

# Largest period (slots) worth materializing as a full table; beyond it
# the streaming tiled engine takes over.  Shares the schedule cache
# limit so the batched path never sweeps against tables period_table()
# won't cache.
BATCH_TABLE_LIMIT = _schedule._CACHE_LIMIT

#: Joint periods (lcm of the pair) at or below this go to the scalar
#: reference loop under ``engine="auto"`` — at this size the batched
#: engine's vectorized setup costs more than the whole scan.
SCALAR_JOINT_LIMIT = 64

#: Valid values for the ``engine`` selector.
ENGINES = ("auto", "batched", "stream", "scalar")

#: Auto-dispatch shape test: a sweep is "one-shot strided" when its
#: shift count times this factor still undershoots the larger period —
#: the batched engine would then spend its time materializing and
#: tiling period tables whose rows the sweep never touches, and the
#: streaming engine wins (``docs/TUNING.md``, engine-selection table).
#: Only applies when a table is actually cold; warm tables make the
#: batched path's setup free, so reuse wins.
STRIDED_DISPATCH_FACTOR = 64

_INITIAL_TIME_BLOCK = 256


def ttr_sweep(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    shifts: Iterable[int],
    horizon: int,
    max_cells: int = 1 << 21,
    engine: str = "auto",
    tile_bytes: int | None = None,
    stream_workers: int | None = None,
    checkpoint: _stream.SweepCheckpoint | None = None,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """TTR for every relative shift, in one batched or streamed pass.

    Semantics are identical to calling
    :func:`repro.core.verification.ttr_for_shift` per shift: the result
    maps each shift to the first slot (counted from the later wake-up)
    where the schedules coincide, or ``None`` when no coincidence occurs
    within ``horizon`` slots.  ``max_cells`` bounds the area of any
    single ``(shift, time)`` block on the batched path, which bounds
    peak memory.

    ``engine`` selects the execution path (see :data:`ENGINES`):
    ``"auto"`` — the default — dispatches on period size *and* sweep
    shape: the scalar loop for tiny joint periods, the streaming tiled
    engine of :mod:`repro.core.stream` beyond ``BATCH_TABLE_LIMIT``
    and for one-shot strided sweeps under it (a cold table whose period
    dwarfs the shift count by :data:`STRIDED_DISPATCH_FACTOR` — table
    materialization would dominate), and the batched table path
    otherwise (tables warm or worth building); the explicit names force
    one path.  ``tile_bytes`` pins the streaming tile budget and
    ``stream_workers`` the streaming engine's intra-pair thread lanes
    (both ``None`` by default: the auto-tuner sizes tiles from the
    machine's cache topology and uses one lane per CPU — see
    :func:`repro.core.stream.plan_tiles` and ``docs/TUNING.md``).  All
    engines return bit-identical results.

    ``checkpoint`` attaches a
    :class:`~repro.core.stream.SweepCheckpoint` for a resumable scan;
    checkpointing is a streaming-engine feature, so ``"auto"`` then
    dispatches straight to the stream path and forcing any other
    engine raises ``ValueError``.

    Either side may be a raw 1-D period array instead of a
    :class:`~repro.core.schedule.Schedule` — e.g. a read-only memmap
    attached from a :class:`~repro.core.store.ScheduleStore`.  An
    int64 table is used as-is, never copied (other dtypes are
    converted once): the array *is* the period table, its length the
    period.

    ``environment`` applies a deterministic per-slot validity mask
    (:mod:`repro.core.environment`) to every coincidence, evaluated on
    the TTR clock — one extra masked compare per block, bit-identical
    across all engines.  An aperiodic mask disables the lcm early-stop:
    the scan then covers the caller's full horizon
    (:func:`repro.core.environment.effective_horizon`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if checkpoint is not None and engine not in ("auto", "stream"):
        raise ValueError(
            f"checkpointing needs the streaming engine, got engine={engine!r}"
        )
    a = _coerce_schedule(a)
    b = _coerce_schedule(b)
    shift_list = [int(s) for s in shifts]
    if not shift_list:
        return {}
    if horizon <= 0:
        return {s: None for s in shift_list}
    joint = math.lcm(a.period, b.period)
    if engine == "auto":
        engine = choose_engine(
            a, b, len(shift_list), checkpoint=checkpoint is not None
        )
    if engine == "scalar":
        # The joint pattern repeats every lcm slots, so capping the
        # scalar scan there preserves every answer (including misses) —
        # unless an aperiodic environment mask breaks the periodicity
        # argument, in which case the full horizon is scanned.
        return _scalar_sweep(
            a, b, shift_list, effective_horizon(horizon, joint, environment),
            environment,
        )
    if engine == "stream":
        return _stream.ttr_sweep_stream(
            a,
            b,
            shift_list,
            horizon,
            tile_bytes=tile_bytes,
            workers=stream_workers,
            checkpoint=checkpoint,
            environment=environment,
        )
    if a.period > BATCH_TABLE_LIMIT or b.period > BATCH_TABLE_LIMIT:
        raise ValueError(
            f"engine='batched' needs both periods <= {BATCH_TABLE_LIMIT}, "
            f"got {a.period} and {b.period}; use engine='stream'"
        )

    # Distinct offset pairs are the real work items: an exhaustive sweep
    # over lcm(Pa, Pb) shifts collapses to at most Pa (or Pb) rows.  The
    # reduction is shared with the streaming engine — bit-identical
    # cross-engine results depend on it staying single-sourced.
    unique_pairs, inverse = _stream.reduce_shifts(a, b, shift_list)

    # The joint pattern repeats every lcm slots: nothing new after that
    # — except under an aperiodic environment mask (full horizon then).
    effective = effective_horizon(horizon, joint, environment)
    # Every shift pins one side's offset to zero.  Profiling the sign
    # groups separately keeps that side on the constant-start fast path
    # in _windows (one tiled row) instead of forcing a strided gather
    # for both tables across a mixed block — two-sided exhaustive
    # sweeps run ~2x faster this way.
    ttrs = np.empty(len(unique_pairs), dtype=np.int64)
    negative = unique_pairs[:, 1] != 0
    with telemetry.span("batch.sweep"):
        for group in (~negative, negative):
            if group.any():
                ttrs[group] = _profile_offsets(
                    a.period_table(),
                    b.period_table(),
                    unique_pairs[group, 0],
                    unique_pairs[group, 1],
                    effective,
                    max_cells,
                    environment,
                )
    return _stream.scatter_ttrs(shift_list, ttrs, inverse)


def choose_engine(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    num_shifts: int,
    checkpoint: bool = False,
) -> str:
    """The engine ``engine="auto"`` resolves to for one sweep shape.

    Pure decision function (no sweeping happens) — the single source of
    the auto-dispatch policy, exposed so tests can pin each regime and
    callers can preview a dispatch.  In order:

    * ``checkpoint`` → ``"stream"`` (a streaming-engine feature);
    * joint period at most :data:`SCALAR_JOINT_LIMIT` → ``"scalar"``
      (vectorized setup would dominate);
    * either period beyond :data:`BATCH_TABLE_LIMIT` → ``"stream"``
      (the table no longer fits the schedule cache);
    * one-shot strided shape (:func:`_one_shot_strided`: the shift
      count times :data:`STRIDED_DISPATCH_FACTOR` undershoots the
      largest *cold* period — warm tables don't count against the
      batched path, their reuse is free) → ``"stream"``;
    * otherwise → ``"batched"``.
    """
    a = _coerce_schedule(a)
    b = _coerce_schedule(b)
    if checkpoint:
        return "stream"
    if math.lcm(a.period, b.period) <= SCALAR_JOINT_LIMIT:
        return "scalar"
    if a.period > BATCH_TABLE_LIMIT or b.period > BATCH_TABLE_LIMIT:
        return "stream"
    if _one_shot_strided(a, b, num_shifts):
        return "stream"
    return "batched"


def ttr_sweep_pairs(
    jobs: Iterable[tuple[Schedule | np.ndarray, Schedule | np.ndarray, Iterable[int]]],
    horizon: int | Iterable[int],
    max_cells: int = 1 << 21,
    engine: str = "auto",
    tile_bytes: int | None = None,
    stream_workers: int | None = None,
    environment: Environment | None = None,
) -> list[dict[int, int | None]]:
    """TTR profiles for many schedule pairs, stacked when possible.

    The multi-pair face of :func:`ttr_sweep`: ``jobs`` is a sequence of
    ``(a, b, shifts)`` items, ``horizon`` one shared horizon or a
    per-job sequence, and the result is one shift→TTR mapping per job,
    bit-identical to calling :func:`ttr_sweep` per job with the same
    arguments.  ``engine="auto"`` or ``"stream"`` runs the whole batch
    through one stacked tile pass
    (:func:`repro.core.stream.ttr_sweep_pairs` — one chunk loop
    amortizes dispatch, planning, and fixed-row work across every
    pair); ``"batched"`` and ``"scalar"`` fall back to a per-job
    :func:`ttr_sweep` loop.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine in ("auto", "stream"):
        return _stream.ttr_sweep_pairs(
            jobs,
            horizon,
            tile_bytes=tile_bytes,
            workers=stream_workers,
            environment=environment,
        )
    job_list = list(jobs)
    if isinstance(horizon, Iterable):
        horizons = [int(h) for h in horizon]
        if len(horizons) != len(job_list):
            raise ValueError(
                f"got {len(horizons)} horizons for {len(job_list)} jobs"
            )
    else:
        horizons = [int(horizon)] * len(job_list)
    return [
        ttr_sweep(
            a, b, shifts, h, max_cells=max_cells, engine=engine,
            environment=environment,
        )
        for (a, b, shifts), h in zip(job_list, horizons)
    ]


def _coerce_schedule(x: Schedule | np.ndarray) -> Schedule:
    """Shared raw-array adapter (see :func:`repro.core.store.coerce_schedule`)."""
    from repro.core.store import coerce_schedule

    return coerce_schedule(x)


def _one_shot_strided(a: Schedule, b: Schedule, num_shifts: int) -> bool:
    """Whether a storable-period sweep should stream anyway.

    True when the sweep is strided relative to the *cold* tables: the
    shift count times :data:`STRIDED_DISPATCH_FACTOR` undershoots the
    largest period whose table still has to be built (building one
    costs a full pass over the period, and a strided sweep then mostly
    leaves its rows unread).  Warm tables
    (:meth:`~repro.core.schedule.Schedule.has_warm_table`) never count
    against the batched path — their reuse makes its setup free — so a
    warm huge table next to a cold small one no longer drags the pair
    to the streaming engine: only the small cold build is weighed.
    With no cold side at all the batched path always wins.
    """
    cold = [s.period for s in (a, b) if not s.has_warm_table()]
    if not cold:
        return False
    return num_shifts * STRIDED_DISPATCH_FACTOR <= max(cold)


def _scalar_sweep(
    a: Schedule,
    b: Schedule,
    shifts: list[int],
    horizon: int,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    from repro.core.verification import ttr_for_shift

    with telemetry.span("scalar.sweep"):
        return {
            s: ttr_for_shift(a, b, s, horizon, environment=environment)
            for s in shifts
        }


def _windows(table: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """Rows ``table[(start + t) % period]`` for ``t < length``, batched.

    Tiles the period table far enough to cover ``max(starts) + length``
    and gathers one contiguous window per start from a strided view —
    a row memcpy per window rather than a modular index per element.
    """
    period = table.size
    if starts.size and starts.min() == starts.max():
        start = int(starts[0])
        reps = -(-(start + length) // period)
        row = np.tile(table, reps)[start : start + length]
        return row[np.newaxis, :]
    reps = -(-(period + length) // period)
    tiled = np.tile(table, reps)
    return sliding_window_view(tiled, length)[starts]


def _profile_offsets(
    table_a: np.ndarray,
    table_b: np.ndarray,
    off_a: np.ndarray,
    off_b: np.ndarray,
    horizon: int,
    max_cells: int,
    environment: Environment | None = None,
) -> np.ndarray:
    """First-coincidence slot per offset pair; ``-1`` marks a miss.

    With an ``environment``, each block's coincidence matrix is ANDed
    with the mask over its ``(channel, TTR-clock slot)`` cells — the
    one extra masked compare the environment layer costs.
    """
    num = off_a.size
    result = np.full(num, -1, dtype=np.int64)
    shift_block = max(1, max_cells // _INITIAL_TIME_BLOCK)
    for lo in range(0, num, shift_block):
        hi = min(lo + shift_block, num)
        remaining = np.arange(lo, hi)
        t0 = 0
        block = min(_INITIAL_TIME_BLOCK, horizon, max(1, max_cells // (hi - lo)))
        while t0 < horizon and remaining.size:
            t1 = min(t0 + block, horizon)
            length = t1 - t0
            with telemetry.span("batch.assemble") as tile_span:
                wa = _windows(
                    table_a, (off_a[remaining] + t0) % table_a.size, length
                )
                wb = _windows(
                    table_b, (off_b[remaining] + t0) % table_b.size, length
                )
                tile_span.add_bytes(wa.nbytes + wb.nbytes)
            with telemetry.span("batch.compare"):
                eq = wa == wb
            if environment is not None:
                with telemetry.span("batch.mask"):
                    eq = eq & environment.slot_mask(
                        wa, np.arange(t0, t1, dtype=np.int64)
                    )
            with telemetry.span("batch.retire"):
                hit = eq.any(axis=1)
                if hit.any():
                    result[remaining[hit]] = t0 + eq[hit].argmax(axis=1)
                    remaining = remaining[~hit]
            t0 = t1
            # Survivors are the slow rows: widen the time window so the
            # scan stays O(horizon) passes, within the memory budget.
            block = min(block * 2, max(1, max_cells // max(remaining.size, 1)))
    return result
