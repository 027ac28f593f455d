"""Streaming tiled-sweep verification engine: the one first-meet kernel.

Every worst-TTR answer in this repo — the paper's Section-2 guarantee,
the Table-1 comparison, Jump-Stay's cubic period at ``n = 128`` and
beyond — reduces to one predicate: the first slot at which two
schedules meet, for each relative wake-up shift.  This module computes
it for whole shift sets by walking fixed-byte ``(shift-block,
time-block)`` **tiles**:

* each tile's channel rows come from the schedule's *tile source*,
  chosen per schedule by :func:`_warm_table`: a warm period table
  (cached, wrapped, or a store memmap) is read through slices and
  :func:`~numpy.lib.stride_tricks.sliding_window_view` window views —
  a row memcpy per shift; any other schedule generates its rows on
  demand through :meth:`~repro.core.schedule.Schedule.channel_block` /
  :meth:`~repro.core.schedule.Schedule.channel_gather` (vectorized
  closed forms for the global sequences; a generic modular-index
  fallback otherwise), so no full period is ever required;
* every shift is first reduced to its phase-offset pair (``s >= 0``
  acts through ``s mod period_A``, ``s < 0`` through ``-s mod
  period_B``), and duplicate offsets are deduplicated before any work
  happens;
* tiles carry per-shift *first-meet* state: a shift row that has
  already rendezvoused retires and never costs another cell, and time
  blocks grow geometrically as rows drop out (most shifts meet early);
* the scan stops at ``lcm(period_A, period_B)`` slots even when the
  caller's horizon is larger: the joint pattern is periodic, so a
  silent joint period means no rendezvous ever — unless an aperiodic
  fault environment (:mod:`repro.core.environment`) is attached, which
  voids the periodicity argument and forces the full horizon
  (:func:`repro.core.environment.effective_horizon`).

One kernel implements those semantics.  Work is a **row table**: every
deduped shift class of every job becomes one row carrying (varying
schedule, fixed schedule, offset, effective horizon, start frontier).
:func:`ttr_sweep_stream` is a one-job table and :func:`ttr_sweep_pairs`
stacks many jobs — e.g. a whole Table-1 cell grid — into one:

* rows sort by (fixed schedule, varying schedule, offset) and split
  into independent **shift blocks** (a :class:`TilePlan` decides how
  many rows per block and how many bytes per tile — :func:`plan_tiles`
  auto-tunes both from the worker count, the machine's L2/L3 cache
  sizes, and the problem shape; rows that fit one tile run as one
  block on one lane);
* each run of rows sharing a (fixed, varying) schedule pair gathers
  its varying side in *one* vectorized read (dense runs take one
  contiguous chunk and slice strided window views out of it) and
  compares it against *one* broadcast row of the fixed side, memoized
  per time window and shared by every block;
* every row retires independently under its own horizon, and a row's
  start frontier is where its scan resumes — checkpoint resume
  (:class:`SweepCheckpoint`) is nothing more than that column;
* with more than one lane the blocks fan out over a thread pool —
  numpy releases the GIL inside the tile-sized comparisons and
  gathers, so the lanes genuinely overlap on multi-core machines.
  Blocks touch disjoint result rows, so the merge is race-free and the
  result is bit-identical to any serial order.

Results are bit-identical across every worker count, every tile plan,
every tile source, every stacking of jobs, and the scalar engine —
``tests/core/test_stream.py`` certifies the parity matrix against the
scalar :func:`repro.core.verification.ttr_for_shift` loop across every
workload generator, and ``tests/core/test_differential.py`` adds a
randomized cross-engine safety net.  Tuning guidance lives in
``docs/TUNING.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import telemetry
from repro.core.environment import (
    Environment,
    effective_horizon,
    environment_digest,
)
from repro.core.schedule import Schedule

__all__ = [
    "ttr_sweep_stream",
    "ttr_sweep_pairs",
    "reduce_shifts",
    "scatter_ttrs",
    "TilePlan",
    "plan_tiles",
    "cache_sizes",
    "SweepCheckpoint",
]

_INITIAL_TIME_BLOCK = 256
_BYTES_PER_CELL = 8  # int64 channel ids

# Auto-tuner clamps: a tile below 16 KiB drowns in per-tile dispatch
# overhead; one above 8 MiB stops fitting any per-core cache level.
_MIN_TILE_BYTES = 1 << 14
_MAX_TILE_BYTES = 1 << 23
# Shift blocks per worker lane: >1 so early-retiring lanes can steal
# remaining blocks from the queue instead of idling.
_BLOCKS_PER_WORKER = 4
# Cache-size fallbacks when the sysfs topology is unreadable.
_FALLBACK_L2_BYTES = 1 << 20
_FALLBACK_L3_BYTES = 1 << 25


def _parse_cache_size(text: str) -> int | None:
    """Parse a sysfs cache size string (``'2048K'``, ``'8M'``) to bytes."""
    text = text.strip().upper()
    scale = 1
    if text.endswith("K"):
        scale, text = 1 << 10, text[:-1]
    elif text.endswith("M"):
        scale, text = 1 << 20, text[:-1]
    try:
        return int(text) * scale
    except ValueError:
        return None


@functools.lru_cache(maxsize=1)
def cache_sizes() -> tuple[int, int]:
    """Best-effort ``(L2, L3)`` data-cache sizes of this machine, in bytes.

    Probed once from the Linux sysfs cache topology
    (``/sys/devices/system/cpu/cpu0/cache``) and memoized; platforms
    without it get the conservative fallbacks (1 MiB L2, 32 MiB L3).
    Deterministic on a given machine — the auto-tuner's plans therefore
    are too.
    """
    l2, l3 = _FALLBACK_L2_BYTES, _FALLBACK_L3_BYTES
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []
    for name in names:
        if not name.startswith("index"):
            continue
        base = os.path.join(root, name)
        try:
            with open(os.path.join(base, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, "type")) as handle:
                kind = handle.read().strip()
            with open(os.path.join(base, "size")) as handle:
                size = _parse_cache_size(handle.read())
        except (OSError, ValueError):
            continue
        if kind not in ("Unified", "Data") or size is None:
            continue
        if level == 2:
            l2 = size
        elif level == 3:
            l3 = size
    return l2, max(l2, l3)


@dataclass(frozen=True)
class TilePlan:
    """One resolved tiling decision for the blocked streaming scan.

    ``tile_bytes`` bounds the bytes of any single ``(shift, time)``
    tile *per worker lane*; ``block_rows`` is how many deduped shift
    classes one independent block carries; ``workers`` is the number of
    thread lanes the blocks fan out over.  Results are invariant under
    every plan — a plan only moves wall-clock and peak memory.  Build
    one with :func:`plan_tiles` (auto-tuned) or directly (pinned, e.g.
    in tests that force degenerate shapes).
    """

    tile_bytes: int
    block_rows: int
    workers: int

    def __post_init__(self):
        if self.tile_bytes <= 0:
            raise ValueError(f"tile_bytes must be positive, got {self.tile_bytes}")
        if self.block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {self.block_rows}")
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")

    @property
    def cells(self) -> int:
        """Int64 cells one tile may hold under ``tile_bytes``."""
        return max(1, self.tile_bytes // _BYTES_PER_CELL)


def plan_tiles(
    num_offsets: int,
    horizon: int,
    workers: int | None = None,
    tile_bytes: int | None = None,
    caches: tuple[int, int] | None = None,
) -> TilePlan:
    """Auto-tune a :class:`TilePlan` for one blocked streaming scan.

    Pure arithmetic over the problem shape (``num_offsets`` deduped
    shift classes, ``horizon`` slots), the worker count (``None``: one
    lane per CPU), and the machine's cache sizes (``caches`` overrides
    the memoized :func:`cache_sizes` probe) — no wall-clock or RNG
    input, so the same arguments always produce the same plan.

    Sizing policy, in order:

    * **tile** — ``None`` targets half the L2 cache (clamped to
      16 KiB .. 8 MiB) so one lane's working tile stays cache-resident;
      with multiple lanes the per-lane tile is additionally capped so
      all lanes together leave half the L3 free.  An explicit
      ``tile_bytes`` pins the budget unchanged.
    * **block rows** — serial scans, and any scan whose rows all fit
      one tile, take the widest block one tile can hold (fewer tiles,
      best vectorization; a one-tile scan then runs inline, with no
      thread pool to pay for); larger parallel scans split the rows
      into ``workers * 4`` blocks (bounded by the tile cap) so lanes
      that retire early pick up remaining blocks instead of idling.
    * **workers** — clamped to the number of blocks; extra lanes could
      never receive work.
    """
    if num_offsets < 0:
        raise ValueError(f"num_offsets must be nonnegative, got {num_offsets}")
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, int(workers))
    if tile_bytes is None:
        l2, l3 = caches if caches is not None else cache_sizes()
        tile = min(max(l2 // 2, _MIN_TILE_BYTES), _MAX_TILE_BYTES)
        if workers > 1:
            tile = min(tile, max(_MIN_TILE_BYTES, (l3 // 2) // workers))
    else:
        if tile_bytes <= 0:
            raise ValueError(f"tile_bytes must be positive, got {tile_bytes}")
        tile = int(tile_bytes)
    cells = max(1, tile // _BYTES_PER_CELL)
    initial_block = min(_INITIAL_TIME_BLOCK, max(1, horizon))
    rows_cap = max(1, cells // initial_block)
    rows = max(1, num_offsets)
    if workers > 1 and rows > rows_cap:
        per_lane = -(-rows // (workers * _BLOCKS_PER_WORKER))
        block_rows = max(1, min(rows_cap, per_lane))
    else:
        block_rows = min(rows_cap, rows)
    num_blocks = -(-rows // block_rows)
    return TilePlan(
        tile_bytes=tile, block_rows=block_rows, workers=min(workers, num_blocks)
    )


#: Sentinel in a checkpoint's ``resolved`` arrays for a shift row whose
#: first-meet scan has not finished (``-1`` is a certified miss; ``>= 0``
#: a hit).  Never escapes into sweep results.
_UNRESOLVED = -2


class SweepCheckpoint:
    """Checkpoint sink for resumable streaming sweeps.

    Attach one to :func:`ttr_sweep_stream` (or
    :func:`repro.core.batch.ttr_sweep` with ``checkpoint=``) and the
    scan snapshots its state to ``path`` at time-block boundaries:
    every retired shift row's final TTR (or certified miss) plus the
    resume cursor — the time frontier each still-live row has been
    scanned to.  Re-running the same sweep with the same sink then
    *resumes*: retired rows are answered from the snapshot, live rows
    rescan only from (at most) their recorded frontier, and the merged
    profile is bit-identical to an uninterrupted run — first-meet
    results are invariant under where the scan was cut.

    The snapshot is keyed by a spec digest (periods, deduped offset
    pairs, effective horizon); a snapshot from a *different* sweep is
    ignored and overwritten, never merged.  Saves are atomic (temp file
    plus ``os.replace``), so a kill mid-save leaves the previous valid
    snapshot.  ``interval_blocks`` sets the save cadence: a snapshot
    every that many time-block boundaries (``1``: every boundary —
    maximal resumability, maximal I/O).  ``saves`` counts snapshots
    actually written; ``clear()`` deletes the file (the runner calls it
    after a sweep completes).
    """

    def __init__(self, path: str | os.PathLike, interval_blocks: int = 1):
        if interval_blocks <= 0:
            raise ValueError(
                f"interval_blocks must be positive, got {interval_blocks}"
            )
        self.path = Path(path)
        self.interval_blocks = int(interval_blocks)
        self.saves = 0

    def load(self) -> dict | None:
        """The last snapshot, or ``None`` when absent or unreadable."""
        try:
            state = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        return state if isinstance(state, dict) else None

    def save(self, state: dict) -> None:
        """Atomically persist one snapshot (temp file + ``os.replace``)."""
        with telemetry.span("stream.checkpoint_io") as io_span:
            payload = json.dumps(state)
            io_span.add_bytes(len(payload))
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".ckpt.tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self.path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
            self.saves += 1

    def clear(self) -> None:
        """Delete the snapshot file (a completed sweep needs no resume)."""
        self.path.unlink(missing_ok=True)


def _sweep_spec(
    a: Schedule,
    b: Schedule,
    unique_pairs: np.ndarray,
    horizon: int,
    environment: Environment | None = None,
) -> str:
    """Digest identifying one sweep's work items for checkpoint matching.

    The environment digest is part of the spec: a faulted sweep must
    never resume from a clean sweep's snapshot (or vice versa) — their
    first-meet frontiers describe different masks.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{a.period}|{b.period}|{horizon}|{environment_digest(environment)}|".encode()
    )
    digest.update(np.ascontiguousarray(unique_pairs, dtype=np.int64).tobytes())
    return digest.hexdigest()[:32]


class _CheckpointRecorder:
    """Shared, lock-guarded sweep state behind one checkpoint sink.

    Owns the ``resolved`` / ``frontier`` columns of a one-job row
    table, whose rows are sign group 0 (``s >= 0``) followed by sign
    group 1 (``s < 0``); a snapshot serializes each group as its own
    slice.  ``update`` is called from scan lanes at every time-block
    boundary — the lock makes the read-modify-save atomic across thread
    lanes, and blocks own disjoint rows so updates never conflict on
    array contents, only on the save.
    """

    def __init__(
        self,
        sink: SweepCheckpoint,
        spec: str,
        sizes: tuple[int, int],
        prior: dict | None,
    ):
        self._sink = sink
        self._spec = spec
        self._lock = threading.Lock()
        self._ticks = 0
        cuts = np.cumsum((0,) + sizes)
        self._slices = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        self.resolved = np.full(cuts[-1], _UNRESOLVED, dtype=np.int64)
        self.frontier = np.zeros(cuts[-1], dtype=np.int64)
        if prior is None or prior.get("spec") != spec:
            return
        for gid, rows in enumerate(self._slices):
            stored = prior.get("groups", {}).get(str(gid))
            if not isinstance(stored, dict):
                continue
            resolved = stored.get("resolved")
            frontier = stored.get("frontier")
            size = rows.stop - rows.start
            if (
                isinstance(resolved, list)
                and isinstance(frontier, list)
                and len(resolved) == size
                and len(frontier) == size
            ):
                self.resolved[rows] = resolved
                self.frontier[rows] = frontier

    def update(
        self,
        done_rows: np.ndarray,
        done_vals: np.ndarray,
        live_rows: np.ndarray,
        frontier: int,
    ) -> None:
        """Record one time-block boundary; snapshot on cadence.

        ``done_rows`` retire with final values ``done_vals`` (TTR or
        ``-1`` miss); ``live_rows`` advance their frontier to
        ``frontier``.  Every ``interval_blocks``-th call writes a
        snapshot through the sink.
        """
        with self._lock:
            self.resolved[done_rows] = done_vals
            self.frontier[live_rows] = frontier
            self._ticks += 1
            if self._ticks % self._sink.interval_blocks == 0:
                self._sink.save(self._serialize())

    def _serialize(self) -> dict:
        return {
            "spec": self._spec,
            "groups": {
                str(gid): {
                    "resolved": self.resolved[rows].tolist(),
                    "frontier": self.frontier[rows].tolist(),
                }
                for gid, rows in enumerate(self._slices)
            },
        }


def ttr_sweep_stream(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    shifts: Iterable[int],
    horizon: int,
    tile_bytes: int | None = None,
    workers: int | None = None,
    plan: TilePlan | None = None,
    checkpoint: SweepCheckpoint | None = None,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """TTR for every relative shift, streamed in worker-parallel tiles.

    Semantics are identical to :func:`repro.core.batch.ttr_sweep` (and
    therefore to a per-shift loop over
    :func:`repro.core.verification.ttr_for_shift`): the result maps
    each shift to the first slot, counted from the later wake-up, where
    the schedules coincide — ``None`` when no coincidence occurs within
    ``horizon`` slots.  It never *requires* a full period table, so it
    works at any period size; tables that are already warm are read
    through window views instead of regenerating their rows.

    Execution is the row-table scan described in the module docstring,
    over a table holding this one job: the deduped shift classes split
    into independent blocks that fan out over ``workers`` thread lanes
    (``None``: one per CPU; ``1``: inline, no pool).  ``tile_bytes``
    pins the per-lane tile budget (``None``: auto-tuned from the cache
    sizes); ``plan`` overrides the whole :class:`TilePlan` when full
    control is needed.  Results are invariant under every plan and
    worker count — blocks own disjoint result rows, and each row's
    first-meet scan is deterministic.  Either side may be a raw 1-D
    period array (e.g. a read-only memmap attached from a
    :class:`~repro.core.store.ScheduleStore`) — tiles are then sliced
    straight off the array, which for a memmap means straight off disk.

    ``checkpoint`` attaches a :class:`SweepCheckpoint` sink: the scan
    snapshots retired rows plus each live row's time frontier at block
    boundaries, and a rerun against an existing snapshot of the *same*
    sweep resumes instead of restarting — resolved rows are answered
    from the snapshot and live rows start at their recorded frontier,
    so resumed profiles are bit-identical to uninterrupted ones
    (certified in tier-1 tests).

    ``environment`` ANDs a deterministic per-slot validity mask
    (:mod:`repro.core.environment`) into every tile's coincidence
    compare, on the TTR clock; its digest joins the checkpoint spec so
    faulted and clean sweeps never cross-resume, and an aperiodic mask
    disables the lcm early-stop.
    """
    if tile_bytes is not None and tile_bytes <= 0:
        raise ValueError(f"tile_bytes must be positive, got {tile_bytes}")
    job = (_coerce_schedule(a), _coerce_schedule(b), [int(s) for s in shifts])
    with telemetry.span("stream.sweep"):
        return _sweep_jobs(
            [job], [horizon], tile_bytes, workers, plan, environment, checkpoint
        )[0]


def ttr_sweep_pairs(
    jobs: Iterable[tuple[Schedule | np.ndarray, Schedule | np.ndarray, Iterable[int]]],
    horizon: int | Iterable[int],
    tile_bytes: int | None = None,
    workers: int | None = None,
    plan: TilePlan | None = None,
    environment: Environment | None = None,
) -> list[dict[int, int | None]]:
    """Sweep many schedule pairs through one stacked tile pass.

    ``jobs`` is a sequence of ``(a, b, shifts)`` work items — e.g.
    every cell of a Table-1 grid — and ``horizon`` one shared horizon
    or a per-job sequence.  Each job's shifts are reduced to distinct
    phase-offset pairs exactly as in :func:`ttr_sweep_stream`, and the
    rows of *all* jobs share one row table: one chunk loop amortizes
    the per-pair dispatch, plan, and fixed-row work that a per-job loop
    pays ``len(jobs)`` times, and every row retires independently under
    its own job's effective horizon (lcm early-stop per pair; an
    aperiodic ``environment`` voids it for all).

    Returns one shift→TTR mapping per job, in input order, each
    bit-identical to ``ttr_sweep_stream(a, b, shifts, horizon)`` for
    that job (the differential harness certifies this).  Schedules
    repeated across jobs (same object, e.g. from
    :meth:`repro.sim.runner.SweepRunner.schedule_for`'s cache or a
    :class:`~repro.core.store.ScheduleStore` memmap) share their
    fixed-row windows across all their rows.  ``tile_bytes`` /
    ``workers`` / ``plan`` tune the tiling exactly as in
    :func:`ttr_sweep_stream`.  Checkpointing is not supported on a
    multi-job table — resumable sweeps go through per-pair
    :func:`ttr_sweep_stream`.
    """
    if tile_bytes is not None and tile_bytes <= 0:
        raise ValueError(f"tile_bytes must be positive, got {tile_bytes}")
    job_list = [
        (_coerce_schedule(a), _coerce_schedule(b), [int(s) for s in shifts])
        for a, b, shifts in jobs
    ]
    if isinstance(horizon, Iterable):
        horizons = [int(h) for h in horizon]
        if len(horizons) != len(job_list):
            raise ValueError(
                f"got {len(horizons)} horizons for {len(job_list)} jobs"
            )
    else:
        horizons = [int(horizon)] * len(job_list)
    with telemetry.span("stream.pair_sweep"):
        telemetry.count("stream.pair_jobs", len(job_list))
        return _sweep_jobs(
            job_list, horizons, tile_bytes, workers, plan, environment
        )


@dataclass(frozen=True)
class _RowTable:
    """The stream kernel's input: one row per deduped shift class.

    Columns are parallel arrays over rows: ``var`` / ``fixed`` index
    ``scheds`` (the schedule whose phase varies per shift and the one
    pinned at phase zero), ``offset`` is the varying side's phase,
    ``horizon`` the row's effective horizon, ``start`` the frontier its
    scan resumes from, and ``run`` numbers the distinct ``(fixed,
    var)`` pairs so a block's rows split into broadcast runs.
    """

    scheds: list[Schedule]
    var: np.ndarray
    fixed: np.ndarray
    offset: np.ndarray
    horizon: np.ndarray
    start: np.ndarray
    run: np.ndarray


def _sweep_jobs(
    jobs: list[tuple[Schedule, Schedule, list[int]]],
    horizons: list[int],
    tile_bytes: int | None,
    workers: int | None,
    plan: TilePlan | None,
    environment: Environment | None,
    checkpoint: SweepCheckpoint | None = None,
) -> list[dict[int, int | None]]:
    """Stack ``jobs`` into one :class:`_RowTable`, scan it, scatter back.

    Each job's rows form one contiguous slice of the table: sign group
    0 (``a`` varies, ``b`` pinned) first, then sign group 1 — the
    layout a ``checkpoint`` (one job only) snapshots group by group.
    """
    results: list[dict[int, int | None] | None] = [None] * len(jobs)
    scheds: list[Schedule] = []
    sid_by_obj: dict[int, int] = {}
    columns: list[tuple[np.ndarray, ...]] = []
    slices = []
    recorder = None
    cursor = 0

    def sid(schedule: Schedule) -> int:
        key = id(schedule)
        if key not in sid_by_obj:
            sid_by_obj[key] = len(scheds)
            scheds.append(schedule)
        return sid_by_obj[key]

    for j, ((a, b, shift_list), h) in enumerate(zip(jobs, horizons)):
        if not shift_list:
            results[j] = {}
            continue
        if h <= 0:
            results[j] = {s: None for s in shift_list}
            continue
        unique_pairs, inverse = reduce_shifts(a, b, shift_list)
        effective = effective_horizon(h, math.lcm(a.period, b.period), environment)
        negative = unique_pairs[:, 1] != 0
        order = np.argsort(negative, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        neg = negative[order]
        sid_a, sid_b = sid(a), sid(b)
        columns.append((
            np.where(neg, sid_b, sid_a),
            np.where(neg, sid_a, sid_b),
            np.where(neg, unique_pairs[order, 1], unique_pairs[order, 0]),
            np.full(order.size, effective, dtype=np.int64),
        ))
        slices.append((j, cursor, cursor + order.size, shift_list, rank[inverse]))
        cursor += order.size
        if checkpoint is not None:
            recorder = _CheckpointRecorder(
                checkpoint,
                _sweep_spec(a, b, unique_pairs, effective, environment),
                (int((~negative).sum()), int(negative.sum())),
                checkpoint.load(),
            )

    if cursor:
        var, fixed, offset, horizon = (
            np.concatenate(column).astype(np.int64) for column in zip(*columns)
        )
        result = np.full(cursor, -1, dtype=np.int64)
        start = np.zeros(cursor, dtype=np.int64)
        pending = np.ones(cursor, dtype=bool)
        if recorder is not None:
            pending = recorder.resolved == _UNRESOLVED
            result[~pending] = recorder.resolved[~pending]
            start = recorder.frontier.copy()
        run_ids = np.unique(fixed * len(scheds) + var, return_inverse=True)[1]
        table = _RowTable(
            scheds, var, fixed, offset, horizon, start, run_ids.reshape(-1)
        )
        order = np.lexsort((offset, var, fixed))
        _scan(
            table, order[pending[order]], result, tile_bytes, workers, plan,
            environment, recorder,
        )
        for j, lo, hi, shift_list, inverse in slices:
            results[j] = scatter_ttrs(shift_list, result[lo:hi], inverse)
    return results


def _scan(
    table: _RowTable,
    rows: np.ndarray,
    result: np.ndarray,
    tile_bytes: int | None,
    workers: int | None,
    plan: TilePlan | None,
    environment: Environment | None,
    recorder: _CheckpointRecorder | None,
) -> None:
    """Plan tiles for ``rows`` (sorted table indices) and scan them.

    The one planning site of the stream engine: it records the chosen
    plan as ``stream.plan.*`` gauges and the scanned row count as the
    ``stream.rows`` counter, cuts ``rows`` into ``block_rows``-wide
    blocks, and runs :func:`_scan_block` on each — inline on one lane,
    on a thread pool otherwise.
    """
    if rows.size == 0:
        return
    if plan is None:
        plan = plan_tiles(
            rows.size, int(table.horizon[rows].max()),
            workers=workers, tile_bytes=tile_bytes,
        )
    blocks = [
        rows[lo : lo + plan.block_rows]
        for lo in range(0, rows.size, plan.block_rows)
    ]
    lanes = min(plan.workers, len(blocks))
    telemetry.gauge("stream.plan.tile_bytes", plan.tile_bytes)
    telemetry.gauge("stream.plan.block_rows", plan.block_rows)
    telemetry.gauge("stream.plan.workers", lanes)
    telemetry.count("stream.rows", rows.size)
    fixed_rows = {
        fid: _FixedRowCache(table.scheds[fid], plan.cells)
        for fid in np.unique(table.fixed[rows]).tolist()
    }
    args = (table, plan.cells, fixed_rows, result, environment, recorder)
    if lanes > 1:
        with ThreadPoolExecutor(max_workers=lanes) as pool:
            futures = [pool.submit(_scan_block, block, *args) for block in blocks]
            for future in futures:
                future.result()
    else:
        for block in blocks:
            _scan_block(block, *args)


def _scan_block(
    block: np.ndarray,
    table: _RowTable,
    cells: int,
    fixed_rows: dict[int, _FixedRowCache],
    result: np.ndarray,
    environment: Environment | None,
    recorder: _CheckpointRecorder | None,
) -> None:
    """First-meet scan of one independent shift block.

    ``block`` holds row indices sorted by (fixed, var, offset), so each
    broadcast run — rows sharing one ``(fixed, var)`` pair — is
    contiguous and feeds :func:`_gather_tile` ascending offsets.  Per
    time window, every run gathers its varying rows (clipped to the
    run's longest horizon) and compares them against one fixed row;
    ``environment`` ANDs its mask in (channels from the varying side,
    slots on the TTR clock), and a horizon mask clips hits past a
    row's own horizon.  Rows retire on their first meet (``result``
    gets the slot) or at their horizon (``result`` keeps ``-1``); the
    window doubles as rows retire so the scan finishes in
    O(log horizon) passes within the ``cells`` budget.  The scan starts
    at the block's smallest start frontier — every row was scanned
    hit-free up to its own, so rescanning earlier slots changes
    nothing — and ``recorder`` receives retirements and frontier
    advances at every window boundary.  Blocks write disjoint
    ``result`` rows, so lanes compose race-free.
    """
    remaining = block
    t0 = int(table.start[block].min())
    length = min(
        _INITIAL_TIME_BLOCK, int(table.horizon[block].max()),
        max(1, cells // block.size),
    )
    while remaining.size:
        row_h = table.horizon[remaining]
        t1 = min(t0 + length, int(row_h.max()))
        edges = [0, *(np.flatnonzero(np.diff(table.run[remaining])) + 1).tolist()]
        runs = list(zip(edges, edges[1:] + [remaining.size]))
        with telemetry.span("stream.tile_assembly") as tile_span:
            tiles = []
            for lo, hi in runs:
                head = remaining[lo]
                stop = min(t1, int(row_h[lo:hi].max()))
                tiles.append((
                    _gather_tile(
                        table.scheds[table.var[head]],
                        table.offset[remaining[lo:hi]], t0, stop - t0,
                    ),
                    fixed_rows[int(table.fixed[head])].row(t0, t1)[: stop - t0],
                ))
            tile_span.add_bytes(sum(tile.nbytes for tile, _ in tiles))
        with telemetry.span("stream.compare"):
            eq = np.empty((remaining.size, t1 - t0), dtype=bool)
            for (lo, hi), (tile, fixed_row) in zip(runs, tiles):
                width = fixed_row.size
                np.equal(tile, fixed_row, out=eq[lo:hi, :width])
                eq[lo:hi, width:] = False
        if environment is not None:
            with telemetry.span("stream.mask"):
                slots = np.arange(t0, t1, dtype=np.int64)
                for (lo, hi), (tile, fixed_row) in zip(runs, tiles):
                    width = fixed_row.size
                    eq[lo:hi, :width] &= environment.slot_mask(tile, slots[:width])
        if int(row_h.min()) < t1:
            # Boundary window for some short-horizon row: clip its cells
            # beyond the horizon so a later coincidence never counts.
            with telemetry.span("stream.mask"):
                eq &= np.arange(t0, t1)[np.newaxis, :] < row_h[:, np.newaxis]
        with telemetry.span("stream.retire"):
            hit = eq.any(axis=1)
            if hit.any():
                result[remaining[hit]] = t0 + eq[hit].argmax(axis=1)
            live = ~hit & (row_h > t1)
            if recorder is not None:
                done = remaining[~live]
                recorder.update(done, result[done], remaining[live], t1)
            remaining = remaining[live]
        t0 = t1
        length = min(length * 2, max(1, cells // max(remaining.size, 1)))


def reduce_shifts(
    a: Schedule, b: Schedule, shift_list: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse shifts to their distinct phase-offset pairs.

    A shift only enters the coincidence comparison through the offset
    pair ``(s mod period_A, 0)`` (``s >= 0``) or ``(0, -s mod
    period_B)`` (``s < 0``), so the distinct pairs are the real work
    items.  Returns ``(unique_pairs, inverse)`` with ``inverse``
    mapping each input shift to its row in ``unique_pairs``.  Every
    row table is built from this one reduction.
    """
    arr = np.asarray(shift_list, dtype=np.int64)
    off_a = np.where(arr >= 0, arr, 0) % a.period
    off_b = np.where(arr < 0, -arr, 0) % b.period
    pairs = np.stack([off_a, off_b], axis=1)
    unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return unique_pairs, inverse.reshape(-1)  # numpy 2.0.x: (n, 1)-shaped


def scatter_ttrs(
    shift_list: list[int], ttrs: np.ndarray, inverse: np.ndarray
) -> dict[int, int | None]:
    """Scatter per-offset-pair TTRs back to the caller's shifts.

    The inverse of :func:`reduce_shifts`: ``ttrs[i]`` is the answer for
    ``unique_pairs[i]`` with ``-1`` marking a miss, and the result maps
    every input shift to its ``int`` TTR or ``None``.
    """
    scattered = ttrs[inverse]
    return {
        s: None if t < 0 else int(t)
        for s, t in zip(shift_list, scattered.tolist())
    }


def _coerce_schedule(x: Schedule | np.ndarray) -> Schedule:
    """Shared raw-array adapter (see :func:`repro.core.store.coerce_schedule`)."""
    from repro.core.store import coerce_schedule

    return coerce_schedule(x)


class _FixedRowCache:
    """Bounded memo of the fixed side's ``(t0, t1)`` channel rows.

    Every shift block walks the same early time windows before its
    retirement schedule diverges, so the rows are shared across blocks
    — and across thread lanes.  Unlocked on purpose: dict reads/writes
    are atomic under the GIL, and the worst race outcome is one row
    generated twice with identical contents, never a wrong result.
    The byte budget keeps late, rare, per-block-unique windows from
    accumulating.
    """

    __slots__ = ("_schedule", "_budget", "_rows", "_cached_cells")

    def __init__(self, schedule: Schedule, budget_cells: int):
        self._schedule = schedule
        self._budget = budget_cells
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._cached_cells = 0

    def row(self, t0: int, t1: int) -> np.ndarray:
        """The fixed side's channels over ``[t0, t1)``, memoized."""
        row = self._rows.get((t0, t1))
        if row is None:
            row = _block(self._schedule, t0, t1)
            if self._cached_cells + row.size <= self._budget:
                self._rows[(t0, t1)] = row
                self._cached_cells += row.size
        return row


def _warm_table(schedule: Schedule) -> np.ndarray | None:
    """The tile source for ``schedule``: its period table, when warm.

    A warm table (:meth:`~repro.core.schedule.Schedule.has_warm_table`:
    cached, a wrapped sequence, or a store memmap) is read through
    slices and window views — a row memcpy per shift.  ``None`` sends
    the caller to the schedule's own ``channel_block`` /
    ``channel_gather``, which never need the full period.
    """
    return schedule.period_table() if schedule.has_warm_table() else None


def _block(schedule: Schedule, start: int, stop: int) -> np.ndarray:
    """Channels over slots ``[start, stop)`` from the schedule's source;
    a warm table yields a view unless the window wraps its period."""
    table = _warm_table(schedule)
    if table is None:
        return np.asarray(schedule.channel_block(start, stop))
    lo = start % table.size
    if lo + stop - start <= table.size:
        return table[lo : lo + stop - start]
    return np.take(table, np.arange(lo, lo + stop - start), mode="wrap")


def _gather_tile(
    schedule: Schedule, offsets: np.ndarray, t0: int, width: int
) -> np.ndarray:
    """Rows ``schedule[(off + t0) .. (off + t0 + width))`` per offset.

    ``offsets`` must be sorted ascending.  When the block's offsets are
    close together (span no larger than the rows matrix itself), one
    contiguous chunk is read and the rows are strided window views of
    it.  Sparse blocks gather every row in one vectorized read: window
    views of a warm table (a modular ``take`` when a row wraps the
    period), or the schedule's ``channel_gather`` over the whole
    ``(rows, width)`` index matrix.
    """
    base = int(offsets[0])
    span = int(offsets[-1]) - base + width
    if span <= offsets.size * width:
        chunk = _block(schedule, base + t0, base + t0 + span)
        return sliding_window_view(chunk, width)[offsets - base]
    starts = offsets + t0
    window = np.arange(width, dtype=np.int64)
    table = _warm_table(schedule)
    if table is None:
        return np.asarray(schedule.channel_gather(starts[:, np.newaxis] + window))
    starts %= table.size
    if int(starts.max()) + width <= table.size:
        return sliding_window_view(table, width)[starts]
    return np.take(table, starts[:, np.newaxis] + window, mode="wrap")
