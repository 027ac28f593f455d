"""Parity tests: the streaming tiled engine vs the scalar loop.

The streaming engine's contract is bit-identical profiles at any
period size, any tile budget and either tile source (warm period
tables or the schedules' own chunk hooks): for every workload the
library ships, ``ttr_sweep_stream`` must return exactly what a
per-shift loop over ``ttr_for_shift`` returns — including ``None``
misses, negative shifts, duplicate shifts, degenerate horizons, and
tiles smaller than one period.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro
from repro.core import batch
from repro.core import stream as stream_module
from repro.core.schedule import _CACHE_LIMIT, CyclicSchedule, FunctionSchedule
from repro.core.stream import TilePlan, plan_tiles, ttr_sweep_stream
from repro.core.verification import (
    exhaustive_shift_range,
    ttr_for_shift,
    verify_guarantee,
)
from repro.sim.workloads import (
    coalition_bands,
    nested,
    random_subsets,
    single_overlap,
    symmetric,
    whitespace,
)

WORKLOADS = {
    "random_subsets": lambda: random_subsets(16, 4, 3, seed=1),
    "single_overlap": lambda: single_overlap(16, 3, 3, seed=2),
    "symmetric": lambda: symmetric(16, 3, 2, seed=3),
    "coalition_bands": lambda: coalition_bands(
        32, band_width=6, agents_per_band=2, num_bands=2, overlap=2, seed=4
    ),
    "whitespace": lambda: whitespace(16, 3, incumbent_load=0.6, seed=5),
    "nested": lambda: nested(16, [2, 4], seed=6),
}

SHIFTS = list(range(-40, 120)) + [997, 12_345, -733]


def _scalar(a, b, shifts, horizon):
    return {s: ttr_for_shift(a, b, s, horizon) for s in shifts}


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", ["paper", "crseq", "jump-stay", "zos"])
def test_three_way_parity_across_workloads(kind, algorithm):
    """Stream (cold tiles) == stream (warm-table tiles) == scalar on
    every workload generator."""
    instance = WORKLOADS[kind]()
    pairs = instance.overlapping_pairs()[:2]
    assert pairs, f"workload {kind} produced no overlapping pairs"
    for i, j in pairs:
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        horizon = 4 * max(a.period, b.period)
        streamed = ttr_sweep_stream(a, b, SHIFTS, horizon)
        assert streamed == _scalar(a, b, SHIFTS, horizon)
        a.period_table(), b.period_table()  # warm: window-view source
        assert ttr_sweep_stream(a, b, SHIFTS, horizon) == streamed


@pytest.mark.parametrize("tile_bytes", [64, 512, 4096, 1 << 20])
def test_tile_boundaries_are_invisible(tile_bytes):
    """Property: results are invariant under the tile budget — including
    tiles far smaller than one period (a paper schedule at n=32 has a
    period of thousands of slots; 64 bytes is an 8-slot tile)."""
    instance = single_overlap(32, 3, 4, seed=7)
    a = repro.build_schedule(instance.sets[0], 32)
    b = repro.build_schedule(instance.sets[1], 32)
    shifts = list(range(-50, 400))
    reference = batch.ttr_sweep(a, b, shifts, 20_000, engine="scalar")
    assert ttr_sweep_stream(a, b, shifts, 20_000, tile_bytes=tile_bytes) == reference


def test_tile_budget_validation():
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([2, 3])
    with pytest.raises(ValueError, match="tile_bytes"):
        ttr_sweep_stream(a, b, [0], 10, tile_bytes=0)


def test_parity_exhaustive_range():
    a = CyclicSchedule([1, 2, 3, 4])
    b = CyclicSchedule([9, 9, 2, 9, 9, 1])
    shifts = list(exhaustive_shift_range(a, b))
    assert ttr_sweep_stream(a, b, shifts, 500) == _scalar(a, b, shifts, 500)


def test_disjoint_schedules_all_miss_with_lcm_early_stop():
    """A huge horizon must cost only lcm slots of scanning and yield the
    same ``None``s as the scalar engine."""
    a, b = CyclicSchedule([1, 2] * 40), CyclicSchedule([3, 4, 5] * 30)
    shifts = list(range(-12, 25))
    assert ttr_sweep_stream(a, b, shifts, 10**9) == {s: None for s in shifts}


def test_duplicate_empty_and_zero_horizon():
    a, b = CyclicSchedule([1, 2, 3] * 30), CyclicSchedule([3, 1] * 30)
    assert ttr_sweep_stream(a, b, [], 100) == {}
    assert ttr_sweep_stream(a, b, [0, 3], 0) == {0: None, 3: None}
    dup = ttr_sweep_stream(a, b, [4, 4, -4, 4], 100)
    assert dup == _scalar(a, b, [4, -4], 100)


def test_huge_period_streams_without_table():
    """Past the schedule cache limit the streaming engine generates
    tiles through channel_block and never materializes a period
    table."""
    period = _CACHE_LIMIT + 3
    a = FunctionSchedule(lambda t: t % 5, period, channels=frozenset(range(5)))
    b = CyclicSchedule([4, 2])
    shifts = [0, 1, 5, -3, 9999]
    expected = _scalar(a, b, shifts, 60)
    assert ttr_sweep_stream(a, b, shifts, 60) == expected
    assert batch.ttr_sweep(a, b, shifts, 60) == expected  # auto → stream


def test_forced_batched_engine_rejects_huge_periods():
    """``engine="batched"`` is not an engine: forcing it raises."""
    period = _CACHE_LIMIT + 3
    a = FunctionSchedule(lambda t: t % 5, period, channels=frozenset(range(5)))
    b = CyclicSchedule([4, 2])
    with pytest.raises(ValueError, match="unknown engine"):
        batch.ttr_sweep(a, b, [0], 60, engine="batched")


def test_unknown_engine_rejected():
    a, b = CyclicSchedule([1]), CyclicSchedule([1])
    with pytest.raises(ValueError, match="unknown engine"):
        batch.ttr_sweep(a, b, [0], 10, engine="quantum")


def test_raw_arrays_and_memmaps_stream_off_the_table(tmp_path):
    """Raw period arrays — including read-only store memmaps — feed the
    streaming tiles directly, bit-identical to schedule objects."""
    from repro.core.store import ScheduleStore

    store = ScheduleStore(tmp_path)
    a = store.get([1, 5, 9], 16, "drds")
    b = store.get([5, 12], 16, "drds")
    shifts = list(range(-40, 40))
    expected = batch.ttr_sweep(a, b, shifts, 50_000, engine="scalar")
    assert ttr_sweep_stream(a, b, shifts, 50_000) == expected
    table_a, table_b = a.period_table(), b.period_table()
    assert isinstance(table_a, np.memmap)
    assert ttr_sweep_stream(table_a, table_b, shifts, 50_000) == expected


def test_sparse_offsets_use_per_row_generation():
    """Widely strided shifts (offsets scattered over the period) take
    the per-row path; results must not depend on it."""
    instance = single_overlap(32, 3, 4, seed=9)
    a = repro.build_schedule(instance.sets[0], 32, algorithm="crseq")
    b = repro.build_schedule(instance.sets[1], 32, algorithm="crseq")
    stride = max(1, a.period // 7)
    shifts = list(range(0, a.period, stride)) + [-1, -stride]
    horizon = 4 * a.period
    assert ttr_sweep_stream(a, b, shifts, horizon, tile_bytes=256) == _scalar(
        a, b, shifts, horizon
    )


def test_verify_guarantee_through_stream_engine():
    """Exhaustive certification runs unchanged when forced through the
    streaming engine."""
    a = repro.build_schedule([1, 5], 16, algorithm="zos")
    b = repro.build_schedule([5, 9], 16, algorithm="zos")
    import math

    bound = math.lcm(a.period, b.period)
    auto = verify_guarantee(a, b, bound)
    streamed = verify_guarantee(a, b, bound, engine="stream", tile_bytes=4096)
    assert auto == streamed
    assert streamed[0]


class TestParallelScan:
    """The blocked worker-parallel scan vs the scalar per-shift loop."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("algorithm", ["paper", "jump-stay", "zos"])
    def test_parallel_matches_serial_reference(self, workers, algorithm):
        """Bit-identical per cell at every worker count, on every
        workload generator, against the serial scalar reference loop."""
        for kind in sorted(WORKLOADS):
            a, b, horizon, serial = self._scalar_cell(algorithm, kind)
            assert ttr_sweep_stream(a, b, SHIFTS, horizon, workers=workers) == serial

    @staticmethod
    @functools.cache
    def _scalar_cell(algorithm, kind):
        """One workload's first pair and its scalar profile, computed
        once and shared by every worker count."""
        instance = WORKLOADS[kind]()
        i, j = instance.overlapping_pairs()[0]
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        horizon = 4 * max(a.period, b.period)
        return a, b, horizon, _scalar(a, b, SHIFTS, horizon)

    def test_parallel_matches_scalar_loop(self):
        """The parallel scan also agrees with the independent scalar path."""
        instance = single_overlap(32, 3, 4, seed=7)
        a = repro.build_schedule(instance.sets[0], 32, algorithm="crseq")
        b = repro.build_schedule(instance.sets[1], 32, algorithm="crseq")
        shifts = list(range(-60, 200)) + [5 * a.period + 3, -2 * b.period - 7]
        horizon = 4 * max(a.period, b.period)
        assert ttr_sweep_stream(a, b, shifts, horizon, workers=4) == _scalar(
            a, b, shifts, horizon
        )

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_blocks_smaller_than_one_tile(self, block_rows):
        """Degenerate pinned plans — shift blocks far narrower than a
        tile could hold, more blocks than workers — change nothing."""
        instance = single_overlap(32, 3, 4, seed=9)
        a = repro.build_schedule(instance.sets[0], 32, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 32, algorithm="jump-stay")
        shifts = list(range(-40, 90))
        horizon = 4 * max(a.period, b.period)
        reference = _scalar(a, b, shifts, horizon)
        plan = TilePlan(tile_bytes=4096, block_rows=block_rows, workers=2)
        assert ttr_sweep_stream(a, b, shifts, horizon, plan=plan) == reference

    def test_worker_counts_beyond_blocks_are_harmless(self):
        a, b = CyclicSchedule([1, 2, 3] * 30), CyclicSchedule([3, 1] * 20)
        shifts = [0, 1, -1, 5]
        expected = _scalar(a, b, shifts, 300)
        assert ttr_sweep_stream(a, b, shifts, 300, workers=16) == expected

    def test_dispatcher_forwards_stream_workers(self):
        """`batch.ttr_sweep(engine='stream', stream_workers=...)` is the
        same computation at any lane count."""
        instance = single_overlap(16, 3, 3, seed=2)
        a = repro.build_schedule(instance.sets[0], 16, algorithm="zos")
        b = repro.build_schedule(instance.sets[1], 16, algorithm="zos")
        horizon = 4 * max(a.period, b.period)
        one = batch.ttr_sweep(a, b, SHIFTS, horizon, engine="stream", stream_workers=1)
        four = batch.ttr_sweep(a, b, SHIFTS, horizon, engine="stream", stream_workers=4)
        assert one == four == _scalar(a, b, SHIFTS, horizon)


class TestChannelGather:
    """The scattered-access hook every tile row assembly builds on."""

    @pytest.mark.parametrize(
        "algorithm", ["paper", "crseq", "jump-stay", "drds", "zos", "async-etch"]
    )
    def test_gather_matches_channel_at(self, algorithm):
        schedule = repro.build_schedule([1, 5, 9], 16, algorithm=algorithm)
        indices = np.array([[0, 7, 1], [13, 2, schedule.period + 5]], dtype=np.int64)
        gathered = schedule.channel_gather(indices)
        assert gathered.shape == indices.shape
        expected = [
            [schedule.channel_at(int(t) % schedule.period) for t in row]
            for row in indices
        ]
        assert gathered.tolist() == expected

    def test_generic_fallback_on_huge_periods(self):
        period = _CACHE_LIMIT + 3
        sched = FunctionSchedule(lambda t: t % 5, period, channels=frozenset(range(5)))
        indices = np.array([0, 3, 11, period - 1, period + 4], dtype=np.int64)
        assert sched.channel_gather(indices).tolist() == [
            sched.channel_at(int(t)) for t in indices
        ]


class TestWarmTableSource:
    """Warm period tables feed tiles through slices and window views;
    the rows must equal the schedule's own chunk hooks, wraps included."""

    @pytest.mark.parametrize("algorithm", ["paper", "crseq", "zos"])
    def test_warm_rows_match_chunk_hooks(self, algorithm):
        cold = repro.build_schedule([1, 5, 9], 16, algorithm=algorithm)
        warm = repro.build_schedule([1, 5, 9], 16, algorithm=algorithm)
        warm.period_table()
        assert warm.has_warm_table()
        period = warm.period
        rng = np.random.default_rng(3)
        for width in (1, 7, 300):
            scattered = np.sort(rng.choice(period - 5, size=5, replace=False))
            for offsets in (scattered[0] + np.arange(5), scattered):
                for t0 in (0, period - 4, 3 * period + 1):
                    window = np.arange(width)
                    expected = cold.channel_gather(
                        offsets[:, np.newaxis] + t0 + window
                    )
                    got = stream_module._gather_tile(warm, offsets, t0, width)
                    assert got.tolist() == expected.tolist()
                    block = stream_module._block(warm, t0, t0 + width)
                    assert block.tolist() == cold.channel_block(
                        t0, t0 + width
                    ).tolist()

    def test_cold_schedule_uses_its_chunk_hooks(self):
        cold = repro.build_schedule([1, 5, 9], 16, algorithm="crseq")
        assert stream_module._warm_table(cold) is None
        assert not cold.has_warm_table()
        stream_module._gather_tile(cold, np.array([0, 40]), 0, 8)
        assert not cold.has_warm_table(), "the closed form never builds a table"


class TestTilePlanner:
    """plan_tiles: deterministic, cache-aware, shape-aware."""

    def test_same_inputs_same_plan(self):
        first = plan_tiles(2000, 1 << 20, workers=4)
        second = plan_tiles(2000, 1 << 20, workers=4)
        assert first == second

    def test_no_wall_clock_dependence(self, monkeypatch):
        """The plan is pure arithmetic: poisoning every clock source
        must not change (or crash) the planner."""
        import time as time_module

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("plan_tiles must not consult the clock")

        for name in ("time", "perf_counter", "monotonic", "process_time"):
            monkeypatch.setattr(time_module, name, boom)
        assert plan_tiles(500, 10_000, workers=2) == plan_tiles(500, 10_000, workers=2)

    def test_tile_from_l2_and_l3_budget(self):
        # One lane: half of L2. Four lanes: additionally capped so all
        # tiles together leave half the L3 free.
        caches = (1 << 21, 1 << 22)  # 2 MiB L2, 4 MiB L3
        solo = plan_tiles(10_000, 1 << 20, workers=1, caches=caches)
        assert solo.tile_bytes == 1 << 20  # half the L2
        four = plan_tiles(10_000, 1 << 20, workers=4, caches=caches)
        assert four.tile_bytes == (1 << 21) // 4  # half the L3, split 4 ways
        assert four.workers == 4

    def test_explicit_tile_bytes_pins_budget(self):
        plan = plan_tiles(100, 1000, workers=2, tile_bytes=4096)
        assert plan.tile_bytes == 4096

    def test_serial_blocks_fill_the_tile(self):
        plan = plan_tiles(10_000, 1 << 20, workers=1, tile_bytes=1 << 20)
        assert plan.block_rows == (1 << 20) // 8 // 256
        assert plan.workers == 1

    def test_parallel_blocks_split_for_load_balance(self):
        plan = plan_tiles(1000, 1 << 20, workers=4, tile_bytes=1 << 20)
        # 4 lanes x 4 blocks per lane -> ceil(1000 / 16) rows per block.
        assert plan.block_rows == 63
        assert plan.workers == 4

    def test_one_tile_sweep_runs_on_one_lane(self):
        # 128 rows fit one 512 KiB tile (256 rows of 256 slots), so the
        # lanes would only add a pool: one block, one lane.
        plan = plan_tiles(128, 1 << 20, workers=4, caches=(1 << 20, 1 << 25))
        assert plan.block_rows == 128
        assert plan.workers == 1

    def test_one_tile_sweep_makes_no_thread_pool(self, monkeypatch):
        from repro.core import telemetry

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-tile sweep must run inline")

        monkeypatch.setattr(stream_module, "ThreadPoolExecutor", no_pool)
        a, b = CyclicSchedule([1, 2, 3] * 30), CyclicSchedule([3, 1] * 30)
        shifts = list(range(-20, 20))
        telemetry.reset()
        telemetry.enable()
        try:
            got = ttr_sweep_stream(a, b, shifts, 500, workers=4)
            gauges = telemetry.snapshot()["gauges"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert got == _scalar(a, b, shifts, 500)
        assert gauges["stream.plan.workers"] == 1

    def test_workers_clamped_to_blocks(self):
        plan = plan_tiles(3, 1000, workers=8, tile_bytes=1 << 20)
        assert plan.workers <= 3

    def test_validation(self):
        with pytest.raises(ValueError, match="tile_bytes"):
            plan_tiles(10, 100, tile_bytes=0)
        with pytest.raises(ValueError, match="num_offsets"):
            plan_tiles(-1, 100)
        with pytest.raises(ValueError, match="tile_bytes"):
            TilePlan(tile_bytes=0, block_rows=1, workers=1)
        with pytest.raises(ValueError, match="block_rows"):
            TilePlan(tile_bytes=64, block_rows=0, workers=1)
        with pytest.raises(ValueError, match="workers"):
            TilePlan(tile_bytes=64, block_rows=1, workers=0)

    def test_cache_probe_is_memoized_and_sane(self):
        l2, l3 = stream_module.cache_sizes()
        assert stream_module.cache_sizes() == (l2, l3)
        assert 0 < l2 <= l3


class _FailingSink(stream_module.SweepCheckpoint):
    """Checkpoint sink that dies after N successful saves — the test's
    stand-in for a mid-sweep kill (the exception unwinds the scan
    exactly the way SIGTERM-during-save would leave the file system:
    last complete snapshot on disk, scan unfinished)."""

    def __init__(self, path, fail_after, interval_blocks=1):
        super().__init__(path, interval_blocks=interval_blocks)
        self.fail_after = fail_after

    def save(self, state):
        if self.saves >= self.fail_after:
            raise RuntimeError("injected interruption")
        super().save(state)


class TestCheckpointResume:
    """Interrupt/resume certification: merged profiles are bit-identical."""

    def _pair(self, algorithm):
        instance = single_overlap(16, 3, 3, seed=2)
        i, j = instance.overlapping_pairs()[0]
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        return a, b, 4 * max(a.period, b.period)

    @pytest.mark.parametrize("algorithm", ["paper", "jump-stay", "zos"])
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path, algorithm):
        a, b, horizon = self._pair(algorithm)
        baseline = ttr_sweep_stream(a, b, SHIFTS, horizon)
        path = tmp_path / "sweep.ckpt.json"
        # Tiny tiles force many block boundaries, so the injected death
        # lands mid-scan with real partial progress on disk.
        dying = _FailingSink(path, fail_after=3)
        with pytest.raises(RuntimeError, match="injected"):
            ttr_sweep_stream(
                a, b, SHIFTS, horizon, tile_bytes=64, workers=1, checkpoint=dying
            )
        assert path.exists(), "interruption must leave the last snapshot"
        resumed = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert resumed == baseline

    def test_interrupted_parallel_scan_resumes(self, tmp_path):
        a, b, horizon = self._pair("paper")
        baseline = ttr_sweep_stream(a, b, SHIFTS, horizon)
        path = tmp_path / "sweep.ckpt.json"
        with pytest.raises(RuntimeError, match="injected"):
            ttr_sweep_stream(
                a, b, SHIFTS, horizon, tile_bytes=64, workers=4,
                checkpoint=_FailingSink(path, fail_after=5),
            )
        resumed = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=4,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert resumed == baseline

    def test_complete_snapshot_answers_without_rescanning(
        self, tmp_path, monkeypatch
    ):
        # After an uninterrupted checkpointed run, every row is resolved
        # in the snapshot; a rerun must answer entirely from it — proven
        # by making any tile gather blow up.
        a, b, horizon = self._pair("zos")
        path = tmp_path / "sweep.ckpt.json"
        first = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )

        def no_gather(*args, **kwargs):
            raise AssertionError("resumed run gathered a tile")

        monkeypatch.setattr(stream_module, "_gather_tile", no_gather)
        replayed = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert replayed == first

    def test_parallel_lanes_record_every_row(self, tmp_path, monkeypatch):
        # Many lanes share one recorder; a lost update would leave a row
        # unresolved in the final snapshot, and the replay would gather.
        import sys

        a, b, horizon = self._pair("jump-stay")
        path = tmp_path / "sweep.ckpt.json"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first = ttr_sweep_stream(
                a, b, SHIFTS, horizon, tile_bytes=64, workers=8,
                checkpoint=stream_module.SweepCheckpoint(path),
            )
        finally:
            sys.setswitchinterval(interval)
        groups = stream_module.SweepCheckpoint(path).load()["groups"]
        assert all(
            value != stream_module._UNRESOLVED
            for group in groups.values()
            for value in group["resolved"]
        )

        def no_gather(*args, **kwargs):
            raise AssertionError("resumed run gathered a tile")

        monkeypatch.setattr(stream_module, "_gather_tile", no_gather)
        replayed = ttr_sweep_stream(
            a, b, SHIFTS, horizon, checkpoint=stream_module.SweepCheckpoint(path)
        )
        assert replayed == first

    def test_certified_misses_resume_as_misses(self, tmp_path):
        # Disjoint channel sets: every shift is a miss.  The snapshot
        # must certify them (resolved -1), not leave them pending.
        a = repro.build_schedule([1, 2], 16, algorithm="paper")
        b = repro.build_schedule([3, 4], 16, algorithm="paper")
        horizon = 2 * max(a.period, b.period)
        path = tmp_path / "sweep.ckpt.json"
        first = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert set(first.values()) == {None}
        resumed = ttr_sweep_stream(
            a, b, SHIFTS, horizon, checkpoint=stream_module.SweepCheckpoint(path)
        )
        assert resumed == first

    def test_snapshot_of_a_different_sweep_is_ignored(self, tmp_path):
        a, b, horizon = self._pair("paper")
        path = tmp_path / "sweep.ckpt.json"
        ttr_sweep_stream(
            a, b, SHIFTS, horizon // 2, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        # Same sink path, different horizon: the spec digest differs, so
        # the stale snapshot must not contaminate the fresh sweep.
        fresh = ttr_sweep_stream(
            a, b, SHIFTS, horizon, tile_bytes=64, workers=1,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert fresh == ttr_sweep_stream(a, b, SHIFTS, horizon)

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        a, b, horizon = self._pair("jump-stay")
        profile = ttr_sweep_stream(
            a, b, SHIFTS, horizon,
            checkpoint=stream_module.SweepCheckpoint(tmp_path / "c.json"),
        )
        assert profile == ttr_sweep_stream(a, b, SHIFTS, horizon)

    def test_dispatcher_routes_checkpoint_to_stream(self, tmp_path):
        a, b, horizon = self._pair("paper")
        sink = stream_module.SweepCheckpoint(tmp_path / "c.json", interval_blocks=2)
        via_dispatch = batch.ttr_sweep(
            a, b, SHIFTS, horizon, tile_bytes=64, checkpoint=sink
        )
        assert via_dispatch == ttr_sweep_stream(a, b, SHIFTS, horizon)
        assert sink.saves > 0
        with pytest.raises(ValueError, match="streaming"):
            batch.ttr_sweep(a, b, SHIFTS, horizon, engine="scalar", checkpoint=sink)

    def test_sink_validation_and_clear(self, tmp_path):
        with pytest.raises(ValueError, match="interval_blocks"):
            stream_module.SweepCheckpoint(tmp_path / "c.json", interval_blocks=0)
        sink = stream_module.SweepCheckpoint(tmp_path / "c.json")
        assert sink.load() is None
        sink.save({"spec": "x"})
        assert sink.load() == {"spec": "x"}
        sink.clear()
        assert sink.load() is None
        sink.clear()  # idempotent


class TestPairMajor:
    """ttr_sweep_pairs: one stacked tile pass, per-pair bit-parity."""

    def _grid(self, algorithm="crseq", seed=9):
        instance = random_subsets(16, 4, 3, seed=seed)
        scheds = [
            repro.build_schedule(s, instance.n, algorithm=algorithm)
            for s in instance.sets
        ]
        jobs = [
            (scheds[i], scheds[j], SHIFTS)
            for i, j in instance.overlapping_pairs()
        ]
        horizon = 4 * max(max(a.period, b.period) for a, b, _ in jobs)
        return jobs, horizon

    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_parity_across_workloads(self, kind):
        instance = WORKLOADS[kind]()
        scheds = [
            repro.build_schedule(s, instance.n, algorithm="paper")
            for s in instance.sets
        ]
        jobs = [
            (scheds[i], scheds[j], SHIFTS)
            for i, j in instance.overlapping_pairs()[:3]
        ]
        assert jobs, f"workload {kind} produced no overlapping pairs"
        horizon = 4 * max(max(a.period, b.period) for a, b, _ in jobs)
        stacked = stream_module.ttr_sweep_pairs(jobs, horizon)
        for (a, b, shifts), got in zip(jobs, stacked):
            assert got == ttr_sweep_stream(a, b, shifts, horizon)

    def test_mixed_algorithms_in_one_pass(self):
        jobs_a, _ = self._grid("crseq")
        jobs_b, _ = self._grid("jump-stay", seed=11)
        jobs = jobs_a + jobs_b
        horizon = 4 * max(max(a.period, b.period) for a, b, _ in jobs)
        stacked = stream_module.ttr_sweep_pairs(jobs, horizon)
        for (a, b, shifts), got in zip(jobs, stacked):
            assert got == ttr_sweep_stream(a, b, shifts, horizon)

    def test_per_job_horizons_and_misses(self):
        # Short-horizon jobs must retire as misses at *their* horizon
        # even while longer jobs keep scanning in the same tiles.
        jobs, horizon = self._grid("jump-stay", seed=3)
        horizons = [40 + 30 * i for i in range(len(jobs))]
        stacked = stream_module.ttr_sweep_pairs(jobs, horizons)
        for (a, b, shifts), h, got in zip(jobs, horizons, stacked):
            assert got == ttr_sweep_stream(a, b, shifts, h)
        assert any(
            v is None for profile in stacked for v in profile.values()
        ), "horizon ladder too generous to exercise per-row misses"

    def test_environment_masked_pass(self):
        from repro.core.environment import parse_environment

        jobs, _ = self._grid("paper")
        env = parse_environment("pu-churn:rate=0.05,seed=7")
        stacked = stream_module.ttr_sweep_pairs(jobs, 3000, environment=env)
        for (a, b, shifts), got in zip(jobs, stacked):
            assert got == ttr_sweep_stream(a, b, shifts, 3000, environment=env)

    def test_degenerate_plans_and_lanes_are_invariant(self):
        jobs, horizon = self._grid()
        expected = stream_module.ttr_sweep_pairs(jobs, horizon)
        for plan in (
            TilePlan(tile_bytes=1 << 14, block_rows=1, workers=1),
            TilePlan(tile_bytes=1 << 14, block_rows=3, workers=4),
            TilePlan(tile_bytes=1 << 22, block_rows=1024, workers=2),
        ):
            assert (
                stream_module.ttr_sweep_pairs(jobs, horizon, plan=plan)
                == expected
            )

    def test_shared_schedules_dedupe_fixed_rows(self):
        # The same schedule object on the fixed side of many jobs
        # shares one row cache; parity is the observable contract.
        instance = single_overlap(16, 3, 3, seed=2)
        hub = repro.build_schedule(instance.sets[0], 16, algorithm="crseq")
        others = [
            repro.build_schedule(s, 16, algorithm="crseq")
            for s in instance.sets[1:]
        ]
        jobs = [(other, hub, SHIFTS) for other in others]
        horizon = 4 * max(hub.period, *(o.period for o in others))
        stacked = stream_module.ttr_sweep_pairs(jobs, horizon)
        for (a, b, shifts), got in zip(jobs, stacked):
            assert got == ttr_sweep_stream(a, b, shifts, horizon)

    def test_raw_arrays_accepted(self):
        jobs, horizon = self._grid()
        a, b, shifts = jobs[0]
        raw = stream_module.ttr_sweep_pairs(
            [(np.asarray(a.period_table()), np.asarray(b.period_table()), shifts)],
            horizon,
        )
        assert raw[0] == ttr_sweep_stream(a, b, shifts, horizon)

    def test_empty_and_degenerate_jobs(self):
        jobs, horizon = self._grid()
        a, b, shifts = jobs[0]
        assert stream_module.ttr_sweep_pairs([], horizon) == []
        mixed = stream_module.ttr_sweep_pairs(
            [(a, b, []), (a, b, shifts)], horizon
        )
        assert mixed[0] == {}
        assert mixed[1] == ttr_sweep_stream(a, b, shifts, horizon)
        zero = stream_module.ttr_sweep_pairs([(a, b, shifts)], 0)
        assert zero[0] == {s: None for s in shifts}

    def test_tile_bytes_validation(self):
        jobs, horizon = self._grid()
        with pytest.raises(ValueError, match="tile_bytes"):
            stream_module.ttr_sweep_pairs(jobs, horizon, tile_bytes=0)

    def test_stacked_tile_bytes_at_most_per_pair_sum(self):
        # Each run of rows sharing a fixed schedule compares against one
        # broadcast fixed row, so stacking never assembles more tile
        # bytes than the per-pair scans of the same jobs put together.
        from repro.core import telemetry
        from repro.core.verification import strided_shift_range

        jobs, horizons = [], []
        for algorithm in ("paper", "crseq", "zos", "jump-stay"):
            for n in (16, 32):
                for seed in (0, 1):
                    instance = single_overlap(n, 3, 3, seed=seed)
                    a, b = (
                        repro.build_schedule(s, n, algorithm=algorithm)
                        for s in instance.sets
                    )
                    jobs.append((a, b, list(strided_shift_range(a, b, 256))))
                    horizons.append(4 * max(a.period, b.period))

        def tile_bytes(sweep):
            telemetry.enable()
            telemetry.reset()
            try:
                sweep()
                spans = telemetry.snapshot()["spans"]
            finally:
                telemetry.disable()
            total, stack = 0, [spans]
            while stack:
                for name, node in stack.pop().items():
                    if name == "stream.tile_assembly":
                        total += node["bytes"]
                    stack.append(node.get("children", {}))
            return total

        stacked = tile_bytes(lambda: stream_module.ttr_sweep_pairs(jobs, horizons))
        per_pair = sum(
            tile_bytes(lambda: ttr_sweep_stream(a, b, shifts, h))
            for (a, b, shifts), h in zip(jobs, horizons)
        )
        assert 0 < stacked <= per_pair

    def test_pair_sweep_telemetry_spans(self):
        from repro.core import telemetry

        jobs, horizon = self._grid()
        telemetry.enable()
        telemetry.reset()
        try:
            stream_module.ttr_sweep_pairs(jobs, horizon)
            snap = telemetry.snapshot()
        finally:
            telemetry.disable()
        assert "stream.pair_sweep" in snap["spans"]
        assert snap["counters"]["stream.pair_jobs"] == len(jobs)
        flat = str(snap)
        assert "stream.tile_assembly" in flat and "stream.retire" in flat
