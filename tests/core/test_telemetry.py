"""Tests for the telemetry registry (:mod:`repro.core.telemetry`).

The module's three contracts each get a direct gate here:

* **zero overhead when disabled** — the disabled path hands out one
  shared no-op singleton and allocates nothing on the stream engine's
  hot-loop call pattern;
* **never observable by results** — telemetry-on and telemetry-off
  sweeps are bit-identical across both engines;
* **deterministic structure** — a snapshot's names, nesting, ordering,
  call counts, and byte totals are identical across ``PYTHONHASHSEED``
  values (only the measured seconds vary).

Plus the aggregation mechanics: span nesting per thread, in-process
recording of ``SweepRunner`` jobs, counter/gauge semantics, and the
dispatcher's decision counters.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import telemetry
from repro.core.batch import ttr_sweep
from repro.core.schedule import CyclicSchedule
from repro.core.verification import strided_shift_range
from repro.sim import runner
from repro.sim.workloads import random_subsets, single_overlap


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestRegistryBasics:
    def test_disabled_span_is_shared_singleton(self):
        first = telemetry.span("stream.tile_assembly")
        second = telemetry.span("stream.compare")
        assert first is second
        with first as handle:
            handle.add_bytes(4096)
        snap = telemetry.snapshot()
        assert snap["spans"] == {}
        assert snap["counters"] == {}

    def test_disabled_count_and_gauge_record_nothing(self):
        telemetry.count("store.result.hits", 5)
        telemetry.gauge("stream.plan.workers", 4)
        assert telemetry.counter_value("store.result.hits") == 0
        assert telemetry.snapshot()["gauges"] == {}

    def test_enabled_spans_nest_and_aggregate(self):
        telemetry.enable()
        for _ in range(3):
            with telemetry.span("outer"):
                with telemetry.span("inner") as inner:
                    inner.add_bytes(100)
        snap = telemetry.snapshot()
        outer = snap["spans"]["outer"]
        assert outer["calls"] == 3
        inner = outer["children"]["inner"]
        assert inner["calls"] == 3
        assert inner["bytes"] == 300
        assert snap["total_seconds"] == pytest.approx(
            outer["seconds"], abs=1e-6
        )

    def test_span_records_even_when_body_raises(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing.phase"):
                raise RuntimeError("boom")
        snap = telemetry.snapshot()
        assert snap["spans"]["failing.phase"]["calls"] == 1

    def test_counters_and_gauges(self):
        telemetry.enable()
        telemetry.count("events", 2)
        telemetry.count("events")
        telemetry.gauge("lanes", 4)
        telemetry.gauge("lanes", 8)
        assert telemetry.counter_value("events") == 3
        snap = telemetry.snapshot()
        assert snap["counters"] == {"events": 3}
        assert snap["gauges"] == {"lanes": 8}

    def test_reset_clears_everything(self):
        telemetry.enable()
        with telemetry.span("phase"):
            telemetry.count("events")
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["spans"] == {}
        assert snap["counters"] == {}
        assert telemetry.total_seconds(snap) == 0.0

    def test_snapshot_keys_sorted_at_every_level(self):
        telemetry.enable()
        for name in ("zebra", "alpha", "mid"):
            with telemetry.span(name):
                with telemetry.span("z.child"):
                    pass
                with telemetry.span("a.child"):
                    pass
        telemetry.count("z.counter")
        telemetry.count("a.counter")
        snap = telemetry.snapshot()
        assert list(snap["spans"]) == ["alpha", "mid", "zebra"]
        for node in snap["spans"].values():
            assert list(node["children"]) == ["a.child", "z.child"]
        assert list(snap["counters"]) == ["a.counter", "z.counter"]

    def test_format_tree_renders_phases_and_counters(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner") as inner:
                inner.add_bytes(1 << 20)
        telemetry.count("events", 7)
        telemetry.gauge("lanes", 2)
        text = telemetry.format_tree(telemetry.snapshot(), wall_seconds=1.0)
        assert text.startswith("telemetry:")
        assert "(1.0000 s wall)" in text
        assert "outer" in text and "inner" in text
        assert "1.0 MiB" in text
        assert "%" in text
        assert "events" in text and "7" in text
        assert "lanes" in text


class TestPoolWorkerMerge:
    """Every runner job records in-process: the stacked pass's lanes
    report into the one registry, with no process pool to merge."""

    def test_lanes_record_stacked_pairs_in_process(self):
        inst = random_subsets(16, 8, 5, seed=4)  # 10 overlapping pairs
        pairs = inst.overlapping_pairs()
        telemetry.enable()
        telemetry.reset()
        engine = runner.SweepRunner(workers=2)
        results = engine.measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        snap = telemetry.snapshot()
        assert len(results) == len(pairs)
        assert "runner.pool_fanout" not in snap["spans"]
        serial = snap["spans"]["runner.serial"]
        assert serial["children"]["runner.measure_pair"]["calls"] == len(pairs)
        assert snap["counters"]["stream.pair_jobs"] == len(pairs)
        assert snap["gauges"]["stream.plan.workers"] <= 2

    def test_serial_path_records_without_pool(self):
        inst = random_subsets(16, 4, 3, seed=3)
        telemetry.enable()
        telemetry.reset()
        engine = runner.SweepRunner(workers=4)
        engine.measure_instance(inst, "paper", horizon=60_000, dense=2, probes=2)
        snap = telemetry.snapshot()
        assert "runner.serial" in snap["spans"]
        assert "runner.pool_fanout" not in snap["spans"]
        assert snap["counters"]["runner.serial_pairs"] == len(
            inst.overlapping_pairs()
        )


class TestStreamPlanDecisions:
    """The stream engine's one planning site records what it chose."""

    def test_plan_gauges_and_row_counter(self):
        from repro.core.stream import TilePlan, plan_tiles, ttr_sweep_stream

        instance = single_overlap(16, 3, 3, seed=2)
        a, b = (
            repro.build_schedule(s, 16, algorithm="jump-stay")
            for s in instance.sets
        )
        shifts = list(range(-30, 50))
        horizon = 4 * max(a.period, b.period)
        telemetry.enable()
        ttr_sweep_stream(a, b, shifts, horizon, workers=2, tile_bytes=1 << 14)
        snap = telemetry.snapshot()
        rows = snap["counters"]["stream.rows"]
        assert rows == len(set(shifts))  # every shift its own class here
        plan = plan_tiles(rows, horizon, workers=2, tile_bytes=1 << 14)
        assert snap["gauges"] == {
            "stream.plan.tile_bytes": plan.tile_bytes,
            "stream.plan.block_rows": plan.block_rows,
            "stream.plan.workers": plan.workers,
        }

        # A pinned plan is recorded as given, lanes clamped to blocks.
        telemetry.reset()
        pinned = TilePlan(tile_bytes=4096, block_rows=rows, workers=4)
        ttr_sweep_stream(a, b, shifts, horizon, plan=pinned)
        snap = telemetry.snapshot()
        assert snap["gauges"]["stream.plan.block_rows"] == rows
        assert snap["gauges"]["stream.plan.workers"] == 1
        assert snap["counters"]["stream.rows"] == rows


class TestDRDSBuild:
    """The DRDS global build reports its FFT checks and greedy patch."""

    def test_build_spans_and_patch_pair_counter(self):
        from repro.baselines.drds import (
            _component_indices,
            _owner_array,
            build_global_sequence,
        )

        n = 8
        owned = int((_owner_array(n, verify=True) >= 0).sum())
        core = sum(len(_component_indices(i, n)) for i in range(n))
        build_global_sequence.cache_clear()
        telemetry.enable()
        build_global_sequence(n)
        snap = telemetry.snapshot()
        build = snap["spans"]["drds.global_build"]
        assert build["calls"] == 1
        children = build["children"]
        patched = children["drds.patch"]["calls"]
        assert 0 < patched <= n
        # One pre-patch check per channel, one re-check per patched one.
        assert children["drds.coverage"]["calls"] == n + patched
        assert snap["counters"]["drds.patch_pairs"] == (owned - core) // 2

    def test_unverified_build_has_no_patch(self):
        from repro.baselines.drds import build_global_sequence

        build_global_sequence.cache_clear()
        telemetry.enable()
        build_global_sequence(8, verify=False)
        snap = telemetry.snapshot()
        assert snap["spans"]["drds.global_build"]["children"] == {}
        assert "drds.patch_pairs" not in snap["counters"]


class TestDisabledOverhead:
    def test_disabled_hot_loop_allocates_nothing(self):
        # The stream engine's per-tile call pattern: span + add_bytes
        # + a counter bump. Warm up so every code path and cached
        # attribute exists, then measure allocated blocks around a
        # 10k-iteration burst: a single allocation per call would show
        # up 10_000x, so a near-zero delta certifies the no-op path.
        assert not telemetry.enabled()

        def hot_loop(iterations):
            for _ in range(iterations):
                with telemetry.span("stream.tile_assembly") as tile:
                    tile.add_bytes(4096)
                telemetry.count("netsim.chunks")

        hot_loop(1_000)  # warm-up
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            hot_loop(10_000)
            after = sys.getallocatedblocks()
        finally:
            gc.enable()
        # The measurement itself pins a handful of blocks (the ints
        # holding the readings, the loop's range iterator); anything
        # per-call would be four orders of magnitude larger.
        assert after - before < 10


class TestResultParity:
    @pytest.mark.parametrize("engine", ["scalar", "stream"])
    def test_on_off_bit_identical(self, engine):
        inst = single_overlap(16, 3, 3, seed=0)
        a = repro.build_schedule(inst.sets[0], 16, algorithm="jump-stay")
        b = repro.build_schedule(inst.sets[1], 16, algorithm="jump-stay")
        shifts = list(strided_shift_range(a, b, 64))
        horizon = 4 * max(a.period, b.period)

        telemetry.disable()
        telemetry.reset()
        off = ttr_sweep(a, b, shifts, horizon, engine=engine)

        telemetry.enable()
        telemetry.reset()
        on = ttr_sweep(a, b, shifts, horizon, engine=engine)
        snap = telemetry.snapshot()
        telemetry.disable()

        assert on == off
        # The enabled run actually instrumented this engine's phases.
        assert any(
            name.startswith(f"{engine}.") for name in snap["spans"]
        ), snap["spans"].keys()


class TestDispatchCounters:
    """ttr_sweep records which engine ran (``dispatch.engine.*``) and,
    under ``engine="auto"``, which rule chose it (``dispatch.rule.*``)."""

    def _counters(self, a, b, **kwargs):
        telemetry.reset()
        telemetry.enable()
        ttr_sweep(a, b, [0, 1, -1], 4 * max(a.period, b.period), **kwargs)
        return {
            name: value
            for name, value in telemetry.snapshot()["counters"].items()
            if name.startswith("dispatch.")
        }

    def test_auto_rules(self):
        tiny = CyclicSchedule([1, 2])
        assert self._counters(tiny, tiny) == {
            "dispatch.engine.scalar": 1, "dispatch.rule.tiny_joint": 1,
        }
        a = repro.build_schedule([1, 2], 4, algorithm="paper")
        assert a.period > 64
        assert self._counters(a, a) == {
            "dispatch.engine.stream": 1, "dispatch.rule.default": 1,
        }

    def test_checkpoint_rule(self, tmp_path):
        from repro.core.stream import SweepCheckpoint

        a = repro.build_schedule([1, 2], 4, algorithm="paper")
        counters = self._counters(
            a, a, checkpoint=SweepCheckpoint(tmp_path / "c.json")
        )
        assert counters == {
            "dispatch.engine.stream": 1, "dispatch.rule.checkpoint": 1,
        }

    def test_forced_engine_counts_no_rule(self):
        a = repro.build_schedule([1, 2], 4, algorithm="paper")
        assert self._counters(a, a, engine="scalar") == {
            "dispatch.engine.scalar": 1,
        }


# One self-contained script replayed under different PYTHONHASHSEED
# values: the snapshot's *structure* (names, nesting, ordering, call
# counts, byte totals) must be identical; only seconds may vary, so
# the script strips them before printing.
_STRUCTURE_SCRIPT = r"""
import json
import repro
from repro.core import telemetry
from repro.core.batch import ttr_sweep
from repro.core.schedule import CyclicSchedule
from repro.core.verification import strided_shift_range
from repro.sim.workloads import single_overlap

inst = single_overlap(16, 3, 3, seed=0)
a = repro.build_schedule(inst.sets[0], 16, algorithm="jump-stay")
b = repro.build_schedule(inst.sets[1], 16, algorithm="jump-stay")
shifts = list(strided_shift_range(a, b, 64))

telemetry.enable()
telemetry.reset()
ttr_sweep(a, b, shifts, 4 * max(a.period, b.period), engine="stream",
          stream_workers=1)
telemetry.count("extra.counter", 3)
telemetry.gauge("extra.gauge", 2.0)
snap = telemetry.snapshot()

def strip_seconds(children):
    return {
        name: {
            "calls": node["calls"],
            "bytes": node["bytes"],
            "children": strip_seconds(node["children"]),
        }
        for name, node in children.items()
    }

print(json.dumps({
    "counters": snap["counters"],
    "gauges": snap["gauges"],
    "spans": strip_seconds(snap["spans"]),
}))
"""


class TestStructureDeterminism:
    def test_identical_under_hashseed_variation(self):
        outputs = []
        for hashseed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", _STRUCTURE_SCRIPT],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hashseed,
                },
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert "stream.sweep" in payload["spans"]
        assert payload["counters"]["extra.counter"] == 3
        # json.dumps preserves dict order: sortedness survives transit.
        assert list(payload["spans"]) == sorted(payload["spans"])
