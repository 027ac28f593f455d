"""Parity tests: the sweep dispatcher vs the scalar reference path.

The contract is bit-identical profiles: for every workload the library
ships, ``ttr_sweep`` must return exactly what a per-shift loop over
``ttr_for_shift`` returns — including ``None`` misses, negative shifts,
duplicate shifts, and degenerate horizons.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import batch
from repro.core.schedule import _CACHE_LIMIT, CyclicSchedule, FunctionSchedule
from repro.core.stream import ttr_sweep_pairs
from repro.core.verification import (
    exhaustive_shift_range,
    max_ttr,
    ttr_for_shift,
    ttr_profile,
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
@pytest.mark.parametrize("algorithm", ["paper", "crseq"])
def test_parity_across_workloads(kind, algorithm):
    instance = WORKLOADS[kind]()
    pairs = instance.overlapping_pairs()[:2]
    assert pairs, f"workload {kind} produced no overlapping pairs"
    for i, j in pairs:
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        horizon = 4 * max(a.period, b.period)
        assert batch.ttr_sweep(a, b, SHIFTS, horizon) == _scalar(a, b, SHIFTS, horizon)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_parity_on_tight_horizon_misses(kind):
    """Horizons below the TTR must yield the same ``None``s as scalar."""
    instance = WORKLOADS[kind]()
    i, j = instance.overlapping_pairs()[0]
    a = repro.build_schedule(instance.sets[i], instance.n)
    b = repro.build_schedule(instance.sets[j], instance.n)
    for horizon in (1, 2, 5, 17):
        shifts = list(range(-30, 90))
        swept = batch.ttr_sweep(a, b, shifts, horizon)
        assert swept == _scalar(a, b, shifts, horizon)
        assert any(t is None for t in swept.values()) or horizon > 5


def test_parity_exhaustive_range():
    a = CyclicSchedule([1, 2, 3, 4])
    b = CyclicSchedule([9, 9, 2, 9, 9, 1])
    shifts = list(exhaustive_shift_range(a, b))
    assert len(shifts) == a.period + b.period - 1
    assert batch.ttr_sweep(a, b, shifts, 500) == _scalar(a, b, shifts, 500)


def test_parity_disjoint_schedules_all_miss():
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([3, 4, 5])
    shifts = list(range(-12, 25))
    swept = batch.ttr_sweep(a, b, shifts, 100_000)
    assert swept == {s: None for s in shifts}


def test_lcm_early_stop_matches_full_horizon_scan():
    """The engine stops scanning at lcm(periods); a huge horizon must not
    change any answer (the joint pattern is periodic)."""
    a, b = CyclicSchedule([1, 2, 7]), CyclicSchedule([7, 5])
    shifts = list(range(-6, 12))
    assert batch.ttr_sweep(a, b, shifts, 10**9) == _scalar(a, b, shifts, 10_000)


def test_chunking_is_invisible():
    """Tiny tile budgets exercise both chunk axes without changing results."""
    instance = single_overlap(32, 3, 4, seed=7)
    a = repro.build_schedule(instance.sets[0], 32)
    b = repro.build_schedule(instance.sets[1], 32)
    shifts = list(range(-50, 400))
    reference = batch.ttr_sweep(a, b, shifts, 20_000)
    for tile_bytes in (8, 512, 8192):
        assert batch.ttr_sweep(a, b, shifts, 20_000, tile_bytes=tile_bytes) == reference


def test_duplicate_and_empty_shift_lists():
    a, b = CyclicSchedule([1, 2, 3]), CyclicSchedule([3, 1])
    assert batch.ttr_sweep(a, b, [], 100) == {}
    dup = batch.ttr_sweep(a, b, [4, 4, -4, 4], 100)
    assert set(dup) == {4, -4}
    assert dup == _scalar(a, b, [4, -4], 100)


def test_zero_horizon_is_all_misses():
    a, b = CyclicSchedule([1]), CyclicSchedule([1])
    assert batch.ttr_sweep(a, b, [0, 3], 0) == {0: None, 3: None}


def test_huge_period_fallback_matches_scalar():
    """Periods past the schedule cache limit never materialize a table:
    the streaming tiled engine only evaluates the slots it scans —
    bit-identical to the scalar reference."""
    period = _CACHE_LIMIT + 1
    a = FunctionSchedule(lambda t: t % 3, period, channels=frozenset({0, 1, 2}))
    b = CyclicSchedule([2, 0])
    shifts = [0, 1, 5, -3]
    assert batch.ttr_sweep(a, b, shifts, 50) == _scalar(a, b, shifts, 50)


def test_ttr_profile_goes_through_batch_engine():
    instance = symmetric(16, 3, 2, seed=3)
    a = repro.build_schedule(instance.sets[0], 16, algorithm="paper-symmetric")
    b = repro.build_schedule(instance.sets[1], 16, algorithm="paper-symmetric")
    shifts = [5, -2, 0, 31]
    profile = ttr_profile(a, b, shifts, 100)
    assert list(profile) == shifts  # insertion order preserved
    assert profile == _scalar(a, b, shifts, 100)


def test_max_ttr_matches_scalar_max_through_batch():
    instance = single_overlap(16, 2, 3, seed=9)
    a = repro.build_schedule(instance.sets[0], 16)
    b = repro.build_schedule(instance.sets[1], 16)
    shifts = list(range(200))
    horizon = 4 * max(a.period, b.period)
    expected = max(_scalar(a, b, shifts, horizon).values())
    assert max_ttr(a, b, shifts, horizon) == expected


def test_max_ttr_raises_on_miss_through_batch():
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([3])
    with pytest.raises(AssertionError, match="no rendezvous"):
        max_ttr(a, b, [0, 1], 1000)


class TestAutoDispatchShape:
    """engine="auto" ignores sweep shape: every sweep past the scalar
    limit streams, strided or exhaustive, warm tables or cold — the
    stream kernel reads warm tables through window views itself."""

    def _cold_pair(self):
        # Fresh builds every call: a prior period_table() call would
        # warm the tables.
        instance = single_overlap(16, 3, 3, seed=2)
        a = repro.build_schedule(instance.sets[0], 16, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 16, algorithm="jump-stay")
        return a, b

    def _spy_stream(self, monkeypatch):
        calls = []
        real = batch._stream.ttr_sweep_stream

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch._stream, "ttr_sweep_stream", spy)
        return calls

    def test_cold_strided_sweep_streams(self, monkeypatch):
        a, b = self._cold_pair()
        shifts = list(range(max(a.period, b.period) // 64))
        assert shifts, "pair too small to express a strided sweep"
        calls = self._spy_stream(monkeypatch)
        horizon = 4 * max(a.period, b.period)
        profile = batch.ttr_sweep(a, b, shifts, horizon)
        assert calls, "cold strided sweep must dispatch to the stream engine"
        assert profile == batch.ttr_sweep(
            *self._cold_pair(), shifts, horizon, engine="scalar"
        )

    def test_warm_tables_stream(self, monkeypatch):
        a, b = self._cold_pair()
        a.period_table(), b.period_table()  # warm both
        assert a.has_warm_table() and b.has_warm_table()
        shifts = list(range(max(a.period, b.period) // 64))
        calls = self._spy_stream(monkeypatch)
        horizon = 4 * max(a.period, b.period)
        profile = batch.ttr_sweep(a, b, shifts, horizon)
        assert calls, "warm tables are a stream tile source, not an engine"
        assert profile == _scalar(a, b, shifts, horizon)

    def test_exhaustive_sweep_streams(self, monkeypatch):
        a, b = self._cold_pair()
        shifts = list(range(max(a.period, b.period)))  # shift count ~ period
        calls = self._spy_stream(monkeypatch)
        batch.ttr_sweep(a, b, shifts, 4 * max(a.period, b.period))
        assert calls, "exhaustive sweeps stream like every other shape"

    def test_stored_schedules_count_as_warm(self, tmp_path):
        from repro.core.store import ScheduleStore

        store = ScheduleStore(tmp_path)
        store.get([1, 5], 16, "crseq")
        attached = store.get([1, 5], 16, "crseq")
        assert attached.has_warm_table()

    def test_warmth_probe_semantics(self):
        assert CyclicSchedule([1, 2, 3]).has_warm_table()
        cold = repro.build_schedule([1, 5, 9], 16, algorithm="paper")
        assert not cold.has_warm_table()
        cold.period_table()
        assert cold.has_warm_table()


class TestChooseEngine:
    """choose_engine pins the three auto-dispatch regimes as a pure
    decision: checkpoint → stream, joint period up to
    SCALAR_JOINT_LIMIT → scalar, and warm or cold tables → stream."""

    def _cold_pair(self):
        instance = single_overlap(16, 3, 3, seed=2)
        a = repro.build_schedule(instance.sets[0], 16, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 16, algorithm="jump-stay")
        return a, b

    def test_checkpoint_forces_stream(self):
        a, b = self._cold_pair()
        assert batch.choose_engine(a, b, 10, checkpoint=True) == "stream"
        tiny = CyclicSchedule([1, 2]), CyclicSchedule([2, 1])
        assert batch.choose_engine(*tiny, 4, checkpoint=True) == "stream"

    def test_tiny_joint_period_goes_scalar(self):
        assert (
            batch.choose_engine(CyclicSchedule([1, 2]), CyclicSchedule([2, 1]), 4)
            == "scalar"
        )
        joint = CyclicSchedule([1] * 8), CyclicSchedule([1] * batch.SCALAR_JOINT_LIMIT)
        assert batch.choose_engine(*joint, 4) == "scalar"
        past = CyclicSchedule([1] * 3), CyclicSchedule([1] * batch.SCALAR_JOINT_LIMIT)
        assert batch.choose_engine(*past, 4) == "stream"

    def test_huge_period_goes_stream(self):
        big = FunctionSchedule(lambda t: t % 7, period=_CACHE_LIMIT + 1)
        assert batch.choose_engine(big, CyclicSchedule([1, 2, 3]), 10) == "stream"

    def test_cold_strided_goes_stream(self):
        a, b = self._cold_pair()
        assert batch.choose_engine(a, b, max(a.period, b.period) // 64) == "stream"

    def test_exhaustive_goes_stream(self):
        a, b = self._cold_pair()
        assert batch.choose_engine(a, b, max(a.period, b.period)) == "stream"

    def test_both_warm_goes_stream(self):
        a, b = self._cold_pair()
        a.period_table(), b.period_table()
        assert batch.choose_engine(a, b, max(a.period, b.period) // 64) == "stream"

    def test_warm_big_cold_small_still_streams_when_strided_vs_cold(self):
        a, b = self._cold_pair()
        big, small = (a, b) if a.period >= b.period else (b, a)
        big.period_table()
        for num in (1, small.period // 64 + 1, small.period):
            assert batch.choose_engine(big, small, num) == "stream"

    def test_ttr_sweep_auto_follows_choose_engine(self, monkeypatch):
        calls = []
        real = batch._stream.ttr_sweep_stream

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch._stream, "ttr_sweep_stream", spy)
        for a, b in (self._cold_pair(), (CyclicSchedule([1, 2]), CyclicSchedule([2]))):
            calls.clear()
            batch.ttr_sweep(a, b, [0, 1, -1], 4 * max(a.period, b.period))
            assert bool(calls) == (batch.choose_engine(a, b, 3) == "stream")


class TestTtrSweepPairsDispatcher:
    """stream.ttr_sweep_pairs (the runner's stacked path): one stacked
    pass, per-job parity with the dispatcher."""

    def _jobs(self):
        instance = random_subsets(16, 4, 3, seed=9)
        scheds = [
            repro.build_schedule(s, instance.n, algorithm="crseq")
            for s in instance.sets
        ]
        shifts = list(range(-20, 40))
        return [
            (scheds[i], scheds[j], shifts)
            for i, j in instance.overlapping_pairs()
        ]

    def test_matches_per_job_ttr_sweep(self):
        jobs = self._jobs()
        horizon = 4 * max(max(a.period, b.period) for a, b, _ in jobs)
        stacked = ttr_sweep_pairs(jobs, horizon)
        for (a, b, shifts), got in zip(jobs, stacked):
            assert got == batch.ttr_sweep(a, b, shifts, horizon)

    def test_per_job_horizons(self):
        jobs = self._jobs()
        horizons = [200 + 100 * i for i in range(len(jobs))]
        stacked = ttr_sweep_pairs(jobs, horizons)
        for (a, b, shifts), h, got in zip(jobs, horizons, stacked):
            assert got == batch.ttr_sweep(a, b, shifts, h)

    def test_reference_engines_loop_per_job(self):
        jobs = self._jobs()[:2]
        horizon = 4 * max(max(a.period, b.period) for a, b, _ in jobs)
        looped = [
            batch.ttr_sweep(a, b, shifts, horizon, engine="scalar")
            for a, b, shifts in jobs
        ]
        assert looped == ttr_sweep_pairs(jobs, horizon)

    def test_horizon_count_mismatch_raises(self):
        jobs = self._jobs()[:2]
        with pytest.raises(ValueError, match="horizons for"):
            ttr_sweep_pairs(jobs, [100])

    def test_unknown_engine_raises(self):
        jobs = self._jobs()[:1]
        for engine in ("warp", "batched"):
            with pytest.raises(ValueError, match="unknown engine"):
                batch.ttr_sweep(*jobs[0], 100, engine=engine)
