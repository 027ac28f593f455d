"""Experiment runner: build schedules, sweep shifts, aggregate TTRs.

This is the measurement harness behind every benchmark table: given an
:class:`~repro.sim.workloads.Instance` and an algorithm name, it builds
one schedule per agent, measures pairwise time-to-rendezvous over a
deterministic set of relative shifts, and aggregates.

The heavy lifting happens in :class:`SweepRunner`:

* schedules are cached per ``(channels, n, algorithm, seed)`` — in an
  instance with many agents the same channel set is never rebuilt for
  each pair it appears in;
* a single pair's shift sweep goes through the engine dispatcher
  (:func:`repro.core.batch.ttr_sweep`), one vectorized pass instead of a
  Python loop over shifts, and a job of two or more pairs through one
  stacked :func:`repro.core.stream.ttr_sweep_pairs` tile pass; the
  runner's ``workers`` is the stream kernel's thread-lane count on both;
* with a :class:`~repro.core.store.ScheduleStore` attached, period
  tables are materialized **once** per distinct key and every later
  runner or process attaches a read-only memmap view instead of
  rebuilding — the enabling layer for dense-universe sweeps, where
  table construction dominates;
* with a :class:`~repro.core.results.ResultStore` attached, whole
  *measurements* persist: a repeat query is answered from disk before
  any schedule is built, which is the serving layer behind
  ``python -m repro serve``;
* with a ``checkpoint_dir``, streaming sweeps snapshot their progress
  and resume after an interruption, bit-identically.

Shift policy: the asynchronous guarantee quantifies over *all* relative
wake-up offsets — both wake orders.  A nonnegative shift only acts
through its phase class mod ``period_A`` and a negative one mod
``period_B`` (see
:func:`repro.core.verification.exhaustive_shift_range`), so
``shift_plan`` straddles zero: a signed dense prefix
(``0, -1, 1, -2, 2, ...``) plus seeded pseudo-random probes drawn
uniformly from the two-sided class range, each side clamped to
``joint_cap``.  The same policy applies to every algorithm, so
comparisons are fair.

The module-level ``shift_plan`` / ``measure_pairwise`` /
``measure_instance`` functions are thin wrappers over a serial
``SweepRunner`` and keep the original API.
"""

from __future__ import annotations

import os
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core import telemetry
from repro.core.batch import ENGINES, ttr_sweep
from repro.core.environment import Environment, parse_environment
from repro.core.results import ResultStore, pair_query, result_digest
from repro.core.schedule import Schedule
from repro.core.store import ScheduleStore, build_plain, store_key
from repro.core.stream import SweepCheckpoint, ttr_sweep_pairs
from repro.sim.metrics import TTRStats, summarize_ttrs
from repro.sim.workloads import Instance

__all__ = [
    "MeasuredPair",
    "SweepRunner",
    "shift_plan",
    "measure_pairwise",
    "measure_instance",
]

# Probes never sample beyond this many shifts of the joint period: the
# lcm of two large coprime periods can dwarf any meaningful sweep.
DEFAULT_JOINT_CAP = 1 << 20


@dataclass(frozen=True)
class MeasuredPair:
    """Worst-case and sample TTRs for one agent pair under one algorithm.

    ``missed`` counts the shifts in the plan that never rendezvoused
    within the horizon.  On a clean run it is always zero (a miss
    raises instead); under a fault environment misses are expected —
    that loss *is* the measurement — so ``worst_ttr`` and ``stats``
    summarize the shifts that still met (``worst_ttr`` is ``-1`` when
    none did).
    """

    algorithm: str
    pair: tuple[int, int]
    worst_ttr: int
    stats: TTRStats
    missed: int = 0


def shift_plan(
    a: Schedule,
    b: Schedule,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> list[int]:
    """Deterministic shift schedule: signed dense prefix + seeded probes.

    Covers both wake orders: the distinct shift classes are
    ``[-period_B + 1, period_A)`` (nonnegative shifts act mod
    ``period_A``, negative ones mod ``period_B``), so the dense prefix
    alternates ``0, -1, 1, -2, 2, ...`` around zero and probes are
    drawn uniformly from the full two-sided range, each side clamped to
    ``joint_cap``.
    """
    rng = random.Random(seed)
    lo = -min(b.period - 1, joint_cap)
    hi = min(a.period, joint_cap)
    shifts = []
    for i in range(dense):
        magnitude = (i + 1) // 2
        shift = magnitude if i % 2 == 0 else -magnitude
        if lo <= shift < hi:
            shifts.append(shift)
    shifts += [rng.randrange(lo, hi) for _ in range(probes)]
    return shifts


class SweepRunner:
    """Vectorized, schedule-caching sweep engine.

    **Caching contract.** One runner owns one schedule cache, keyed by
    :func:`~repro.core.store.store_key` — ``(channels, n, algorithm,
    seed)`` with the seed collapsed to ``-1`` for every deterministic
    algorithm — so in an instance where many agents share a channel
    set, each distinct set is built exactly once per runner, and
    reusing one runner across calls amortizes schedule construction
    over a whole table.  ``cache_hits``/``cache_misses`` expose the
    effect.  Entries are never evicted: a runner's lifetime is expected
    to be one table, not one process.

    **Store contract.** With ``store=`` (a
    :class:`~repro.core.store.ScheduleStore` or a directory path), the
    local cache's miss path goes through the store: period tables are
    materialized into the store exactly once per distinct key and every
    later lookup — same runner, another runner, another *process* —
    attaches a read-only memmap view instead of rebuilding; the store's
    ``builds``/``attaches`` counters certify it.

    **Engine contract.** ``engine`` / ``tile_bytes`` pass straight
    through to :func:`repro.core.batch.ttr_sweep` for every pair the
    runner measures one at a time: ``"auto"`` dispatches per pair — the
    scalar loop for tiny joint periods, the stream kernel for
    everything else, so huge-period baselines (Jump-Stay at
    ``n >= 128``) sweep transparently; forcing ``"stream"`` or
    ``"scalar"`` pins the path, and both engines are bit-identical.

    **Stacking contract.** A job of two or more pairs, with ``engine``
    ``"auto"`` or ``"stream"`` and no checkpoint directory, runs every
    uncached pair through one :func:`repro.core.stream.ttr_sweep_pairs`
    tile pass instead of one engine dispatch per pair.  One pair, a
    checkpoint directory or ``engine="scalar"`` keeps the per-pair
    dispatch.  Stacked results are bit-identical to per-pair ones,
    cache consultation and write-through per pair included, and return
    in pair order.

    **Lane contract.** ``workers`` is the thread-lane count of the one
    stream kernel (``None``: one per CPU), on the stacked pass and the
    per-pair dispatch alike; every sweep runs in the calling process.
    Lanes move wall-clock, never results; see ``docs/TUNING.md``.

    **Result-cache contract.** With ``results=`` (a
    :class:`~repro.core.results.ResultStore` or a directory path),
    ``measure_pair`` consults the persistent result cache *before
    building any schedule* — a warm query costs one shard read, not a
    sweep — and writes every computed measurement through after.  The
    cache key is engine-invariant (see
    :func:`repro.core.results.pair_query`), so results computed under
    any engine/tile/lane configuration answer queries made under any
    other.

    **Checkpoint contract.** With ``checkpoint_dir=``, every
    streaming-engine sweep snapshots its progress into
    ``<query digest>.ckpt.json`` under that directory (see
    :class:`~repro.core.stream.SweepCheckpoint`): an interrupted
    measurement resumes from the snapshot on rerun and the completed
    sweep deletes it.  Resumed profiles are bit-identical to
    uninterrupted ones.  Checkpointing rides the streaming engine, so
    ``engine="auto"`` dispatches checkpointed sweeps to it; forcing
    ``"scalar"`` alongside a checkpoint directory raises.

    **Environment contract.** With ``environment=`` (an
    :class:`~repro.core.environment.Environment`, or a spec string for
    :func:`~repro.core.environment.parse_environment`), every sweep the
    runner performs runs under that fault model: the mask passes
    straight through to the sweep engine, the environment's canonical
    spec joins the result-cache query (faulted and clean measurements
    can never answer each other) and any checkpoint digest.  Misses
    stop raising and are counted in :attr:`MeasuredPair.missed`
    instead — under primary-user churn a lost guarantee is the
    observation, not a bug.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ScheduleStore | str | os.PathLike | None = None,
        engine: str = "auto",
        tile_bytes: int | None = None,
        results: ResultStore | str | os.PathLike | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        environment: Environment | str | None = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        elif workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        if store is not None and not isinstance(store, ScheduleStore):
            store = ScheduleStore(store)
        self.store = store
        if results is not None and not isinstance(results, ResultStore):
            results = ResultStore(results)
        self.results = results
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        self.tile_bytes = tile_bytes
        if isinstance(environment, str):
            environment = parse_environment(environment)
        self.environment = environment
        self._schedules: dict[
            tuple[frozenset[int], int, str, int], Schedule
        ] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def schedule_for(
        self, channels: frozenset[int], n: int, algorithm: str, seed: int
    ) -> Schedule:
        """Build (or fetch) one agent's schedule.

        Deterministic algorithms ignore the seed, so it only
        discriminates cache entries for the randomized baseline.  The
        miss path goes through the store when one is attached.
        """
        key = store_key(channels, n, algorithm, seed)
        cached = self._schedules.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if self.store is not None:
            schedule = self.store.get(channels, n, algorithm, seed)
        else:
            schedule = build_plain(channels, n, algorithm, seed)
        self._schedules[key] = schedule
        return schedule

    def prewarm(
        self,
        instance: Instance,
        algorithm: str,
        pairs: list[tuple[int, int]] | None = None,
        seed: int = 0,
        agents: list[int] | None = None,
    ) -> int:
        """Materialize every schedule a sweep over ``pairs`` will need.

        Touches each agent once with the same per-agent seeds
        ``measure_pair`` uses, so each distinct cache key is built
        exactly once (into the store, when one is attached) before any
        sweep.  ``agents`` overrides the pair-derived agent selection
        (e.g. warm everything regardless of overlaps).  Returns the
        number of distinct keys touched.
        """
        if agents is None:
            if pairs is None:
                pairs = instance.overlapping_pairs()
            agents = sorted({index for pair in pairs for index in pair})
        keys = set()
        for i in agents:
            agent_seed = seed * 1000 + i
            keys.add(store_key(instance.sets[i], instance.n, algorithm, agent_seed))
            self.schedule_for(instance.sets[i], instance.n, algorithm, agent_seed)
        if self.store is not None:
            resident = sum(
                self.store.contains(channels, n, algo, agent_seed)
                for channels, n, algo, agent_seed in keys
            )
            if resident < len(keys):
                # The sweep's working set exceeds the store cap (or the
                # tables bypassed it): whoever needs the rest next
                # rebuilds it, defeating the built-once contract.
                warnings.warn(
                    f"schedule store holds only {resident}/{len(keys)} of "
                    "this sweep's tables (memory cap or period limit); "
                    "later runners and processes will rebuild the tables "
                    "the store could not hold",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return len(keys)

    def measure_pair(
        self,
        instance: Instance,
        algorithm: str,
        pair: tuple[int, int],
        horizon: int,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> MeasuredPair:
        """Measure TTR for one overlapping pair over the shift plan.

        Raises ``AssertionError`` if any shift misses within ``horizon``
        — deterministic algorithms must never miss when the horizon
        exceeds their guarantee; the randomized baseline gets the same
        horizon and is expected to make it with high probability.
        Under an attached fault environment misses are expected, so
        they are tallied in :attr:`MeasuredPair.missed` instead of
        raising and the aggregates cover only the shifts that met.

        With a result store attached, a cached measurement is returned
        *before any schedule is built* (the warm-query fast path) and a
        computed one is written through; with a checkpoint directory,
        the sweep itself is interrupt/resumable.
        """
        return self._measure_pairs(
            instance, algorithm, [pair], horizon, dense, probes, seed
        )[0]

    def _finalize_pair(
        self,
        instance: Instance,
        algorithm: str,
        pair: tuple[int, int],
        horizon: int,
        plan: list[int],
        profile: dict[int, int | None],
        query: dict | None,
    ) -> MeasuredPair:
        """Aggregate one pair's profile and write it through the cache.

        Tally misses (raising on a clean-run miss, counting them under
        a fault environment), summarize the samples, and persist the
        measurement when a result store is attached.
        """
        i, j = pair
        missed = 0
        samples = []
        for shift in plan:
            ttr = profile[shift]
            if ttr is None:
                if self.environment is None:
                    raise AssertionError(
                        f"{algorithm} missed rendezvous within {horizon} "
                        f"slots for pair {pair} at shift {shift} "
                        f"(sets {sorted(instance.sets[i])} / "
                        f"{sorted(instance.sets[j])})"
                    )
                missed += 1
            else:
                samples.append(ttr)
        if samples:
            worst, stats = max(samples), summarize_ttrs(samples)
        else:
            # Every shift lost the guarantee: sentinel aggregates, the
            # miss count carries the whole story.
            worst, stats = -1, TTRStats(0, 0.0, 0.0, 0.0, -1, -1)
        measured = MeasuredPair(algorithm, pair, worst, stats, missed)
        if self.results is not None:
            self.results.put(query, _measured_record(measured))
        return measured

    def pair_query_for(
        self,
        instance: Instance,
        algorithm: str,
        pair: tuple[int, int],
        horizon: int,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> dict:
        """Canonical result-cache query for one ``measure_pair`` call.

        The randomized baseline additionally pins the derived per-agent
        tape seeds — two pairs over the same channel sets but different
        agent indices draw different tapes and must not share a cache
        entry.  The runner's environment spec joins the query when one
        is attached (clean queries are unchanged).
        """
        i, j = pair
        query = pair_query(
            algorithm, instance.n, instance.sets[i], instance.sets[j],
            horizon, dense, probes, seed, environment=self.environment,
        )
        if algorithm == "random":
            query["agent_seeds"] = [seed * 1000 + i, seed * 1000 + j]
        return query

    def worker_budget(self, num_pairs: int) -> tuple[int, int]:
        """``(processes, stream_lanes)`` for a job: always ``(1, workers)``."""
        return 1, self.workers

    def measure_instance(
        self,
        instance: Instance,
        algorithm: str,
        horizon: int,
        max_pairs: int | None = None,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> list[MeasuredPair]:
        """Measure all (or the first ``max_pairs``) overlapping pairs.

        Results are returned in pair order.
        """
        pairs = instance.overlapping_pairs()
        if max_pairs is not None:
            pairs = pairs[:max_pairs]
        with telemetry.span("runner.serial"):
            telemetry.count("runner.serial_pairs", len(pairs))
            return self._measure_pairs(
                instance, algorithm, pairs, horizon, dense, probes, seed
            )

    def _stacks(self, num_pairs: int) -> bool:
        """Whether a job of ``num_pairs`` pairs runs stacked.

        Stacking needs the streaming engine reachable (``engine`` auto
        or stream) and no checkpoint directory (the stacked scan is not
        resumable), and pays off from two pairs on.
        """
        return (
            num_pairs >= 2
            and self.checkpoint_dir is None
            and self.engine in ("auto", "stream")
        )

    def _measure_pairs(
        self,
        instance: Instance,
        algorithm: str,
        pairs: list[tuple[int, int]],
        horizon: int,
        dense: int,
        probes: int,
        seed: int,
    ) -> list[MeasuredPair]:
        """Measure ``pairs`` in order: stacked, or one dispatch per pair.

        Every pair consults the result cache first (warm pairs never
        reach a sweep), takes its schedules from the shared cache and
        gets its shift plan.  A stacking job (see :meth:`_stacks`) then
        sends every uncached plan through one
        :func:`repro.core.stream.ttr_sweep_pairs` tile pass; otherwise
        each pair sweeps through :func:`repro.core.batch.ttr_sweep` as
        soon as it is planned, checkpointed when a directory is set.
        Either way each computed measurement is written through, and the
        two paths are bit-identical.
        """
        stacked = self._stacks(len(pairs))
        measured: list[MeasuredPair | None] = [None] * len(pairs)
        pending: list[tuple[int, tuple[int, int], list[int], dict | None]] = []
        jobs: list[tuple[Schedule, Schedule, list[int]]] = []
        for idx, pair in enumerate(pairs):
            with telemetry.span("runner.measure_pair"):
                i, j = pair
                query = None
                if self.results is not None or self.checkpoint_dir is not None:
                    query = self.pair_query_for(
                        instance, algorithm, pair, horizon, dense, probes, seed
                    )
                if self.results is not None:
                    cached = self.results.get(query)
                    if cached is not None:
                        measured[idx] = _measured_from_record(
                            algorithm, pair, cached
                        )
                        continue
                a = self.schedule_for(
                    instance.sets[i], instance.n, algorithm, seed * 1000 + i
                )
                b = self.schedule_for(
                    instance.sets[j], instance.n, algorithm, seed * 1000 + j
                )
                plan = shift_plan(a, b, dense=dense, probes=probes, seed=seed)
                if not plan:
                    raise ValueError(
                        "empty shift plan: need dense > 0 or probes > 0"
                    )
                if stacked:
                    jobs.append((a, b, plan))
                    pending.append((idx, pair, plan, query))
                    continue
                checkpoint = None
                if self.checkpoint_dir is not None:
                    checkpoint = SweepCheckpoint(
                        self.checkpoint_dir / f"{result_digest(query)}.ckpt.json"
                    )
                # Positional: engine, tile budget, stream-kernel lanes.
                profile = ttr_sweep(
                    a, b, plan, horizon, self.engine, self.tile_bytes,
                    self.workers, checkpoint=checkpoint,
                    environment=self.environment,
                )
                measured[idx] = self._finalize_pair(
                    instance, algorithm, pair, horizon, plan, profile, query
                )
                if checkpoint is not None:
                    checkpoint.clear()
        if jobs:
            profiles = ttr_sweep_pairs(
                jobs, horizon, tile_bytes=self.tile_bytes,
                workers=self.workers, environment=self.environment,
            )
            for (idx, pair, plan, query), profile in zip(pending, profiles):
                measured[idx] = self._finalize_pair(
                    instance, algorithm, pair, horizon, plan, profile, query
                )
        return measured


def _measured_record(measured: MeasuredPair) -> dict:
    """JSON-able result-store record of one measurement."""
    stats = measured.stats
    return {
        "worst_ttr": measured.worst_ttr,
        "missed": measured.missed,
        "stats": {
            "count": stats.count,
            "mean": stats.mean,
            "median": stats.median,
            "p95": stats.p95,
            "maximum": stats.maximum,
            "minimum": stats.minimum,
        },
    }


def _measured_from_record(
    algorithm: str, pair: tuple[int, int], record: dict
) -> MeasuredPair:
    """Rehydrate a cached record into a ``MeasuredPair`` (bit-identical:
    JSON round-trips the ints and IEEE doubles exactly)."""
    stats = record["stats"]
    return MeasuredPair(
        algorithm,
        pair,
        int(record["worst_ttr"]),
        TTRStats(
            count=int(stats["count"]),
            mean=float(stats["mean"]),
            median=float(stats["median"]),
            p95=float(stats["p95"]),
            maximum=int(stats["maximum"]),
            minimum=int(stats["minimum"]),
        ),
        # Pre-environment records carry no miss count; they were all
        # clean runs, where a miss raised instead of recording.
        int(record.get("missed", 0)),
    )


def measure_pairwise(
    instance: Instance,
    algorithm: str,
    pair: tuple[int, int],
    horizon: int,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    store: ScheduleStore | str | Path | None = None,
) -> MeasuredPair:
    """Measure one pair with a throwaway serial runner (legacy API)."""
    return SweepRunner(workers=1, store=store).measure_pair(
        instance, algorithm, pair, horizon, dense=dense, probes=probes, seed=seed
    )


def measure_instance(
    instance: Instance,
    algorithm: str,
    horizon: int,
    max_pairs: int | None = None,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    workers: int | None = 1,
    store: ScheduleStore | str | Path | None = None,
) -> list[MeasuredPair]:
    """Measure an instance; ``workers=None`` uses every core."""
    return SweepRunner(workers=workers, store=store).measure_instance(
        instance,
        algorithm,
        horizon,
        max_pairs=max_pairs,
        dense=dense,
        probes=probes,
        seed=seed,
    )
