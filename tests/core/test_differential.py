"""Randomized cross-engine differential harness.

With two engines (scalar, stream), two stream tile sources (warm
period tables, the schedules' own chunk hooks), multi-pair stacking,
three fault-environment families, thread lanes, and degenerate tile
plans, the space of execution configurations long outgrew
hand-enumerated parity matrices.  This harness draws random points
from that space — (algorithm, workload, environment, engine
configuration, shift set, horizon) — and
asserts the resulting TTR profile is **bit-identical** to the scalar
reference loop (:func:`repro.core.verification.ttr_for_shift`), the one
implementation simple enough to trust by inspection.

The case generator is a plain seeded ``random.Random`` program — no
external property-testing dependency — so every case is replayable from
its integer seed alone:

* ``REPRO_DIFFERENTIAL_CASES`` (default ``60``) sets how many random
  cases run; CI turns it up to 200+.
* ``REPRO_DIFFERENTIAL_SEED`` (default ``0``) offsets the seed stream,
  so nightly runs can walk fresh territory while any failure stays
  reproducible: the failing test's parametrized id *is* the case seed.
* ``differential_corpus.json`` is the regression corpus: seeds that
  once found bugs (or pin especially gnarly configurations) replay on
  every run, first, forever.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

import repro
from repro.core import batch
from repro.core.environment import parse_environment
from repro.core.schedule import _CACHE_LIMIT
from repro.core.stream import TilePlan, ttr_sweep_pairs, ttr_sweep_stream
from repro.core.verification import ttr_for_shift
from repro.sim import workloads

CASES = int(os.environ.get("REPRO_DIFFERENTIAL_CASES", "60"))
SEED_BASE = int(os.environ.get("REPRO_DIFFERENTIAL_SEED", "0"))

CORPUS_PATH = Path(__file__).with_name("differential_corpus.json")

ALGORITHMS = ("paper", "crseq", "jump-stay", "drds", "zos")

WORKLOADS = (
    lambda rng: workloads.random_subsets(
        rng.choice((8, 12, 16)), rng.randint(3, 5), 3, seed=rng.randint(0, 999)
    ),
    lambda rng: workloads.single_overlap(
        rng.choice((12, 16)), rng.randint(2, 4), rng.randint(2, 4),
        seed=rng.randint(0, 999),
    ),
    lambda rng: workloads.symmetric(
        rng.choice((8, 16)), rng.randint(2, 4), 2, seed=rng.randint(0, 999)
    ),
    lambda rng: workloads.nested(16, [2, rng.randint(3, 5)], seed=rng.randint(0, 999)),
)

ENVIRONMENTS = (
    lambda rng: None,
    lambda rng: parse_environment(f"fading:p=0.1,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(f"pu-churn:rate=0.08,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(f"sensing:p=0.15,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(
        f"fading:p=0.05,seed={rng.randint(0, 99)}"
        f"+pu-churn:rate=0.05,seed={rng.randint(0, 99)}"
    ),
)

ENGINE_CONFIGS = (
    "scalar",
    "batched",
    "auto",
    "stream-serial",
    "stream-blocked",
    "pair-major",
)


def _draw_case(rng: random.Random) -> dict:
    """One random execution configuration, fully determined by ``rng``."""
    algorithm = rng.choice(ALGORITHMS)
    instance = rng.choice(WORKLOADS)(rng)
    pairs = instance.overlapping_pairs()
    if not pairs:
        # Degenerate draw (no overlapping pair): fall back to the
        # guaranteed-overlap generator so every seed yields a case.
        instance = workloads.single_overlap(16, 3, 3, seed=rng.randint(0, 999))
        pairs = instance.overlapping_pairs()
    engine = rng.choice(ENGINE_CONFIGS)
    environment = rng.choice(ENVIRONMENTS)(rng)
    if engine in ("stream-serial", "stream-blocked", "pair-major", "auto"):
        # Discarded: the retired array-backend draw, kept so seeds replay.
        rng.choice(("auto", "numpy", "recording"))
    num_pairs = 1
    if engine == "pair-major":
        num_pairs = rng.randint(2, min(3, len(pairs))) if len(pairs) > 1 else 1
    plan = None
    tile_bytes = None
    if engine == "stream-blocked":
        plan = (
            rng.choice((1 << 14, 1 << 16)),  # tile_bytes
            rng.choice((1, 2, 7, 64)),  # block_rows (1: fully degenerate)
            rng.choice((1, 2, 4)),  # workers
        )
    elif engine in ("stream-serial", "pair-major"):
        tile_bytes = rng.choice((1 << 14, 1 << 18, 1 << 22))
    return {
        "algorithm": algorithm,
        "instance": instance,
        "pairs": pairs[:num_pairs],
        "engine": engine,
        "environment": environment,
        "plan": plan,
        "tile_bytes": tile_bytes,
        "num_shifts": rng.randint(6, 20),
        "short_horizon": rng.random() < 0.3,
        "rng": rng,
    }


def _schedules(case: dict) -> list[tuple]:
    instance = case["instance"]
    rng = case["rng"]
    jobs = []
    for i, j in case["pairs"]:
        a = repro.build_schedule(
            instance.sets[i], instance.n, algorithm=case["algorithm"]
        )
        b = repro.build_schedule(
            instance.sets[j], instance.n, algorithm=case["algorithm"]
        )
        lo, hi = -b.period + 1, a.period
        shifts = [rng.randrange(lo, hi) for _ in range(case["num_shifts"])]
        shifts += [0, lo, hi - 1, rng.randrange(lo, hi) * 7]  # dupes welcome
        if case["short_horizon"]:
            horizon = rng.randint(1, 60)
        else:
            horizon = min(4 * max(a.period, b.period), 30_000)
        jobs.append((a, b, shifts, horizon))
    return jobs


def _reference(a, b, shifts, horizon, environment):
    return {
        s: ttr_for_shift(a, b, s, horizon, environment=environment)
        for s in shifts
    }


def _run_case(seed: int) -> None:
    """Draw the case for ``seed``, execute it, and assert bit-parity."""
    rng = random.Random(seed)
    case = _draw_case(rng)
    engine, env = case["engine"], case["environment"]
    jobs = _schedules(case)
    label = (
        f"seed={seed} engine={engine} algo={case['algorithm']} "
        f"env={'yes' if env else 'no'}"
    )
    if engine == "pair-major":
        stacked = ttr_sweep_pairs(
            [(a, b, shifts) for a, b, shifts, _ in jobs],
            [horizon for _, _, _, horizon in jobs],
            tile_bytes=case["tile_bytes"],
            environment=env,
        )
        for (a, b, shifts, horizon), got in zip(jobs, stacked):
            assert got == _reference(a, b, shifts, horizon, env), label
        return
    a, b, shifts, horizon = jobs[0]
    expected = _reference(a, b, shifts, horizon, env)
    if engine == "stream-serial":
        # One lane, tile-filling blocks: the tiling of the retired
        # single-threaded reference scan.
        tile_bytes = case["tile_bytes"]
        got = ttr_sweep_stream(
            a, b, shifts, horizon,
            plan=TilePlan(tile_bytes, max(1, tile_bytes // 8 // 256), 1),
            environment=env,
        )
    elif engine == "stream-blocked":
        tile_bytes, block_rows, workers = case["plan"]
        got = ttr_sweep_stream(
            a, b, shifts, horizon,
            plan=TilePlan(
                tile_bytes=tile_bytes, block_rows=block_rows, workers=workers
            ),
            environment=env,
        )
    elif engine == "batched":
        # The retired table engine's draw, kept so seeds replay: warm
        # both tables so the stream kernel reads window views of them.
        for schedule in (a, b):
            if schedule.period <= _CACHE_LIMIT:
                schedule.period_table()
        got = ttr_sweep_stream(a, b, shifts, horizon, environment=env)
    else:  # scalar / auto, through the dispatcher
        got = batch.ttr_sweep(
            a, b, shifts, horizon, engine=engine, environment=env,
        )
    assert got == expected, label


def _corpus_entries() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())


@pytest.mark.parametrize(
    "entry",
    _corpus_entries(),
    ids=lambda entry: f"seed{entry['seed']}",
)
def test_regression_corpus_replays(entry):
    """Seeds that pin past counterexamples and gnarly configurations."""
    _run_case(entry["seed"])


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + CASES))
def test_random_differential_case(seed):
    """A fresh random point in the execution-configuration space."""
    _run_case(seed)


def test_corpus_is_well_formed():
    entries = _corpus_entries()
    assert entries, "regression corpus must never be empty"
    for entry in entries:
        assert isinstance(entry["seed"], int)
        assert entry["note"]
    seeds = [entry["seed"] for entry in entries]
    assert len(seeds) == len(set(seeds)), "duplicate corpus seeds"
