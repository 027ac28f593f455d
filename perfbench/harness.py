"""The four benchmark workloads, their correctness checks and their metrics.

Every workload runs against the public API of ``repro`` in the checkout
and reports the same end-to-end metrics (``setup_s``, ``cold_s``,
``warm_p50_s``, ``peak_rss_mib``; what each means per workload is in
``perfbench/README.md``).  A traced run (``trace=True``) reports the
per-layer metrics of ``LAYER_METRICS`` instead.  Inputs come only from
the seed; the program receives the generated channel sets, never the
seed itself.

Module-level imports are standard library only: ``repro`` is imported
inside the set-up functions, so a fresh child interpreter that runs a
set-up times the program's imports as part of it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

from tracing import SELF_TIME_LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"

WORKLOADS = ("table1_grid", "jumpstay_large", "serve_mix", "netsim_10k")
ALGORITHMS = ("paper", "crseq", "drds", "zos", "jump-stay")
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
)
#: The sweep CLI's default horizon; every deterministic worst TTR in
#: these workloads is far below it.
HORIZON = 1_000_000
#: A p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 170
#: table1_grid times its warm passes for this many times ``--seconds``.
GRID_WARM_FACTOR = 2
#: Calls per input when a layer is timed outside the measured passes.
PROBE_REPEATS = 5


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    grid_ns: tuple[int, ...]
    grid_min_passes: int
    large_ns: tuple[int, ...]
    large_k: int
    large_rows: int  # dense prefix and probes, each
    serve_n: int
    serve_pairs_per_algorithm: int
    netsim_agents: int
    netsim_parity_agents: int
    setup_children: int
    large_cold_children: int
    netsim_cold_children: int
    grid_warmup_passes: int
    oracle_shifts: int


SIZES = {
    "full": Size(
        grid_ns=(16, 32, 64), grid_min_passes=P90_MIN_SAMPLES,
        large_ns=(128, 256), large_k=8, large_rows=4096,
        serve_n=64, serve_pairs_per_algorithm=8,
        netsim_agents=10_000, netsim_parity_agents=50,
        setup_children=3, large_cold_children=5, netsim_cold_children=3,
        grid_warmup_passes=20, oracle_shifts=8,
    ),
    "tiny": Size(
        grid_ns=(8, 16), grid_min_passes=1,
        large_ns=(16, 32), large_k=4, large_rows=64,
        serve_n=16, serve_pairs_per_algorithm=1,
        netsim_agents=200, netsim_parity_agents=20,
        setup_children=1, large_cold_children=1, netsim_cold_children=1,
        grid_warmup_passes=1, oracle_shifts=2,
    ),
}

# name, unit, better, layer, end-to-end metric it should move (on which
# workload).  Times are seconds per operation (grid pass, large-pair
# pass, query or discovery pass) unless the name says otherwise; a layer
# a workload does not exercise reports 0.
GRID_WARM = "warm_p50_s on table1_grid"
LARGE_WARM = "warm_p50_s on jumpstay_large"
BOTH_WARM = "warm_p50_s on table1_grid and jumpstay_large"
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "cli", "warm_p50_s and cold_s on serve_mix"),
    ("cli.process_overhead_s", "s", "lower", "cli", "warm_p50_s on serve_mix"),
    ("cli.self_s", "s", "lower", "cli", "warm_p50_s and cold_s on serve_mix"),
    ("results.hit_latency_s", "s", "lower", "results", "warm_p50_s on serve_mix"),
    ("results.miss_latency_s", "s", "lower", "results", "cold_s on serve_mix"),
    ("results.hits", "count", "higher", "results", "warm_p50_s on serve_mix"),
    ("results.misses", "count", "lower", "results", "cold_s on serve_mix"),
    ("results.writes", "count", "lower", "results", "cold_s on serve_mix"),
    ("results.hit_ratio", "ratio", "higher", "results", "fail_frac on serve_mix"),
    ("store.prewarm_s", "s", "lower", "store", "setup_s on serve_mix"),
    ("store.builds", "count", "lower", "store", "setup_s on serve_mix"),
    ("store.global_builds", "count", "lower", "store", "setup_s on serve_mix"),
    ("store.attaches", "count", "higher", "store", "setup_s on serve_mix"),
    *(
        (f"baselines.build_s.{alg}", "s", "lower", "baselines", "cold_s on table1_grid")
        for alg in ALGORITHMS
    ),
    *(
        (
            f"baselines.drds_global_s.{n}", "s", "lower", "baselines",
            "cold_s on table1_grid and setup_s on serve_mix",
        )
        for n in (16, 32, 64)
    ),
    ("runner.shift_plan_s", "s", "lower", "runner", GRID_WARM),
    ("runner.measure_s", "s", "lower", "runner", BOTH_WARM),
    ("runner.stream_lanes", "count", "higher", "runner", BOTH_WARM),
    ("runner.self_s", "s", "lower", "runner", GRID_WARM),
    ("batch.dispatch.scalar", "count", "higher", "batch", GRID_WARM),
    ("batch.dispatch.batched", "count", "higher", "batch", GRID_WARM),
    ("batch.dispatch.stream", "count", "lower", "batch", GRID_WARM),
    ("batch.assemble_s", "s", "lower", "batch", GRID_WARM),
    ("batch.compare_s", "s", "lower", "batch", GRID_WARM),
    ("batch.retire_s", "s", "lower", "batch", GRID_WARM),
    ("batch.assemble_bytes", "bytes", "lower", "batch", GRID_WARM),
    ("batch.self_s", "s", "lower", "batch", GRID_WARM),
    ("scalar.self_s", "s", "lower", "scalar", GRID_WARM),
    ("stream.tile_assembly_s", "s", "lower", "stream", BOTH_WARM),
    ("stream.compare_s", "s", "lower", "stream", BOTH_WARM),
    ("stream.retire_s", "s", "lower", "stream", BOTH_WARM),
    ("stream.tile_bytes", "bytes", "lower", "stream", BOTH_WARM),
    ("stream.self_s", "s", "lower", "stream", BOTH_WARM),
    ("stream.plan.tile_bytes", "bytes", "higher", "stream", LARGE_WARM),
    ("stream.plan.block_rows", "count", "higher", "stream", LARGE_WARM),
    ("stream.plan.workers", "count", "higher", "stream", LARGE_WARM),
    ("netcore.population_s", "s", "lower", "netcore", "setup_s on netsim_10k"),
    ("netcore.cohorts", "count", "lower", "netcore", "setup_s on netsim_10k"),
    ("netcore.assemble_s", "s", "lower", "netcore", "warm_p50_s on netsim_10k"),
    ("netcore.scan_s", "s", "lower", "netcore", "warm_p50_s on netsim_10k"),
    ("netcore.gather_calls", "count", "lower", "netcore", "warm_p50_s on netsim_10k"),
    ("netcore.slots_simulated", "count", "lower", "netcore", "warm_p50_s on netsim_10k"),
    ("netcore.self_s", "s", "lower", "netcore", "warm_p50_s on netsim_10k"),
    ("trace.overhead_frac", "ratio", "lower", "bench", "none: traced/untraced - 1"),
)


@dataclass
class Outcome:
    """Everything one run measured, checked and traced."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)

    def op(self, problems: list[str] | str | None, label: str = "") -> None:
        """Count one attempted operation; any problem makes it a failure."""
        if isinstance(problems, str):
            problems = [problems]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(problems)}")

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def metric(self, name: str) -> float:
        """Median of a metric's samples (``peak_rss_mib`` is one value)."""
        return statistics.median(self.samples[name])

    def contract_metrics(self) -> dict:
        """The metrics of the final JSON line, every one as measured."""
        if self.trace:
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
            return {
                name: {"value": self.layers.get(name, 0), "unit": units[name]}
                for name in units
            }
        return {
            name: {"value": self.metric(name), "unit": unit}
            for name, unit in END_TO_END
        }


# -- shared helpers -----------------------------------------------------


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(mode: str, workload: str, seed: int, size: str) -> dict:
    """Run one fresh-interpreter child of ``run.py``; return its JSON line.

    The child measures ``setup_s`` from the parent's launch instant
    (``perf_counter`` is the system-wide monotonic clock on Linux), so
    interpreter start-up and imports are part of the set-up it reports.
    """
    launched = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(RUN_PY), "--child", mode, "--workload", workload,
            "--seed", str(seed), "--size", size, "--launched", repr(launched),
        ],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {mode}/{workload} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_loop(seconds: float, min_samples: int, step) -> list[float]:
    """Call ``step()`` until ``seconds`` passed and ``min_samples`` ran.

    ``step`` returns ``False`` to stop early (its input plan ran out).
    Returns the wall time of every completed step.
    """
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < min_samples:
        start = time.perf_counter()
        if step() is False:
            break
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mib() -> float:
    """Peak RSS of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[8]


def worst_bound(algorithm: str, n: int, k: int) -> int | None:
    """Analytic worst-TTR bound from ``repro.core.bounds`` for two
    ``k``-channel sets, if one exists."""
    from repro.core import bounds

    if algorithm == "paper":
        return bounds.theorem3_async_bound(k, k, n)
    if algorithm == "crseq":
        return bounds.crseq_bound(n)
    if algorithm == "jump-stay":
        return bounds.jump_stay_bound(n)
    if algorithm == "drds":
        return bounds.drds_bound(n)
    return None


def answer_of(measured) -> list:
    """Comparable answer of one ``MeasuredPair``: worst TTR, stats, misses."""
    return [measured.worst_ttr, list(astuple(measured.stats)), measured.missed]


def reference_answer(
    a, b, algorithm: str, n: int, k: int, plan: list[int],
    oracle_shifts: int, rng: random.Random,
) -> tuple[list | None, list[str]]:
    """Oracle-checked expected answer for one pair over ``plan``.

    The production sweep gives every shift's TTR; a seeded sample of
    shifts plus the worst one are rechecked against the scalar
    ``ttr_for_shift`` loop, and the worst TTR against its analytic
    bound.  Returns ``(answer, problems)``; the answer is ``None`` when
    the oracle disagrees, so every operation on the pair fails.
    """
    from repro.core.batch import ttr_sweep
    from repro.core.verification import ttr_for_shift
    from repro.sim.metrics import summarize_ttrs

    profile = ttr_sweep(a, b, plan, HORIZON)
    problems = []
    values = [profile[s] for s in plan]
    if any(v is None for v in values):
        return None, [f"{algorithm} n={n}: sweep missed within {HORIZON}"]
    worst_shift = plan[values.index(max(values))]
    for shift in rng.sample(plan, min(oracle_shifts, len(plan))) + [worst_shift]:
        scalar = ttr_for_shift(a, b, shift, HORIZON, chunk=4096)
        if scalar != profile[shift]:
            problems.append(
                f"{algorithm} n={n} shift {shift}: sweep {profile[shift]} "
                f"!= scalar {scalar}"
            )
    bound = worst_bound(algorithm, n, k)
    if bound is not None and max(values) > bound:
        problems.append(
            f"{algorithm} n={n}: worst TTR {max(values)} above bound {bound}"
        )
    if problems:
        return None, problems
    return [max(values), list(astuple(summarize_ttrs(values))), 0], []


def compare(answer, expected, label: str) -> list[str]:
    """Problems with one operation's answer (an exception is one)."""
    if isinstance(answer, str):
        return [f"{label} raised {answer}"]
    if expected is None:
        return [f"{label}: no oracle-checked reference"]
    if answer != expected:
        return [f"{label}: got {answer}, expected {expected}"]
    return []


def _guarded(fn, *args):
    """Run one program call at the benchmark's boundary: an exception is
    recorded as that operation's answer, and the run goes on."""
    try:
        return answer_of(fn(*args))
    except Exception as exc:  # the failure is counted, not fatal
        return f"{type(exc).__name__}: {exc}"


def warm_with_children(
    outcome: Outcome, children: int, child, step, min_samples: int = 1,
    seconds: float | None = None,
) -> list[float]:
    """Warm steps for ``seconds`` (default ``outcome.seconds``) with
    ``children`` fresh-interpreter samples (``child()``) spread evenly
    through them.

    Spreading the child samples over the run puts cold and warm samples
    in the same time window, so a slow spell on the machine shifts both
    instead of a few clustered samples.
    """
    seconds = outcome.seconds if seconds is None else seconds
    warm: list[float] = []
    for i in range(children):
        child()
        last = i == children - 1
        warm += timed_loop(
            seconds / children, min_samples - len(warm) if last else 0, step
        )
    return warm


def traced_halves(outcome: Outcome, step, traced_step) -> tuple[list, list]:
    """Half the run untraced, half traced with the program's telemetry on."""
    from repro.core import telemetry

    untraced = timed_loop(outcome.seconds / 2, 1, step)
    telemetry.enable()
    try:
        traced = timed_loop(outcome.seconds / 2, 1, traced_step)
    finally:
        telemetry.disable()
    return untraced, traced


def overhead(untraced: list[float], traced: list[float]) -> float:
    return statistics.median(traced) / statistics.median(untraced) - 1


def fold_self_times(outcome: Outcome, ops: int) -> None:
    """Per-operation self time of every reported layer."""
    for layer in SELF_TIME_LAYERS:
        outcome.layers[f"{layer}.self_s"] = (
            outcome.tracer.self_time.get(layer, 0.0) / ops
        )


def fold_engine_spans(outcome: Outcome, ops: int) -> None:
    """Per-operation batch/stream phase totals from the program's spans."""
    t = outcome.tracer
    for prefix, phases in (
        ("batch", (("assemble_s", "assemble"), ("compare_s", "compare"),
                   ("retire_s", "retire"))),
        ("stream", (("tile_assembly_s", "tile_assembly"),
                    ("compare_s", "compare"), ("retire_s", "retire"))),
    ):
        for metric, span in phases:
            outcome.layers[f"{prefix}.{metric}"] = t.total(f"{prefix}.{span}") / ops
    outcome.layers["batch.assemble_bytes"] = t.bytes.get("batch.assemble", 0) / ops
    outcome.layers["stream.tile_bytes"] = (
        t.bytes.get("stream.tile_assembly", 0) / ops
    )


# -- table1_grid and jumpstay_large ------------------------------------


@dataclass(frozen=True)
class Cell:
    """One pair of agents swept by the runner: instance agents 0 and 1."""

    algorithm: str
    instance: object  # repro.sim.workloads.Instance
    k: int  # both channel sets have k channels
    rows: int  # shift plan: dense prefix and probes, each

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def label(self) -> str:
        seed = self.instance.metadata["seed"]
        return f"{self.algorithm} n={self.n} seed={seed}"


class PairSweeps:
    """Cells swept through one default ``SweepRunner``, pass after pass.

    ``via_instance`` sends each cell through ``measure_instance`` (the
    ``sweep`` path); otherwise through ``measure_pair``.
    """

    def __init__(self, cells: list[Cell], via_instance: bool):
        from repro.sim.runner import SweepRunner

        self.cells = cells
        self.via_instance = via_instance
        self.span_name = (
            "runner.measure_instance" if via_instance else "runner.measure_pair"
        )
        self.runner = SweepRunner()
        self.cell_times: list[float] = []

    def measure(self, cell: Cell):
        if self.via_instance:
            return self.runner.measure_instance(
                cell.instance, cell.algorithm, HORIZON,
                dense=cell.rows, probes=cell.rows,
            )[0]
        return self.runner.measure_pair(
            cell.instance, cell.algorithm, (0, 1), HORIZON,
            dense=cell.rows, probes=cell.rows,
        )

    def sweep_pass(self, tracer: Tracer | None = None) -> list:
        answers = []
        for cell in self.cells:
            if tracer is not None:
                with tracer.span(self.span_name, program=True):
                    answers.append(_guarded(self.measure, cell))
                continue
            start = time.perf_counter()
            answers.append(_guarded(self.measure, cell))
            self.cell_times.append(time.perf_counter() - start)
        return answers

    @staticmethod
    def schedules_and_plan(runner, cell: Cell):
        from repro.sim.runner import shift_plan

        a, b = (
            runner.schedule_for(channels, cell.n, cell.algorithm, agent)
            for agent, channels in enumerate(cell.instance.sets[:2])
        )
        return a, b, shift_plan(a, b, dense=cell.rows, probes=cell.rows)

    def probe(self, outcome: Outcome) -> None:
        """Layers timed or read around public calls outside the passes:
        shift planning per pass, engine dispatch counts, stream lanes and
        the largest tile plan over the stream cells' sign groups."""
        import math

        from repro.core.batch import choose_engine
        from repro.core.environment import effective_horizon
        from repro.core.stream import plan_tiles, reduce_shifts
        from repro.sim.runner import shift_plan

        lanes = self.runner.worker_budget(1)[1]
        counts = dict.fromkeys(("scalar", "batched", "stream"), 0)
        plans = []
        t = outcome.tracer
        for cell in self.cells:
            a, b, plan = self.schedules_and_plan(self.runner, cell)
            for _ in range(PROBE_REPEATS):
                with t.span("runner.shift_plan"):
                    shift_plan(a, b, dense=cell.rows, probes=cell.rows)
            engine = choose_engine(a, b, len(plan))
            counts[engine] += 1
            if engine != "stream":
                continue
            unique, _ = reduce_shifts(a, b, plan)
            horizon = effective_horizon(HORIZON, math.lcm(a.period, b.period), None)
            negative = int((unique[:, 1] != 0).sum())
            plans += [
                plan_tiles(rows, horizon, workers=lanes)
                for rows in (len(unique) - negative, negative) if rows
            ]
        outcome.layers["runner.shift_plan_s"] = (
            t.total("runner.shift_plan") / PROBE_REPEATS
        )
        outcome.layers["runner.stream_lanes"] = lanes
        for engine, count in counts.items():
            outcome.layers[f"batch.dispatch.{engine}"] = count
        for name in ("tile_bytes", "block_rows", "workers"):
            outcome.layers[f"stream.plan.{name}"] = max(
                (getattr(p, name) for p in plans), default=0
            )

    def references(self, seed: int, oracle_shifts: int) -> tuple[list, list[str]]:
        """Oracle-checked answers, from schedules a fresh runner rebuilds."""
        from repro.sim.runner import SweepRunner

        fresh = SweepRunner(workers=1)
        rng = random.Random(seed)
        refs, problems = [], []
        for cell in self.cells:
            a, b, plan = self.schedules_and_plan(fresh, cell)
            ref, bad = reference_answer(
                a, b, cell.algorithm, cell.n, cell.k, plan, oracle_shifts, rng
            )
            refs.append(ref)
            problems += bad
        return refs, problems

    def check(self, outcome: Outcome, passes: list[list], refs: list) -> None:
        for answers in passes:
            for cell, answer, ref in zip(self.cells, answers, refs):
                outcome.op(compare(answer, ref, cell.label))


def grid_sweeps(seed: int, size: Size) -> PairSweeps:
    """30 Table-1 cells: five algorithms x three universes x two seeds,
    with the sweep CLI's default shift plan."""
    from repro.sim import workloads

    return PairSweeps(
        [
            Cell(alg, workloads.single_overlap(n, 3, 3, seed=s), 3, 64)
            for alg in ALGORITHMS
            for n in size.grid_ns
            for s in (seed, seed + 1)
        ],
        via_instance=True,
    )


def large_sweeps(seed: int, size: Size) -> PairSweeps:
    """Jump-Stay pairs whose periods exceed the batched engine's table."""
    from repro.sim import workloads

    k = size.large_k
    return PairSweeps(
        [
            Cell("jump-stay", workloads.single_overlap(n, k, k, seed=seed + i), k,
                 size.large_rows)
            for i, n in enumerate(size.large_ns)
        ],
        via_instance=False,
    )


def cold_child(outcome: Outcome, passes: list):
    """A fresh-interpreter child: one set-up and one cold operation."""

    def child():
        out = run_child("cold", outcome.workload, outcome.seed, outcome.size)
        outcome.sample("setup_s", out["setup_s"])
        outcome.sample("cold_s", out["cold_s"])
        passes.append(out["answers"])

    return child


def run_pair_sweeps(outcome: Outcome, size: Size) -> None:
    grid = outcome.workload == "table1_grid"
    sweeps = (grid_sweeps if grid else large_sweeps)(outcome.seed, size)
    passes: list[list] = []
    step = lambda: passes.append(sweeps.sweep_pass())  # noqa: E731
    if outcome.trace:
        if grid:
            _grid_builds(outcome)
        step()  # the cold pass, untimed
        untraced, traced = traced_halves(
            outcome, step, lambda: passes.append(sweeps.sweep_pass(outcome.tracer))
        )
        t = outcome.tracer
        outcome.layers["runner.measure_s"] = (
            t.total(sweeps.span_name) / t.calls[sweeps.span_name]
        )
        fold_engine_spans(outcome, len(traced))
        fold_self_times(outcome, len(traced))
        outcome.layers["trace.overhead_frac"] = overhead(untraced, traced)
        sweeps.probe(outcome)
    elif grid:
        # The grid's cold pass is this fresh interpreter's first pass: a
        # child would have to build the DRDS sequences (~15 s) twice.
        start = time.perf_counter()
        step()
        outcome.sample("cold_s", time.perf_counter() - start)
        # Untimed: the first passes after the cold pass were measured to
        # differ from the steady state that warm_p50_s reports.
        for _ in range(size.grid_warmup_passes):
            step()

        def setup_child():
            child = run_child("setup", outcome.workload, outcome.seed, outcome.size)
            outcome.sample("setup_s", child["setup_s"])

        # Twice the run length: the grid's short warm passes swing most
        # with the machine's slow spells, which last ten seconds or more.
        warm = warm_with_children(
            outcome, size.setup_children, setup_child, step,
            size.grid_min_passes, GRID_WARM_FACTOR * outcome.seconds,
        )
        outcome.samples["warm_p50_s"] = warm
        outcome.report["grid_cold_s"] = (outcome.metric("cold_s"), "s", 1)
        outcome.report["grid_warm_p50_s"] = (statistics.median(warm), "s", len(warm))
        if p90(warm) is not None:
            outcome.report["grid_warm_p90_s"] = (p90(warm), "s", len(warm))
    else:
        step()  # warm the runner, untimed
        sweeps.cell_times.clear()
        warm = warm_with_children(
            outcome, size.large_cold_children, cold_child(outcome, passes), step
        )
        outcome.samples["warm_p50_s"] = warm
        pairs = sweeps.cell_times
        outcome.report["large_pair_p50_s"] = (statistics.median(pairs), "s", len(pairs))
        rows = sum(2 * cell.rows for cell in sweeps.cells)
        outcome.report["large_rows_per_s"] = (
            rows * len(warm) / sum(warm), "1/s", len(warm)
        )
    refs, problems = sweeps.references(outcome.seed, size.oracle_shifts)
    for problem in problems:
        outcome.op(problem, "oracle")
    sweeps.check(outcome, passes, refs)


def _grid_builds(outcome: Outcome) -> None:
    """``baselines.*``: schedule construction per algorithm, fresh process."""
    for alg in ALGORITHMS:
        timings = run_child(f"build:{alg}", outcome.workload, outcome.seed, outcome.size)
        outcome.layers[f"baselines.build_s.{alg}"] = timings["build_s"]
        for n, seconds in timings.get("drds_global_s", {}).items():
            outcome.layers[f"baselines.drds_global_s.{n}"] = seconds


def child_build(algorithm: str, seed: int, size: Size) -> dict:
    """Time ``repro.build_schedule`` for every grid agent of one algorithm.

    For DRDS the global sequences are built (and timed) first, so
    ``build_s`` is the per-set projection cost on top of them.
    """
    import repro

    out: dict = {}
    if algorithm == "drds":
        from repro.baselines.drds import build_global_sequence

        out["drds_global_s"] = {}
        for n in size.grid_ns:
            start = time.perf_counter()
            build_global_sequence(n)
            out["drds_global_s"][str(n)] = time.perf_counter() - start
    cells = [c for c in grid_sweeps(seed, size).cells if c.algorithm == algorithm]
    start = time.perf_counter()
    for cell in cells:
        for channels in cell.instance.sets:
            repro.build_schedule(channels, cell.n, algorithm)
    out["build_s"] = time.perf_counter() - start
    return out


# -- serve_mix ----------------------------------------------------------


@dataclass(frozen=True)
class Query:
    algorithm: str
    a: tuple[int, ...]
    b: tuple[int, ...]


class ServeMix:
    """One closed-loop client issuing ``python -m repro serve`` queries.

    The pool holds ``serve_pairs_per_algorithm`` single-overlap pairs per
    algorithm, interleaved by algorithm so every prefix of new queries
    is balanced.  The plan issues each pool query once (a planned miss)
    next to a repeat of a query already issued (a planned cache hit), in
    seeded order, so every prefix is half hits to within one query.
    """

    def __init__(self, seed: int, size: Size, workdir: Path):
        from repro.sim import workloads

        self.n = size.serve_n
        rng = random.Random(seed)
        self.pool = []
        for p in range(size.serve_pairs_per_algorithm):
            for alg in ALGORITHMS:
                k, l = rng.randint(2, 4), rng.randint(2, 4)
                inst = workloads.single_overlap(
                    self.n, k, l, seed=rng.randrange(1 << 30)
                )
                self.pool.append(
                    Query(alg, tuple(sorted(inst.sets[0])), tuple(sorted(inst.sets[1])))
                )
        self.plan: list[tuple[Query, str]] = []
        for i, query in enumerate(self.pool):
            new_first = i == 0 or rng.random() < 0.5
            issued = self.pool[: i + 1] if new_first else self.pool[:i]
            repeat = (rng.choice(issued), "cache hit")
            new = (query, "computed")
            self.plan += [new, repeat] if new_first else [repeat, new]
        self.workdir = workdir
        self.store_dir = workdir / "store"
        self.results_dir = workdir / "results"

    def agents(self, algorithm: str) -> list[tuple[int, ...]]:
        return [s for q in self.pool if q.algorithm == algorithm for s in (q.a, q.b)]

    def prewarm_cli(self) -> float:
        """Fresh store, warmed with ``repro store prewarm`` per algorithm."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        start = time.perf_counter()
        for alg in ALGORITHMS:
            agents = "/".join(",".join(map(str, s)) for s in self.agents(alg))
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "store", "prewarm",
                    "--agents", agents, "--universe", str(self.n),
                    "--algorithm", alg, "--store-dir", str(self.store_dir),
                ],
                check=True, capture_output=True, cwd=ROOT, env=child_env(),
                timeout=CHILD_TIMEOUT_S,
            )
        return time.perf_counter() - start

    def prewarm_api(self) -> tuple[float, dict]:
        """The same prewarm in-process, for the store layer's counters."""
        from repro.core.store import ScheduleStore
        from repro.sim.runner import SweepRunner
        from repro.sim.workloads import Instance

        shutil.rmtree(self.store_dir, ignore_errors=True)
        store = ScheduleStore(self.store_dir)
        runner = SweepRunner(workers=1, store=store)
        start = time.perf_counter()
        for alg in ALGORITHMS:
            sets = [frozenset(s) for s in self.agents(alg)]
            runner.prewarm(
                Instance(self.n, sets, "serve"), alg, agents=list(range(len(sets)))
            )
        return time.perf_counter() - start, store.stats()

    def query(self, query: Query, telemetry: bool) -> dict:
        """One serve process; returns its JSON answer plus wall time."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--a", ",".join(map(str, query.a)), "--b", ",".join(map(str, query.b)),
            "--universe", str(self.n), "--algorithm", query.algorithm, "--json",
            "--results-dir", str(self.results_dir),
            "--store-dir", str(self.store_dir),
        ]
        if telemetry:
            cmd += ["--telemetry", "json"]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        out = {"wall": wall, "exit": proc.returncode, "stderr": proc.stderr[-500:]}
        if proc.returncode == 0 and lines:
            out.update(json.loads(lines[0]))
            if telemetry and len(lines) > 1:
                out["telemetry"] = json.loads(lines[-1])["telemetry"]
        return out

    def references(self, queries: list[Query]) -> dict[Query, int]:
        """Worst TTR of every issued query, computed in-process."""
        from repro.sim.runner import SweepRunner
        from repro.sim.workloads import Instance

        runner = SweepRunner(workers=1, store=self.store_dir)
        refs = {}
        for query in queries:
            if query not in refs:
                instance = Instance(
                    self.n, [frozenset(query.a), frozenset(query.b)], "serve"
                )
                refs[query] = runner.measure_pair(
                    instance, query.algorithm, (0, 1), HORIZON
                ).worst_ttr
        return refs


def check_serve(outcome: Outcome, done: list[tuple[Query, str, dict]], refs: dict) -> None:
    """A query fails on a non-zero exit, a wrong worst TTR or a source
    other than the planned one (a cache answer that drifted)."""
    for query, planned, answer in done:
        label = f"serve {query.algorithm} {query.a}/{query.b}"
        if answer["exit"] != 0:
            outcome.op(f"exit {answer['exit']}: {answer['stderr']}", label)
            continue
        problems = []
        if answer["worst_ttr"] != refs.get(query):
            problems.append(f"worst TTR {answer['worst_ttr']} != {refs.get(query)}")
        if answer["source"] != planned:
            problems.append(f"source {answer['source']!r}, planned {planned!r}")
        outcome.op(problems, label)


def run_serve_mix(outcome: Outcome, size: Size) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch_dir()))
    try:
        _serve(outcome, size, ServeMix(outcome.seed, size, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _serve(outcome: Outcome, size: Size, mix: ServeMix) -> None:
    if outcome.trace:
        imports = []
        for _ in range(size.setup_children):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"], check=True,
                cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
            )
            imports.append(time.perf_counter() - start)
        outcome.layers["cli.import_s"] = statistics.median(imports)
        prewarm_s, stats = mix.prewarm_api()
        outcome.layers["store.prewarm_s"] = prewarm_s
        for counter in ("builds", "global_builds", "attaches"):
            outcome.layers[f"store.{counter}"] = stats[counter]
    else:
        outcome.sample("setup_s", mix.prewarm_cli())
    done: list[tuple[Query, str, dict]] = []
    plan = iter(mix.plan)

    def step(traced: bool):
        item = next(plan, None)
        if item is None:
            return False
        query, planned = item
        if not traced:
            done.append((query, planned, mix.query(query, False)))
            return None
        with outcome.tracer.span("cli.serve") as slot:
            answer = mix.query(query, True)
            slot["snapshot"] = answer.get("telemetry")
        done.append((query, planned, answer))
        return None

    if outcome.trace:
        timed_loop(outcome.seconds / 2, 1, lambda: step(False))
        untraced_done = len(done)
        timed_loop(outcome.seconds / 2, 1, lambda: step(True))
        hits = [[a["wall"] for _, _, a in part if a.get("source") == "cache hit"]
                for part in (done[:untraced_done], done[untraced_done:])]
        if all(hits):
            outcome.layers["trace.overhead_frac"] = overhead(hits[0], hits[1])
        ok = [a for _, _, a in done if a["exit"] == 0]
        outcome.layers["cli.process_overhead_s"] = statistics.median(
            a["wall"] - a["latency_seconds"] for a in ok
        )
        for source, metric in (("cache hit", "hit"), ("computed", "miss")):
            latencies = [a["latency_seconds"] for a in ok if a["source"] == source]
            if latencies:
                outcome.layers[f"results.{metric}_latency_s"] = statistics.median(latencies)
        for counter in ("hits", "misses", "writes"):
            outcome.layers[f"results.{counter}"] = sum(a["cache"][counter] for a in ok)
        lookups = outcome.layers["results.hits"] + outcome.layers["results.misses"]
        outcome.layers["results.hit_ratio"] = outcome.layers["results.hits"] / lookups
        fold_self_times(outcome, len(done) - untraced_done)
    else:
        first_hit = [planned for _, planned in mix.plan].index("cache hit")
        timed_loop(outcome.seconds, first_hit + 1, lambda: step(False))
        for _, planned, answer in done:
            if answer["exit"] == 0:
                key = "warm_p50_s" if planned == "cache hit" else "cold_s"
                outcome.sample(key, answer["wall"])
        walls = [a["wall"] for _, _, a in done]
        outcome.report["serve_hit_p50_s"] = (
            outcome.metric("warm_p50_s"), "s", len(outcome.samples["warm_p50_s"])
        )
        outcome.report["serve_miss_p50_s"] = (
            outcome.metric("cold_s"), "s", len(outcome.samples["cold_s"])
        )
        if p90(walls) is not None:
            outcome.report["serve_p90_s"] = (p90(walls), "s", len(walls))
    planned_hits = sum(planned == "cache hit" for _, planned, _ in done)
    outcome.report["serve_planned_hit_share"] = (planned_hits / len(done), "ratio", len(done))
    check_serve(outcome, done, mix.references([query for query, _, _ in done]))


# -- netsim_10k ---------------------------------------------------------


class Discovery:
    """Seeded random-subset population stepped to full discovery."""

    UNIVERSE, K, WAKE_SPREAD, HORIZON = 12, 3, 8, 500_000

    def __init__(self, seed: int, size: Size):
        import repro
        from repro.sim import workloads
        from repro.sim.agent import Agent

        instance = workloads.random_subsets(
            self.UNIVERSE, self.K, size.netsim_agents, seed=seed
        )
        rng = random.Random(seed)
        schedules = {}
        self.agents = []
        for i, channels in enumerate(instance.sets):
            if channels not in schedules:
                schedules[channels] = repro.build_schedule(channels, self.UNIVERSE, "paper")
            self.agents.append(
                Agent(f"agent{i}", schedules[channels], rng.randrange(self.WAKE_SPREAD))
            )
        self.size = size
        self.population = self.build_population()

    def build_population(self):
        from repro.sim.netcore import Population

        return Population.from_agents(self.agents)

    def discover(self) -> list:
        from repro.sim.netcore import simulate_population

        net = simulate_population(self.population, self.HORIZON)
        return [net.all_discovered(), net.discovery_time(), net.met_pairs(),
                net.overlapping_pairs, net.slots_simulated]

    def parity_problems(self) -> list[str]:
        """A subsample must give identical events under both engines."""
        from repro.sim.network import Network

        sample = Network(self.agents[: self.size.netsim_parity_agents])
        reference = sample.run(self.HORIZON, engine="pairwise")
        candidate = sample.run(self.HORIZON, engine="vectorized")
        if candidate.events != reference.events:
            return ["vectorized events differ from the pairwise reference"]
        if reference.unmet_pairs():
            return [f"{len(reference.unmet_pairs())} overlapping pairs never met"]
        return []


def check_discovery(outcome: Outcome, passes: list, expected) -> None:
    for answer in passes:
        problems = compare(answer, expected, "discovery pass")
        if not isinstance(answer, str) and not answer[0]:
            problems.append("not every overlapping pair met")
        outcome.op(problems, "netsim")


def run_netsim_10k(outcome: Outcome, size: Size) -> None:
    passes: list = []
    sim = Discovery(outcome.seed, size)
    expected = sim.discover()  # warm-up pass; checked against its invariants
    passes.append(expected)
    step = lambda: passes.append(sim.discover())  # noqa: E731
    if outcome.trace:
        builds = []
        for _ in range(size.setup_children):
            start = time.perf_counter()
            sim.build_population()
            builds.append(time.perf_counter() - start)
        outcome.layers["netcore.population_s"] = statistics.median(builds)
        outcome.layers["netcore.cohorts"] = sim.population.num_cohorts

        def traced_step():
            with outcome.tracer.span("netcore.simulate_population", program=True):
                step()

        untraced, traced = traced_halves(outcome, step, traced_step)
        ops = len(traced)
        t = outcome.tracer
        outcome.layers["netcore.assemble_s"] = t.total("netsim.assemble") / ops
        outcome.layers["netcore.scan_s"] = t.total("netsim.scan") / ops
        outcome.layers["netcore.gather_calls"] = t.counters["netsim.gather_calls"] / ops
        outcome.layers["netcore.slots_simulated"] = expected[4]
        fold_self_times(outcome, ops)
        outcome.layers["trace.overhead_frac"] = overhead(untraced, traced)
    else:
        warm = warm_with_children(
            outcome, size.netsim_cold_children, cold_child(outcome, passes), step
        )
        outcome.samples["warm_p50_s"] = warm
        outcome.report["netsim_p50_s"] = (statistics.median(warm), "s", len(warm))
    for problem in sim.parity_problems():
        outcome.op(problem, "netsim parity")
    check_discovery(outcome, passes, expected)


# -- children and dispatch ----------------------------------------------


def child_main(mode: str, workload: str, seed: int, size_name: str, launched: float) -> dict:
    """Body of a fresh child interpreter (see :func:`run_child`): a
    ``setup`` or a ``cold`` sample, or the ``build:<algorithm>`` timings."""
    size = SIZES[size_name]
    if mode.startswith("build:"):
        return child_build(mode.split(":", 1)[1], seed, size)
    if workload == "netsim_10k":
        step = Discovery(seed, size).discover
    else:
        sweeps = (grid_sweeps if workload == "table1_grid" else large_sweeps)(seed, size)
        step = sweeps.sweep_pass
    out = {"setup_s": time.perf_counter() - launched}
    if mode == "cold":
        start = time.perf_counter()
        out["answers"] = step()
        out["cold_s"] = time.perf_counter() - start
    return out


RUNNERS = {
    "table1_grid": run_pair_sweeps,
    "jumpstay_large": run_pair_sweeps,
    "serve_mix": run_serve_mix,
    "netsim_10k": run_netsim_10k,
}


def scratch_dir() -> Path:
    """Run-local scratch space inside the checkout."""
    path = ROOT / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> Outcome:
    outcome = Outcome(workload, seed, seconds, trace, size)
    RUNNERS[workload](outcome, SIZES[size])
    if not trace:
        outcome.samples["peak_rss_mib"] = [peak_rss_mib()]
    return outcome


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(outcome: Outcome) -> dict:
    """Machine and revision fingerprint recorded with every result."""
    import numpy

    from repro.core.stream import cache_sizes

    l2, l3 = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cache_sizes": {"l2": l2, "l3": l3},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "revision": git_revision(),
        "seed": outcome.seed,
        "seconds": outcome.seconds,
        "size": outcome.size,
        "samples": {name: len(values) for name, values in outcome.samples.items()},
    }
